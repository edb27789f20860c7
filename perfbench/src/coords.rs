//! What each workload simulates: kernels, datasets, policies and
//! hierarchies, and the key under which each coordinate's reference counts
//! are stored.

use cache_model::{CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::KernelSpec;
use polybench::{parametric::TILED_GEMM, Dataset, Kernel};

/// exact-polybench: seven SMALL kernels on `l1l2l3` LRU.
pub const EXACT_KERNELS: [Kernel; 7] = [
    Kernel::Gemm,
    Kernel::Cholesky,
    Kernel::Fdtd2d,
    Kernel::Deriche,
    Kernel::Jacobi2d,
    Kernel::Heat3d,
    Kernel::Seidel2d,
];

/// warp-stencil: the warping requests, all on `l1`.
pub const STENCIL_RUNS: [(Kernel, ReplacementPolicy); 4] = [
    (Kernel::Heat3d, ReplacementPolicy::Lru),
    (Kernel::Seidel2d, ReplacementPolicy::Lru),
    (Kernel::Jacobi2d, ReplacementPolicy::Lru),
    (Kernel::Heat3d, ReplacementPolicy::Qlru),
];

/// warp-stencil's problem size.  MEDIUM rather than LARGE: the warping
/// work is the same, and the reference counts cost minutes, not hours.
pub const STENCIL_DATASET: Dataset = Dataset::Medium;

/// warp-stencil's per-access baseline for classic, trace and sampled: one
/// of its kernels at SMALL, the cheapest of the four there (~0.8 s for the
/// three backends), so that most of each round goes to warping.
pub const BASELINE: Coord = Coord {
    subject: Subject::PolyBench(Kernel::Jacobi2d, Dataset::Small),
    policy: ReplacementPolicy::Lru,
    hierarchy: Hierarchy::L1,
};

pub const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Plru,
    ReplacementPolicy::Qlru,
];

pub const BACKENDS: [&str; 4] = ["classic", "warping", "trace", "sampled"];

/// The tiled-gemm family's name on the wire.
pub const FAMILY_NAME: &str = "tiled-gemm";
pub const FAMILY_CODE: &str = TILED_GEMM;
pub const FAMILY_PARAMS: [&str; 5] = ["NI", "NJ", "NK", "TI", "TJ"];

/// The family bindings serve-mix draws from (`NI, NJ, NK, TI, TJ`).  The
/// first eight fit in the 32 KiB L1, so every policy gives them the same
/// counts; the last four (37.5 KiB of arrays) do not, and each policy gives
/// them different L1 counts, so a reply carrying another policy's report
/// fails the check.
pub const FAMILY_BINDINGS: [[i64; 5]; 12] = [
    [16, 16, 16, 4, 4],
    [16, 16, 16, 4, 8],
    [16, 16, 16, 8, 4],
    [16, 16, 16, 8, 8],
    [32, 32, 24, 4, 4],
    [32, 32, 24, 4, 8],
    [32, 32, 24, 8, 4],
    [32, 32, 24, 8, 8],
    [40, 40, 40, 8, 8],
    [40, 40, 40, 8, 16],
    [40, 40, 40, 16, 8],
    [40, 40, 40, 16, 16],
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hierarchy {
    L1,
    L1L2,
    L1L2L3,
}

pub const HIERARCHIES: [Hierarchy; 3] = [Hierarchy::L1, Hierarchy::L1L2, Hierarchy::L1L2L3];

impl Hierarchy {
    pub fn name(self) -> &'static str {
        match self {
            Hierarchy::L1 => "l1",
            Hierarchy::L1L2 => "l1l2",
            Hierarchy::L1L2L3 => "l1l2l3",
        }
    }

    /// The `harness --levels` preset of the same name, every level under
    /// `policy`: 32 KiB 8-way L1, 1 MiB 16-way L2, 8 MiB 16-way L3, 64 B
    /// lines.
    pub fn memory(self, policy: ReplacementPolicy) -> MemoryConfig {
        let geometry: &[(u64, usize)] = match self {
            Hierarchy::L1 => &[(32 << 10, 8)],
            Hierarchy::L1L2 => &[(32 << 10, 8), (1 << 20, 16)],
            Hierarchy::L1L2L3 => &[(32 << 10, 8), (1 << 20, 16), (8 << 20, 16)],
        };
        let levels = geometry
            .iter()
            .map(|&(size, assoc)| CacheConfig::new(size, assoc, 64, policy))
            .collect();
        MemoryConfig::new(levels).expect("the presets are valid hierarchies")
    }
}

pub fn policy_name(policy: ReplacementPolicy) -> &'static str {
    match policy {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::Fifo => "fifo",
        ReplacementPolicy::Plru => "plru",
        ReplacementPolicy::Qlru => "qlru",
    }
}

/// What is simulated: a PolyBench kernel at a dataset, or one binding of
/// the tiled-gemm family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Subject {
    PolyBench(Kernel, Dataset),
    Family(usize),
}

/// One point whose exact counts are committed: subject × policy ×
/// hierarchy.  Every backend of one coordinate must agree with them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Coord {
    pub subject: Subject,
    pub policy: ReplacementPolicy,
    pub hierarchy: Hierarchy,
}

impl Coord {
    pub fn key(&self) -> String {
        let subject = match self.subject {
            Subject::PolyBench(kernel, dataset) => format!("{}@{}", kernel.name(), dataset.name()),
            Subject::Family(index) => {
                let b = FAMILY_BINDINGS[index];
                format!(
                    "{FAMILY_NAME}[NI={},NJ={},NK={},TI={},TJ={}]",
                    b[0], b[1], b[2], b[3], b[4]
                )
            }
        };
        format!(
            "{subject}/{}/{}",
            policy_name(self.policy),
            self.hierarchy.name()
        )
    }

    pub fn kernel(&self) -> KernelSpec {
        match self.subject {
            Subject::PolyBench(kernel, dataset) => KernelSpec::polybench(kernel, dataset),
            Subject::Family(index) => family_kernel(index),
        }
    }

    pub fn memory(&self) -> MemoryConfig {
        self.hierarchy.memory(self.policy)
    }
}

pub fn family_bindings(index: usize) -> Vec<(&'static str, i64)> {
    FAMILY_PARAMS
        .iter()
        .copied()
        .zip(FAMILY_BINDINGS[index])
        .collect()
}

pub fn family_kernel(index: usize) -> KernelSpec {
    KernelSpec::parametric(FAMILY_NAME, FAMILY_CODE, family_bindings(index))
}

pub fn exact_polybench_coords() -> Vec<Coord> {
    EXACT_KERNELS
        .iter()
        .map(|&kernel| Coord {
            subject: Subject::PolyBench(kernel, Dataset::Small),
            policy: ReplacementPolicy::Lru,
            hierarchy: Hierarchy::L1L2L3,
        })
        .collect()
}

/// warp-stencil's warping coordinates.
pub fn stencil_coords() -> Vec<Coord> {
    STENCIL_RUNS
        .iter()
        .map(|&(kernel, policy)| Coord {
            subject: Subject::PolyBench(kernel, STENCIL_DATASET),
            policy,
            hierarchy: Hierarchy::L1,
        })
        .collect()
}

/// Every coordinate serve-mix can draw: MINI kernels and family bindings,
/// each under every policy and hierarchy.
pub fn serve_mix_coords() -> Vec<Coord> {
    let subjects = Kernel::ALL
        .iter()
        .map(|&kernel| Subject::PolyBench(kernel, Dataset::Mini))
        .chain((0..FAMILY_BINDINGS.len()).map(Subject::Family));
    let mut coords = Vec::new();
    for subject in subjects {
        for policy in POLICIES {
            for hierarchy in HIERARCHIES {
                coords.push(Coord {
                    subject,
                    policy,
                    hierarchy,
                });
            }
        }
    }
    coords
}

pub fn all_coords() -> Vec<Coord> {
    let mut coords = exact_polybench_coords();
    coords.extend(stencil_coords());
    coords.push(BASELINE);
    coords.extend(serve_mix_coords());
    coords
}
