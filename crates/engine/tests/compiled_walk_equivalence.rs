//! Property test for the compiled walk: lowering a kernel into
//! strength-reduced access runs must be invisible.  Across random kernel
//! shapes (negative strides, non-unit steps, if-guards, triangular nests,
//! parametric tile instances), random replacement policies and depth-2/3
//! hierarchies, the compiled walk must
//!
//!   * emit the exact access stream of the reference walk, address by
//!     address and kind by kind, and
//!   * drive every simulating backend of the engine to the counts of the
//!     reference walk: classic, warping and trace bit for bit, sampled with
//!     the same access count and every level's miss error within its
//!     reported bound.
//!
//! `simulate::simulate_reference` on a fresh `MultiLevelSystem` — the
//! literal per-access walk of Algorithm 1 — is the oracle.

use cache_model::{AccessKind, CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use proptest::prelude::*;
use simulate::{simulate_reference, MultiLevelSystem};

/// The kernel shapes under test; each is stamped out from the same small
/// parameter tuple so shrinking stays meaningful.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `for (i = 0; i < n; i += step) A[mult*i] = A[mult*i];`
    Strided,
    /// `for (i = n-1; i >= 0; i -= step) A[i] = A[i];`
    Decreasing,
    /// The strided loop with an `if (i < bound)` guard on the body.
    Guarded,
    /// `for (i ...) for (j = 0; j <= i; j++) B[j] = A[i];`
    Triangular,
    /// A tiled instance with ragged-tile guards, via the parametric path.
    Tiled,
}

const TEMPLATE: &str = "\
    param N, T;\n\
    double A[N];\n\
    double B[N];\n\
    for (ii = 0; ii < N; ii += T)\n\
        for (i = ii; i < ii + T; i++)\n\
            if (i < N) B[i] = A[i] + A[i];\n";

/// Renders one concrete kernel for a shape and its parameters.
fn kernel(shape: Shape, n: i64, step: i64, mult: i64) -> KernelSpec {
    match shape {
        Shape::Strided => KernelSpec::source(
            "strided",
            format!(
                "double A[{len}]; for (i = 0; i < {n}; i += {step}) \
                 A[{mult}*i] = A[{mult}*i];",
                len = mult * n
            ),
        ),
        Shape::Decreasing => KernelSpec::source(
            "decreasing",
            format!(
                "double A[{n}]; for (i = {last}; i >= 0; i -= {step}) A[i] = A[i];",
                last = n - 1
            ),
        ),
        Shape::Guarded => KernelSpec::source(
            "guarded",
            format!(
                "double A[{len}]; for (i = 0; i < {n}; i += {step}) \
                 if (i < {bound}) A[{mult}*i] = A[{mult}*i];",
                len = mult * n,
                bound = n / 2 + 1
            ),
        ),
        Shape::Triangular => KernelSpec::source(
            "triangular",
            format!(
                "double A[{n}]; double B[{n}]; \
                 for (i = 0; i < {n}; i += {step}) \
                 for (j = 0; j <= i; j++) B[j] = A[i];"
            ),
        ),
        Shape::Tiled => KernelSpec::parametric("tiled", TEMPLATE, [("N", n), ("T", step)]),
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::sample::select(vec![
        Shape::Strided,
        Shape::Decreasing,
        Shape::Guarded,
        Shape::Triangular,
        Shape::Tiled,
    ])
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(vec![
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ])
}

/// A depth-2 or depth-3 hierarchy, small enough that the tiny kernels
/// still miss at every level.
fn memory(depth: usize, policy: ReplacementPolicy) -> MemoryConfig {
    let mut levels = vec![
        CacheConfig::new(1024, 2, 64, policy),
        CacheConfig::new(4 * 1024, 4, 64, policy),
    ];
    if depth == 3 {
        levels.push(CacheConfig::new(16 * 1024, 8, 64, policy));
    }
    MemoryConfig::new(levels).expect("hierarchy is compatible")
}

/// The exact simulating backends (the analytical models have no walk;
/// sampled is checked against its bounds separately).
fn exact_backends() -> Vec<Backend> {
    vec![Backend::Classic, Backend::warping(), Backend::Trace]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled walk's access stream is the reference stream.
    #[test]
    fn compiled_stream_matches_reference(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
    ) {
        let scop = kernel(shape, n, step, mult).build().expect("kernel builds");
        let mut reference: Vec<(u64, AccessKind)> = Vec::new();
        let ref_count = scop::for_each_access(&scop, |access| {
            reference.push((access.address, access.kind));
        });
        let compiled = scop::compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut lowered: Vec<(u64, AccessKind)> = Vec::new();
        let low_count = compiled.for_each_access(&mut scratch, |_, address, kind| {
            lowered.push((address, kind));
        });
        prop_assert_eq!(ref_count, low_count, "{:?} n={} step={}", shape, n, step);
        prop_assert_eq!(reference, lowered, "{:?} n={} step={} mult={}", shape, n, step, mult);
    }

    /// Every backend reproduces the reference walk's counts.
    #[test]
    fn every_backend_matches_the_reference_walk(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
        depth in prop::sample::select(vec![2usize, 3]),
        policy in arb_policy(),
    ) {
        let engine = Engine::new().with_threads(1);
        let spec = kernel(shape, n, step, mult);
        let scop = spec.build().expect("kernel builds");
        let memory = memory(depth, policy);
        let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory.clone()));
        for backend in exact_backends() {
            let request = SimRequest::new(spec.clone(), memory.clone(), backend);
            let report = engine.run(&request).expect("backend runs");
            prop_assert_eq!(
                &report.result,
                &reference,
                "{:?} n={} step={} mult={} depth={} policy={:?} backend={}",
                shape, n, step, mult, depth, policy, request.backend
            );
            prop_assert_eq!(&report.levels, &reference.levels);
        }
        let request = SimRequest::new(
            spec,
            memory,
            Backend::Sampled(engine::SamplingOptions::DEFAULT),
        );
        let sampled = engine.run(&request).expect("sampled runs");
        prop_assert_eq!(sampled.result.accesses, reference.accesses);
        let approx = sampled.approx.expect("sampled reports its bounds");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = sampled.result.levels[level]
                .misses
                .abs_diff(reference.levels[level].misses);
            prop_assert!(
                err <= *bound,
                "{:?} n={} step={} mult={} depth={} policy={:?} level {}: error {} > bound {}",
                shape, n, step, mult, depth, policy, level, err, bound
            );
        }
    }
}
