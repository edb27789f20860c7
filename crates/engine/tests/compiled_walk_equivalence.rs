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
//! literal per-access walk of Algorithm 1 — is the oracle.  The walk's
//! loop hooks are pinned the same way: the iteration heads a visitor sees
//! are the reference walk's loop iterations, in order.

use cache_model::{AccessKind, CacheConfig, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use proptest::prelude::*;
use scop::{AccessRun, CompiledLoop, Node, WalkVisitor};
use simulate::{simulate_reference, MultiLevelSystem};
use std::time::{Duration, Instant};

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

/// Runs every simulating backend on `spec` and checks it against the
/// reference walk: the exact backends bit for bit, sampled within its
/// reported bounds.  `case` names the input in failure messages.
fn check_backends(spec: &KernelSpec, memory: &MemoryConfig, case: &str) {
    let engine = Engine::new().with_threads(1);
    let scop = spec.build().expect("kernel builds");
    let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory.clone()));
    for backend in exact_backends() {
        let request = SimRequest::new(spec.clone(), memory.clone(), backend);
        let report = engine.run(&request).expect("backend runs");
        assert_eq!(
            &report.result, &reference,
            "{case} backend={}",
            request.backend
        );
        assert_eq!(&report.levels, &reference.levels, "{case}");
    }
    let request = SimRequest::new(
        spec.clone(),
        memory.clone(),
        Backend::Sampled(engine::SamplingOptions::DEFAULT),
    );
    let sampled = engine.run(&request).expect("sampled runs");
    assert_eq!(sampled.result.accesses, reference.accesses, "{case}");
    let approx = sampled.approx.expect("sampled reports its bounds");
    for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
        let err = sampled.result.levels[level]
            .misses
            .abs_diff(reference.levels[level].misses);
        assert!(
            err <= *bound,
            "{case} level {level}: error {err} > bound {bound}"
        );
    }
}

/// Records the iteration heads the compiled walk offers, as
/// `(loop depth, iteration vector)`, keeping the points in the loop's
/// domain (a loop that did not compile exactly offers every grid point).
#[derive(Default)]
struct Heads(Vec<(usize, Vec<i64>)>);

impl WalkVisitor for Heads {
    const RUNS: bool = false;

    fn run(&mut self, _run: &AccessRun, _iv: &[i64]) {}

    fn head(&mut self, l: &CompiledLoop, iv: &[i64], _index: u64) -> u64 {
        if l.contains(iv) {
            self.0.push((l.depth, iv.to_vec()));
        }
        0
    }
}

/// The reference walk's loop iterations below `node`, in execution order:
/// Algorithm 1's enumeration (grid anchored at the lexmin, or the lexmax
/// for decreasing loops; every point checked against the domain).
fn reference_heads(node: &Node, outer: &[i64], out: &mut Vec<(usize, Vec<i64>)>) {
    let Node::Loop(l) = node else {
        return;
    };
    let (Some(lo), Some(hi)) = (l.initial(outer), l.last(outer)) else {
        return;
    };
    let d = l.depth - 1;
    let (mut v, end) = if l.stride > 0 {
        (lo[d], hi[d])
    } else {
        (hi[d], lo[d])
    };
    let mut iv = outer.to_vec();
    iv.push(v);
    while (l.stride > 0 && v <= end) || (l.stride < 0 && v >= end) {
        iv[d] = v;
        if l.domain.contains(&iv) {
            out.push((l.depth, iv.clone()));
            for child in &l.children {
                reference_heads(child, &iv, out);
            }
        }
        v += l.stride;
    }
}

#[test]
fn empty_domain_loops_match_the_reference_walk() {
    // An empty bound interval, and a loop under a constant-false guard,
    // whose domain keeps no conjunction and so compiles to dynamic bounds
    // (no PolyBench kernel reaches that path).  The non-empty nest gives
    // the backends something to count.
    let spec = KernelSpec::source(
        "empty",
        "double A[64]; double B[64];\n\
         for (i = 5; i < 3; i++) A[i] = A[i];\n\
         for (t = 0; t < 8; t++) {\n\
           if (3 > 5) for (k = 0; k < 64; k++) A[k] = B[k];\n\
           for (j = 0; j < 64; j++) B[j] = A[j] + B[j];\n\
         }",
    );
    for depth in [2, 3] {
        check_backends(
            &spec,
            &memory(depth, ReplacementPolicy::Lru),
            &format!("empty depth={depth}"),
        );
    }
    let scop = spec.build().expect("kernel builds");
    let compiled = scop::compile(&scop);
    let mut heads = Heads::default();
    compiled.walk(&mut compiled.new_scratch(), &mut heads);
    assert_eq!(heads.0.len(), 8 + 8 * 64, "the empty loop offers no head");
}

#[test]
fn capped_probe_stops_a_trillion_access_walk_at_once() {
    // ~1.5e12 accesses over a triangular nest: no closed form, so the
    // probe must walk, and it must stop as soon as the cap is passed.
    let scop = KernelSpec::source(
        "huge",
        "double A[1000000];\n\
         for (i = 0; i < 1000000; i++) for (j = 0; j <= i; j++) A[j] = A[j] + A[i];",
    )
    .build()
    .expect("kernel builds");
    let compiled = scop::compile(&scop);
    assert_eq!(compiled.static_access_count(), None);
    let start = Instant::now();
    assert!(compiled.exceeds_access_count(1000));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the probe walked far past its cap: {:?}",
        start.elapsed()
    );
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

    /// The iteration heads the compiled walk offers are the reference
    /// walk's loop iterations, in order.
    #[test]
    fn head_hook_follows_the_reference_loop_order(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
    ) {
        let scop = kernel(shape, n, step, mult).build().expect("kernel builds");
        let mut reference = Vec::new();
        for root in scop.roots() {
            reference_heads(root, &[], &mut reference);
        }
        let compiled = scop::compile(&scop);
        let mut heads = Heads::default();
        compiled.walk(&mut compiled.new_scratch(), &mut heads);
        prop_assert_eq!(heads.0, reference, "{:?} n={} step={} mult={}", shape, n, step, mult);
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
        check_backends(
            &kernel(shape, n, step, mult),
            &memory(depth, policy),
            &format!("{shape:?} n={n} step={step} mult={mult} depth={depth} policy={policy:?}"),
        );
    }
}
