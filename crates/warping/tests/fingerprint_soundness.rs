//! Property tests of the incremental fingerprint machinery.
//!
//! Three properties protect the two-phase match pipeline:
//!
//! 1. **Incrementality** — after *any* interleaving of accesses and warp
//!    applications, the dirty-set-tracked rolling fingerprint of a
//!    [`SymLevel`] equals a from-scratch rebuild over the raw cache state,
//!    its label moments equal a rebuild too, and the occupied-set list
//!    matches the state's actual occupancy.
//! 2. **Soundness** — equal canonical keys imply equal match fingerprints,
//!    over cache shapes, policies, hierarchy depths and warped dimensions,
//!    before and after warps: the fingerprint may only dismiss states the
//!    exact key would reject.
//! 3. **Filter neutrality** — fingerprint-filtered matching produces
//!    bit-identical per-level statistics to the exhaustive
//!    key-per-attempt pipeline on random kernels, geometries and policies
//!    (warp opportunities may be found at slightly different iterations;
//!    the counts never change).

use cache_model::{AccessKind, CacheConfig, MemBlock, MemoryConfig, ReplacementPolicy};
use polyhedra::Aff;
use proptest::prelude::*;
use scop::parse_scop;
use simulate::simulate_memory;
use std::collections::{HashMap, HashSet};
use warping::fingerprint::{match_fingerprint, rebuild_level_fingerprint};
use warping::{CanonicalKey, SymLevel, WarpingOptions, WarpingSimulator};

const NUM_NODES: usize = 3;
const LINE_SIZE: u64 = 8;

/// Per-node affine address functions over one iterator, all with the same
/// coefficient (`LINE_SIZE` per iteration), so that every warp shifts every
/// cached line uniformly — the precondition `apply_warp` debug-asserts.
fn addresses() -> Vec<Aff> {
    (0..NUM_NODES)
        .map(|n| {
            Aff::var(1, 0)
                .scale(LINE_SIZE as i64)
                .offset((n * 4096) as i64 * 8)
        })
        .collect()
}

/// One step of a random symbolic-level history: an access (node, iteration,
/// kind) or a warp (period, chunks).
#[derive(Clone, Copy, Debug)]
enum Step {
    Access { node: usize, iter: i64, write: bool },
    Warp { period: i64, chunks: i64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u64..10,
        0usize..NUM_NODES,
        0i64..64,
        prop::bool::ANY,
        1i64..4,
        1i64..5,
    )
        .prop_map(|(kind, node, iter, write, period, chunks)| {
            if kind < 7 {
                Step::Access { node, iter, write }
            } else {
                Step::Warp { period, chunks }
            }
        })
}

/// Per-node affine address functions over two iterators, moving by
/// `warped_coeff` bytes per unit of dimension `dim` and by `LINE_SIZE`
/// per unit of the other, so a warp on `dim` shifts every cached line
/// uniformly.
fn two_dim_addresses(dim: usize, warped_coeff: i64) -> Vec<Aff> {
    (0..NUM_NODES)
        .map(|n| {
            Aff::var(2, dim)
                .scale(warped_coeff)
                .add(&Aff::var(2, 1 - dim).scale(LINE_SIZE as i64))
                .offset((n * 4096) as i64 * 8)
        })
        .collect()
}

/// One access to an inclusive hierarchy: each level is consulted only
/// when the previous one missed, as in the simulator's walk.
fn access(levels: &mut [SymLevel], block: MemBlock, kind: AccessKind, node: usize, iter: &[i64]) {
    for level in levels {
        if level.access(block, kind, node, iter) {
            break;
        }
    }
}

/// The exact key and the match fingerprint of a hierarchy for an attempt
/// at loop depth `depth` whose iterator stands at `v`, normalised by the
/// level epochs as the simulator does.
fn key_and_fingerprint(
    levels: &mut [SymLevel],
    descendants: &HashSet<usize>,
    depth: usize,
    v: i64,
) -> (CanonicalKey, u64) {
    let normalizers: Vec<i64> = levels
        .iter()
        .map(|l| l.epoch_at(depth - 1).unwrap_or(v))
        .collect();
    let key = CanonicalKey::of_levels(levels, descendants, depth, &normalizers);
    let fp = match_fingerprint(levels, descendants, depth, &normalizers)
        .expect("the warped dimension is tracked");
    (key, fp)
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_fingerprint_equals_rebuild(
        steps in proptest::collection::vec(arb_step(), 1..60),
        policy in arb_policy(),
        sets in prop::sample::select(vec![1usize, 2, 4, 8]),
        assoc in prop::sample::select(vec![2usize, 4]),
    ) {
        let addresses = addresses();
        let descendants: HashSet<usize> = (0..NUM_NODES).collect();
        let mut level = SymLevel::new(CacheConfig::with_sets(sets, assoc, LINE_SIZE, policy));
        level.track_moments(1);
        let total = steps.len();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Access { node, iter, write } => {
                    let address = addresses[node].eval(&[iter]);
                    prop_assert!(address >= 0);
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    level.access(MemBlock(address as u64 / LINE_SIZE), kind, node, &[iter]);
                }
                Step::Warp { period, chunks } => {
                    // Every cached line is labelled by a descendant with the
                    // common coefficient, so the uniform-shift precondition
                    // holds by construction.
                    let byte_shift = LINE_SIZE as i64 * period * chunks;
                    level.apply_warp(
                        &addresses,
                        &descendants,
                        1,
                        period,
                        chunks,
                        byte_shift,
                        1,
                    );
                }
            }
            // Flush only intermittently (and always at the end): real match
            // attempts are backoff-spaced, so several mutations — including
            // warps, which reset set versions — accumulate between flushes.
            if i % 3 != 0 && i + 1 != total {
                continue;
            }
            level.prepare_match();
            let rebuilt = rebuild_level_fingerprint(&level.state);
            for (d, word) in rebuilt.iter().enumerate() {
                prop_assert_eq!(
                    level.fingerprint(d),
                    Some(*word),
                    "incremental fingerprint diverged at dim {}",
                    d
                );
            }
            prop_assert_eq!(
                level.occupied_sets().collect::<Vec<_>>(),
                level.state.occupied_indices().collect::<Vec<_>>(),
                "occupied-set view diverged from the state"
            );
            // The incrementally kept label moments equal a rebuild (which
            // re-tracking forces) under every normaliser.
            let levels = std::slice::from_mut(&mut level);
            let before = match_fingerprint(levels, &descendants, 1, &[i as i64]);
            levels[0].track_moments(0);
            levels[0].track_moments(1);
            let after = match_fingerprint(levels, &descendants, 1, &[i as i64]);
            prop_assert!(before.is_some());
            prop_assert_eq!(before, after, "label moments diverged from a rebuild");
        }
    }

    #[test]
    fn equal_keys_imply_equal_fingerprints(
        steps in proptest::collection::vec(arb_step(), 1..60),
        policy in arb_policy(),
        sets in prop::sample::select(vec![1usize, 2, 4, 8]),
        assoc in prop::sample::select(vec![2usize, 4]),
        depth in prop::sample::select(vec![1usize, 2]),
        num_levels in prop::sample::select(vec![1usize, 2]),
        shift in 1i64..6,
        stale in prop::bool::ANY,
    ) {
        // Two hierarchies run the same history, the second with every
        // descendant's warped-dim label shifted by `shift` (and its block
        // with it): their keys are equal whenever the shift is all that
        // tells them apart.  With a stale node in the mix — not a
        // descendant of the warping loop, at a fixed address, never
        // shifted — the addresses do not move with the warped iterator,
        // as for a time loop: only then can a state holding stale lines
        // warp at all.  Every state of the first hierarchy is also
        // compared with all its earlier states.
        let dim = depth - 1;
        let warped_coeff = if stale { 0 } else { LINE_SIZE as i64 };
        let addresses = two_dim_addresses(dim, warped_coeff);
        let descendants: HashSet<usize> = (0..NUM_NODES).collect();
        let hierarchy = || -> Vec<SymLevel> {
            (0..num_levels)
                .map(|l| {
                    let mut level = SymLevel::new(CacheConfig::with_sets(
                        sets << l,
                        assoc,
                        LINE_SIZE,
                        policy,
                    ));
                    level.track_moments(1 << dim);
                    level
                })
                .collect()
        };
        let (mut a, mut b) = (hierarchy(), hierarchy());
        let mut seen: HashMap<CanonicalKey, u64> = HashMap::new();
        let mut equal_pairs = 0;
        let mut v = 0i64;
        for step in steps {
            match step {
                Step::Access { node, iter, write } => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let block_of = |node: usize, label: &[i64; 2]| {
                        if node == NUM_NODES {
                            MemBlock(1 << 20)
                        } else {
                            MemBlock(addresses[node].eval(label) as u64 / LINE_SIZE)
                        }
                    };
                    let (node, label) = if stale && node == 0 {
                        (NUM_NODES, [iter % 3, iter % 3])
                    } else {
                        let mut label = [iter / 4, iter / 4];
                        label[dim] = iter;
                        (node, label)
                    };
                    let mut shifted = label;
                    if node < NUM_NODES {
                        shifted[dim] += shift;
                    }
                    access(&mut a, block_of(node, &label), kind, node, &label);
                    access(&mut b, block_of(node, &shifted), kind, node, &shifted);
                    v = label[dim];
                }
                Step::Warp { period, chunks } => {
                    let byte_shift = warped_coeff * period * chunks;
                    for level in a.iter_mut().chain(b.iter_mut()) {
                        level.apply_warp(&addresses, &descendants, depth, period, chunks, byte_shift, 1);
                    }
                    v += period * chunks;
                }
            }
            let (key_a, fp_a) = key_and_fingerprint(&mut a, &descendants, depth, v);
            let (key_b, fp_b) = key_and_fingerprint(&mut b, &descendants, depth, v + shift);
            if key_a == key_b {
                equal_pairs += 1;
                prop_assert_eq!(fp_a, fp_b, "equal keys, different fingerprints");
            }
            if let Some(&earlier) = seen.get(&key_a) {
                prop_assert_eq!(earlier, fp_a, "a recurring key changed its fingerprint");
            }
            seen.insert(key_a, fp_a);
        }
        // Without a stale node the shift is all that tells the two apart.
        prop_assert!(stale || equal_pairs > 0, "the shifted history never had an equal key");
    }

    #[test]
    fn parallel_warp_equals_sequential_warp(
        steps in proptest::collection::vec(arb_step(), 1..40),
        policy in arb_policy(),
    ) {
        // The same history applied with a parallel thread budget must yield
        // the exact same state (the per-set rewrites are independent).  The
        // set count sits at the parallelisation threshold so the threaded
        // path really runs.
        let addresses = addresses();
        let descendants: HashSet<usize> = (0..NUM_NODES).collect();
        let config = CacheConfig::with_sets(2048, 2, LINE_SIZE, policy);
        let mut sequential = SymLevel::new(config.clone());
        let mut parallel = SymLevel::new(config);
        for step in steps {
            match step {
                Step::Access { node, iter, write } => {
                    let address = addresses[node].eval(&[iter]);
                    let block = MemBlock(address as u64 / LINE_SIZE);
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    sequential.access(block, kind, node, &[iter]);
                    parallel.access(block, kind, node, &[iter]);
                }
                Step::Warp { period, chunks } => {
                    let byte_shift = LINE_SIZE as i64 * period * chunks;
                    sequential.apply_warp(&addresses, &descendants, 1, period, chunks, byte_shift, 1);
                    parallel.apply_warp(&addresses, &descendants, 1, period, chunks, byte_shift, 4);
                }
            }
            prop_assert_eq!(&sequential.state, &parallel.state);
            prop_assert_eq!(sequential.mru_set, parallel.mru_set);
            // State equality ignores the epoch (bookkeeping), so check the
            // clocks agree explicitly — matching depends on them.
            prop_assert_eq!(sequential.state.epoch(), parallel.state.epoch());
            prop_assert_eq!(
                sequential.occupied_sets().collect::<Vec<_>>(),
                parallel.occupied_sets().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn filtered_matching_is_stat_neutral(
        n in 200i64..2000,
        stride in 1i64..3,
        policy in arb_policy(),
        sets in prop::sample::select(vec![1usize, 4, 16]),
        assoc in prop::sample::select(vec![2usize, 4]),
        line in prop::sample::select(vec![8u64, 64]),
    ) {
        let scop = parse_scop(&format!(
            "double A[{size}]; double B[{size}];\n\
             for (i = 1; i < {n}; i += {stride}) B[i-1] = A[i-1] + A[i];",
            size = n + 1,
        ))
        .unwrap();
        let config = CacheConfig::with_sets(sets, assoc, line, policy);
        let memory = MemoryConfig::from(config.clone());
        let reference = simulate_memory(&scop, &memory);
        for filter in [true, false] {
            let outcome = WarpingSimulator::new(memory.clone())
                .with_options(WarpingOptions {
                    fingerprint_filter: filter,
                    ..WarpingOptions::default()
                })
                .run(&scop);
            prop_assert_eq!(
                &outcome.result,
                &reference,
                "filter={} config={:?}",
                filter,
                config
            );
        }
    }
}
