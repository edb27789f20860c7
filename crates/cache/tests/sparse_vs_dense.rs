//! Observational equivalence of the sparse stores and a dense reference.
//!
//! `CacheState` (the symbolic store) keeps only the touched sets plus one
//! shared empty-set template, and `FlatCache` (the concrete store) hands
//! out rows per 64-set page on the page's first fill, so untouched pages
//! share one initial page.  This suite drives them and a plain
//! `Vec<SetState>` reference through random histories across all four
//! replacement policies and both write-allocation modes, asserting that
//! the sparse stores answer for every set — touched or not — exactly like
//! the eagerly built dense model.

use cache_model::{CacheConfig, CacheState, FlatCache, MemBlock, ReplacementPolicy, SetState};
use proptest::prelude::*;

/// One access to `block` in `set`, with the per-set logic both models
/// share; a miss fills only when `fill` holds.
fn access_set(
    set: &mut SetState<MemBlock>,
    policy: ReplacementPolicy,
    block: MemBlock,
    fill: bool,
) -> bool {
    match set.find(|b| *b == block) {
        Some(line) => {
            set.on_hit(policy, line);
            true
        }
        None => {
            if fill {
                set.on_miss_insert(policy, block);
            }
            false
        }
    }
}

/// The dense reference: one eagerly allocated `SetState` per cache set.
#[derive(Clone)]
struct DenseCache {
    config: CacheConfig,
    sets: Vec<SetState<MemBlock>>,
}

impl DenseCache {
    fn new(config: &CacheConfig) -> Self {
        DenseCache {
            config: config.clone(),
            sets: (0..config.num_sets())
                .map(|_| SetState::new(config.policy(), config.assoc()))
                .collect(),
        }
    }

    fn access(&mut self, block: MemBlock, fill: bool) -> bool {
        let set = &mut self.sets[self.config.index(block)];
        access_set(set, self.config.policy(), block, fill)
    }

    /// Set `i` of the result is set `perm(i)` of `self`.
    fn permute(&self, perm: impl Fn(usize) -> usize) -> DenseCache {
        DenseCache {
            config: self.config.clone(),
            sets: (0..self.sets.len())
                .map(|i| self.sets[perm(i)].clone())
                .collect(),
        }
    }

    fn map_payloads(&self, mut f: impl FnMut(&MemBlock) -> MemBlock) -> DenseCache {
        DenseCache {
            config: self.config.clone(),
            sets: self.sets.iter().map(|s| s.map_payloads(&mut f)).collect(),
        }
    }

    fn occupied(&self) -> Vec<usize> {
        (0..self.sets.len())
            .filter(|&i| !self.sets[i].is_empty())
            .collect()
    }
}

/// One step of a random history over both models.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// An access through `set_mut`; a write under no-write-allocate
    /// touches the set without filling it.
    Access { block: u64, write: bool },
    /// `set(index).classify(block)`: answers must agree, no state change.
    Classify { block: u64 },
    /// Rotation by `k` sets, the way warp application relocates a level:
    /// `take_entries`, then `insert_set` at the rotated index.
    Rotate { k: usize },
    /// Replace both states by `map_payloads(b + delta)`.
    Map { delta: u64 },
    /// Replace both states by a clone (and check clone equality).
    Clone,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u64..10, 0u64..64, prop::bool::ANY, 0usize..8, 1u64..100).prop_map(
        |(kind, block, write, k, delta)| match kind {
            0..=5 => Step::Access { block, write },
            6 => Step::Classify { block },
            7 => Step::Rotate { k },
            8 => Step::Map { delta },
            _ => Step::Clone,
        },
    )
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        prop::sample::select(ReplacementPolicy::ALL.to_vec()),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4]),
        prop::bool::ANY,
    )
        .prop_map(|(policy, sets, assoc, allocate)| {
            CacheConfig::with_sets(sets, assoc, 64, policy).with_write_allocate(allocate)
        })
}

/// Every observation the two models expose must coincide.
fn assert_observationally_equal(sparse: &CacheState<MemBlock>, dense: &DenseCache) {
    assert_eq!(sparse.num_sets(), dense.sets.len());
    for (i, reference) in dense.sets.iter().enumerate() {
        assert_eq!(sparse.set(i), reference, "set {i} diverged");
    }
    assert_eq!(
        sparse.occupied_indices().collect::<Vec<_>>(),
        dense.occupied()
    );
    for (i, set) in sparse.occupied_entries() {
        assert_eq!(set, &dense.sets[i]);
    }
    assert_eq!(sparse.occupied_len(), dense.occupied().len());
    // The lazy all-sets iterator agrees with indexed access.
    for (i, set) in sparse.sets() {
        assert_eq!(set, &dense.sets[i]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_store_is_observationally_dense(
        config in arb_config(),
        steps in proptest::collection::vec(arb_step(), 1..50),
    ) {
        let mut sparse: CacheState<MemBlock> = CacheState::new(&config);
        let mut dense = DenseCache::new(&config);
        let num_sets = config.num_sets();
        let policy = config.policy();
        for step in steps {
            match step {
                Step::Access { block, write } => {
                    let block = MemBlock(block);
                    let fill = !write || config.write_allocate();
                    let set = sparse.set_mut(config.index(block));
                    let hit_sparse = access_set(set, policy, block, fill);
                    let hit_dense = dense.access(block, fill);
                    prop_assert_eq!(hit_sparse, hit_dense, "hit/miss diverged at {:?}", step);
                }
                Step::Classify { block } => {
                    let block = MemBlock(block);
                    let index = config.index(block);
                    prop_assert_eq!(
                        sparse.set(index).classify(&block),
                        dense.sets[index].classify(&block)
                    );
                }
                Step::Rotate { k } => {
                    let k = k % num_sets;
                    // Rotation by +k: new set (i + k) mod n holds old set i.
                    dense = dense.permute(|i| (i + num_sets - k) % num_sets);
                    for (i, set) in sparse.take_entries() {
                        sparse.insert_set((i + k) % num_sets, set);
                    }
                }
                Step::Map { delta } => {
                    dense = dense.map_payloads(|b| MemBlock(b.0 + delta));
                    sparse = sparse.map_payloads(|b| MemBlock(b.0 + delta));
                }
                Step::Clone => {
                    let copy = sparse.clone();
                    prop_assert_eq!(&copy, &sparse, "a clone must compare equal");
                    sparse = copy;
                    dense = dense.clone();
                }
            }
            assert_observationally_equal(&sparse, &dense);
        }
    }

    /// Construction cost aside, a sparse state that never materialised some
    /// set (or, for the flat store, some page) must still answer for it
    /// exactly like a fresh dense set.
    #[test]
    fn untouched_sets_answer_as_initial(
        config in arb_config(),
        sets in prop::sample::select(vec![1usize, 8, 64, 96, 256]),
        history in proptest::collection::vec((0u64..1024, prop::bool::ANY), 0..30),
    ) {
        let config = CacheConfig::with_sets(sets, config.assoc(), 64, config.policy())
            .with_write_allocate(config.write_allocate());
        let mut sparse: CacheState<MemBlock> = CacheState::new(&config);
        let mut flat = FlatCache::new(&config);
        let mut dense = DenseCache::new(&config);
        for (block, write) in history {
            let block = MemBlock(block);
            let fill = !write || config.write_allocate();
            let hit = dense.access(block, fill);
            let set = sparse.set_mut(config.index(block));
            prop_assert_eq!(access_set(set, config.policy(), block, fill), hit);
            prop_assert_eq!(flat.access(block, fill), hit);
        }
        let initial: SetState<MemBlock> = SetState::new(config.policy(), config.assoc());
        for i in 0..config.num_sets() {
            let reference = &dense.sets[i];
            prop_assert_eq!(sparse.set(i), reference);
            let view = flat.set(i);
            prop_assert_eq!(view.lines().collect::<Vec<_>>(), reference.lines());
            prop_assert_eq!(view.policy_state(), reference.policy_state().view());
            if reference.is_empty() {
                prop_assert_eq!(sparse.set(i), &initial, "empty set {} left its initial state", i);
                prop_assert_eq!(view.lines().collect::<Vec<_>>(), initial.lines());
                prop_assert_eq!(
                    view.policy_state(),
                    initial.policy_state().view(),
                    "empty flat set {} left its initial state",
                    i
                );
            }
        }
    }
}
