//! The flat concrete store against a per-set reference.
//!
//! `FlatCache` keeps its tags, policy metadata and occupancy in flat arrays.
//! This suite drives it and a plain `Vec<SetState>` reference (one
//! eagerly built set per index, updated by the generic per-set logic)
//! through random histories of accesses, clones and block shifts, across
//! all four replacement policies, both write-allocation modes, set counts
//! that are and are not powers of two (within one 64-set page and across
//! several) and associativities 1–16.  After
//! every step the two must agree on the hit/miss answer, the lines and
//! policy metadata of every set, the occupied-set list and the number of
//! filled ways.

use cache_model::{CacheConfig, FlatCache, MemBlock, ReplacementPolicy, SetState};
use proptest::prelude::*;

/// The reference: one `SetState` per cache set.
#[derive(Clone)]
struct SetsCache {
    config: CacheConfig,
    sets: Vec<SetState<MemBlock>>,
}

impl SetsCache {
    fn new(config: &CacheConfig) -> Self {
        SetsCache {
            config: config.clone(),
            sets: (0..config.num_sets())
                .map(|_| SetState::new(config.policy(), config.assoc()))
                .collect(),
        }
    }

    fn access(&mut self, block: MemBlock, fill: bool) -> bool {
        let set = &mut self.sets[self.config.index(block)];
        match set.find(|b| *b == block) {
            Some(line) => {
                set.on_hit(self.config.policy(), line);
                true
            }
            None => {
                if fill {
                    set.on_miss_insert(self.config.policy(), block);
                }
                false
            }
        }
    }

    /// Every block moves up by `delta`: set `i` lands on set
    /// `(i + delta) mod num_sets`.
    fn shift(&self, delta: u64) -> SetsCache {
        let n = self.sets.len();
        let mut sets = self.sets.clone();
        for (i, set) in self.sets.iter().enumerate() {
            sets[(i + (delta % n as u64) as usize) % n] =
                set.map_payloads(|b| MemBlock(b.0 + delta));
        }
        SetsCache {
            config: self.config.clone(),
            sets,
        }
    }
}

/// One step of a random history over both models.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// An access to the `pick`-th block of the configuration's pool; a
    /// write under no-write-allocate does not fill.
    Access { pick: u64, write: bool },
    /// Replace both states by a clone (which must compare equal).
    Clone,
    /// Replace both states by their renaming under the shift `b + delta`.
    Shift { delta: u64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u64..12, 0u64..4096, prop::bool::ANY, 1u64..200).prop_map(|(kind, pick, write, delta)| {
        match kind {
            0..=9 => Step::Access { pick, write },
            10 => Step::Clone,
            _ => Step::Shift { delta },
        }
    })
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        prop::sample::select(ReplacementPolicy::ALL.to_vec()),
        // One page (≤ 64 sets), a partial second page (96) and four (256).
        prop::sample::select(vec![1usize, 2, 3, 8, 48, 64, 96, 256]),
        1usize..=16,
        prop::bool::ANY,
    )
        .prop_map(|(policy, sets, assoc, allocate)| {
            let assoc = if policy == ReplacementPolicy::Plru {
                assoc.next_power_of_two().min(16)
            } else {
                assoc
            };
            CacheConfig::with_sets(sets, assoc, 64, policy).with_write_allocate(allocate)
        })
}

/// Every observation the two models expose must coincide.
fn assert_same(flat: &FlatCache, reference: &SetsCache) {
    assert_eq!(flat.num_sets(), reference.sets.len());
    for (i, set) in reference.sets.iter().enumerate() {
        let view = flat.set(i);
        assert_eq!(view.lines().collect::<Vec<_>>(), set.lines(), "set {i}");
        assert_eq!(view.policy_state(), set.policy_state().view(), "set {i}");
    }
    let occupied: Vec<usize> = (0..reference.sets.len())
        .filter(|&i| !reference.sets[i].is_empty())
        .collect();
    assert_eq!(flat.occupied_indices().collect::<Vec<_>>(), occupied);
    assert_eq!(
        flat.occupied_entries().map(|(i, _)| i).collect::<Vec<_>>(),
        occupied
    );
    assert_eq!(flat.occupied_len(), occupied.len());
    let filled: usize = reference.sets.iter().map(SetState::occupancy).sum();
    assert_eq!(flat.filled_ways(), filled as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_store_matches_set_reference(
        config in arb_config(),
        steps in proptest::collection::vec(arb_step(), 1..120),
    ) {
        let mut flat = FlatCache::new(&config);
        let mut reference = SetsCache::new(&config);
        // A block pool a little larger than the cache, so that sets fill
        // and evict whatever the geometry.
        let pool = (config.num_sets() * (config.assoc() + 2)) as u64;
        for step in steps {
            match step {
                Step::Access { pick, write } => {
                    let block = MemBlock(pick % pool);
                    let fill = !write || config.write_allocate();
                    let hit = flat.access(block, fill);
                    prop_assert_eq!(hit, reference.access(block, fill), "at {:?}", step);
                }
                Step::Clone => {
                    let copy = flat.clone();
                    prop_assert_eq!(&copy, &flat, "a clone must compare equal");
                    flat = copy;
                }
                Step::Shift { delta } => {
                    flat = flat.map_blocks(|b| MemBlock(b.0 + delta));
                    reference = reference.shift(delta);
                }
            }
            assert_same(&flat, &reference);
        }
    }
}
