//! Property-based tests of the data-independence theorems.
//!
//! * Property 1 / Theorem 1: for every index-preserving bijection `π`,
//!   `π(UpCache(c, b)) = UpCache(π(c), π(b))` and classification is
//!   invariant under `π`.
//! * Theorem 2 (cache warping): if `c1 = UpCache(c0, s0) = π(c0)` and the
//!   access sequences repeat under `π`, the final state is `πⁿ(c1)` and the
//!   misses of each repetition equal those of the first.
//! * Corollary 5: the same holds for two-level hierarchies.

use cache_model::bijection::ShiftBijection;
use cache_model::{
    CacheConfig, FlatCache, MemBlock, MemoryConfig, MultiLevelState, ReplacementPolicy,
};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        arb_policy(),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4]),
    )
        .prop_map(|(policy, sets, assoc)| CacheConfig::with_sets(sets, assoc, 64, policy))
}

fn arb_blocks(max_block: u64, len: usize) -> impl Strategy<Value = Vec<MemBlock>> {
    proptest::collection::vec((0..max_block).prop_map(MemBlock), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 1: update commutes with index-preserving bijections.
    #[test]
    fn update_commutes_with_bijection(
        config in arb_config(),
        history in arb_blocks(64, 40),
        block in 0u64..64,
        delta in 0i64..32,
    ) {
        let pi = ShiftBijection::new(delta);
        let mut c = FlatCache::new(&config);
        for b in &history {
            c.access(*b, true);
        }
        let b = MemBlock(block);

        let mut updated = c.clone();
        let hit_original = updated.access(b, true);
        let lhs = pi.apply_to_cache(&updated);

        let mut rhs = pi.apply_to_cache(&c);
        let hit_renamed = rhs.access(pi.apply(b), true);

        prop_assert_eq!(lhs, rhs);
        prop_assert_eq!(hit_original, hit_renamed, "classification must be invariant");
    }

    /// Theorem 1 for two-level hierarchies (Corollary 5).
    #[test]
    fn hierarchy_update_commutes_with_bijection(
        policy1 in arb_policy(),
        policy2 in arb_policy(),
        history in arb_blocks(64, 40),
        block in 0u64..64,
        delta in 0i64..16,
    ) {
        let config = MemoryConfig::two_level(
            CacheConfig::with_sets(2, 2, 64, policy1),
            CacheConfig::with_sets(4, 4, 64, policy2),
        );
        let pi = ShiftBijection::new(delta);
        let mut h = MultiLevelState::new(&config);
        for b in &history {
            h.access_block(*b);
        }
        let b = MemBlock(block);

        let mut updated = h.clone();
        let out_original = updated.access_block(b);
        let lhs = pi.apply_to_levels(&updated);

        let mut rhs = pi.apply_to_levels(&h);
        let out_renamed = rhs.access_block(pi.apply(b));

        prop_assert_eq!(lhs, rhs);
        prop_assert_eq!(out_original, out_renamed);
    }

    /// The key lemma behind Theorem 2 (cache warping): starting from
    /// π-related states, π-related access sequences produce π-related states
    /// and the same number of misses.  Iterating this lemma is exactly what
    /// justifies fast-forwarding the simulation.
    #[test]
    fn shifted_sequences_from_renamed_states_agree(
        config in arb_config(),
        history in arb_blocks(32, 40),
        pattern in arb_blocks(32, 10),
        delta in 0i64..16,
    ) {
        let pi = ShiftBijection::new(delta);
        let mut c0 = FlatCache::new(&config);
        for b in &history {
            c0.access(*b, true);
        }
        let mut c1 = pi.apply_to_cache(&c0);

        let mut misses0 = 0u64;
        let mut misses1 = 0u64;
        for b in &pattern {
            if !c0.access(*b, true) {
                misses0 += 1;
            }
            if !c1.access(pi.apply(*b), true) {
                misses1 += 1;
            }
        }
        prop_assert_eq!(misses0, misses1);
        prop_assert_eq!(pi.apply_to_cache(&c0), c1);
    }
}
