//! Two-level behaviour of [`MultiLevelState`]: the private L1/L2 levels
//! modelled in the paper (Appendix A.2) as a depth-2 [`MemoryConfig`].

#[cfg(test)]
mod tests {
    use crate::{
        Access, CacheConfig, LevelStats, LookupOutcome, MemBlock, MemoryConfig, MultiLevelState,
        ReplacementPolicy, WritePolicy,
    };

    fn tiny_hierarchy() -> MemoryConfig {
        MemoryConfig::two_level(
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru),
        )
    }

    #[test]
    fn l2_filters_l1_misses() {
        let config = tiny_hierarchy();
        let mut h = MultiLevelState::new(&config);
        let b = MemBlock(0);
        let first = h.access_block(b);
        assert_eq!(
            first,
            LookupOutcome {
                levels_consulted: 2,
                hit: false
            }
        );
        let second = h.access_block(b);
        assert_eq!(second.hit_at(0), Some(true));
        assert_eq!(second.hit_at(1), None);
    }

    #[test]
    fn non_inclusive_refill_hits_l2() {
        let config = tiny_hierarchy();
        let mut h = MultiLevelState::new(&config);
        // Fill L1 set 0 beyond its associativity so block 0 gets evicted from
        // L1 but remains in the larger L2.
        for i in [0u64, 2, 4] {
            h.access_block(MemBlock(i));
        }
        let again = h.access_block(MemBlock(0));
        assert_eq!(again.hit_at(0), Some(false));
        assert_eq!(again.hit_at(1), Some(true));
    }

    #[test]
    fn no_write_allocate_hierarchy() {
        let config = tiny_hierarchy().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut h = MultiLevelState::new(&config);
        let out = h.access(Access::write(0));
        assert_eq!(out.hit_at(0), Some(false));
        assert_eq!(out.hit_at(1), Some(false));
        // Nothing was allocated anywhere.
        let read = h.access(Access::read(0));
        assert_eq!(read.hit_at(0), Some(false));
        assert_eq!(read.hit_at(1), Some(false));
    }

    #[test]
    fn stats_aggregate() {
        let config = tiny_hierarchy();
        let mut h = MultiLevelState::new(&config);
        let mut stats = [LevelStats::default(); 2];
        for i in [0u64, 1, 0, 2, 0] {
            h.access_block(MemBlock(i)).record_into(&mut stats);
        }
        assert_eq!(stats[0].accesses, 5);
        assert_eq!(stats[0].misses, 3);
        assert_eq!(stats[1].accesses, 3);
        assert_eq!(stats[1].misses, 3);
    }

    #[test]
    fn preset_configurations() {
        let ts = MemoryConfig::test_system();
        assert_eq!(ts.levels()[0].num_sets(), 64);
        assert_eq!(ts.levels()[1].num_sets(), 1024);
        let pc = MemoryConfig::polycache_comparison();
        assert_eq!(pc.levels()[0].assoc(), 4);
        assert_eq!(pc.levels()[1].size_bytes(), 256 * 1024);
    }
}
