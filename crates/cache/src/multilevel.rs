//! The N-level cache state: one inclusive access/classify path shared by
//! every simulator.
//!
//! [`MultiLevelState`] is an ordered list of per-level [`FlatCache`]s (L1
//! first) built from a [`MemoryConfig`].  On a miss at level `i` the access is
//! forwarded to level `i + 1`; the hierarchy-wide write policy decides
//! whether write misses allocate.

use crate::block::{Access, AccessKind, MemBlock};
use crate::cache::LevelStats;
use crate::flat::FlatCache;
use crate::memory::MemoryConfig;

/// The outcome of an access walking an N-level hierarchy from the L1
/// downwards: the access consulted levels `0..levels_consulted` and either
/// hit at the deepest consulted level or missed everywhere.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupOutcome {
    /// Number of levels the access reached (at least 1).
    pub levels_consulted: usize,
    /// Whether the deepest consulted level hit.  `false` means the access
    /// missed at every consulted level (which is then every level).
    pub hit: bool,
}

impl LookupOutcome {
    /// Whether level `idx` was consulted and hit.  `None` if the access
    /// never reached that level (an enclosing level hit first).
    pub fn hit_at(&self, idx: usize) -> Option<bool> {
        if idx + 1 < self.levels_consulted {
            Some(false)
        } else if idx + 1 == self.levels_consulted {
            Some(self.hit)
        } else {
            None
        }
    }

    /// Folds the outcome into per-level counters (`stats[i]` is level `i`).
    pub fn record_into(&self, stats: &mut [LevelStats]) {
        for (idx, level) in stats.iter_mut().enumerate().take(self.levels_consulted) {
            level.record(self.hit && idx + 1 == self.levels_consulted);
        }
    }
}

/// The concrete state of an N-level non-inclusive non-exclusive hierarchy:
/// one [`FlatCache`] per level, L1 first, plus the line size and the
/// hierarchy-wide write policy it was built with.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MultiLevelState {
    levels: Vec<FlatCache>,
    line_size: u64,
    allocate_writes: bool,
}

impl MultiLevelState {
    /// An empty hierarchy with the geometry and write policy of `config`.
    pub fn new(config: &MemoryConfig) -> Self {
        MultiLevelState {
            levels: config.levels().iter().map(FlatCache::new).collect(),
            line_size: config.line_size(),
            allocate_writes: config.write_policy().allocates_on_write(),
        }
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The per-level states, L1 first.
    pub fn levels(&self) -> &[FlatCache] {
        &self.levels
    }

    /// The state of level `idx` (0 is the L1).
    pub fn level(&self, idx: usize) -> &FlatCache {
        &self.levels[idx]
    }

    /// Renames every cached block of every level with `rename` (see
    /// [`FlatCache::map_blocks`]).
    pub fn map_blocks(&self, mut rename: impl FnMut(MemBlock) -> MemBlock) -> MultiLevelState {
        MultiLevelState {
            levels: self
                .levels
                .iter()
                .map(|level| level.map_blocks(&mut rename))
                .collect(),
            ..*self
        }
    }

    /// The block holding byte address `addr`.
    #[inline]
    fn block_of(&self, addr: u64) -> MemBlock {
        if self.line_size.is_power_of_two() {
            MemBlock(addr >> self.line_size.trailing_zeros())
        } else {
            MemBlock(addr / self.line_size)
        }
    }

    /// Walks one access from the L1 outwards: each level is consulted
    /// until one hits.  With `fill == false` (a write under
    /// no-write-allocate) a missing block is classified without being
    /// inserted, while a present block is still accessed so the
    /// replacement-policy state advances.  With a `stamp`, every level the
    /// access writes (all consulted levels when filling, else the hitting
    /// one) records it as its epoch.
    #[inline]
    fn walk(&mut self, block: MemBlock, fill: bool, stamp: Option<i64>) -> LookupOutcome {
        let mut consulted = 0;
        let mut hit = false;
        for level in &mut self.levels {
            consulted += 1;
            hit = level.access(block, fill);
            if let Some(stamp) = stamp.filter(|_| fill || hit) {
                level.stamp_epoch(stamp);
            }
            if hit {
                break;
            }
        }
        LookupOutcome {
            levels_consulted: consulted,
            hit,
        }
    }

    /// Performs a read access to a block (Equation 24 of the paper,
    /// generalized to N levels): level `i + 1` is only consulted — and
    /// updated — when level `i` misses.
    pub fn access_block(&mut self, block: MemBlock) -> LookupOutcome {
        self.walk(block, true, None)
    }

    /// Performs an access honouring the hierarchy-wide write policy: under
    /// no-write-allocate, a write is classified at each level without
    /// filling, and forwarded outward on a miss.
    #[inline]
    pub fn access(&mut self, access: Access) -> LookupOutcome {
        let fill = access.kind != AccessKind::Write || self.allocate_writes;
        self.walk(self.block_of(access.address), fill, None)
    }

    /// Performs a run of `count` accesses starting at `base` with a
    /// constant byte `stride`, recording per-level counters into `stats`
    /// (`stats[i]` is level `i`).
    ///
    /// The run is split into maximal groups of consecutive accesses that
    /// share a cache line (addresses are monotone, so a line never
    /// recurs once left).  Within a group only the first two accesses
    /// are performed against the state: after an access and a repeat of
    /// the same block, a further identical access changes neither the
    /// replacement-policy state (the block is the promotion target
    /// already) nor the contents, for every supported policy and both
    /// fill paths.  The remaining `k - 2` accesses replicate the second
    /// outcome arithmetically — one fill plus `k − 1` hit-promotes
    /// collapse into two state updates and a counter bump.
    ///
    /// The result is bit-identical to calling [`MultiLevelState::access`]
    /// `count` times (the differential suites assert this).
    #[inline]
    pub fn access_run(
        &mut self,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stats: &mut [LevelStats],
    ) {
        self.run_impl(base, stride, count, kind, None, stats);
    }

    /// The epoch-stamping counterpart of [`MultiLevelState::access_run`]:
    /// every performed access also stamps `stamp` into the epoch of every
    /// level whose payload (or replacement-policy state) it wrote.  Under
    /// an allocating walk all consulted levels are written (filled on a
    /// miss, promoted on a hit); under no-write-allocate only a hitting
    /// level advances.  Levels the access never reached keep their
    /// previous epoch, so an interval sampler can tell live levels from
    /// frozen ones.  A run carries one stamp, so the collapsed replays
    /// (which would re-stamp the same value) are idempotent and the
    /// resulting epochs are bit-identical to the unbatched walk.
    pub fn access_run_stamped(
        &mut self,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stamp: i64,
        stats: &mut [LevelStats],
    ) {
        self.run_impl(base, stride, count, kind, Some(stamp), stats);
    }

    #[inline(always)]
    fn run_impl(
        &mut self,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stamp: Option<i64>,
        stats: &mut [LevelStats],
    ) {
        let line = self.line_size as i64;
        let fill = kind != AccessKind::Write || self.allocate_writes;
        let mut addr = base as i64;
        let mut remaining = count;
        while remaining > 0 {
            // Size of the group of consecutive accesses on addr's line.
            let group = if stride == 0 || remaining == 1 {
                remaining
            } else if stride.unsigned_abs() >= self.line_size {
                1
            } else {
                let offset = if self.line_size.is_power_of_two() {
                    addr & (line - 1)
                } else {
                    addr.rem_euclid(line)
                };
                let span = if stride > 0 {
                    // Accesses before the address reaches the next line.
                    (line - offset + stride - 1) / stride
                } else {
                    // Accesses before the address drops below the line.
                    offset / -stride + 1
                };
                remaining.min(span as u64)
            };
            let block = self.block_of(addr as u64);
            let mut outcome = self.walk(block, fill, stamp);
            outcome.record_into(stats);
            if group > 1 {
                outcome = self.walk(block, fill, stamp);
                outcome.record_into(stats);
            }
            // The state is now a fixed point for this block: replicate
            // the last outcome for the rest of the group.
            if group > 2 {
                let tail = group - 2;
                for (idx, level) in stats.iter_mut().enumerate().take(outcome.levels_consulted) {
                    level.record_n(outcome.hit && idx + 1 == outcome.levels_consulted, tail);
                }
            }
            addr += stride * group as i64;
            remaining -= group;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::memory::WritePolicy;
    use crate::ReplacementPolicy;

    fn tiny_three_level() -> MemoryConfig {
        MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 4, 64, ReplacementPolicy::Lru),
        ])
        .unwrap()
    }

    #[test]
    fn outer_levels_filter_inner_misses() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        let first = state.access_block(MemBlock(0));
        assert_eq!(first.levels_consulted, 3);
        assert!(!first.hit);
        assert_eq!(first.hit_at(0), Some(false));
        assert_eq!(first.hit_at(2), Some(false));
        let second = state.access_block(MemBlock(0));
        assert_eq!(second.levels_consulted, 1);
        assert!(second.hit);
        assert_eq!(second.hit_at(1), None);
    }

    #[test]
    fn eviction_from_l1_hits_the_l2() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        // Fill L1 set 0 beyond its associativity: block 0 is evicted from
        // the L1 but survives in the larger L2.
        for b in [0u64, 2, 4] {
            state.access_block(MemBlock(b));
        }
        let again = state.access_block(MemBlock(0));
        assert_eq!(again.levels_consulted, 2);
        assert!(again.hit);
    }

    #[test]
    fn no_write_allocate_does_not_fill_any_level() {
        let config = tiny_three_level().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut state = MultiLevelState::new(&config);
        let write = state.access(Access::write(0));
        assert_eq!(write.levels_consulted, 3);
        assert!(!write.hit);
        let read = state.access(Access::read(0));
        assert!(!read.hit, "nothing was allocated anywhere");
    }

    /// One stamped access: a run of count 1.
    fn stamped(state: &mut MultiLevelState, config: &MemoryConfig, a: Access, t: i64) {
        let mut stats = vec![LevelStats::default(); config.depth()];
        state.access_run_stamped(a.address, 0, 1, a.kind, t, &mut stats);
    }

    fn epoch(state: &MultiLevelState, idx: usize) -> i64 {
        state.level(idx).epoch().unwrap_or(i64::MIN)
    }

    #[test]
    fn access_stamped_marks_only_written_levels() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        // A cold miss consults (and fills) every level: all stamped.
        stamped(&mut state, &config, Access::read(0), 7);
        assert_eq!(epoch(&state, 0), 7);
        assert_eq!(epoch(&state, 1), 7);
        assert_eq!(epoch(&state, 2), 7);
        // An L1 hit touches only the L1: outer levels keep their stamp.
        stamped(&mut state, &config, Access::read(0), 9);
        assert_eq!(epoch(&state, 0), 9);
        assert_eq!(epoch(&state, 1), 7);
        assert_eq!(epoch(&state, 2), 7);
    }

    #[test]
    fn no_write_allocate_miss_stamps_nothing() {
        let config = tiny_three_level().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut state = MultiLevelState::new(&config);
        stamped(&mut state, &config, Access::write(0), 3);
        assert_eq!(epoch(&state, 0), i64::MIN, "nothing was written");
        // After a read allocates, a write hit stamps the hitting level only.
        stamped(&mut state, &config, Access::read(0), 4);
        stamped(&mut state, &config, Access::write(0), 5);
        assert_eq!(epoch(&state, 0), 5);
        assert_eq!(epoch(&state, 1), 4);
    }

    #[test]
    fn access_run_is_bit_identical_to_single_accesses() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Plru,
            ReplacementPolicy::Qlru,
        ] {
            let config = MemoryConfig::new(vec![
                CacheConfig::with_sets(2, 2, 64, policy),
                CacheConfig::with_sets(4, 2, 64, policy),
            ])
            .unwrap();
            for write_policy in [
                WritePolicy::WriteBackWriteAllocate,
                WritePolicy::WriteThroughNoAllocate,
            ] {
                let config = config.clone().with_write_policy(write_policy);
                // (base, stride, count): sub-line forward, line-sized,
                // line-skipping, sub-line backward, and zero strides.
                let runs = [
                    (0u64, 8i64, 40u64, AccessKind::Read),
                    (512, 64, 16, AccessKind::Write),
                    (64, 200, 10, AccessKind::Read),
                    (4096, -8, 33, AccessKind::Write),
                    (128, 0, 9, AccessKind::Read),
                    (60, 8, 3, AccessKind::Read), // straddles a line boundary
                ];
                let mut batched = MultiLevelState::new(&config);
                let mut unbatched = MultiLevelState::new(&config);
                let mut batched_stats = vec![LevelStats::default(); 2];
                let mut unbatched_stats = vec![LevelStats::default(); 2];
                for (base, stride, count, kind) in runs {
                    batched.access_run_stamped(base, stride, count, kind, 7, &mut batched_stats);
                    for k in 0..count {
                        let address = (base as i64 + k as i64 * stride) as u64;
                        unbatched.access_run_stamped(address, 0, 1, kind, 7, &mut unbatched_stats);
                    }
                }
                assert_eq!(batched, unbatched, "{policy:?} {write_policy:?}");
                assert_eq!(
                    batched_stats, unbatched_stats,
                    "{policy:?} {write_policy:?}"
                );
            }
        }
    }

    #[test]
    fn record_into_charges_only_consulted_levels() {
        let config = tiny_three_level();
        let mut state = MultiLevelState::new(&config);
        let mut stats = vec![LevelStats::default(); 3];
        state.access_block(MemBlock(0)).record_into(&mut stats);
        state.access_block(MemBlock(0)).record_into(&mut stats);
        assert_eq!(stats[0].accesses, 2);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[1].accesses, 1);
        assert_eq!(stats[1].misses, 1);
        assert_eq!(stats[2].accesses, 1);
    }
}
