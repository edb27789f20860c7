//! The N-level cache state: one inclusive access/classify path shared by
//! every simulator.
//!
//! [`MultiLevelState`] is an ordered list of per-level states (L1 first)
//! driven by a [`MemoryConfig`].  On a miss at level `i` the access is
//! forwarded to level `i + 1`; the hierarchy-wide write policy decides
//! whether write misses allocate.

use crate::block::{Access, AccessKind, MemBlock};
use crate::cache::{CacheState, LevelStats};
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

/// Walks one access from the L1 outwards over `(config, state)` pairs: each
/// level is consulted until one hits.  With `fill == false` (a write under
/// no-write-allocate) a missing block is classified without being inserted,
/// while a present block is still accessed so the replacement-policy state
/// advances.
fn walk_access<'a, I>(levels: I, block: MemBlock, fill: bool) -> LookupOutcome
where
    I: Iterator<Item = (&'a crate::cache::CacheConfig, &'a mut CacheState<MemBlock>)>,
{
    let mut consulted = 0;
    let mut hit = false;
    for (config, state) in levels {
        consulted += 1;
        hit = if fill {
            state.access_block(config, block)
        } else {
            state.classify_block(config, block) && state.access_block(config, block)
        };
        if hit {
            break;
        }
    }
    LookupOutcome {
        levels_consulted: consulted,
        hit,
    }
}

/// The state of an N-level non-inclusive non-exclusive hierarchy, generic
/// over the line payload.  Level 0 is the L1.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MultiLevelState<B> {
    levels: Vec<CacheState<B>>,
}

impl<B: Clone> MultiLevelState<B> {
    /// An empty hierarchy with the geometry of `config`.  O(depth), not
    /// O(total sets): each level is a sparse [`CacheState`] that allocates
    /// nothing until a set is touched.
    pub fn new(config: &MemoryConfig) -> Self {
        MultiLevelState {
            levels: config.levels().iter().map(CacheState::new).collect(),
        }
    }

    /// Assembles a state from per-level cache states (L1 first).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn from_levels(levels: Vec<CacheState<B>>) -> Self {
        assert!(!levels.is_empty(), "a hierarchy needs at least one level");
        MultiLevelState { levels }
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The per-level states, L1 first.
    pub fn levels(&self) -> &[CacheState<B>] {
        &self.levels
    }

    /// The state of level `idx` (0 is the L1).
    pub fn level(&self, idx: usize) -> &CacheState<B> {
        &self.levels[idx]
    }

    /// Mutable access to the state of level `idx`.
    pub fn level_mut(&mut self, idx: usize) -> &mut CacheState<B> {
        &mut self.levels[idx]
    }

    /// Mutable access to all per-level states, L1 first.
    pub fn levels_mut(&mut self) -> &mut [CacheState<B>] {
        &mut self.levels
    }
}

impl MultiLevelState<MemBlock> {
    /// Performs a read access to a block (Equation 24 of the paper,
    /// generalized to N levels): level `i + 1` is only consulted — and
    /// updated — when level `i` misses.
    pub fn access_block(&mut self, config: &MemoryConfig, block: MemBlock) -> LookupOutcome {
        walk_access(
            config.levels().iter().zip(self.levels.iter_mut()),
            block,
            true,
        )
    }

    /// Performs an access honouring the hierarchy-wide write policy: under
    /// no-write-allocate, a write is classified at each level without
    /// filling, and forwarded outward on a miss.
    pub fn access(&mut self, config: &MemoryConfig, access: Access) -> LookupOutcome {
        let block = config.l1().block_of_address(access.address);
        let fill = access.kind != AccessKind::Write || config.write_policy().allocates_on_write();
        walk_access(
            config.levels().iter().zip(self.levels.iter_mut()),
            block,
            fill,
        )
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
    pub fn access_run(
        &mut self,
        config: &MemoryConfig,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stats: &mut [LevelStats],
    ) {
        self.run_impl(config, base, stride, count, kind, None, stats);
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
    #[allow(clippy::too_many_arguments)]
    pub fn access_run_stamped(
        &mut self,
        config: &MemoryConfig,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stamp: i64,
        stats: &mut [LevelStats],
    ) {
        self.run_impl(config, base, stride, count, kind, Some(stamp), stats);
    }

    #[allow(clippy::too_many_arguments)]
    fn run_impl(
        &mut self,
        config: &MemoryConfig,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        stamp: Option<i64>,
        stats: &mut [LevelStats],
    ) {
        let line = config.l1().line_size() as i64;
        let fill = kind != AccessKind::Write || config.write_policy().allocates_on_write();
        let mut addr = base as i64;
        let mut remaining = count;
        while remaining > 0 {
            // Size of the group of consecutive accesses on addr's line.
            let group = if stride == 0 {
                remaining
            } else {
                let line_base = addr.div_euclid(line) * line;
                let span = if stride > 0 {
                    // Accesses before the address reaches the next line.
                    let gap = line_base + line - addr;
                    (gap + stride - 1) / stride
                } else {
                    // Accesses before the address drops below the line.
                    (addr - line_base) / -stride + 1
                };
                remaining.min(span as u64)
            };
            let block = config.l1().block_of_address(addr as u64);
            let mut outcome = LookupOutcome {
                levels_consulted: 0,
                hit: false,
            };
            for _ in 0..group.min(2) {
                outcome = walk_access(
                    config.levels().iter().zip(self.levels.iter_mut()),
                    block,
                    fill,
                );
                outcome.record_into(stats);
                if let Some(stamp) = stamp {
                    if fill {
                        for level in self.levels.iter_mut().take(outcome.levels_consulted) {
                            level.stamp_epoch(&[stamp]);
                        }
                    } else if outcome.hit {
                        self.levels[outcome.levels_consulted - 1].stamp_epoch(&[stamp]);
                    }
                }
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
        let first = state.access_block(&config, MemBlock(0));
        assert_eq!(first.levels_consulted, 3);
        assert!(!first.hit);
        assert_eq!(first.hit_at(0), Some(false));
        assert_eq!(first.hit_at(2), Some(false));
        let second = state.access_block(&config, MemBlock(0));
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
            state.access_block(&config, MemBlock(b));
        }
        let again = state.access_block(&config, MemBlock(0));
        assert_eq!(again.levels_consulted, 2);
        assert!(again.hit);
    }

    #[test]
    fn no_write_allocate_does_not_fill_any_level() {
        let config = tiny_three_level().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut state = MultiLevelState::new(&config);
        let write = state.access(&config, Access::write(0));
        assert_eq!(write.levels_consulted, 3);
        assert!(!write.hit);
        let read = state.access(&config, Access::read(0));
        assert!(!read.hit, "nothing was allocated anywhere");
    }

    /// One stamped access: a run of count 1.
    fn stamped(state: &mut MultiLevelState<MemBlock>, config: &MemoryConfig, a: Access, t: i64) {
        let mut stats = vec![LevelStats::default(); config.depth()];
        state.access_run_stamped(config, a.address, 0, 1, a.kind, t, &mut stats);
    }

    fn epoch(state: &MultiLevelState<MemBlock>, idx: usize) -> i64 {
        state
            .level(idx)
            .epoch()
            .first()
            .copied()
            .unwrap_or(i64::MIN)
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
                    batched.access_run_stamped(
                        &config,
                        base,
                        stride,
                        count,
                        kind,
                        7,
                        &mut batched_stats,
                    );
                    for k in 0..count {
                        let address = (base as i64 + k as i64 * stride) as u64;
                        unbatched.access_run_stamped(
                            &config,
                            address,
                            0,
                            1,
                            kind,
                            7,
                            &mut unbatched_stats,
                        );
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
        state
            .access_block(&config, MemBlock(0))
            .record_into(&mut stats);
        state
            .access_block(&config, MemBlock(0))
            .record_into(&mut stats);
        assert_eq!(stats[0].accesses, 2);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[1].accesses, 1);
        assert_eq!(stats[1].misses, 1);
        assert_eq!(stats[2].accesses, 1);
    }
}
