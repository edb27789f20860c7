//! Symbolic cache states.
//!
//! A symbolic cache state associates every occupied cache line with a
//! *symbolic memory block*: the identifier of the access node that loaded
//! (or most recently touched) the line together with the iteration vector at
//! which that happened.  Concretising the label — evaluating the access
//! node's affine address function at the recorded iteration — yields the
//! concrete memory block, which the state also caches for fast
//! classification.  This mirrors §5.2 of the paper; keeping absolute
//! iteration vectors (instead of rewriting expressions on every iterator
//! increment) is the "on demand" renormalisation the paper alludes to.
//!
//! Renormalisation needs a reference point.  Each level carries a
//! **level-local epoch** (see [`cache_model::CacheState::epoch`]): the
//! iteration vector of the last access that wrote a label at this level,
//! stamped on every fill and hit promotion.  Labels are *stored* absolute
//! and *compared* relative to the epoch of their level — so outer-level
//! lines whose labels froze (the working set fits in L1, nothing touches
//! them any more) still compare equal across iterations, instead of
//! drifting ever further from the current iterator.
//!
//! The cache state itself is sparse (`cache_model::CacheState` stores only
//! the touched sets next to a shared empty template), so a [`SymLevel`]
//! reads its **occupied-set view straight from the store** — canonical keys
//! and warp plans never iterate over the (possibly millions of) empty sets
//! of a big L3 — and adds two derived structures of its own: a
//! [`FingerprintTracker`] of per-set digests and rolling level
//! fingerprints, kept fresh with dirty-set tracking, and the per-node
//! label moments of its labels on the tracked warp-candidate
//! dimensions, updated on every label write.

use crate::fingerprint::{FingerprintTracker, LabelMoments};
use cache_model::{AccessKind, CacheConfig, CacheState, LevelStats, MemBlock, SetState};
use polyhedra::Aff;
use std::collections::HashSet;

/// Minimum number of occupied cache sets before warp application within a
/// level is split across threads; below this the per-thread setup cost
/// dominates.
const PARALLEL_SETS_THRESHOLD: usize = 2048;

/// A symbolic cache line: concrete block plus symbolic label.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SymLine {
    /// The concrete memory block currently held by the line.
    pub block: MemBlock,
    /// Identifier of the access node that most recently touched the line.
    pub node: usize,
    /// The iteration vector (at the node's depth) of that access.
    pub iter: Vec<i64>,
}

/// One cache level simulated symbolically.
#[derive(Clone, Debug)]
pub struct SymLevel {
    /// The level's configuration.
    pub config: CacheConfig,
    /// The symbolic cache state.
    pub state: CacheState<SymLine>,
    /// Index of the most recently accessed cache set (anchor for the
    /// rotation-invariant canonical key).
    pub mru_set: usize,
    /// Hit/miss counters of the level.
    pub stats: LevelStats,
    /// Incrementally maintained per-set digests and level fingerprints.
    tracker: FingerprintTracker,
    /// Per-node label moments on the tracked dimensions.
    moments: LabelMoments,
}

impl SymLevel {
    /// An empty symbolic level.  O(1) whatever the level's size: the sparse
    /// cache state and the fingerprint tracker both start from shared empty
    /// templates.
    pub fn new(config: CacheConfig) -> Self {
        let state = CacheState::new(&config);
        let tracker = FingerprintTracker::new(&state);
        SymLevel {
            config,
            state,
            mru_set: 0,
            stats: LevelStats::default(),
            tracker,
            moments: LabelMoments::default(),
        }
    }

    /// Classifies and performs an access to `block`, labelling the touched
    /// line with `(node, iter)`.  Returns `true` on a hit.
    ///
    /// Every payload write — a hit promotion or a miss fill — also stamps
    /// `iter` as the level's [epoch](cache_model::CacheState::epoch), so the
    /// epoch always names the last access that refreshed a label at this
    /// level.  For no-write-allocate configurations a write miss does not
    /// allocate (and leaves an untouched set untouched in the sparse store,
    /// and the epoch unstamped).
    pub fn access(&mut self, block: MemBlock, kind: AccessKind, node: usize, iter: &[i64]) -> bool {
        let set_idx = self.config.index(block);
        self.mru_set = set_idx;
        let policy = self.config.policy();
        // Classify on the shared (immutable) view first: only mutating paths
        // may materialise the set in the sparse store or dirty the tracker.
        let found = self.state.set(set_idx).find(|l| l.block == block);
        let hit = match found {
            Some(way) => {
                let set = self.state.set_mut(set_idx);
                let way = set.on_hit(policy, way);
                // The paper's SymUpSet replaces the hit line's symbolic block
                // by the freshly accessed one.
                let line = set.line_mut(way).expect("occupied line");
                self.moments.remove(line);
                line.node = node;
                line.iter.clear();
                line.iter.extend_from_slice(iter);
                self.moments.insert(line);
                self.state.stamp_epoch(iter);
                self.tracker.mark_dirty(set_idx);
                true
            }
            None => {
                if kind != AccessKind::Write || self.config.write_allocate() {
                    let line = SymLine {
                        block,
                        node,
                        iter: iter.to_vec(),
                    };
                    self.moments.insert(&line);
                    let (_, evicted) = self.state.set_mut(set_idx).on_miss_insert(policy, line);
                    if let Some(evicted) = evicted {
                        self.moments.remove(&evicted);
                    }
                    self.state.stamp_epoch(iter);
                    self.tracker.mark_dirty(set_idx);
                }
                false
            }
        };
        self.stats.record(hit);
        hit
    }

    /// The level epoch's value on iterator dimension `dim`: the warped-dim
    /// stamp of the last access that wrote a label at this level, or `None`
    /// when no write ever reached that deep (the level is empty, or its
    /// last write came from a shallower loop).  Canonical keys encode each
    /// descendant label's warped-dim value relative to this stamp, which
    /// makes frozen labels — lines that stopped being touched because the
    /// working set fits in an inner level — shift-invariant for free.
    pub fn epoch_at(&self, dim: usize) -> Option<i64> {
        self.state.epoch().get(dim).copied()
    }

    /// Resets the level to an empty state.  The tracked moment
    /// dimensions stay as they are.
    pub fn reset(&mut self) {
        self.state = CacheState::new(&self.config);
        self.mru_set = 0;
        self.stats = LevelStats::default();
        self.tracker = FingerprintTracker::new(&self.state);
        self.moments.rebuild(&self.state);
    }

    /// Sorted indices of the cache sets holding at least one line, read
    /// straight from the sparse store (no allocation).  Sets are filled and
    /// replaced but never emptied, so this view only grows (until a
    /// [`reset`](SymLevel::reset)), and every set outside it is guaranteed
    /// to be in its initial state — empty lines *and* initial
    /// replacement-policy metadata.
    pub fn occupied_sets(&self) -> impl Iterator<Item = usize> + '_ {
        self.state.occupied_indices()
    }

    /// Brings the fingerprint tracker up to date with the cache state
    /// (recomputing the digests of sets dirtied since the last call).
    /// Must be called before [`SymLevel::fingerprint`].
    pub fn prepare_match(&mut self) {
        self.tracker.flush(&self.state);
    }

    /// The rolling level fingerprint with iterator dimension
    /// `excluded_dim` factored out, or `None` when the dimension is beyond
    /// [`MAX_TRACKED_DIMS`](crate::fingerprint::MAX_TRACKED_DIMS).
    ///
    /// Requires a preceding [`SymLevel::prepare_match`].
    pub fn fingerprint(&self, excluded_dim: usize) -> Option<u64> {
        self.tracker.fingerprint(excluded_dim)
    }

    /// Keeps label moments — per node, the count, sum and sum of squares
    /// of the labels' values (see [`fingerprint`](crate::fingerprint)) —
    /// on the dimensions set in `dims` (bit `d` for dimension `d`),
    /// recomputing them over the current labels when the mask changes.
    /// An empty mask — the default — keeps none and costs nothing per
    /// access.
    pub fn track_moments(&mut self, dims: u32) {
        self.moments.track(dims, &self.state);
    }

    /// The per-node label moments on the tracked dimensions.
    pub(crate) fn label_moments(&self) -> &LabelMoments {
        &self.moments
    }

    /// Applies a warp of `chunks` periods to the level: every line whose
    /// label belongs to one of the `descendants` access nodes (at depth
    /// `>= warp_depth`) advances its label by `chunks * period` along
    /// dimension `warp_depth - 1`, its concrete block shifts by
    /// `total_block_shift`, and the cache sets rotate accordingly
    /// (Equation 18 of the paper: the new state is `γ(sym-c ∘ π_Set^n)`).
    ///
    /// With `threads > 1` and a large level the per-set rewrites are fanned
    /// out over that many scoped threads; the result is bit-identical to the
    /// sequential rewrite (every set is transformed independently).
    #[allow(clippy::too_many_arguments)]
    pub fn apply_warp(
        &mut self,
        addresses: &[Aff],
        descendants: &HashSet<usize>,
        warp_depth: usize,
        period: i64,
        chunks: i64,
        total_byte_shift: i64,
        threads: usize,
    ) {
        let line_size = self.config.line_size() as i64;
        debug_assert_eq!(total_byte_shift % line_size, 0);
        let total_block_shift = total_byte_shift / line_size;
        let num_sets = self.config.num_sets();
        let rotation = total_block_shift.rem_euclid(num_sets as i64) as usize;
        let transform = |line: &SymLine| -> SymLine {
            if descendants.contains(&line.node) && line.iter.len() >= warp_depth {
                let mut iter = line.iter.clone();
                iter[warp_depth - 1] += chunks * period;
                let address = addresses[line.node].eval(&iter);
                debug_assert!(address >= 0);
                let block = MemBlock(address as u64 / self.config.line_size());
                debug_assert_eq!(
                    block.0 as i64,
                    line.block.0 as i64 + total_block_shift,
                    "warped label concretisation must shift uniformly"
                );
                SymLine {
                    block,
                    node: line.node,
                    iter,
                }
            } else {
                debug_assert_eq!(total_block_shift, 0, "stale lines require a zero shift");
                line.clone()
            }
        };
        // Rotate the sets: the set holding a block b now holds b + shift,
        // and (b + shift) mod S = (old index + rotation) mod S.  Empty sets
        // are interchangeable — they are always in their initial state — so
        // the warp drains the touched entries out of the sparse store (the
        // vacated slots revert to the shared empty template for free),
        // transforms them, and lands them on their rotated positions: the
        // warp costs O(occupied sets), not O(total sets).  Each set is
        // rewritten independently, so the transforms parallelise across
        // disjoint chunks of the drained entry list.
        let entries = self.state.take_entries();
        let transformed: Vec<SetState<SymLine>> =
            if threads > 1 && entries.len() >= PARALLEL_SETS_THRESHOLD {
                let mut out: Vec<Option<SetState<SymLine>>> = vec![None; entries.len()];
                let chunk = entries.len().div_ceil(threads);
                let transform = &transform;
                let entries = &entries;
                std::thread::scope(|scope| {
                    for (t, slice) in out.chunks_mut(chunk).enumerate() {
                        scope.spawn(move || {
                            for (off, slot) in slice.iter_mut().enumerate() {
                                let (_, set) = &entries[t * chunk + off];
                                *slot = Some(set.map_payloads(|l| transform(l)));
                            }
                        });
                    }
                });
                out.into_iter().map(|s| s.expect("chunk filled")).collect()
            } else {
                entries
                    .iter()
                    .map(|(_, set)| set.map_payloads(&transform))
                    .collect()
            };
        // The rotation is a bijection, so no landing slot is written twice.
        // Derived structures follow: vacated and landed-on slots both get
        // their digests refreshed on the next match attempt.
        for (&(s_old, _), set) in entries.iter().zip(transformed) {
            let s_new = (s_old + rotation) % num_sets;
            self.state.insert_set(s_new, set);
            self.tracker.mark_dirty(s_old);
            self.tracker.mark_dirty(s_new);
        }
        self.mru_set = (self.mru_set + rotation) % num_sets;
        // The level's last label write advances with its labels: in the
        // execution the warp skipped, the corresponding access would have
        // stamped the epoch `chunks * period` iterations later.  A no-op
        // when the stamp does not reach the warped dimension — a level can
        // arrive here with such a stamp (the simulator's normaliser then
        // fell back to the current iterator, classifying it as shifted),
        // and its too-shallow stamp deliberately stays put so later
        // attempts keep using the same fallback.
        self.state.shift_epoch(warp_depth - 1, chunks * period);
        self.moments.rebuild(&self.state);
    }

    /// The concrete cache state (dropping symbolic labels).
    pub fn concrete_state(&self) -> CacheState<MemBlock> {
        self.state.map_payloads(|l| l.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::rebuild_level_fingerprint;
    use cache_model::ReplacementPolicy;

    fn level() -> SymLevel {
        SymLevel::new(CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru))
    }

    #[test]
    fn access_tracks_labels_and_stats() {
        let mut l = level();
        assert!(!l.access(MemBlock(0), AccessKind::Read, 7, &[1, 2]));
        assert!(l.access(MemBlock(0), AccessKind::Read, 9, &[1, 3]));
        assert_eq!(l.stats.hits, 1);
        assert_eq!(l.stats.misses, 1);
        let line = l.state.set(0).lines()[0].clone().unwrap();
        assert_eq!(line.node, 9, "a hit refreshes the symbolic label");
        assert_eq!(line.iter, vec![1, 3]);
        assert_eq!(l.mru_set, 0);
        assert_eq!(l.occupied_sets().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn no_write_allocate_does_not_fill() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru).no_write_allocate();
        let mut l = SymLevel::new(config);
        assert!(!l.access(MemBlock(0), AccessKind::Write, 0, &[0]));
        assert!(l.state.set(0).lines().iter().all(Option::is_none));
        assert_eq!(l.occupied_sets().count(), 0, "no fill, no occupied set");
        assert_eq!(l.state.occupied_len(), 0, "not even a touched-set entry");
        assert!(!l.access(MemBlock(0), AccessKind::Read, 0, &[0]));
        assert!(l.access(MemBlock(0), AccessKind::Read, 0, &[0]));
        assert_eq!(l.occupied_sets().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn concrete_state_projection() {
        let mut l = level();
        l.access(MemBlock(5), AccessKind::Read, 0, &[0]);
        let c = l.concrete_state();
        assert_eq!(c.set(1).lines()[0], Some(MemBlock(5)));
    }

    #[test]
    fn incremental_fingerprint_matches_rebuild_after_accesses() {
        let mut l = level();
        for (i, b) in [0u64, 5, 9, 2, 5, 13].into_iter().enumerate() {
            l.access(MemBlock(b), AccessKind::Read, i % 2, &[i as i64]);
            l.prepare_match();
            let rebuilt = rebuild_level_fingerprint(&l.state);
            for (d, word) in rebuilt.iter().enumerate() {
                assert_eq!(l.fingerprint(d), Some(*word), "dim {d} after {i}");
            }
        }
    }

    #[test]
    fn post_warp_accesses_cannot_resurrect_stale_digests() {
        // Regression test: a warp replaces sets wholesale (resetting their
        // content versions), and a later access can bring a replaced set's
        // version back to the value its slot had before the warp.  The
        // tracker must still recompute the digest — content versions are
        // not comparable across different set instances.
        let mut l = level();
        let addr = Aff::var(1, 0).scale(64);
        let descendants: HashSet<usize> = [0].into_iter().collect();
        l.access(MemBlock(1), AccessKind::Read, 0, &[1]);
        l.access(MemBlock(3), AccessKind::Read, 0, &[3]);
        l.prepare_match();
        // Shift by 2 lines: set 1 -> set 3, set 3 -> set 1.
        l.apply_warp(
            std::slice::from_ref(&addr),
            &descendants,
            1,
            2,
            1,
            2 * 64,
            1,
        );
        // One access to the landed-on set brings its (reset) version back
        // to the pre-warp slot value without an intervening flush.
        l.access(MemBlock(9), AccessKind::Read, 0, &[9]);
        l.prepare_match();
        let rebuilt = rebuild_level_fingerprint(&l.state);
        for (d, word) in rebuilt.iter().enumerate() {
            assert_eq!(l.fingerprint(d), Some(*word), "dim {d}");
        }
    }

    #[test]
    fn epoch_follows_label_writes_and_warps() {
        let mut l = level();
        assert_eq!(l.epoch_at(0), None, "a fresh level has no stamp");
        // A fill stamps the epoch; so does a hit promotion.
        l.access(MemBlock(0), AccessKind::Read, 0, &[4]);
        assert_eq!(l.epoch_at(0), Some(4));
        l.access(MemBlock(0), AccessKind::Read, 0, &[9]);
        assert_eq!(l.epoch_at(0), Some(9));
        assert_eq!(l.epoch_at(1), None, "the stamp is one deep");
        // A no-write-allocate write miss touches nothing: no stamp update.
        let nwa = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru).no_write_allocate();
        let mut frozen = SymLevel::new(nwa);
        frozen.access(MemBlock(0), AccessKind::Write, 0, &[3]);
        assert_eq!(frozen.epoch_at(0), None);
        // A warp advances the stamp with the labels.
        let addr = Aff::var(1, 0).scale(64);
        let mut warped = level();
        warped.access(MemBlock(9), AccessKind::Read, 0, &[9]);
        warped.apply_warp(
            std::slice::from_ref(&addr),
            &[0].into_iter().collect(),
            1,
            2,
            3,
            6 * 64,
            1,
        );
        assert_eq!(warped.epoch_at(0), Some(9 + 6));
    }

    #[test]
    fn occupied_sets_survive_warp_rotation() {
        let mut l = level();
        // One descendant line in set 1; warp shifts blocks by 1 line.
        let addr = Aff::var(1, 0).scale(64);
        l.access(MemBlock(1), AccessKind::Read, 0, &[1]);
        l.apply_warp(
            std::slice::from_ref(&addr),
            &[0].into_iter().collect(),
            1,
            1,
            2,
            2 * 64,
            1,
        );
        assert_eq!(
            l.occupied_sets().collect::<Vec<_>>(),
            vec![3],
            "set 1 rotated to set 3"
        );
        assert_eq!(l.mru_set, 3);
        l.prepare_match();
        let rebuilt = rebuild_level_fingerprint(&l.state);
        assert_eq!(l.fingerprint(0), Some(rebuilt[0]));
    }
}
