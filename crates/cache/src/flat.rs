//! The concrete cache store: flat tag and policy arrays per level, handed
//! out 64 sets at a time.

use crate::block::MemBlock;
use crate::cache::CacheConfig;
use crate::policy::{self, PolicyMut, PolicyView, ReplacementPolicy, QLRU_INITIAL_AGE};
use std::fmt;

/// The concrete state of one set-associative cache level, stored flat.
///
/// This is the store behind every simulator that tracks memory blocks
/// only (classic, trace replay, the sampler); warping keeps its symbolic
/// labels in the sparse [`CacheState`](crate::CacheState) instead.
///
/// # Layout
///
/// The sets are grouped into pages of 64 consecutive sets (or all sets,
/// when there are fewer).  A page gets its rows in the arrays below the
/// first time one of its sets is filled, so memory and construction time
/// follow the touched pages, not the cache capacity; a page table of one
/// word per page maps each page to its rows.  All untouched pages share
/// one page in the initial state.  Per level:
///
/// * one array of `assoc` tags per row: 0 is an empty way, anything else
///   is the block number plus one;
/// * the policy metadata in flat arrays: LRU and FIFO keep their order in
///   the ways themselves (way 0 is the most recently used / last-in line),
///   PLRU keeps its tree bits in one word per row, QLRU one age byte per
///   way;
/// * one occupancy word per page, with a bit per set that holds a line.
///
/// The set index is a mask when the set count is a power of two and a
/// modulo otherwise.  Lines are replaced but never vacated, so every set
/// whose occupancy bit is clear is in its initial state: iteration over
/// the occupied sets is O(pages + occupied) and ascending, and so are
/// equality and [`FlatCache::map_blocks`].
///
/// ```
/// use cache_model::{CacheConfig, FlatCache, MemBlock, ReplacementPolicy};
///
/// // The running example of the paper: 4 sets, associativity 2, LRU.
/// let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
/// let mut cache = FlatCache::new(&config);
/// assert!(!cache.access(MemBlock(0), true)); // cold miss
/// assert!(cache.access(MemBlock(0), true)); // hit
/// assert_eq!(cache.occupied_indices().collect::<Vec<_>>(), vec![0]);
/// ```
#[derive(Clone)]
pub struct FlatCache {
    num_sets: usize,
    assoc: usize,
    policy: ReplacementPolicy,
    /// `num_sets - 1` when the set count is a power of two.
    mask: Option<u64>,
    /// Sets per page: [`PAGE_SETS`], or the set count when smaller.
    page_sets: usize,
    /// Per page, the first of its rows; rows `0..page_sets` are the shared
    /// initial page of every page that was never filled.
    pages: Vec<u32>,
    /// `assoc` tags per row, `page_sets` rows per page.
    tags: Vec<u64>,
    /// PLRU tree bits, one word per row (empty for other policies).
    plru: Vec<u64>,
    /// QLRU ages, one byte per way (empty for other policies).
    ages: Vec<u8>,
    /// Per page with rows (the initial page first, then in the order the
    /// pages were first filled), one bit per set of the page that holds a
    /// line.
    occupied: Vec<u64>,
    /// Ways holding a line, over all sets.
    filled: u64,
    /// The level-local epoch: the stamp of the most recent access that
    /// wrote the level (see [`FlatCache::epoch`]).
    epoch: Option<i64>,
}

/// Sets per page: one occupancy word's worth.
const PAGE_SETS: usize = 64;

/// The tag of a block: its number plus one, so that 0 marks an empty way.
/// Block `u64::MAX` (byte address 2⁶⁴ − 1 under 1-byte lines) has no tag.
#[inline]
fn tag_of(block: MemBlock) -> u64 {
    debug_assert!(block.0 != u64::MAX, "block {block} has no tag");
    block.0.wrapping_add(1)
}

impl FlatCache {
    /// An empty level with the geometry and policy of `config` (its
    /// write-allocate flag is the hierarchy's business, see
    /// [`MultiLevelState`](crate::MultiLevelState)).  Costs one word per
    /// 64 sets plus one page, whatever the capacity.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of
    /// [`ReplacementPolicy::initial_state`].
    pub fn new(config: &CacheConfig) -> Self {
        let _ = config.policy().initial_state(config.assoc());
        FlatCache::empty(config.num_sets(), config.assoc(), config.policy())
    }

    fn empty(num_sets: usize, assoc: usize, policy: ReplacementPolicy) -> Self {
        let mut cache = FlatCache {
            num_sets,
            assoc,
            policy,
            mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            page_sets: num_sets.min(PAGE_SETS),
            pages: vec![0; num_sets.div_ceil(PAGE_SETS)],
            tags: Vec::new(),
            plru: Vec::new(),
            ages: Vec::new(),
            occupied: Vec::new(),
            filled: 0,
            epoch: None,
        };
        cache.new_page();
        cache
    }

    /// Number of cache sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The set `block` maps to (modulo placement).
    #[inline]
    fn index(&self, block: MemBlock) -> usize {
        match self.mask {
            Some(mask) => (block.0 & mask) as usize,
            None => (block.0 % self.num_sets as u64) as usize,
        }
    }

    /// The row of set `set`: its offset in its page's rows (the initial
    /// page's if the page was never filled).
    #[inline]
    fn row(&self, set: usize) -> usize {
        self.pages[set / PAGE_SETS] as usize + set % PAGE_SETS
    }

    /// Appends a page in the initial state to the arrays; returns its
    /// first row.
    fn new_page(&mut self) -> u32 {
        let first = self.occupied.len() * self.page_sets;
        let rows = first + self.page_sets;
        self.tags.resize(rows * self.assoc, 0);
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {}
            ReplacementPolicy::Plru => self.plru.resize(rows, 0),
            ReplacementPolicy::Qlru => self.ages.resize(rows * self.assoc, QLRU_INITIAL_AGE),
        }
        self.occupied.push(0);
        u32::try_from(first).expect("fewer than 2^32 rows")
    }

    /// The row of set `set`, giving its page rows of its own first, and
    /// marks the set occupied.
    fn occupy(&mut self, set: usize) -> usize {
        let page = set / PAGE_SETS;
        if self.pages[page] == 0 {
            self.pages[page] = self.new_page();
        }
        self.occupied[self.pages[page] as usize / self.page_sets] |= 1 << (set % PAGE_SETS);
        self.row(set)
    }

    /// Classifies an access to `block` and updates the level with one
    /// lookup: a hit updates the replacement state, a miss inserts the
    /// block when `fill` holds (a write under no-write-allocate does not)
    /// and leaves the level untouched otherwise.  Returns `true` for a hit.
    #[inline]
    pub fn access(&mut self, block: MemBlock, fill: bool) -> bool {
        let set = self.index(block);
        let tag = tag_of(block);
        let (assoc, policy) = (self.assoc, self.policy);
        let row = self.row(set);
        let lines = &mut self.tags[row * assoc..(row + 1) * assoc];
        // Already the most recently used line: nothing to update.
        if lines[0] == tag && policy == ReplacementPolicy::Lru {
            return true;
        }
        if let Some(way) = lines.iter().position(|&t| t == tag) {
            let meta = meta_mut(policy, &mut self.plru, &mut self.ages, row, assoc);
            policy::on_hit(policy, lines, meta, way);
            return true;
        }
        if fill {
            self.fill(set, tag);
        }
        false
    }

    /// Inserts `tag` into set `set`, which does not hold it.
    fn fill(&mut self, set: usize, tag: u64) {
        let (assoc, policy) = (self.assoc, self.policy);
        let row = self.occupy(set);
        let lines = &mut self.tags[row * assoc..(row + 1) * assoc];
        let meta = meta_mut(policy, &mut self.plru, &mut self.ages, row, assoc);
        let way = policy::on_fill(policy, lines, meta, |&t| t == 0);
        if lines[way] == 0 {
            self.filled += 1;
        }
        lines[way] = tag;
    }

    /// Set `idx`: its lines in policy order and its metadata.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&self, idx: usize) -> FlatSet<'_> {
        assert!(idx < self.num_sets, "set index out of range");
        let row = self.row(idx);
        let ways = row * self.assoc..(row + 1) * self.assoc;
        FlatSet {
            tags: &self.tags[ways.clone()],
            policy: match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => PolicyView::None,
                ReplacementPolicy::Plru => PolicyView::PlruBits(self.plru[row]),
                ReplacementPolicy::Qlru => PolicyView::Ages(&self.ages[ways]),
            },
        }
    }

    /// The indices of the sets holding at least one line, ascending.
    /// O(pages + occupied), no allocation.
    pub fn occupied_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages.iter().enumerate().flat_map(|(page, &first)| {
            let mut bits = self.occupied[first as usize / self.page_sets];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    page * PAGE_SETS + bit
                })
            })
        })
    }

    /// `(index, set)` for the sets holding at least one line, ascending.
    pub fn occupied_entries(&self) -> impl Iterator<Item = (usize, FlatSet<'_>)> + '_ {
        self.occupied_indices().map(move |i| (i, self.set(i)))
    }

    /// Number of sets holding at least one line.
    pub fn occupied_len(&self) -> usize {
        self.occupied
            .iter()
            .map(|bits| bits.count_ones() as usize)
            .sum()
    }

    /// Number of ways holding a line, over all sets.  Lines are never
    /// vacated, so this only grows: every fill into an empty way adds one.
    pub fn filled_ways(&self) -> u64 {
        self.filled
    }

    /// The level-local epoch: the stamp passed to the most recent
    /// [`MultiLevelState::access_run_stamped`](crate::MultiLevelState::access_run_stamped)
    /// access that wrote this level (filled it, or updated it on a hit),
    /// `None` if no stamped access ever did.  Bookkeeping about *when*
    /// the level was written, so equality ignores it.
    pub fn epoch(&self) -> Option<i64> {
        self.epoch
    }

    pub(crate) fn stamp_epoch(&mut self, stamp: i64) {
        self.epoch = Some(stamp);
    }

    /// Renames every cached block with `rename`, keeping line positions,
    /// policy metadata, the epoch and the fill count.  Each set lands on
    /// the set its renamed blocks map to, so `rename` must map the blocks
    /// of one set into one set and distinct sets to distinct sets — true
    /// of the index-preserving bijections of the data-independence
    /// theorems (see [`bijection`](crate::bijection)).  O(pages + occupied).
    ///
    /// # Panics
    ///
    /// Panics if `rename` splits a set or merges two.
    pub fn map_blocks(&self, mut rename: impl FnMut(MemBlock) -> MemBlock) -> FlatCache {
        let assoc = self.assoc;
        let mut out = FlatCache::empty(self.num_sets, assoc, self.policy);
        for (set, view) in self.occupied_entries() {
            let blocks: Vec<Option<MemBlock>> = view.lines().map(|l| l.map(&mut rename)).collect();
            let to = blocks
                .iter()
                .flatten()
                .map(|&b| out.index(b))
                .reduce(|a, b| {
                    assert_eq!(a, b, "renaming must keep the blocks of a set together");
                    a
                })
                .expect("an occupied set holds a line");
            assert!(
                out.set(to).lines().all(|l| l.is_none()),
                "renaming must not merge two sets"
            );
            let row = out.occupy(to);
            for (way, block) in blocks.into_iter().enumerate() {
                out.tags[row * assoc + way] = block.map_or(0, tag_of);
            }
            let from = self.row(set);
            if !self.plru.is_empty() {
                out.plru[row] = self.plru[from];
            }
            if !self.ages.is_empty() {
                out.ages[row * assoc..(row + 1) * assoc]
                    .copy_from_slice(&self.ages[from * assoc..(from + 1) * assoc]);
            }
        }
        out.filled = self.filled;
        out.epoch = self.epoch;
        out
    }
}

/// The metadata of row `row` in the flat arrays.
#[inline]
fn meta_mut<'a>(
    policy: ReplacementPolicy,
    plru: &'a mut [u64],
    ages: &'a mut [u8],
    row: usize,
    assoc: usize,
) -> PolicyMut<'a> {
    match policy {
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => PolicyMut::None,
        ReplacementPolicy::Plru => PolicyMut::PlruBits(&mut plru[row]),
        ReplacementPolicy::Qlru => PolicyMut::Ages(&mut ages[row * assoc..(row + 1) * assoc]),
    }
}

/// Equal geometry and equal occupied sets, whatever order their pages
/// were filled in; the epoch is ignored.
impl PartialEq for FlatCache {
    fn eq(&self, other: &Self) -> bool {
        (self.num_sets, self.assoc, self.policy) == (other.num_sets, other.assoc, other.policy)
            && self.occupied_entries().eq(other.occupied_entries())
    }
}

impl Eq for FlatCache {}

impl fmt::Debug for FlatCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatCache")
            .field("num_sets", &self.num_sets)
            .field("assoc", &self.assoc)
            .field("policy", &self.policy)
            .field("epoch", &self.epoch)
            .field("occupied", &self.occupied_entries().collect::<Vec<_>>())
            .finish()
    }
}

/// One set of a [`FlatCache`], borrowed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FlatSet<'a> {
    tags: &'a [u64],
    policy: PolicyView<'a>,
}

impl<'a> FlatSet<'a> {
    /// The lines in policy order (as [`SetState::lines`](crate::SetState::lines)
    /// orders them), `None` for an empty way.
    pub fn lines(&self) -> impl Iterator<Item = Option<MemBlock>> + 'a {
        self.tags
            .iter()
            .map(|&tag| (tag != 0).then(|| MemBlock(tag - 1)))
    }

    /// The replacement-policy metadata.
    pub fn policy_state(&self) -> PolicyView<'a> {
        self.policy
    }
}

impl fmt::Debug for FlatSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatSet")
            .field("lines", &self.lines().collect::<Vec<_>>())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(cache: &FlatCache, set: usize) -> Vec<Option<u64>> {
        cache
            .set(set)
            .lines()
            .map(|l| l.map(MemBlock::id))
            .collect()
    }

    #[test]
    fn lru_hits_reorder_and_misses_evict_the_oldest() {
        let config = CacheConfig::with_sets(1, 3, 64, ReplacementPolicy::Lru);
        let mut cache = FlatCache::new(&config);
        for b in [1, 2, 3] {
            assert!(!cache.access(MemBlock(b), true));
        }
        assert_eq!(blocks(&cache, 0), vec![Some(3), Some(2), Some(1)]);
        assert!(cache.access(MemBlock(1), true));
        assert_eq!(blocks(&cache, 0), vec![Some(1), Some(3), Some(2)]);
        assert!(!cache.access(MemBlock(4), true));
        assert_eq!(blocks(&cache, 0), vec![Some(4), Some(1), Some(3)]);
        assert_eq!(cache.filled_ways(), 3);
    }

    #[test]
    fn non_power_of_two_set_counts_index_by_modulo() {
        let config = CacheConfig::with_sets(48, 2, 64, ReplacementPolicy::Plru);
        let mut cache = FlatCache::new(&config);
        cache.access(MemBlock(47), true);
        cache.access(MemBlock(48), true);
        cache.access(MemBlock(96 + 47), true);
        assert_eq!(cache.occupied_indices().collect::<Vec<_>>(), vec![0, 47]);
        assert_eq!(blocks(&cache, 47), vec![Some(47), Some(143)]);
        assert_eq!(cache.filled_ways(), 3);
    }

    #[test]
    fn no_fill_misses_leave_the_level_untouched() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Qlru);
        let mut cache = FlatCache::new(&config);
        assert!(!cache.access(MemBlock(5), false));
        assert_eq!(cache, FlatCache::new(&config));
        assert_eq!(cache.occupied_len(), 0);
        assert_eq!(cache.filled_ways(), 0);
    }

    #[test]
    fn pages_are_given_rows_on_their_first_fill_only() {
        let config = CacheConfig::new(64 * 1024 * 1024, 16, 64, ReplacementPolicy::Qlru);
        let mut cache = FlatCache::new(&config);
        // The shared initial page only.
        assert_eq!(cache.tags.len(), 64 * 16);
        assert!(!cache.access(MemBlock(64 * 100 + 3), false));
        assert_eq!(cache.tags.len(), 64 * 16, "a miss that does not fill");
        cache.access(MemBlock(64 * 100 + 3), true);
        cache.access(MemBlock(64 * 100 + 9), true);
        assert_eq!(cache.tags.len(), 2 * 64 * 16);
        assert_eq!(
            cache.occupied_indices().collect::<Vec<_>>(),
            vec![6403, 6409]
        );
        // Untouched sets, in and out of the filled page, answer as initial.
        let initial = ReplacementPolicy::Qlru.initial_state(16);
        for set in [0, 6404, 65535] {
            assert!(cache.set(set).lines().all(|l| l.is_none()));
            assert_eq!(cache.set(set).policy_state(), initial.view());
        }
    }

    #[test]
    fn equality_ignores_the_order_pages_were_filled_in() {
        let config = CacheConfig::with_sets(256, 2, 64, ReplacementPolicy::Plru);
        let (mut a, mut b) = (FlatCache::new(&config), FlatCache::new(&config));
        for block in [3, 200] {
            a.access(MemBlock(block), true);
        }
        for block in [200, 3] {
            b.access(MemBlock(block), true);
        }
        assert_eq!(a, b);
        b.access(MemBlock(3 + 256), true);
        assert_ne!(a, b);
    }

    #[test]
    fn map_blocks_rotates_sets_and_keeps_metadata() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Qlru);
        let mut cache = FlatCache::new(&config);
        for b in [0, 4, 0, 1] {
            cache.access(MemBlock(b), true);
        }
        let shifted = cache.map_blocks(|b| MemBlock(b.0 + 2));
        assert_eq!(shifted.occupied_indices().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(blocks(&shifted, 2), vec![Some(2), Some(6)]);
        assert_eq!(shifted.set(2).policy_state(), cache.set(0).policy_state());
        assert_eq!(shifted.filled_ways(), cache.filled_ways());
    }
}
