//! Replacement policies.
//!
//! All policies implemented here satisfy the data-independence property
//! (Property 1 of the paper): their decisions depend only on the *positions*
//! of hits and on policy metadata, never on the identity of the cached
//! memory blocks.  This is what makes cache warping sound.

use std::fmt;

/// A cache replacement policy.
///
/// Each policy's update rule is implemented once, on slices of lines and
/// borrowed per-set metadata, and shared by both stores: the generic
/// [`SetState`](crate::SetState) (warping's symbolic store) and the flat
/// concrete [`FlatCache`](crate::FlatCache).  This enum selects the rule and
/// how the per-set [`PolicyState`] is initialised.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReplacementPolicy {
    /// Least-recently-used.  Encoded in the order of the cache lines
    /// (index 0 is most recently used), no extra policy state.
    Lru,
    /// First-in first-out.  Encoded in the order of the cache lines
    /// (index 0 is last-in), no extra policy state; hits do not update state.
    Fifo,
    /// Tree-based Pseudo-LRU as found in the L1 caches of recent Intel
    /// microarchitectures.  Requires a power-of-two associativity.
    Plru,
    /// Quad-age LRU, modelled as static re-reference interval prediction
    /// (SRRIP-HP) with 2-bit ages: blocks are inserted with age 2, promoted
    /// to age 0 on a hit, and the victim is a block of age 3 (ageing all
    /// blocks until one reaches age 3).  This is the scan- and
    /// thrash-resistant policy used in the L2/L3 caches of recent Intel
    /// microarchitectures.
    Qlru,
}

impl ReplacementPolicy {
    /// All policies supported by the simulator, in the order used by the
    /// paper's figures.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ];

    /// The initial per-set policy state for a set of the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`ReplacementPolicy::Plru`] and `assoc` is not
    /// a power of two of at most 64 (the tree bits fill one word), or if
    /// `assoc` is zero.
    pub fn initial_state(self, assoc: usize) -> PolicyState {
        assert!(assoc > 0, "associativity must be positive");
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => PolicyState::None,
            ReplacementPolicy::Plru => {
                assert!(
                    assoc.is_power_of_two() && assoc <= 64,
                    "PLRU requires a power-of-two associativity of at most 64, got {assoc}"
                );
                PolicyState::PlruBits(0)
            }
            ReplacementPolicy::Qlru => PolicyState::Ages(vec![QLRU_INITIAL_AGE; assoc]),
        }
    }

    /// A short, human-readable name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Plru => "Pseudo-LRU",
            ReplacementPolicy::Qlru => "Quad-age LRU",
        }
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Policy metadata of a single cache set.
///
/// The metadata refers to cache lines by position only; it never contains
/// memory blocks, which is what makes the model data independent.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PolicyState {
    /// No extra state (LRU, FIFO: the state is the line order).
    None,
    /// Tree bits of tree-based Pseudo-LRU, one word per set: bit 0 is the
    /// root and the children of node `i` are bits `2i + 1` and `2i + 2`.
    /// A clear bit means the pseudo-LRU victim is in the left subtree.
    PlruBits(u64),
    /// Per-line re-reference ages (0 = re-use expected soonest, 3 = victim).
    Ages(Vec<u8>),
}

impl PolicyState {
    /// True if this is [`PolicyState::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, PolicyState::None)
    }

    /// The metadata as a borrowed view, the form both stores expose.
    pub fn view(&self) -> PolicyView<'_> {
        match self {
            PolicyState::None => PolicyView::None,
            PolicyState::PlruBits(bits) => PolicyView::PlruBits(*bits),
            PolicyState::Ages(ages) => PolicyView::Ages(ages),
        }
    }

    pub(crate) fn view_mut(&mut self) -> PolicyMut<'_> {
        match self {
            PolicyState::None => PolicyMut::None,
            PolicyState::PlruBits(bits) => PolicyMut::PlruBits(bits),
            PolicyState::Ages(ages) => PolicyMut::Ages(ages),
        }
    }
}

/// Borrowed policy metadata of one set, wherever the store keeps it: a
/// [`SetState`](crate::SetState)'s own [`PolicyState`], or the flat arrays
/// of a [`FlatCache`](crate::FlatCache).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyView<'a> {
    /// No extra state (LRU, FIFO).
    None,
    /// PLRU tree bits, laid out as in [`PolicyState::PlruBits`].
    PlruBits(u64),
    /// QLRU per-line ages.
    Ages(&'a [u8]),
}

/// Mutable counterpart of [`PolicyView`], handed to the update rules.
pub(crate) enum PolicyMut<'a> {
    None,
    PlruBits(&'a mut u64),
    Ages(&'a mut [u8]),
}

/// The age every QLRU line starts at (and a victim must reach).
pub(crate) const QLRU_INITIAL_AGE: u8 = 3;
/// The age a QLRU line is filled with.
const QLRU_INSERT_AGE: u8 = 2;

/// Records a hit on way `way` of `lines`, updating the line order and the
/// metadata.  Returns the position the hit line now occupies: 0 for LRU
/// (the line moves to the front, shifting the younger ones), `way` for the
/// other policies.
pub(crate) fn on_hit<T>(
    policy: ReplacementPolicy,
    lines: &mut [T],
    meta: PolicyMut<'_>,
    way: usize,
) -> usize {
    match (policy, meta) {
        (ReplacementPolicy::Lru, _) => {
            lines[..=way].rotate_right(1);
            0
        }
        // FIFO does not update state on hits.
        (ReplacementPolicy::Fifo, _) => way,
        (ReplacementPolicy::Plru, PolicyMut::PlruBits(bits)) => {
            plru_touch(bits, lines.len(), way);
            way
        }
        (ReplacementPolicy::Qlru, PolicyMut::Ages(ages)) => {
            ages[way] = 0;
            way
        }
        _ => unreachable!("policy metadata does not match the policy"),
    }
}

/// Makes room for a missing block and updates the metadata as if it were
/// inserted.  Returns the way the block goes to, which still holds the
/// victim (or an empty line): the caller writes the block there.
///
/// LRU and FIFO rotate the lines so that the last one (empty or the
/// victim) moves to the front; PLRU and QLRU fill the first empty way, or
/// evict the policy's victim in place.
pub(crate) fn on_fill<T>(
    policy: ReplacementPolicy,
    lines: &mut [T],
    meta: PolicyMut<'_>,
    is_empty: impl Fn(&T) -> bool,
) -> usize {
    match (policy, meta) {
        (ReplacementPolicy::Lru | ReplacementPolicy::Fifo, _) => {
            lines.rotate_right(1);
            0
        }
        (ReplacementPolicy::Plru, PolicyMut::PlruBits(bits)) => {
            let way = lines
                .iter()
                .position(is_empty)
                .unwrap_or_else(|| plru_victim(*bits, lines.len()));
            plru_touch(bits, lines.len(), way);
            way
        }
        (ReplacementPolicy::Qlru, PolicyMut::Ages(ages)) => {
            let way = match lines.iter().position(is_empty) {
                Some(empty) => empty,
                None => loop {
                    if let Some(v) = ages.iter().position(|&a| a >= QLRU_INITIAL_AGE) {
                        break v;
                    }
                    for a in ages.iter_mut() {
                        *a = a.saturating_add(1);
                    }
                },
            };
            ages[way] = QLRU_INSERT_AGE;
            way
        }
        _ => unreachable!("policy metadata does not match the policy"),
    }
}

/// Updates PLRU tree bits so that they point away from the accessed line.
fn plru_touch(bits: &mut u64, assoc: usize, line: usize) {
    // The tree has `assoc - 1` internal nodes; leaves are the lines.  Walk
    // from the root to the leaf and set each bit to point to the *other*
    // subtree (the pseudo-LRU side).
    let levels = assoc.trailing_zeros();
    let mut node = 0usize;
    for level in 0..levels {
        let go_right = (line >> (levels - 1 - level)) & 1 == 1;
        if go_right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = 2 * node + 1 + usize::from(go_right);
    }
}

/// Follows PLRU tree bits from the root to the pseudo-LRU victim line.
fn plru_victim(bits: u64, assoc: usize) -> usize {
    let levels = assoc.trailing_zeros();
    let mut node = 0usize;
    let mut line = 0usize;
    for _ in 0..levels {
        let go_right = (bits >> node) & 1 == 1;
        line = 2 * line + usize::from(go_right);
        node = 2 * node + 1 + usize::from(go_right);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states() {
        assert_eq!(ReplacementPolicy::Lru.initial_state(4), PolicyState::None);
        assert_eq!(ReplacementPolicy::Fifo.initial_state(4), PolicyState::None);
        assert_eq!(
            ReplacementPolicy::Plru.initial_state(4),
            PolicyState::PlruBits(0)
        );
        assert_eq!(
            ReplacementPolicy::Qlru.initial_state(2),
            PolicyState::Ages(vec![3, 3])
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = ReplacementPolicy::Plru.initial_state(3);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn plru_tree_bits_fit_one_word() {
        let _ = ReplacementPolicy::Plru.initial_state(128);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ReplacementPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
