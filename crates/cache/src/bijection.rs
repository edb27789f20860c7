//! Block bijections and the data-independence property.
//!
//! This module provides the machinery used to state (and test) Property 1,
//! Theorem 1 and Corollary 5 of the paper: bijections on memory blocks that
//! preserve the partition into cache sets, the cache-set bijections they
//! induce, and their application to cache states.

use crate::block::MemBlock;
use crate::flat::FlatCache;
use crate::multilevel::MultiLevelState;

/// A bijection on memory blocks given by a shift: `π(b) = b + delta`.
///
/// Shift bijections always preserve the partition of blocks into cache sets
/// (they are members of `Π_index=` in the paper's notation) and induce the
/// set rotation `π_Set(s) = (s + delta) mod num_sets`, which is exactly the
/// class of matches the warping simulator looks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShiftBijection {
    /// The shift applied to every block number.
    pub delta: i64,
}

impl ShiftBijection {
    /// A new shift bijection.
    pub fn new(delta: i64) -> Self {
        ShiftBijection { delta }
    }

    /// Applies the bijection to a block.
    ///
    /// # Panics
    ///
    /// Panics if the shifted block number would be negative.
    pub fn apply(&self, block: MemBlock) -> MemBlock {
        let shifted = block.0 as i64 + self.delta;
        assert!(shifted >= 0, "shifted block number must be non-negative");
        MemBlock(shifted as u64)
    }

    /// The induced rotation of cache-set indices for a cache with `num_sets`
    /// sets: `π_Set(s) = (s + delta) mod num_sets`.
    pub fn set_rotation(&self, num_sets: usize) -> i64 {
        self.delta.rem_euclid(num_sets as i64)
    }

    /// Applies the bijection to a whole cache level (Equation 5):
    /// `π(c) = λ s. π(c(π_Set⁻¹(s)))`.  O(occupied sets): every occupied
    /// set moves to its rotated index with its blocks renamed.
    pub fn apply_to_cache(&self, state: &FlatCache) -> FlatCache {
        state.map_blocks(|b| self.apply(b))
    }

    /// Applies the bijection to an N-level state (Corollary 5 generalized):
    /// every level is renamed with the same block bijection.
    pub fn apply_to_levels(&self, state: &MultiLevelState) -> MultiLevelState {
        state.map_blocks(|b| self.apply(b))
    }
}

/// Rotates a set index by `offset` positions: `(index + offset) mod num_sets`.
pub fn rotate_index(index: usize, offset: i64, num_sets: usize) -> usize {
    (index as i64 + offset).rem_euclid(num_sets as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, ReplacementPolicy};

    #[test]
    fn shift_preserves_index_partition() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
        let pi = ShiftBijection::new(3);
        for b in 0..32u64 {
            for b2 in 0..32u64 {
                let same_before = config.index(MemBlock(b)) == config.index(MemBlock(b2));
                let same_after =
                    config.index(pi.apply(MemBlock(b))) == config.index(pi.apply(MemBlock(b2)));
                assert_eq!(same_before, same_after);
            }
        }
    }

    #[test]
    fn rotate_index_wraps() {
        assert_eq!(rotate_index(3, 1, 4), 0);
        assert_eq!(rotate_index(0, -1, 4), 3);
        assert_eq!(rotate_index(2, 6, 4), 0);
    }

    /// Theorem 1 on a concrete example: updating then renaming equals
    /// renaming then updating with the renamed block.
    #[test]
    fn data_independence_example() {
        let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
        let pi = ShiftBijection::new(1);
        let mut c = FlatCache::new(&config);
        for b in [0u64, 1, 4, 5, 2] {
            c.access(MemBlock(b), true);
        }
        let b = MemBlock(6);
        // π(UpCache(c, b))
        let mut updated = c.clone();
        updated.access(b, true);
        let lhs = pi.apply_to_cache(&updated);
        // UpCache(π(c), π(b))
        let mut rhs = pi.apply_to_cache(&c);
        rhs.access(pi.apply(b), true);
        assert_eq!(lhs, rhs);
    }
}
