//! Cache models for warping cache simulation.
//!
//! This crate implements the cache-architecture substrate of the paper
//! *Warping Cache Simulation of Polyhedral Programs* (Morelli & Reineke,
//! PLDI 2022):
//!
//! * memory blocks and accesses ([`MemBlock`], [`Access`], [`AccessKind`]),
//! * replacement policies satisfying the data-independence property
//!   (Property 1): [`ReplacementPolicy::Lru`], [`ReplacementPolicy::Fifo`],
//!   [`ReplacementPolicy::Plru`] and [`ReplacementPolicy::Qlru`],
//! * individual cache sets ([`SetState`]), set-associative caches with modulo
//!   placement ([`CacheConfig`], [`CacheState`] — a sparse store of the
//!   touched sets plus one shared empty-set template, so construction is
//!   O(1) and clone/rotation cost O(occupied sets)),
//! * the depth-N memory system: [`MemoryConfig`] describes any number of
//!   non-inclusive non-exclusive cache levels (with write-allocate and
//!   no-write-allocate [`WritePolicy`]s, a conversion from [`CacheConfig`]
//!   and JSON (de)serialization) and [`MultiLevelState`] simulates them
//!   through one inclusive access path shared by every simulator,
//! * block bijections and rotations ([`bijection`]) used to state and test
//!   the data-independence theorems.
//!
//! Cache states are generic over the line payload `B` so that the warping
//! simulator can reuse the exact same update logic for *symbolic* cache
//! states (payloads carrying both a concrete block and a symbolic label).
//!
//! # Example
//!
//! ```
//! use cache_model::{CacheConfig, CacheState, ReplacementPolicy, MemBlock};
//!
//! // The running example of the paper: 4 sets, associativity 2, LRU.
//! let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
//! let mut cache = CacheState::new(&config);
//! let a = MemBlock(0);
//! assert!(!cache.access_block(&config, a)); // cold miss
//! assert!(cache.access_block(&config, a));  // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bijection;
mod block;
mod cache;
#[cfg(test)]
mod hierarchy;
mod memory;
mod multilevel;
mod policy;
mod set;

pub use block::{Access, AccessKind, MemBlock};
pub use cache::{CacheConfig, CacheState, LevelStats};
pub use memory::{MemoryConfig, MemoryConfigError, WritePolicy};
pub use multilevel::{LookupOutcome, MultiLevelState};
pub use policy::{PolicyState, ReplacementPolicy};
pub use set::SetState;
