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
//! * individual cache sets ([`SetState`]) and set-associative caches with
//!   modulo placement ([`CacheConfig`]), in two stores:
//!   - [`FlatCache`], the concrete store: one flat tag array per level,
//!     policy metadata in flat arrays and an occupancy bitmap, so an access
//!     costs a few array reads.  Classic simulation, trace replay and the
//!     interval sampler run on it;
//!   - [`CacheState`], warping's symbolic store: a sparse map of the
//!     touched [`SetState`]s, generic over the line payload so that the
//!     warping simulator can keep a symbolic label next to every block,
//!     rotate whole levels and hash them into keys;
//! * the depth-N memory system: [`MemoryConfig`] describes any number of
//!   non-inclusive non-exclusive cache levels (with write-allocate and
//!   no-write-allocate [`WritePolicy`]s, a conversion from [`CacheConfig`]
//!   and JSON (de)serialization) and [`MultiLevelState`] simulates them
//!   over one [`FlatCache`] per level, through one inclusive access path
//!   shared by every concrete simulator,
//! * block bijections ([`bijection`]) used to state and test the
//!   data-independence theorems.
//!
//! Both stores apply the same update rule for each policy: the rules work
//! on slices of lines and borrowed metadata ([`PolicyView`]), so warping's
//! symbolic sets and the flat concrete sets cannot drift apart.
//!
//! # Example
//!
//! ```
//! use cache_model::{CacheConfig, MemBlock, MemoryConfig, MultiLevelState, ReplacementPolicy};
//!
//! // The running example of the paper: 4 sets, associativity 2, LRU.
//! let config = CacheConfig::with_sets(4, 2, 64, ReplacementPolicy::Lru);
//! let mut cache = MultiLevelState::new(&MemoryConfig::single(config));
//! let a = MemBlock(0);
//! assert!(!cache.access_block(a).hit); // cold miss
//! assert!(cache.access_block(a).hit); // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bijection;
mod block;
mod cache;
mod flat;
#[cfg(test)]
mod hierarchy;
mod memory;
mod multilevel;
mod policy;
mod set;

pub use block::{Access, AccessKind, MemBlock};
pub use cache::{CacheConfig, CacheState, LevelStats};
pub use flat::{FlatCache, FlatSet};
pub use memory::{MemoryConfig, MemoryConfigError, WritePolicy};
pub use multilevel::{LookupOutcome, MultiLevelState};
pub use policy::{PolicyState, PolicyView, ReplacementPolicy};
pub use set::SetState;
