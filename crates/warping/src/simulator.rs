//! The warping symbolic cache simulator (Algorithm 2 of the paper).
//!
//! # Driving the compiled walk
//!
//! Algorithm 2 is Algorithm 1's walk with match attempts at loop heads,
//! and that is how the simulator runs: it is a visitor of the compiled
//! walk ([`scop::WalkVisitor`]), with no loop enumeration of its own.
//! Every access reaches the symbolic levels with the address the walk
//! strength-reduced and the iteration vector it maintains; every loop
//! entry opens a match map, which its exit closes; and every iteration
//! head may attempt a match.  A warp is a skip: the walk advances the
//! iterator and the running base addresses by the warped chunks and
//! resumes at the head of the iteration it lands on.  Warp planning
//! ([`plan_warp`]) and application still read the access nodes' domains
//! and affine addresses, looked up by access id.
//!
//! # The two-phase match pipeline
//!
//! A match attempt no longer builds an exact [`CanonicalKey`] up front.
//! Instead it runs in two phases:
//!
//! 1. **Fingerprint phase** — the rolling level fingerprints and the
//!    per-node label moments on the warped dimension (see
//!    [`fingerprint`](crate::fingerprint)) of all levels are combined and
//!    looked up in the per-loop match map.  Both are maintained
//!    incrementally (dirty-set tracking for the digests, one update per
//!    label write for the moments), so this phase costs time proportional
//!    to the sets touched since the last attempt — not to the size of the
//!    outermost cache level.
//! 2. **Exact phase** — only on a fingerprint hit is the exact canonical
//!    key constructed (itself sparse: O(occupied sets)) and compared.
//!    Soundness is unchanged: a warp still requires exact key equality,
//!    which implies symbolic state equality (Theorem 3).
//!
//! A state's exact key is built lazily: the first sighting of a fingerprint
//! stores only the fingerprint; the second sighting attaches the key; the
//! third sighting can match exactly and warp.  Loops whose states never
//! recur therefore never pay for key construction at all.
//!
//! Every attempt that does not end in a warp — dismissed by the
//! fingerprint, remembered, or rejected by the exact key — counts once
//! toward [`WarpingOptions::max_fruitless_attempts`].  A filter that
//! dismisses cheaply must not let attempts run without bound.
//!
//! # Relative-label addressing
//!
//! Keys normalise each level's descendant labels by that **level's epoch**
//! (the warped-iterator stamp of the last label write at the level, see
//! [`SymLevel::epoch_at`]) rather than by the current iterator.  When a
//! match fires, the difference between the two states' normalisers
//! reconstructs each level's true label shift: `period` means the level
//! moves with the loop ([`LevelWarpMode::Shifted`]), `0` means the level is
//! bit-identical and stays put ([`LevelWarpMode::Frozen`] — legal when the
//! block shift is zero or the level saw no traffic during the matched
//! chunk).  This is what lets kernels whose working set fits in the L1 warp
//! over arbitrarily large outer levels: the outer levels' labels froze
//! during warm-up, and normalised by the current iterator their keys would
//! drift apart forever even though the states are physically identical.

use crate::fingerprint::{match_fingerprint, MAX_TRACKED_DIMS};
use crate::key::CanonicalKey;
use crate::plan::{plan_warp, LevelWarpMode};
use crate::symstate::SymLevel;
use cache_model::{LevelStats, MemBlock, MemoryConfig};
use polyhedra::Aff;
use scop::{
    compile, AccessNode, AccessRun, CompiledLoop, CompiledNode, CompiledScop, Scop, WalkVisitor,
};
use simulate::SimulationResult;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The memory system simulated by the warping simulator.
///
/// This is the workspace-wide [`MemoryConfig`]; pass one to
/// [`WarpingSimulator::new`].  The warping simulator supports memory
/// systems of any depth ≥ 1.
pub type WarpingMemory = MemoryConfig;

/// The outcome of a warping simulation.
///
/// Equality ignores [`warp_apply_ns`](WarpingOutcome::warp_apply_ns), which
/// is wall-clock telemetry and varies run to run.
#[derive(Clone, Debug, Default)]
pub struct WarpingOutcome {
    /// Access and miss counts, identical to what non-warping simulation
    /// produces.
    pub result: SimulationResult,
    /// Number of accesses that were simulated explicitly.
    pub non_warped_accesses: u64,
    /// Number of accesses that were skipped by warping.
    pub warped_accesses: u64,
    /// Number of successful warp events.
    pub warps: u64,
    /// Number of warp-match attempts (both phases combined).
    pub match_attempts: u64,
    /// Match attempts whose fingerprint found a candidate in the match map
    /// (the only attempts that proceed to the exact phase).
    pub fingerprint_hits: u64,
    /// Number of exact [`CanonicalKey`] constructions.  With the
    /// fingerprint filter enabled this is typically a small fraction of
    /// [`match_attempts`](WarpingOutcome::match_attempts).
    pub exact_key_builds: u64,
    /// Number of levels, summed over applied warps, whose stale (frozen)
    /// labels were matched through epoch renormalisation — levels holding
    /// lines that stopped being touched and were recognised as bit-identical
    /// instead of blocking the match.  The warps the pre-epoch,
    /// current-iterator normalisation could never find (frozen
    /// *descendant* labels, e.g. L1-resident kernels over big hierarchies)
    /// always show up here; a frozen level holding only non-descendant
    /// (absolutely encoded) lines also counts, even though an identity
    /// (zero-shift) warp over it could have matched under the old
    /// normalisation too.
    pub stale_label_renorms: u64,
    /// Wall-clock nanoseconds spent applying warps (counter extrapolation
    /// plus symbolic state advancement).  Ignored by `PartialEq`.
    pub warp_apply_ns: u64,
}

impl PartialEq for WarpingOutcome {
    fn eq(&self, other: &Self) -> bool {
        // warp_apply_ns is timing telemetry, not an outcome.
        self.result == other.result
            && self.non_warped_accesses == other.non_warped_accesses
            && self.warped_accesses == other.warped_accesses
            && self.warps == other.warps
            && self.match_attempts == other.match_attempts
            && self.fingerprint_hits == other.fingerprint_hits
            && self.exact_key_builds == other.exact_key_builds
            && self.stale_label_renorms == other.stale_label_renorms
    }
}

impl Eq for WarpingOutcome {}

impl WarpingOutcome {
    /// The share of accesses that could not be warped (the quantity plotted
    /// at the top of Fig. 6 of the paper), in `[0, 1]`.
    pub fn non_warped_share(&self) -> f64 {
        let total = self.non_warped_accesses + self.warped_accesses;
        if total == 0 {
            0.0
        } else {
            self.non_warped_accesses as f64 / total as f64
        }
    }
}

/// Warp-plan hints a finished run exports for a *similar* future run —
/// typically the next instance of the same kernel family in a tile-size
/// sweep, where the loop structure is identical and only the bounds move.
///
/// Hints are keyed by loop **depth** (the only structural coordinate that
/// transfers across instances whose ASTs differ) and only influence the
/// match-*attempt* schedule: a depth the donor found barren skips the
/// eager phase and probes on the backoff cadence alone, saving the
/// fingerprint/key work that dominates non-warping loops.  Every count a
/// hinted run produces is bit-identical to a cold run's — any warp that
/// does fire is sound regardless of when it was attempted, and skipped
/// attempts only forgo speed, never correctness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarpHints {
    /// Depths at which the donor run applied at least one warp, sorted.
    pub warped_depths: Vec<usize>,
    /// Depths at which some loop exhausted its fruitless-attempt budget
    /// without ever warping (and no sibling loop at the depth warped
    /// either), sorted.
    pub barren_depths: Vec<usize>,
}

impl WarpHints {
    /// Whether the donor saw the depth warp.
    pub fn is_warped(&self, depth: usize) -> bool {
        self.warped_depths.binary_search(&depth).is_ok()
    }

    /// Whether the donor gave up on the depth without a single warp.
    pub fn is_barren(&self, depth: usize) -> bool {
        self.barren_depths.binary_search(&depth).is_ok()
    }

    /// Whether the hints carry any information at all.
    pub fn is_empty(&self) -> bool {
        self.warped_depths.is_empty() && self.barren_depths.is_empty()
    }
}

/// Tuning knobs of the warping simulator.
///
/// The defaults keep the overhead of key construction small on loops that
/// never warp while still finding matches whose period is a small multiple
/// of the cache-line phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WarpingOptions {
    /// Number of initial iterations of each loop execution during which a
    /// match is attempted on every iteration.
    pub eager_attempts: u64,
    /// After the eager phase, matches are attempted every `backoff_interval`
    /// iterations.  This bounds the overhead of key construction on loops
    /// that never warp.
    pub backoff_interval: u64,
    /// Maximum number of symbolic states remembered per loop execution.
    pub max_map_entries: usize,
    /// Loops whose trip count (for the current outer iteration) is below
    /// this threshold are simulated without attempting to warp: the possible
    /// gain cannot amortise the cost of key construction.
    pub min_trip_count: i64,
    /// Warping is abandoned for a loop node after this many match attempts
    /// (across all executions of the node, and across runs of one SCoP)
    /// that did not lead to a warp.  Every such attempt counts exactly
    /// once, whatever it cost: one the fingerprint dismissed, one that
    /// remembered its state, one whose exact key did not match, one the
    /// full match map could not remember.  A warp resets the count.  This
    /// bounds the cost on loops whose states never recur while still
    /// allowing matches that only appear after the cache has warmed up:
    /// the default of 1024 covers, on the backoff cadence, the ~10k
    /// iterations a streaming stencil takes to recur in a 32 KiB PLRU
    /// cache.
    pub max_fruitless_attempts: u64,
    /// Whether match attempts run the cheap fingerprint phase before
    /// constructing exact canonical keys.  Disabling it restores the
    /// exhaustive key-per-attempt pipeline (useful for differential testing
    /// and ablation); results are bit-identical either way.
    pub fingerprint_filter: bool,
}

impl Default for WarpingOptions {
    fn default() -> Self {
        WarpingOptions::DEFAULT
    }
}

impl WarpingOptions {
    /// The default tuning, as a `const` so it can appear in constant
    /// contexts (e.g. backend tables).
    pub const DEFAULT: WarpingOptions = WarpingOptions {
        eager_attempts: 32,
        backoff_interval: 16,
        max_map_entries: 4096,
        min_trip_count: 24,
        max_fruitless_attempts: 1024,
        fingerprint_filter: true,
    };

    /// Checks the options for values that would make the simulator loop or
    /// thrash instead of warping.
    ///
    /// # Errors
    ///
    /// * `backoff_interval == 0` — the match-attempt schedule would divide
    ///   by zero once the eager phase ends.
    /// * `max_map_entries == 0` — no symbolic state could ever be
    ///   remembered, so every match attempt would pay the key-construction
    ///   cost without any chance of a warp.
    pub fn validate(&self) -> Result<(), InvalidWarpingOptions> {
        if self.backoff_interval == 0 {
            return Err(InvalidWarpingOptions {
                message: "backoff_interval must be positive (0 would divide by zero in the \
                          match-attempt schedule)",
            });
        }
        if self.max_map_entries == 0 {
            return Err(InvalidWarpingOptions {
                message: "max_map_entries must be positive (0 would attempt matches without \
                          ever remembering a state, thrashing instead of warping)",
            });
        }
        Ok(())
    }
}

/// An invalid [`WarpingOptions`] value, reported by
/// [`WarpingOptions::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InvalidWarpingOptions {
    message: &'static str,
}

impl fmt::Display for InvalidWarpingOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for InvalidWarpingOptions {}

/// Per-entry bookkeeping of the per-loop match map of Algorithm 2, keyed by
/// the rolling fingerprint.
#[derive(Clone, Debug)]
struct MatchEntry {
    /// Warped-iterator value at which the state was recorded.
    v: i64,
    /// Counter snapshot at that point.
    counters: Counters,
    /// The per-level label normalisers in effect when the state was
    /// recorded (each level's epoch on the warped dimension, falling back
    /// to `v`).  On a key match, the difference between the current
    /// normalisers and these reconstructs each level's true label shift —
    /// `period` for levels moving with the loop, `0` for frozen levels —
    /// which decides the level's [`LevelWarpMode`].
    epochs: Vec<i64>,
    /// The exact canonical key of the recorded state.  Built lazily: `None`
    /// until the entry's fingerprint is sighted a second time, so loops
    /// whose states never recur never pay for key construction.
    key: Option<CanonicalKey>,
}

/// Snapshot of all monotonically increasing counters, used to extrapolate
/// across warped chunks.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Counters {
    accesses: u64,
    level: Vec<LevelStats>,
}

/// Per-loop data that is invariant across the loop's entries: the loop's
/// dimension, the access nodes below it, their id set, and their common
/// per-iteration address coefficient on that dimension.  Computed before
/// the walk for every loop that can attempt a match (see [`loop_infos`]).
struct LoopInfo<'a> {
    dim: usize,
    nodes: Vec<&'a AccessNode>,
    ids: HashSet<usize>,
    uniform_coeff: i64,
}

/// One live loop entry: the per-entry state of Algorithm 2.
struct LoopEntry {
    /// Whether the entry attempts matches at all (see
    /// [`WarpRun::enter`]).
    warpable: bool,
    /// Whether the eager phase runs (donor hints may demote it).
    eager: bool,
    /// The far bound of the entry's iterator, the end of any warp.
    last: i64,
    /// Fruitless-attempt count, carried over from earlier entries.
    fruitless: u64,
    /// The match map of Algorithm 2, keyed by fingerprint.
    map: HashMap<u64, MatchEntry>,
}

/// One [`WarpingSimulator::run`]: the visitor that drives the simulator
/// through the compiled walk.  Accesses update the symbolic levels, loop
/// entries open and close match maps, and every iteration head may
/// attempt a match — a warp is a skip of the matched chunks.
struct WarpRun<'s, 'a> {
    sim: &'s mut WarpingSimulator,
    /// Identifies the SCoP in the simulator's per-loop budget map.
    scop_key: usize,
    /// The access address functions, by id.
    addresses: Vec<Aff>,
    /// Per-loop facts, by [`CompiledLoop::id`]; `None` for loops that can
    /// never attempt a match.
    loops: Vec<Option<LoopInfo<'a>>>,
    /// The live loop entries, innermost last.
    entries: Vec<LoopEntry>,
}

/// The warping symbolic cache simulator.
///
/// One generic code path simulates memory systems of any depth ≥ 1: the
/// symbolic levels live in a `Vec<SymLevel>`, and fingerprint maintenance,
/// canonical-key construction, warp planning and warp application all
/// iterate over it.
///
/// See the crate-level documentation for an example.
#[derive(Clone, Debug)]
pub struct WarpingSimulator {
    levels: Vec<SymLevel>,
    options: WarpingOptions,
    /// Thread budget for parallel warp application (see
    /// [`WarpingSimulator::with_threads`]); 1 means sequential.
    warp_threads: usize,
    accesses: u64,
    warped_accesses: u64,
    warps: u64,
    match_attempts: u64,
    fingerprint_hits: u64,
    exact_key_builds: u64,
    stale_label_renorms: u64,
    warp_apply_ns: u64,
    /// Match attempts that did not result in a warp, per loop, carried
    /// across entries and across runs of the same SCoP (keyed by the
    /// SCoP's node storage and the loop's [`CompiledLoop::id`]).
    fruitless: HashMap<(usize, usize), u64>,
    /// Donor hints from a similar earlier run (see [`WarpHints`]); `None`
    /// runs the cold schedule.
    hints: Option<WarpHints>,
    /// Depths at which this run applied at least one warp.
    warped_depths: HashSet<usize>,
    /// Depths at which some loop exhausted its fruitless budget.
    exhausted_depths: HashSet<usize>,
}

impl WarpingSimulator {
    /// A simulator for any memory system of depth ≥ 1.  The configuration is
    /// [normalized](MemoryConfig::normalized) first, so the hierarchy-wide
    /// write policy governs write allocation at every level, exactly as in
    /// non-warping simulation.
    ///
    /// # Errors
    ///
    /// Infallible today — every valid [`MemoryConfig`] is supported — but
    /// kept fallible so callers stay source-compatible if a future memory
    /// model (e.g. exclusive hierarchies) is only partially covered.
    pub fn try_new(memory: WarpingMemory) -> Result<Self, String> {
        let memory = memory.normalized();
        Ok(WarpingSimulator {
            levels: memory
                .levels()
                .iter()
                .map(|level| SymLevel::new(level.clone()))
                .collect(),
            options: WarpingOptions::default(),
            warp_threads: 1,
            accesses: 0,
            warped_accesses: 0,
            warps: 0,
            match_attempts: 0,
            fingerprint_hits: 0,
            exact_key_builds: 0,
            stale_label_renorms: 0,
            warp_apply_ns: 0,
            fruitless: HashMap::new(),
            hints: None,
            warped_depths: HashSet::new(),
            exhausted_depths: HashSet::new(),
        })
    }

    /// A simulator for any memory system of depth ≥ 1.
    pub fn new(memory: WarpingMemory) -> Self {
        WarpingSimulator::try_new(memory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overrides the tuning options.
    ///
    /// # Panics
    ///
    /// Panics if the options fail [`WarpingOptions::validate`]
    /// (`backoff_interval == 0` or `max_map_entries == 0`).
    pub fn with_options(mut self, options: WarpingOptions) -> Self {
        if let Err(e) = options.validate() {
            panic!("invalid warping options: {e}");
        }
        self.options = options;
        self
    }

    /// Grants the simulator a thread budget for warp application
    /// (clamped to at least 1; the default is 1, i.e. sequential).  A
    /// larger budget lets a warp fan out across levels, and across sets
    /// within large levels; the rewrite of each set is independent, so
    /// the state and every count are bit-identical for every budget.
    /// Depth-1 or small configurations stay sequential automatically.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.warp_threads = threads.max(1);
        self
    }

    /// Seeds the match-attempt schedule with a donor run's [`WarpHints`].
    /// Depths the donor found barren skip the eager phase (attempts run on
    /// the backoff cadence alone); everything else is unchanged.  All
    /// simulation counts stay bit-identical to a cold run.
    pub fn with_hints(mut self, hints: WarpHints) -> Self {
        self.hints = if hints.is_empty() { None } else { Some(hints) };
        self
    }

    /// Exports this run's warp-plan facts for donation to a similar future
    /// run (see [`WarpHints`]).  A depth only counts as barren when no loop
    /// at that depth warped, so mixed evidence errs on the side of
    /// attempting.
    pub fn export_hints(&self) -> WarpHints {
        let mut warped: Vec<usize> = self.warped_depths.iter().copied().collect();
        warped.sort_unstable();
        let mut barren: Vec<usize> = self
            .exhausted_depths
            .difference(&self.warped_depths)
            .copied()
            .collect();
        barren.sort_unstable();
        WarpHints {
            warped_depths: warped,
            barren_depths: barren,
        }
    }

    /// Simulates a SCoP and returns the outcome.  The cache state persists
    /// across calls, so SCoPs can be simulated in sequence; use a fresh
    /// simulator for independent runs.
    pub fn run(&mut self, scop: &Scop) -> WarpingOutcome {
        let mut nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        nodes.sort_by_key(|a| a.id);
        let compiled = compile(scop);
        let loops = loop_infos(&compiled, &nodes);
        // Label moments are kept on exactly the dimensions that some loop
        // may attempt a match on, and only for the fingerprint filter.
        let mut dims = 0u32;
        if self.options.fingerprint_filter {
            for info in loops.iter().flatten() {
                if info.dim < MAX_TRACKED_DIMS {
                    dims |= 1 << info.dim;
                }
            }
        }
        for level in &mut self.levels {
            level.track_moments(dims);
        }
        let mut run = WarpRun {
            scop_key: scop.roots().as_ptr() as usize,
            addresses: nodes.iter().map(|a| a.address.clone()).collect(),
            loops,
            entries: Vec::new(),
            sim: self,
        };
        compiled.walk(&mut compiled.new_scratch(), &mut run);
        self.outcome()
    }

    /// The accumulated outcome.
    pub fn outcome(&self) -> WarpingOutcome {
        WarpingOutcome {
            result: SimulationResult {
                accesses: self.accesses,
                levels: self.levels.iter().map(|l| l.stats).collect(),
            },
            non_warped_accesses: self.accesses - self.warped_accesses,
            warped_accesses: self.warped_accesses,
            warps: self.warps,
            match_attempts: self.match_attempts,
            fingerprint_hits: self.fingerprint_hits,
            exact_key_builds: self.exact_key_builds,
            stale_label_renorms: self.stale_label_renorms,
            warp_apply_ns: self.warp_apply_ns,
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            accesses: self.accesses,
            level: self.levels.iter().map(|l| l.stats).collect(),
        }
    }

    /// The per-level label normalisers for a match attempt at loop depth
    /// `depth` with current warped-iterator value `v`: each level's epoch on
    /// the warped dimension, falling back to `v` for levels without a stamp
    /// that deep (empty levels, or levels last written by a shallower
    /// access — the fallback normalises them by the current iterator).
    fn epoch_normalizers(&self, depth: usize, v: i64) -> Vec<i64> {
        let dim = depth - 1;
        self.levels
            .iter()
            .map(|level| level.epoch_at(dim).unwrap_or(v))
            .collect()
    }

    fn build_key(
        &mut self,
        descendant_ids: &HashSet<usize>,
        depth: usize,
        normalizers: &[i64],
    ) -> CanonicalKey {
        self.exact_key_builds += 1;
        CanonicalKey::of_levels(&self.levels, descendant_ids, depth, normalizers)
    }

    /// One two-phase match attempt at iterator value `v1`.  Returns the
    /// number of iterator units warped across on success (the caller
    /// advances the loop), `None` otherwise.
    #[allow(clippy::too_many_arguments)]
    fn attempt_match(
        &mut self,
        info: &LoopInfo<'_>,
        addresses: &[Aff],
        depth: usize,
        outer: &[i64],
        v1: i64,
        v_last: i64,
        map: &mut HashMap<u64, MatchEntry>,
    ) -> Option<i64> {
        self.match_attempts += 1;
        // The per-level label normalisers of this attempt's key: the level
        // epochs (or the current iterator value, see `epoch_normalizers`).
        let normalizers = self.epoch_normalizers(depth, v1);
        // Phase 1: the cheap fingerprint (when enabled and the warped
        // dimension is tracked); otherwise fall back to hashing the exact
        // key, i.e. the exhaustive pipeline.
        let filtered = self.options.fingerprint_filter;
        let fingerprint = filtered
            .then(|| match_fingerprint(&mut self.levels, &info.ids, depth, &normalizers))
            .flatten();
        let (slot, mut current_key) = match fingerprint {
            Some(fp) => (fp, None),
            None => {
                let key = self.build_key(&info.ids, depth, &normalizers);
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut hasher);
                (hasher.finish(), Some(key))
            }
        };
        let Some(entry) = map.get(&slot) else {
            // Remember the state for a later sighting, unless the map is
            // full: then the attempt can never enable a warp.
            if map.len() < self.options.max_map_entries {
                map.insert(
                    slot,
                    MatchEntry {
                        v: v1,
                        counters: self.counters(),
                        epochs: normalizers,
                        key: current_key,
                    },
                );
            }
            return None;
        };
        if current_key.is_none() {
            self.fingerprint_hits += 1;
        }
        // Phase 2: the exact canonical key decides.
        let key = current_key
            .take()
            .unwrap_or_else(|| self.build_key(&info.ids, depth, &normalizers));
        if entry.key.as_ref() != Some(&key) {
            // Either the stored state's key was never built (first
            // re-sighting of its fingerprint) or the fingerprints collided:
            // re-anchor the slot on the current state, now with its key.
            map.insert(
                slot,
                MatchEntry {
                    v: v1,
                    counters: self.counters(),
                    epochs: normalizers,
                    key: Some(key),
                },
            );
            return None;
        }
        let period = v1 - entry.v;
        // Equal keys say each level's labels moved uniformly; the normaliser
        // difference says by *how much*.  A level that advanced by exactly
        // one period moves with the loop (shifted); a level whose labels
        // did not move at all is bit-identical between the matched states
        // (frozen) — sound to leave in place when either the block shift is
        // zero (π is the identity, an identical level trivially agrees) or
        // the level saw no traffic during the chunk (the repeating access
        // pattern never descends to it, so it stays untouched across the
        // window).  Any other per-level shift is inconsistent with a warp.
        let byte_shift_per_period = info.uniform_coeff * period;
        let chunk = self.counters();
        let mut modes = Vec::with_capacity(self.levels.len());
        for (idx, (&now, &then)) in normalizers.iter().zip(&entry.epochs).enumerate() {
            let label_shift = now - then;
            if label_shift == period {
                modes.push(LevelWarpMode::Shifted);
            } else if label_shift == 0 {
                let chunk_traffic = chunk.level[idx].accesses - entry.counters.level[idx].accesses;
                if byte_shift_per_period != 0 && chunk_traffic != 0 {
                    return None;
                }
                modes.push(LevelWarpMode::Frozen);
            } else {
                return None;
            }
        }
        let plan = plan_warp(
            &info.nodes,
            &info.ids,
            &self.levels,
            &modes,
            depth,
            outer,
            entry.v,
            v1,
            v_last,
        )?;
        debug_assert_eq!(
            plan.byte_shift_per_chunk, byte_shift_per_period,
            "the plan's shift must agree with the gating coefficient"
        );
        let warp_start = Instant::now();
        let chunk_accesses = chunk.accesses - entry.counters.accesses;
        // Extrapolate the counters across the warped chunks
        // (Equation 19 / line 12 of Algorithm 2).
        let n = plan.chunks as u64;
        self.accesses += n * chunk_accesses;
        self.warped_accesses += n * chunk_accesses;
        for (idx, level) in self.levels.iter_mut().enumerate() {
            let diff_hits = chunk.level[idx].hits - entry.counters.level[idx].hits;
            let diff_misses = chunk.level[idx].misses - entry.counters.level[idx].misses;
            level.stats.hits += n * diff_hits;
            level.stats.misses += n * diff_misses;
            level.stats.accesses += n * (diff_hits + diff_misses);
        }
        // Advance the symbolic cache state (Equation 18), fanning the
        // per-level (and per-set) rewrites out over the thread budget.
        // Frozen levels are skipped wholesale: their state — labels, epoch,
        // MRU anchor — stays exactly where the warm-up left it, which is
        // also what explicit simulation of the warped window would have
        // produced (the window never touches them).
        let total_shift = plan.byte_shift_per_chunk * plan.chunks;
        let budget = self.warp_threads;
        // Fan out across levels only when the budget covers one thread per
        // *rotating* level (frozen levels spawn no work and do not dilute
        // the budget); a smaller budget stays sequential across levels
        // (each level may still split its sets over the full budget), so
        // the number of running threads never exceeds the budget.
        let rotating = modes
            .iter()
            .filter(|m| **m == LevelWarpMode::Shifted)
            .count();
        if rotating > 1 && budget >= rotating {
            let per_level = (budget / rotating).max(1);
            std::thread::scope(|scope| {
                for (level, mode) in self.levels.iter_mut().zip(&modes) {
                    if *mode == LevelWarpMode::Frozen {
                        continue;
                    }
                    let ids = &info.ids;
                    scope.spawn(move || {
                        level.apply_warp(
                            addresses,
                            ids,
                            depth,
                            period,
                            plan.chunks,
                            total_shift,
                            per_level,
                        );
                    });
                }
            });
        } else {
            for (level, mode) in self.levels.iter_mut().zip(&modes) {
                if *mode == LevelWarpMode::Frozen {
                    continue;
                }
                level.apply_warp(
                    addresses,
                    &info.ids,
                    depth,
                    period,
                    plan.chunks,
                    total_shift,
                    budget,
                );
            }
        }
        // Telemetry: frozen levels that actually hold stale lines are the
        // matches the pre-epoch normalisation could never have made.
        self.stale_label_renorms += self
            .levels
            .iter()
            .zip(&modes)
            .filter(|(level, mode)| {
                **mode == LevelWarpMode::Frozen && level.state.occupied_indices().next().is_some()
            })
            .count() as u64;
        self.warps += 1;
        self.warped_depths.insert(depth);
        self.warp_apply_ns += warp_start.elapsed().as_nanos() as u64;
        Some(plan.chunks * period)
    }

    fn should_attempt(&self, iteration_index: u64, eager: bool) -> bool {
        (eager && iteration_index < self.options.eager_attempts)
            || iteration_index.is_multiple_of(self.options.backoff_interval)
    }
}

impl WalkVisitor for WarpRun<'_, '_> {
    /// Every access must reach the symbolic levels with its own iteration
    /// vector, and every iteration head is a potential match point.
    const RUNS: bool = false;

    fn run(&mut self, run: &AccessRun, iv: &[i64]) {
        let sim = &mut *self.sim;
        sim.accesses += 1;
        // The inclusive walk of the N-level hierarchy: each level is only
        // consulted — and updated — when the previous one misses.
        for level in &mut sim.levels {
            let block = MemBlock(run.base / level.config.line_size());
            if level.access(block, run.kind, run.node, iv) {
                break;
            }
        }
    }

    /// Opens the entry's match map.  Cheap gating: warping at a loop can
    /// only ever succeed if every access below it shifts by the same
    /// amount per iteration (see `plan_warp`), and it can only pay off if
    /// the entry has enough iterations to amortise the cost of match
    /// attempts.  Decreasing loops never warp: matching assumes
    /// increasing iterators (the match map stores the *earlier* state),
    /// and extending it to negative periods is an open ROADMAP item.
    fn enter(&mut self, l: &CompiledLoop, first: i64, last: i64) {
        let sim = &*self.sim;
        let warpable = self.loops[l.id].is_some()
            && (last - first) / l.stride + 1 >= sim.options.min_trip_count;
        // Donor hints demote the eager phase on depths a similar run
        // already probed exhaustively without a single warp; a depth the
        // donor saw warp (or never saw at all) keeps the cold schedule.
        let eager = match &sim.hints {
            Some(hints) => !hints.is_barren(l.depth) || hints.is_warped(l.depth),
            None => true,
        };
        let fruitless = sim
            .fruitless
            .get(&(self.scop_key, l.id))
            .copied()
            .unwrap_or(0);
        self.entries.push(LoopEntry {
            warpable,
            eager,
            last,
            fruitless,
            map: HashMap::new(),
        });
    }

    fn exit(&mut self, l: &CompiledLoop) {
        let entry = self.entries.pop().expect("exit matches an enter");
        if entry.warpable {
            if entry.fruitless >= self.sim.options.max_fruitless_attempts {
                self.sim.exhausted_depths.insert(l.depth);
            }
            self.sim
                .fruitless
                .insert((self.scop_key, l.id), entry.fruitless);
        }
    }

    /// A match attempt at the top of an iteration; a warp skips the
    /// matched chunks, and the walk resumes at the head of the iteration
    /// it lands on, which is simulated (or warped again).
    fn head(&mut self, l: &CompiledLoop, iv: &[i64], index: u64) -> u64 {
        let WarpRun {
            sim,
            addresses,
            loops,
            entries,
            ..
        } = self;
        let entry = entries.last_mut().expect("head runs inside an entry");
        if !entry.warpable
            || entry.fruitless >= sim.options.max_fruitless_attempts
            || !sim.should_attempt(index, entry.eager)
        {
            return 0;
        }
        let info = loops[l.id]
            .as_ref()
            .expect("warpable loops can attempt a match");
        let depth = l.depth;
        match sim.attempt_match(
            info,
            addresses,
            depth,
            &iv[..depth - 1],
            iv[depth - 1],
            entry.last,
            &mut entry.map,
        ) {
            Some(warped) => {
                entry.fruitless = 0;
                // Iterator units advance by `stride` per iteration.
                (warped / l.stride) as u64
            }
            None => {
                entry.fruitless += 1;
                0
            }
        }
    }
}

/// The facts of every loop of `compiled`, by [`CompiledLoop::id`]: `Some`
/// for the loops that can attempt a match — an increasing iterator, at
/// least one access below, and one common per-iteration byte-shift
/// coefficient on the loop's dimension for all of them (without it,
/// warping at the loop can never satisfy the uniform-shift condition).
/// Access nodes are looked up by id in `nodes`.
fn loop_infos<'a>(compiled: &CompiledScop, nodes: &[&'a AccessNode]) -> Vec<Option<LoopInfo<'a>>> {
    fn accesses_below<'a>(
        children: &[CompiledNode],
        by_id: &[&'a AccessNode],
        out: &mut Vec<&'a AccessNode>,
    ) {
        for child in children {
            match child {
                CompiledNode::Access(a) => out.push(by_id[a.id]),
                CompiledNode::Loop(inner) => accesses_below(inner.children(), by_id, out),
            }
        }
    }
    fn visit<'a>(
        children: &[CompiledNode],
        by_id: &[&'a AccessNode],
        out: &mut [Option<LoopInfo<'a>>],
    ) {
        for child in children {
            let CompiledNode::Loop(l) = child else {
                continue;
            };
            let mut below = Vec::new();
            accesses_below(l.children(), by_id, &mut below);
            let dim = l.depth - 1;
            let uniform = below
                .first()
                .map(|a| a.address.coeff(dim))
                .filter(|&c| l.stride > 0 && below.iter().all(|a| a.address.coeff(dim) == c));
            if let Some(uniform_coeff) = uniform {
                out[l.id] = Some(LoopInfo {
                    dim,
                    ids: below.iter().map(|a| a.id).collect(),
                    nodes: below,
                    uniform_coeff,
                });
            }
            visit(l.children(), by_id, out);
        }
    }
    let mut out: Vec<_> = (0..compiled.num_loops()).map(|_| None).collect();
    visit(compiled.roots(), nodes, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::CacheConfig;
    use cache_model::ReplacementPolicy;
    use scop::parse_scop;
    use simulate::{simulate_memory, simulate_reference, MultiLevelSystem};

    fn simulate_l1(scop: &Scop, config: &CacheConfig) -> SimulationResult {
        simulate_memory(scop, &MemoryConfig::from(config.clone()))
    }

    fn single(config: CacheConfig) -> WarpingSimulator {
        WarpingSimulator::new(MemoryConfig::from(config))
    }

    fn stencil(n: i64) -> Scop {
        parse_scop(&format!(
            "double A[{n}]; double B[{n}];\n\
             for (i = 1; i < {m}; i++) B[i-1] = A[i-1] + A[i];",
            n = n,
            m = n - 1
        ))
        .unwrap()
    }

    #[test]
    fn warping_is_exact_on_the_running_example() {
        let scop = stencil(1000);
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let reference = simulate_l1(&scop, &config);
        let outcome = single(config).run(&scop);
        assert_eq!(outcome.result, reference);
        assert!(outcome.warps >= 1, "the stencil must warp");
        assert!(
            outcome.non_warped_accesses < reference.accesses / 10,
            "most accesses are warped ({} of {})",
            outcome.non_warped_accesses,
            reference.accesses
        );
    }

    #[test]
    fn warping_is_exact_on_a_set_associative_plru_cache() {
        let scop = stencil(4000);
        let config = CacheConfig::new(4 * 1024, 8, 64, ReplacementPolicy::Plru);
        let reference = simulate_l1(&scop, &config);
        let outcome = single(config).run(&scop);
        assert_eq!(outcome.result, reference);
        assert!(outcome.warps >= 1);
    }

    #[test]
    fn warping_is_exact_for_all_policies() {
        let scop = stencil(3000);
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig::new(2 * 1024, 4, 64, policy);
            let reference = simulate_l1(&scop, &config);
            let outcome = single(config).run(&scop);
            assert_eq!(outcome.result, reference, "{policy}");
        }
    }

    #[test]
    fn warping_is_exact_on_a_two_level_hierarchy() {
        let scop = stencil(3000);
        let config = MemoryConfig::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn triangular_matvec_is_exact() {
        let scop = parse_scop(
            "double A[200][200]; double x[200]; double c[200];\n\
             for (i = 0; i < 200; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 200; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        )
        .unwrap();
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let reference = simulate_l1(&scop, &config);
        let outcome = single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn guarded_kernel_is_exact() {
        let scop = parse_scop(
            "double A[3000]; double B[3000];\n\
             for (i = 1; i < 2999; i++) if (i < 1500) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let config = CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru);
        let reference = simulate_l1(&scop, &config);
        let outcome = single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn multiple_loop_nests_are_exact() {
        let scop = parse_scop(
            "double A[2000]; double B[2000]; double C[2000];\n\
             for (i = 0; i < 2000; i++) B[i] = A[i];\n\
             for (j = 0; j < 2000; j++) C[j] = B[j] + A[j];",
        )
        .unwrap();
        let config = CacheConfig::new(2 * 1024, 8, 64, ReplacementPolicy::Plru);
        let reference = simulate_l1(&scop, &config);
        let outcome = single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn options_validation_rejects_degenerate_knobs() {
        assert!(WarpingOptions::default().validate().is_ok());
        let zero_backoff = WarpingOptions {
            backoff_interval: 0,
            ..WarpingOptions::default()
        };
        assert!(zero_backoff
            .validate()
            .unwrap_err()
            .to_string()
            .contains("backoff_interval"));
        let zero_map = WarpingOptions {
            max_map_entries: 0,
            ..WarpingOptions::default()
        };
        assert!(zero_map
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_map_entries"));
    }

    #[test]
    #[should_panic(expected = "backoff_interval")]
    fn with_options_panics_on_zero_backoff() {
        let config = CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru);
        let _ = single(config).with_options(WarpingOptions {
            backoff_interval: 0,
            ..WarpingOptions::default()
        });
    }

    #[test]
    fn memory_config_construction_matches_dedicated_constructors() {
        let scop = stencil(1000);
        let single =
            MemoryConfig::from(CacheConfig::fully_associative(2, 8, ReplacementPolicy::Lru));
        let hierarchy = MemoryConfig::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        for memory in [single, hierarchy] {
            let outcome = WarpingSimulator::new(memory.clone()).run(&scop);
            let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory));
            assert_eq!(outcome.result, reference);
        }
    }

    #[test]
    fn three_level_memory_is_exact() {
        let scop = stencil(3000);
        let memory = WarpingMemory::new(vec![
            CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::with_sets(8, 8, 64, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let reference = simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).run(&scop);
        assert_eq!(outcome.result, reference);
        assert_eq!(outcome.result.depth(), 3);
        assert!(outcome.warps >= 1, "the stencil must warp at depth 3");
    }

    #[test]
    fn strided_stencil_is_exact_and_warps() {
        // A stride-2 stencil: the per-iteration byte shift is 16, so warping
        // must find line-aligned periods on the stride grid.
        let scop = parse_scop(
            "double A[8000]; double B[8000];\n\
             for (i = 1; i < 7999; i += 2) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig::new(2 * 1024, 4, 64, policy);
            let reference = simulate_l1(&scop, &config);
            let outcome = single(config).run(&scop);
            assert_eq!(outcome.result, reference, "{policy}");
        }
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let outcome = single(config).run(&scop);
        assert!(outcome.warps >= 1, "the strided stencil must warp");
    }

    #[test]
    fn strided_loop_on_a_hierarchy_is_exact() {
        let scop = parse_scop(
            "double A[6000];\n\
             for (i = 0; i < 6000; i += 3) A[i] = A[i];",
        )
        .unwrap();
        let memory = WarpingMemory::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Plru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Plru),
        );
        let reference = simulate_memory(&scop, &memory);
        let outcome = WarpingSimulator::new(memory).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn small_working_sets_do_not_warp_incorrectly() {
        // jacobi-1d-like situation: the working set fits in the cache, so
        // warping opportunities are limited but correctness must hold.
        let scop = stencil(64);
        let config = CacheConfig::new(32 * 1024, 8, 64, ReplacementPolicy::Plru);
        let reference = simulate_l1(&scop, &config);
        let outcome = single(config).run(&scop);
        assert_eq!(outcome.result, reference);
    }

    #[test]
    fn fingerprint_filter_matches_exhaustive_matching() {
        // The two pipelines must produce identical simulation results; the
        // filtered one must build far fewer exact keys.
        let scop = stencil(4000);
        let memory = WarpingMemory::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let filtered = WarpingSimulator::new(memory.clone())
            .with_options(WarpingOptions {
                fingerprint_filter: true,
                ..WarpingOptions::default()
            })
            .run(&scop);
        let exhaustive = WarpingSimulator::new(memory)
            .with_options(WarpingOptions {
                fingerprint_filter: false,
                ..WarpingOptions::default()
            })
            .run(&scop);
        assert_eq!(
            filtered.result, exhaustive.result,
            "the filter must not change any simulation count"
        );
        assert!(filtered.warps >= 1);
        assert!(exhaustive.warps >= 1);
        assert_eq!(
            exhaustive.exact_key_builds, exhaustive.match_attempts,
            "the exhaustive pipeline builds a key per attempt"
        );
        assert!(
            filtered.exact_key_builds < filtered.match_attempts,
            "the filter must skip key construction on fingerprint misses \
             ({} builds, {} attempts)",
            filtered.exact_key_builds,
            filtered.match_attempts
        );
    }

    #[test]
    fn parallel_warp_application_is_bit_identical() {
        // The arrays exceed every level, so all three levels reach a
        // periodic steady state and warp; the 4096-set L3 crosses the
        // per-set parallelisation threshold.
        let scop = stencil(75_000);
        let memory = WarpingMemory::new(vec![
            CacheConfig::with_sets(64, 2, 8, ReplacementPolicy::Lru),
            CacheConfig::with_sets(512, 2, 8, ReplacementPolicy::Lru),
            CacheConfig::with_sets(4096, 2, 8, ReplacementPolicy::Lru),
        ])
        .unwrap();
        let sequential = WarpingSimulator::new(memory.clone()).run(&scop);
        let parallel = WarpingSimulator::new(memory).with_threads(4).run(&scop);
        assert_eq!(
            sequential, parallel,
            "thread budget must not change anything"
        );
        assert!(parallel.warps >= 1);
    }

    #[test]
    fn donor_hints_keep_counts_bit_identical() {
        // The donor run exports its warp-plan facts; a hinted rerun of a
        // *different* (neighbouring) instance must produce exactly the
        // counts a cold run produces — hints only reschedule attempts.
        let memory = WarpingMemory::two_level(
            CacheConfig::new(1024, 4, 64, ReplacementPolicy::Lru),
            CacheConfig::new(8 * 1024, 8, 64, ReplacementPolicy::Lru),
        );
        let mut donor_sim = WarpingSimulator::new(memory.clone());
        let donor_outcome = donor_sim.run(&stencil(4000));
        assert!(donor_outcome.warps >= 1);
        let hints = donor_sim.export_hints();
        assert!(
            hints.is_warped(1),
            "the stencil warps at depth 1: {hints:?}"
        );

        for n in [3500, 4500] {
            let scop = stencil(n);
            let cold = WarpingSimulator::new(memory.clone()).run(&scop);
            let hinted = WarpingSimulator::new(memory.clone())
                .with_hints(hints.clone())
                .run(&scop);
            assert_eq!(
                hinted.result, cold.result,
                "hints must not change any simulation count (n = {n})"
            );
        }

        // A barren hint demotes the eager phase: fewer match attempts on a
        // loop that never warps, same counts.  The triangular matvec's
        // inner loop exhausts its budget without warping on a tiny cache.
        let tri = parse_scop(
            "double A[200][200]; double x[200]; double c[200];\n\
             for (i = 0; i < 200; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 200; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        )
        .unwrap();
        let tiny = WarpingMemory::from(CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru));
        let mut cold_sim = WarpingSimulator::new(tiny.clone());
        let cold = cold_sim.run(&tri);
        let tri_hints = cold_sim.export_hints();
        if !tri_hints.barren_depths.is_empty() {
            let hinted = WarpingSimulator::new(tiny).with_hints(tri_hints).run(&tri);
            assert_eq!(hinted.result, cold.result);
            assert!(
                hinted.match_attempts <= cold.match_attempts,
                "barren hints must not add attempts ({} > {})",
                hinted.match_attempts,
                cold.match_attempts
            );
        }
    }

    #[test]
    fn fruitless_budgets_carry_over_across_runs_of_one_scop() {
        // A stream into a cache that never evicts: every line adds to the
        // state, so no two attempts match.  Every fruitless attempt counts
        // once, with or without the fingerprint filter: the first run
        // exhausts the small budget in exactly that many attempts, and a
        // second run of the same SCoP must start from the exhausted
        // budget (no new attempts) rather than probe the loop again.
        let scop = parse_scop("double A[300]; for (i = 0; i < 300; i++) A[i] = A[i];").unwrap();
        let memory =
            WarpingMemory::from(CacheConfig::with_sets(1, 256, 64, ReplacementPolicy::Lru));
        for fingerprint_filter in [false, true] {
            let options = WarpingOptions {
                fingerprint_filter,
                max_fruitless_attempts: 8,
                ..WarpingOptions::default()
            };
            let mut sim = WarpingSimulator::new(memory.clone()).with_options(options);
            let first = sim.run(&scop);
            assert_eq!(first.match_attempts, 8, "the budget runs out");
            assert_eq!(first.warps, 0, "no state recurs");
            let second = sim.run(&scop);
            assert_eq!(
                second.match_attempts, first.match_attempts,
                "an exhausted budget carries over to the next run"
            );
            assert_eq!(second.result.accesses, 2 * first.result.accesses);
            // A different SCoP (here: a copy) starts with a fresh budget.
            let third = sim.run(&scop.clone());
            assert_eq!(third.match_attempts, 16, "filter {fingerprint_filter}");
        }
    }

    #[test]
    fn cheaply_dismissed_attempts_count_toward_the_budget() {
        // With the filter on, most attempts on a stream whose states never
        // recur are dismissed by the fingerprint alone, without an exact
        // key; they still count, so the budget runs out after exactly that
        // many attempts.
        let scop = parse_scop("double A[4000]; for (i = 0; i < 4000; i++) A[i] = A[i];").unwrap();
        let memory =
            WarpingMemory::from(CacheConfig::with_sets(1, 1024, 64, ReplacementPolicy::Lru));
        let outcome = WarpingSimulator::new(memory)
            .with_options(WarpingOptions {
                max_fruitless_attempts: 20,
                ..WarpingOptions::default()
            })
            .run(&scop);
        assert_eq!(outcome.warps, 0);
        assert_eq!(outcome.match_attempts, 20);
        assert!(
            outcome.exact_key_builds < outcome.match_attempts / 2,
            "{} key builds",
            outcome.exact_key_builds
        );
    }

    #[test]
    fn telemetry_counters_are_consistent() {
        let scop = stencil(3000);
        let config = CacheConfig::new(2 * 1024, 4, 64, ReplacementPolicy::Lru);
        let outcome = single(config).run(&scop);
        assert!(outcome.match_attempts >= outcome.fingerprint_hits);
        assert!(outcome.match_attempts >= outcome.exact_key_builds);
        assert!(outcome.fingerprint_hits >= outcome.warps);
        assert!(outcome.warps >= 1);
    }
}
