//! Metric names, tallies and the result line.

use crate::spans::Tracer;
use cache_model::LevelStats;
use engine::ApproxStats;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("classic_ns_per_access", "ns"),
    ("warping_ns_per_access", "ns"),
    ("trace_ns_per_access", "ns"),
    ("sampled_ns_per_access", "ns"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs).  A layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("scop.build_us", "us"),
    ("scop.compile_us", "us"),
    ("engine.canon_us", "us"),
    ("scop.walk_ns_per_access", "ns"),
    ("cache.ns_per_access", "ns"),
    ("trace.generate_ns_per_access", "ns"),
    ("trace.replay_ns_per_access", "ns"),
    ("trace.buffer_mb", "MiB"),
    ("warping.nowarp_ns_per_access", "ns"),
    ("warping.non_warped_share", "share"),
    ("warping.warps", "count"),
    ("warping.match_attempts", "count"),
    ("warping.exact_key_builds", "count"),
    ("warping.match_yield", "share"),
    ("sampling.simulated_fraction", "share"),
    ("sampling.exact_fallbacks", "count"),
    ("sampling.max_rel_error", "share"),
    ("sampling.max_bound_rel", "share"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.coalesced", "count"),
    ("serve.simulated", "count"),
    ("serve.calibration_hit_ratio", "share"),
    ("serve.in_server_p50_ms", "ms"),
    ("serve.in_server_p99_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("self.scop_s", "s"),
    ("self.engine_s", "s"),
    ("self.cache_s", "s"),
    ("self.trace_s", "s"),
    ("self.warping_s", "s"),
    ("self.serve_s", "s"),
    ("self.unattributed_s", "s"),
    ("tracing.untraced_s", "s"),
    ("tracing.traced_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.overhead_share", "share"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// `num / den`, 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether to start another whole round of a run measuring for `seconds`:
/// yes while that brings the run closer to `seconds` (judged by the round
/// just finished).
pub fn another_round(elapsed_s: f64, last_round_s: f64, seconds: f64) -> bool {
    elapsed_s + last_round_s / 2.0 < seconds
}

/// Percentile (`q` in `[0, 1]`) of unsorted samples, interpolated
/// linearly between the two nearest order statistics (so the median of an
/// even count is the mean of the middle two).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    let weight = position - below as f64;
    sorted[below] * (1.0 - weight) + sorted[above] * weight
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set (VmHWM) of this process, the one that simulates.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a measured phase did: attempts, failures, client-observed request
/// latencies and per-backend simulation time over simulated accesses.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Request latencies, pass after pass: pass `i` ends at
    /// `pass_ends[i]`.  Every pass sends the same requests.
    pub latencies_ms: Vec<f64>,
    pass_ends: Vec<usize>,
    /// backend label → (ns, accesses)
    pub backend: BTreeMap<&'static str, (u128, u64)>,
}

impl Tally {
    pub fn fail(&mut self, what: &str, message: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED {what}: {message}");
        }
    }

    pub fn add_backend(&mut self, backend: &'static str, ns: u128, accesses: u64) {
        let entry = self.backend.entry(backend).or_insert((0, 0));
        entry.0 += ns;
        entry.1 += accesses;
    }

    /// Closes the pass whose latencies were pushed since the last one.
    pub fn end_pass(&mut self) {
        if self.pass_ends.last().copied().unwrap_or(0) < self.latencies_ms.len() {
            self.pass_ends.push(self.latencies_ms.len());
        }
    }

    /// Adds another tally's counts; its closed passes stay passes, and
    /// latencies outside any pass join this tally's open pass.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let offset = self.latencies_ms.len();
        self.pass_ends
            .extend(other.pass_ends.iter().map(|end| end + offset));
        self.latencies_ms.extend(other.latencies_ms);
        for (backend, (ns, accesses)) in other.backend {
            self.add_backend(backend, ns, accesses);
        }
    }

    pub fn ns_per_access(&self, backend: &str) -> f64 {
        self.backend
            .get(backend)
            .map_or(0.0, |&(ns, accesses)| ratio(ns as f64, accesses as f64))
    }

    /// The mean over passes of each pass's latency percentile `q`.  A pass
    /// repeats the same requests, so one percentile over all samples would
    /// fall on whichever requests border it, or on the run's few slowest.
    /// The shared host runs in fast and slow phases of a second or more: a
    /// median over passes jumps from one phase's value to the other's when
    /// about half the passes are slow, while the mean moves with the slow
    /// share, as the per-access totals do.
    fn pass_percentile(&self, q: f64) -> f64 {
        let mut start = 0;
        let per_pass: Vec<f64> = self
            .pass_ends
            .iter()
            .map(|&end| {
                let value = percentile(&self.latencies_ms[start..end], q);
                start = end;
                value
            })
            .collect();
        ratio(per_pass.iter().sum(), per_pass.len() as f64)
    }

    /// The end-to-end metrics of a phase that ran for `wall_s` seconds.
    /// A backend this tally never ran is taken from `fallback` (the
    /// warp-stencil baseline).
    pub fn end_to_end(&self, fallback: &Tally, values: &mut Values, wall_s: f64) {
        for (backend, metric) in [
            ("classic", "classic_ns_per_access"),
            ("warping", "warping_ns_per_access"),
            ("trace", "trace_ns_per_access"),
            ("sampled", "sampled_ns_per_access"),
        ] {
            let source = if self.backend.contains_key(backend) {
                self
            } else {
                fallback
            };
            values.insert(metric, source.ns_per_access(backend));
        }
        values.insert("request_p50_ms", self.pass_percentile(0.50));
        values.insert("request_p99_ms", self.pass_percentile(0.99));
        values.insert(
            "requests_per_s",
            ratio(self.latencies_ms.len() as f64, wall_s),
        );
    }
}

/// Counters and timings of the layers below the request, filled by the
/// traced phase.
#[derive(Default)]
pub struct LayerTally {
    pub walk_accesses: u64,
    pub classic_accesses: u64,
    /// `simulate::simulate` time minus the probed compile and walk time of
    /// the same requests.
    pub cache_ns: i128,
    pub trace_accesses: u64,
    pub trace_buffer_bytes: u64,
    pub warp_accesses: u64,
    pub warp_non_warped: u64,
    pub warps: u64,
    pub match_attempts: u64,
    pub exact_key_builds: u64,
    pub nowarp_ns: u64,
    pub nowarp_accesses: u64,
    pub sampled_accesses: u64,
    pub sampled_weighted: f64,
    pub exact_fallbacks: u64,
    pub max_rel_error: f64,
    pub max_bound_rel: f64,
}

impl LayerTally {
    pub fn warping(
        &mut self,
        accesses: u64,
        non_warped: u64,
        warps: u64,
        attempts: u64,
        keys: u64,
    ) {
        self.warp_accesses += accesses;
        self.warp_non_warped += non_warped;
        self.warps += warps;
        self.match_attempts += attempts;
        self.exact_key_builds += keys;
    }

    pub fn absorb(&mut self, other: LayerTally) {
        self.warping(
            other.warp_accesses,
            other.warp_non_warped,
            other.warps,
            other.match_attempts,
            other.exact_key_builds,
        );
        self.sampled_accesses += other.sampled_accesses;
        self.sampled_weighted += other.sampled_weighted;
        self.exact_fallbacks += other.exact_fallbacks;
        self.max_rel_error = self.max_rel_error.max(other.max_rel_error);
        self.max_bound_rel = self.max_bound_rel.max(other.max_bound_rel);
    }

    /// Accuracy of one sampled reply against its reference.
    pub fn sampled(
        &mut self,
        levels: &[LevelStats],
        reference: &[LevelStats],
        approx: &ApproxStats,
    ) {
        let accesses = reference.first().map_or(0, |l| l.accesses);
        self.sampled_accesses += accesses;
        self.sampled_weighted += approx.sampled_fraction * accesses as f64;
        if approx.is_exact() {
            self.exact_fallbacks += 1;
        }
        let bounds = &approx.per_level_error_bound;
        for ((got, want), bound) in levels.iter().zip(reference).zip(bounds) {
            let base = want.misses.max(1) as f64;
            self.max_rel_error = self
                .max_rel_error
                .max(got.misses.abs_diff(want.misses) as f64 / base);
            self.max_bound_rel = self.max_bound_rel.max(*bound as f64 / base);
        }
    }

    /// Per-layer values derived from these counters and the spans.
    pub fn values(&self, tracer: &Tracer, values: &mut Values) {
        let mean_us = |name: &str| {
            let (ns, n) = tracer.total_ns(name);
            ratio(ns as f64 / 1e3, n as f64)
        };
        let per_access =
            |name: &str, accesses: u64| ratio(tracer.total_ns(name).0 as f64, accesses as f64);
        values.insert("scop.build_us", mean_us("scop.build"));
        values.insert("scop.compile_us", mean_us("scop.compile"));
        values.insert("engine.canon_us", mean_us("engine.canon"));
        values.insert(
            "scop.walk_ns_per_access",
            per_access("scop.walk", self.walk_accesses),
        );
        values.insert(
            "cache.ns_per_access",
            ratio(self.cache_ns as f64, self.classic_accesses as f64),
        );
        values.insert(
            "trace.generate_ns_per_access",
            per_access("trace.generate", self.trace_accesses),
        );
        values.insert(
            "trace.replay_ns_per_access",
            per_access("trace.replay", self.trace_accesses),
        );
        values.insert(
            "trace.buffer_mb",
            self.trace_buffer_bytes as f64 / (1 << 20) as f64,
        );
        values.insert(
            "warping.nowarp_ns_per_access",
            ratio(self.nowarp_ns as f64, self.nowarp_accesses as f64),
        );
        values.insert(
            "warping.non_warped_share",
            ratio(self.warp_non_warped as f64, self.warp_accesses as f64),
        );
        values.insert("warping.warps", self.warps as f64);
        values.insert("warping.match_attempts", self.match_attempts as f64);
        values.insert("warping.exact_key_builds", self.exact_key_builds as f64);
        values.insert(
            "warping.match_yield",
            ratio(self.warps as f64, self.match_attempts as f64),
        );
        values.insert(
            "sampling.simulated_fraction",
            ratio(self.sampled_weighted, self.sampled_accesses as f64),
        );
        values.insert("sampling.exact_fallbacks", self.exact_fallbacks as f64);
        values.insert("sampling.max_rel_error", self.max_rel_error);
        values.insert("sampling.max_bound_rel", self.max_bound_rel);
        for (layer, ns) in tracer.self_ns_by_layer() {
            let name = match layer {
                "scop" => "self.scop_s",
                "engine" => "self.engine_s",
                "cache" => "self.cache_s",
                "trace" => "self.trace_s",
                "warping" => "self.warping_s",
                "serve" => "self.serve_s",
                "unattributed" => "self.unattributed_s",
                other => panic!("span layer `{other}` has no metric"),
            };
            values.insert(name, ns as f64 / 1e9);
        }
    }
}

/// Tracing overhead: the traced phase's wall time against the untraced
/// phase's, over the same requests.
pub fn overhead_values(values: &mut Values, untraced_s: f64, traced_s: f64) {
    values.insert("tracing.untraced_s", untraced_s);
    values.insert("tracing.traced_s", traced_s);
    values.insert("tracing.overhead_s", traced_s - untraced_s);
    values.insert(
        "tracing.overhead_share",
        ratio(traced_s - untraced_s, untraced_s),
    );
}

/// Prints every metric of `names` (one `name value unit` line each, then
/// the result object as the last line) and returns whether the run was
/// correct.
pub fn emit(names: &[(&str, &str)], values: &Values, attempted: u64, failed: u64) -> bool {
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:32} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "failed_share                     {:>16.6} share ({failed} of {attempted})",
        ratio(failed as f64, attempted as f64)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    correct
}
