//! serve-mix: two client sessions, each with one line in flight (closed
//! loop), against one `SimService` with two workers, through the
//! JSON-lines wire layer (`serve::serve_lines`, what `harness serve` runs
//! per connection), each session over a Unix socket pair.

use crate::coords::{
    self, family_bindings, family_kernel, Coord, Subject, BACKENDS, FAMILY_CODE, FAMILY_NAME,
    HIERARCHIES, POLICIES,
};
use crate::metrics::{self, LayerTally, Tally, Values};
use crate::refs::{self, Refs};
use crate::rng::Rng;
use crate::spans::{Tracer, ROOT};
use cache_model::LevelStats;
use engine::{ApproxStats, Backend, KernelSpec, SimRequest};
use polybench::{Dataset, Kernel};
use serde::Value;
use serve::{ServeConfig, SimService};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Client sessions and service workers (the reference machine's `nproc`).
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;

/// Line shares: family lines, repeats (half verbatim, half re-spelled
/// source) and invalid lines; the rest are unique requests, drawn without
/// replacement until every unique coordinate has been sent once.
pub const FAMILY_SHARE: f64 = 1.0 / 7.0;
pub const REPEAT_SHARE: f64 = 1.0 / 4.0;
pub const INVALID_SHARE: f64 = 1.0 / 100.0;

/// What the reply to a line must be.
pub enum Expect {
    /// A report whose counts match `key`'s reference.  `request` is the
    /// request the server will build (for the traced run's probes).
    Report {
        key: String,
        backend: &'static str,
        request: SimRequest,
    },
    /// An error envelope carrying the line's own id, or (when the line is
    /// not valid JSON or not a request) the session's line number.
    Error { own_id: bool },
}

pub struct Line {
    pub id: u64,
    pub text: String,
    pub expect: Expect,
}

/// Re-spells a kernel source without changing its meaning: arrays and
/// iterators renamed, `x++`/`x--` written as `x += 1`/`x -= 1`, and the
/// whitespace changed.  Only the canonical hash recognises the result.
pub fn respell(code: &str) -> String {
    let mut tokens: Vec<String> = Vec::new();
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || "_.".contains(chars[i])) {
                i += 1;
            }
            tokens.push(chars[start..i].iter().collect());
        } else {
            let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let two = [
                "++", "--", "+=", "-=", "*=", "/=", "<=", ">=", "==", "!=", "&&", "||",
            ];
            let len = if two.contains(&pair.as_str()) { 2 } else { 1 };
            tokens.push(chars[i..i + len].iter().collect());
            i += len;
        }
    }
    let mut names = std::collections::HashSet::new();
    for w in tokens.windows(3) {
        let declares = ["double", "float", "int"].contains(&w[0].as_str()) && w[2] == "[";
        if declares || (w[0] == "for" && w[1] == "(") {
            names.insert(w[if declares { 1 } else { 2 }].clone());
        }
    }
    let mut out = String::new();
    for token in &tokens {
        match token.as_str() {
            "++" => out.push_str("+= 1"),
            "--" => out.push_str("-= 1"),
            t if names.contains(t) => {
                out.push_str("v_");
                out.push_str(t);
            }
            t => out.push_str(t),
        }
        out.push_str(if token == ";" { "\n  " } else { " " });
    }
    out
}

fn request_line(id: u64, request: &SimRequest) -> String {
    let request = serde_json::to_string(request).expect("requests serialize");
    format!("{{\"id\":{id},\"request\":{request}}}")
}

fn family_line(id: u64, family: &str, index: usize, request: &SimRequest) -> String {
    let bindings: Vec<String> = family_bindings(index)
        .iter()
        .map(|(param, value)| format!("\"{param}\":{value}"))
        .collect();
    let memory = serde_json::to_string(&request.memory).expect("memories serialize");
    let backend = serde_json::to_string(&request.backend).expect("backends serialize");
    format!(
        "{{\"id\":{id},\"request\":{{\"family\":\"{family}\",\"bindings\":{{{}}},\"memory\":{memory},\"backend\":{backend}}}}}",
        bindings.join(",")
    )
}

/// The invalid lines, in the order they are drawn: each must get exactly
/// one error envelope, and the session must go on answering.
fn invalid_line(id: u64, nth: usize) -> (String, bool) {
    let memory = coords::Hierarchy::L1.memory(cache_model::ReplacementPolicy::Lru);
    let memory = serde_json::to_string(&memory).expect("memories serialize");
    match nth % 5 {
        0 => (
            format!("{{\"id\":{id},\"request\":{{\"kernel\":{{\"type\":\"polybench\",\"kernel\":\"gemm\",\"dataset\":\"MINI\"}},\"memory\":{memory},\"backend\":\"no-such-backend\"}}}}"),
            true,
        ),
        1 => (format!("{{\"id\":{id},\"request\":{{\"kernel\":"), false),
        2 => (
            format!("{{\"id\":{id},\"request\":{{\"kernel\":{{\"type\":\"source\",\"name\":\"broken\",\"code\":\"double A[8]; for (i = 0; i < 8; i++ A[i] = A[i];\"}},\"memory\":{memory},\"backend\":\"classic\"}}}}"),
            true,
        ),
        3 => (
            format!("{{\"id\":{id},\"request\":{{\"family\":\"ffff\",\"bindings\":{{}},\"memory\":{memory},\"backend\":\"classic\"}}}}"),
            true,
        ),
        _ => ("{\"cmd\":\"no-such-command\"}".to_string(), false),
    }
}

fn backend_by_name(name: &str) -> Backend {
    Backend::by_name(name).expect("the benchmark's backends exist")
}

/// The unique requests in a seeded, stratified order: each round sends
/// every kernel once, with the backends rotating across kernels and
/// rounds, and each (kernel, backend) pair stepping through the policies
/// and hierarchies together (12 steps cover all 4 × 3 pairs once).  Any
/// prefix of the stream therefore holds about the same mix of kernels,
/// backends, policies and hierarchies whatever the seed; the seed picks
/// the kernel order and where each pair's steps start.
fn unique_order(rng: &mut Rng) -> Vec<(Coord, &'static str)> {
    let mut kernels = Kernel::ALL;
    rng.shuffle(&mut kernels);
    let starts: Vec<(usize, usize)> = (0..kernels.len() * BACKENDS.len())
        .map(|_| (rng.below(POLICIES.len()), rng.below(HIERARCHIES.len())))
        .collect();
    let rounds = POLICIES.len() * HIERARCHIES.len() * BACKENDS.len();
    let mut uniques = Vec::with_capacity(rounds * kernels.len());
    for round in 0..rounds {
        for (i, &kernel) in kernels.iter().enumerate() {
            let b = (round + i) % BACKENDS.len();
            let step = round / BACKENDS.len();
            let (p, h) = starts[i * BACKENDS.len() + b];
            let coord = Coord {
                subject: Subject::PolyBench(kernel, Dataset::Mini),
                policy: POLICIES[(p + step) % POLICIES.len()],
                hierarchy: HIERARCHIES[(h + step) % HIERARCHIES.len()],
            };
            uniques.push((coord, BACKENDS[b]));
        }
    }
    uniques
}

/// The family requests in a seeded order: backends rotate, and each
/// backend walks a shuffled list of every binding × policy × hierarchy.
fn family_order(rng: &mut Rng) -> Vec<(Coord, &'static str)> {
    let mut per_backend: Vec<Vec<Coord>> = BACKENDS
        .iter()
        .map(|_| {
            let mut coords: Vec<Coord> = coords::serve_mix_coords()
                .into_iter()
                .filter(|c| matches!(c.subject, Subject::Family(_)))
                .collect();
            rng.shuffle(&mut coords);
            coords
        })
        .collect();
    let mut order = Vec::new();
    while let Some(coord) = per_backend[order.len() % BACKENDS.len()].pop() {
        order.push((coord, BACKENDS[order.len() % BACKENDS.len()]));
    }
    order
}

/// The seeded line stream.  The same seed and family address give a
/// byte-identical stream.
pub fn generate(seed: u64, family: &str) -> Vec<Line> {
    let mut rng = Rng::new(seed);
    let uniques = unique_order(&mut rng);
    let families = family_order(&mut rng);
    let mut lines = Vec::new();
    let mut sent = 0;
    let mut family_sent = 0;
    let mut invalid = 0;
    while sent < uniques.len() {
        let id = lines.len() as u64 + 1;
        let draw = rng.unit();
        let line = if draw < FAMILY_SHARE {
            let (coord, backend) = families[family_sent % families.len()];
            family_sent += 1;
            let Subject::Family(index) = coord.subject else {
                unreachable!("family_order yields family coordinates")
            };
            let request = SimRequest::new(
                family_kernel(index),
                coord.memory(),
                backend_by_name(backend),
            );
            Line {
                id,
                text: family_line(id, family, index, &request),
                expect: Expect::Report {
                    key: coord.key(),
                    backend,
                    request,
                },
            }
        } else if draw < FAMILY_SHARE + REPEAT_SHARE && sent > 0 {
            let (coord, backend) = uniques[rng.below(sent)];
            let mut request =
                SimRequest::new(coord.kernel(), coord.memory(), backend_by_name(backend));
            if rng.below(2) == 1 {
                let Subject::PolyBench(kernel, dataset) = coord.subject else {
                    unreachable!("unique lines are PolyBench kernels")
                };
                let code = respell(&kernel.source(dataset));
                request.kernel = KernelSpec::source(format!("{}-respelled", kernel.name()), code);
            }
            Line {
                id,
                text: request_line(id, &request),
                expect: Expect::Report {
                    key: coord.key(),
                    backend,
                    request,
                },
            }
        } else if draw < FAMILY_SHARE + REPEAT_SHARE + INVALID_SHARE {
            let (text, own_id) = invalid_line(id, invalid);
            invalid += 1;
            Line {
                id,
                text,
                expect: Expect::Error { own_id },
            }
        } else {
            let (coord, backend) = uniques[sent];
            sent += 1;
            let request = SimRequest::new(coord.kernel(), coord.memory(), backend_by_name(backend));
            Line {
                id,
                text: request_line(id, &request),
                expect: Expect::Report {
                    key: coord.key(),
                    backend,
                    request,
                },
            }
        };
        lines.push(line);
    }
    lines
}

/// A running service with its connected client sockets.
pub struct Session {
    refs: Refs,
    pub lines: Vec<Line>,
    service: Arc<SimService>,
    clients: Vec<UnixStream>,
    handlers: Vec<JoinHandle<std::io::Result<(serve::ServeStats, bool)>>>,
}

pub fn setup(seed: u64, refs_path: &str) -> Result<Session, String> {
    let refs = Refs::load(refs_path)?;
    let service = Arc::new(SimService::new(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }));
    let family = service.register_family(FAMILY_NAME, FAMILY_CODE)?.family;
    let lines = generate(seed, &family);
    for line in &lines {
        if let Expect::Report { key, .. } = &line.expect {
            refs.get(key)?;
        }
    }
    let io = |e: std::io::Error| format!("socket pair: {e}");
    let mut clients = Vec::new();
    let mut handlers = Vec::new();
    for _ in 0..CLIENTS {
        let (client, server) = UnixStream::pair().map_err(io)?;
        let reader = BufReader::new(server.try_clone().map_err(io)?);
        let service = service.clone();
        handlers.push(std::thread::spawn(move || {
            serve::serve_lines(&service, reader, server)
        }));
        clients.push(client);
    }
    Ok(Session {
        refs,
        lines,
        service,
        clients,
        handlers,
    })
}

/// What one client saw.
#[derive(Default)]
struct ClientTally {
    tally: Tally,
    serve_ms: Vec<f64>,
    wire_ms: Vec<f64>,
    layers: LayerTally,
}

/// What a serve-mix phase measured.
pub struct Phase {
    pub tally: Tally,
    pub wall_s: f64,
    serve_ms: Vec<f64>,
    wire_ms: Vec<f64>,
    layers: LayerTally,
    stats: serve::ServeStats,
}

fn levels_of(report: &Value) -> Option<Vec<LevelStats>> {
    report
        .get("levels")?
        .as_array()?
        .iter()
        .map(|level| {
            Some(LevelStats {
                accesses: level.get("accesses")?.as_u64()?,
                hits: level.get("hits")?.as_u64()?,
                misses: level.get("misses")?.as_u64()?,
            })
        })
        .collect()
}

/// Checks one reply and records it; `Err` is a failed operation.
fn record(
    line: &Line,
    session_line: u64,
    reply: &str,
    latency_ns: u128,
    refs: &Refs,
    out: &mut ClientTally,
) -> Result<(), String> {
    let envelope: Value =
        serde_json::from_str(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    let id = envelope.get("id").and_then(Value::as_u64);
    match &line.expect {
        Expect::Error { own_id } => {
            let want = if *own_id { line.id } else { session_line };
            match envelope.get("error") {
                Some(_) if id == Some(want) => Ok(()),
                Some(_) => Err(format!("error reply with id {id:?}, expected {want}")),
                None => Err(format!("invalid line answered without an error: {reply}")),
            }
        }
        Expect::Report { key, backend, .. } => {
            if id != Some(line.id) {
                return Err(format!("reply id {id:?}, expected {}", line.id));
            }
            let Some(report) = envelope.get("report") else {
                return Err(format!("no report: {reply}"));
            };
            let levels = levels_of(report).ok_or("report without levels")?;
            let reference = refs.get(key)?;
            let approx = report.get("approx");
            let bounds: Option<Vec<u64>> = approx
                .and_then(|a| a.get("per_level_error_bound"))
                .and_then(Value::as_array)
                .map(|b| b.iter().filter_map(Value::as_u64).collect());
            if *backend == "sampled" && bounds.is_none() {
                return Err("sampled report without bounds".to_string());
            }
            refs::check(reference, &levels, bounds.as_deref())?;
            let serve_ns = envelope
                .get("serve_ns")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            out.serve_ms.push(serve_ns as f64 / 1e6);
            out.wire_ms
                .push((latency_ns as f64 - serve_ns as f64) / 1e6);
            out.tally.latencies_ms.push(latency_ns as f64 / 1e6);
            if envelope.get("served").and_then(Value::as_str) == Some("simulated") {
                out.tally
                    .add_backend(backend, latency_ns, reference[0].accesses);
                if let Some(warping) = report.get("warping").filter(|w| w.get("warps").is_some()) {
                    let get = |key: &str| warping.get(key).and_then(Value::as_u64).unwrap_or(0);
                    out.layers.warping(
                        reference[0].accesses,
                        get("non_warped_accesses"),
                        get("warps"),
                        get("match_attempts"),
                        get("exact_key_builds"),
                    );
                }
                if let (Some(approx), Some(bounds)) = (approx, bounds) {
                    let approx = ApproxStats {
                        sampled_fraction: approx
                            .get("sampled_fraction")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0),
                        per_level_error_bound: bounds,
                        ..ApproxStats::exact(0)
                    };
                    out.layers.sampled(&levels, reference, &approx);
                }
            }
            Ok(())
        }
    }
}

/// One client session: take the next line, send it, wait for its reply,
/// until the first `limit` lines are taken.  With a tracer, each valid
/// line's canonical hash, build and compile are probed first.
fn client(
    mut stream: UnixStream,
    lines: &[Line],
    limit: usize,
    next: &AtomicUsize,
    refs: &Refs,
    mut tracer: Option<&mut Tracer>,
) -> Result<ClientTally, String> {
    let io = |e: std::io::Error| format!("client socket: {e}");
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut out = ClientTally::default();
    let mut reply = String::new();
    let mut session_line = 0;
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(line) = lines.get(index).filter(|_| index < limit) else {
            break;
        };
        out.tally.attempted += 1;
        session_line += 1;
        let root = tracer.as_deref_mut().map(|t| {
            let root = t.begin(ROOT, line.id);
            if let Expect::Report { request, .. } = &line.expect {
                t.time("engine.canon", line.id, || {
                    black_box(request.canonical_hash())
                });
                let (scop, _) = t.time("scop.build", line.id, || request.kernel.build());
                if let Ok(scop) = scop {
                    t.time("scop.compile", line.id, || black_box(scop::compile(&scop)));
                }
            }
            (root, t.begin("serve.roundtrip", line.id))
        });
        let start = Instant::now();
        stream
            .write_all(format!("{}\n", line.text).as_bytes())
            .map_err(io)?;
        reply.clear();
        reader.read_line(&mut reply).map_err(io)?;
        let latency_ns = start.elapsed().as_nanos();
        if let (Some(t), Some((root, roundtrip))) = (tracer.as_deref_mut(), root) {
            t.end(roundtrip);
            t.end(root);
        }
        if reply.is_empty() {
            out.tally
                .fail(&format!("line {}", line.id), "connection closed");
            break;
        }
        if let Err(e) = record(
            line,
            session_line,
            reply.trim_end(),
            latency_ns,
            refs,
            &mut out,
        ) {
            out.tally.fail(&format!("line {}", line.id), &e);
        }
    }
    // End of input: the server drains, writes its stats trailer and hangs
    // up.  Anything else left on the stream is a reply nobody asked for.
    stream.shutdown(Shutdown::Write).map_err(io)?;
    loop {
        reply.clear();
        if reader.read_line(&mut reply).map_err(io)? == 0 {
            break;
        }
        if !reply.starts_with("{\"serve_stats\"") {
            out.tally.fail(
                "session end",
                &format!("unexpected reply: {}", reply.trim_end()),
            );
        }
    }
    Ok(out)
}

impl Session {
    /// Runs the whole line stream through the clients and shuts the
    /// session down.
    pub fn run(self, tracers: Option<&mut [Tracer; CLIENTS]>) -> Result<Phase, String> {
        self.finish(usize::MAX, tracers)
    }

    /// Tears a set-up session down without running it.
    pub fn close(self) -> Result<(), String> {
        self.finish(0, None).map(|_| ())
    }

    fn finish(
        self,
        limit: usize,
        mut tracers: Option<&mut [Tracer; CLIENTS]>,
    ) -> Result<Phase, String> {
        let Session {
            refs,
            lines,
            service,
            clients,
            handlers,
        } = self;
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let results: Vec<Result<ClientTally, String>> = std::thread::scope(|scope| {
            let mut tracers = tracers.as_mut().map(|t| t.iter_mut());
            let threads: Vec<_> = clients
                .into_iter()
                .map(|stream| {
                    let tracer = tracers.as_mut().and_then(Iterator::next);
                    let (lines, next, refs) = (&lines, &next, &refs);
                    scope.spawn(move || client(stream, lines, limit, next, refs, tracer))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client threads do not panic"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        for handler in handlers {
            handler
                .join()
                .expect("session threads do not panic")
                .map_err(|e| format!("session failed: {e}"))?;
        }
        let mut phase = Phase {
            tally: Tally::default(),
            wall_s,
            serve_ms: Vec::new(),
            wire_ms: Vec::new(),
            layers: LayerTally::default(),
            stats: service.stats(),
        };
        for result in results {
            let client = result?;
            phase.tally.absorb(client.tally);
            phase.serve_ms.extend(client.serve_ms);
            phase.wire_ms.extend(client.wire_ms);
            phase.layers.absorb(client.layers);
        }
        phase.tally.end_pass();
        Ok(phase)
    }
}

impl Phase {
    pub fn per_layer(&self, tracer: &Tracer, values: &mut Values) {
        self.layers.values(tracer, values);
        let s = &self.stats;
        values.insert(
            "serve.cache_hit_ratio",
            metrics::ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
        );
        values.insert("serve.coalesced", s.coalesced as f64);
        values.insert("serve.simulated", s.simulated as f64);
        values.insert(
            "serve.calibration_hit_ratio",
            metrics::ratio(
                s.calibration_hits as f64,
                (s.calibration_hits + s.calibration_misses) as f64,
            ),
        );
        values.insert(
            "serve.in_server_p50_ms",
            metrics::percentile(&self.serve_ms, 0.50),
        );
        values.insert(
            "serve.in_server_p99_ms",
            metrics::percentile(&self.serve_ms, 0.99),
        );
        values.insert("serve.wire_p50_ms", metrics::median(&self.wire_ms));
    }
}

/// Checks that every re-spelled MINI kernel shares its PolyBench twin's
/// canonical hash (so re-spelled repeats can only hit by hash).
pub fn check_respelling() -> Result<(), String> {
    let memory = coords::Hierarchy::L1.memory(cache_model::ReplacementPolicy::Lru);
    for kernel in Kernel::ALL {
        let original = SimRequest::new(
            KernelSpec::polybench(kernel, Dataset::Mini),
            memory.clone(),
            Backend::Classic,
        );
        let code = respell(&kernel.source(Dataset::Mini));
        let respelled = SimRequest::new(
            KernelSpec::source("respelled", code.clone()),
            memory.clone(),
            Backend::Classic,
        );
        if code == kernel.source(Dataset::Mini)
            || original.canonical_hash() != respelled.canonical_hash()
        {
            return Err(format!(
                "re-spelled {} does not share its hash:\n{code}",
                kernel.name()
            ));
        }
    }
    Ok(())
}

/// The line stream's composition, for the record.
pub fn shares(lines: &[Line]) -> String {
    let mut counts = [0usize; 4];
    for line in lines {
        let slot = match &line.expect {
            Expect::Error { .. } => 3,
            Expect::Report { request, .. } => match &request.kernel {
                KernelSpec::Parametric { .. } => 1,
                KernelSpec::Source { .. } => 2,
                _ => 0,
            },
        };
        counts[slot] += 1;
    }
    format!(
        "{} lines: {} PolyBench (unique or verbatim repeat), {} family, {} re-spelled repeat, {} invalid",
        lines.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    )
}
