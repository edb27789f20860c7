//! exact-polybench and warp-stencil: requests one at a time through
//! `Engine::run` (closed loop, one client), every simulated cache starting
//! empty.  The traced pass replays the same requests by calling each
//! layer's public functions in turn, with a span around each call.

use crate::coords::{self, Coord, BASELINE};
use crate::metrics::{self, LayerTally, Tally};
use crate::refs::{self, Refs};
use crate::rng::Rng;
use crate::spans::{Tracer, ROOT};
use crate::speed::Speed;
use cache_model::LevelStats;
use engine::{ApproxStats, Backend, Engine, SimReport, SimRequest, WarpingStats};
use simulate::MultiLevelSystem;
use std::hint::black_box;
use std::time::Instant;
use warping::WarpingSimulator;

pub struct Job {
    pub id: u64,
    pub key: String,
    pub request: SimRequest,
}

/// A prepared workload: the timed request list (one pass) and, for
/// warp-stencil, the classic/trace/sampled baseline.  An untraced round
/// runs the pass `repeats` times, then the baseline once.
pub struct Plan {
    pub engine: Engine,
    pub refs: Refs,
    pub pass: Vec<Job>,
    pub repeats: usize,
    pub baseline: Vec<Job>,
}

fn jobs(coords: &[Coord], backends: &[Backend], next_id: &mut u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for coord in coords {
        for backend in backends {
            *next_id += 1;
            jobs.push(Job {
                id: *next_id,
                key: coord.key(),
                request: SimRequest::new(coord.kernel(), coord.memory(), *backend),
            });
        }
    }
    jobs
}

pub fn setup(workload: &str, seed: u64, refs_path: &str) -> Result<Plan, String> {
    let refs = Refs::load(refs_path)?;
    let mut rng = Rng::new(seed);
    let mut next_id = 0;
    let (mut pass, repeats, mut baseline) = match workload {
        "exact-polybench" => {
            let backends = [
                Backend::Classic,
                Backend::warping(),
                Backend::Trace,
                Backend::sampled(),
            ];
            let pass = jobs(&coords::exact_polybench_coords(), &backends, &mut next_id);
            (pass, 1, Vec::new())
        }
        "warp-stencil" => {
            let pass = jobs(
                &coords::stencil_coords(),
                &[Backend::warping()],
                &mut next_id,
            );
            let baseline = jobs(
                &[BASELINE],
                &[Backend::Classic, Backend::Trace, Backend::sampled()],
                &mut next_id,
            );
            // Three warping passes (~3.3 s) per baseline (~0.8 s).
            (pass, 3, baseline)
        }
        other => return Err(format!("not an engine workload: {other}")),
    };
    for job in pass.iter().chain(&baseline) {
        refs.get(&job.key)?;
    }
    rng.shuffle(&mut pass);
    rng.shuffle(&mut baseline);
    Ok(Plan {
        engine: Engine::new(),
        refs,
        pass,
        repeats,
        baseline,
    })
}

fn bounds(report: &SimReport) -> Option<&[u64]> {
    report
        .approx
        .as_ref()
        .map(|approx| approx.per_level_error_bound.as_slice())
}

/// One untraced request: `Engine::run` timed by the benchmark's clock,
/// then checked against its reference.
fn run_job(plan: &Plan, job: &Job, tally: &mut Tally) {
    tally.attempted += 1;
    let start = Instant::now();
    let outcome = plan.engine.run(black_box(&job.request));
    let ns = start.elapsed().as_nanos();
    let report = match outcome {
        Ok(report) => black_box(report),
        Err(e) => return tally.fail(&job.key, &e.to_string()),
    };
    let reference = plan.refs.get(&job.key).expect("checked at setup");
    if let Err(e) = refs::check(reference, &report.levels, bounds(&report)) {
        return tally.fail(&format!("{} {}", job.key, job.request.backend), &e);
    }
    tally.latencies_ms.push(ns as f64 / 1e6);
    tally.add_backend(job.request.backend.label(), ns, reference[0].accesses);
}

/// Untraced measurement: whole rounds (the passes, then the baseline, so
/// both see the same stretches of machine time) for about `seconds`, with
/// a host-speed probe after every request.  Returns the tallies of the
/// passes and of the baseline, and the wall time of the passes alone,
/// probes left out.
pub fn measure(plan: &Plan, seconds: f64, speed: &mut Speed) -> (Tally, Tally, f64) {
    let (mut tally, mut baseline) = (Tally::default(), Tally::default());
    let start = Instant::now();
    let mut pass_s = 0.0;
    loop {
        let (round, probed) = (Instant::now(), speed.spent());
        for _ in 0..plan.repeats {
            for job in &plan.pass {
                run_job(plan, job, &mut tally);
                speed.probe();
            }
            tally.end_pass();
        }
        pass_s += (round.elapsed() - (speed.spent() - probed)).as_secs_f64();
        for job in &plan.baseline {
            run_job(plan, job, &mut baseline);
            speed.probe();
        }
        let (elapsed_s, round_s) = (start.elapsed().as_secs_f64(), round.elapsed().as_secs_f64());
        if !metrics::another_round(elapsed_s, round_s, seconds) {
            return (tally, baseline, pass_s);
        }
    }
}

/// One pass plus the baseline, untraced, with a host-speed probe after
/// every request; returns its wall time, probes left out.
pub fn untraced_pass(plan: &Plan, tally: &mut Tally, speed: &mut Speed) -> f64 {
    let (start, probed) = (Instant::now(), speed.spent());
    for job in plan.pass.iter().chain(&plan.baseline) {
        run_job(plan, job, tally);
        speed.probe();
    }
    (start.elapsed() - (speed.spent() - probed)).as_secs_f64()
}

/// One pass plus the baseline with every layer call in its own span and a
/// host-speed probe after every request; returns its wall time, probes
/// left out.
pub fn traced_pass(
    plan: &Plan,
    tracer: &mut Tracer,
    tally: &mut Tally,
    layers: &mut LayerTally,
    speed: &mut Speed,
) -> f64 {
    let (start, probed) = (Instant::now(), speed.spent());
    for job in plan.pass.iter().chain(&plan.baseline) {
        tally.attempted += 1;
        let root = tracer.begin(ROOT, job.id);
        let outcome = traced_job(plan, job, tracer, layers);
        tracer.end(root);
        let reference = plan.refs.get(&job.key).expect("checked at setup");
        let checked = outcome.and_then(|(levels, approx)| {
            let bounds = approx.as_ref().map(|a| a.per_level_error_bound.as_slice());
            refs::check(reference, &levels, bounds)?;
            if let Some(approx) = &approx {
                layers.sampled(&levels, reference, approx);
            }
            Ok(())
        });
        if let Err(e) = checked {
            tally.fail(&format!("{} {}", job.key, job.request.backend), &e);
        }
        speed.probe();
    }
    (start.elapsed() - (speed.spent() - probed)).as_secs_f64()
}

/// The layers of one request, each call timed: canonical hash, build,
/// compile, then the backend's own calls.  Returns the counts and, for a
/// sampled request, its sampling statistics.
fn traced_job(
    plan: &Plan,
    job: &Job,
    tracer: &mut Tracer,
    layers: &mut LayerTally,
) -> Result<(Vec<LevelStats>, Option<ApproxStats>), String> {
    let id = job.id;
    let request = &job.request;
    tracer.time("engine.canon", id, || black_box(request.canonical_hash()));
    let (scop, _) = tracer.time("scop.build", id, || request.kernel.build());
    let scop = scop?;
    let (compiled, compile_ns) = tracer.time("scop.compile", id, || scop::compile(&scop));
    let memory = &request.memory;
    let walk = |tracer: &mut Tracer, layers: &mut LayerTally| {
        let (accesses, ns) = tracer.time("scop.walk", id, || {
            let mut scratch = compiled.new_scratch();
            compiled.for_each_run(&mut scratch, |run| {
                black_box(run);
            })
        });
        layers.walk_accesses += accesses;
        ns
    };
    match request.backend {
        Backend::Classic => {
            let walk_ns = walk(tracer, layers);
            let (result, sim_ns) = tracer.time("cache.simulate", id, || {
                let mut system = MultiLevelSystem::new(memory.clone());
                simulate::simulate(&scop, &mut system)
            });
            layers.classic_accesses += result.accesses;
            layers.cache_ns += sim_ns as i128 - compile_ns as i128 - walk_ns as i128;
            Ok((result.levels, None))
        }
        Backend::Trace => {
            walk(tracer, layers);
            let (trace, _) = tracer.time("trace.generate", id, || trace_sim::generate_trace(&scop));
            let (levels, _) = tracer.time("trace.replay", id, || {
                trace_sim::simulate_trace_memory(&trace, memory)
            });
            layers.trace_accesses += trace.len() as u64;
            let bytes = std::mem::size_of_val(trace.as_slice()) as u64;
            layers.trace_buffer_bytes = layers.trace_buffer_bytes.max(bytes);
            Ok((levels, None))
        }
        Backend::Warping(options) => {
            let mut simulator = WarpingSimulator::try_new(memory.clone())?
                .with_options(options)
                .with_threads(plan.engine.threads());
            let (outcome, ns) = tracer.time("warping.run", id, || simulator.run(&scop));
            let stats = WarpingStats::from(&outcome);
            let accesses = outcome.result.accesses;
            layers.warping(
                accesses,
                stats.non_warped_accesses,
                stats.warps,
                stats.match_attempts,
                stats.exact_key_builds,
            );
            if stats.warps == 0 {
                layers.nowarp_ns += ns;
                layers.nowarp_accesses += accesses;
            }
            Ok((outcome.result.levels, None))
        }
        Backend::Sampled(_) => {
            let (report, _) = tracer.time("engine.run", id, || plan.engine.run(request));
            let report = report.map_err(|e| e.to_string())?;
            Ok((report.levels, report.approx))
        }
        other => Err(format!("{other} is not measured")),
    }
}
