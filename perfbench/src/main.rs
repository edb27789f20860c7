//! The warpsim repository benchmark.
//!
//! ```text
//! perfbench --workload <exact-polybench|warp-stencil|serve-mix> \
//!           --seed N --seconds S --trace 0|1
//! perfbench gen-refs [--out perfbench/refs.json]
//! ```
//!
//! Run from the repository root; `python3 perfbench/run.py …` builds this
//! package and runs it.  With `--trace 0` the run measures for `--seconds`
//! and prints the end-to-end metrics; with `--trace 1` it runs the
//! workload's requests twice untraced and twice traced, prints the
//! per-layer metrics and the tracing overhead, and writes the spans to
//! `perfbench/out/`.  Every reply is checked against the committed
//! reference counts; the last stdout line is the result object, and any
//! failed check makes the exit code 1.

mod coords;
mod engine_load;
mod metrics;
mod refs;
mod rng;
mod serve_mix;
mod spans;
mod speed;

use metrics::{LayerTally, Tally, Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use speed::Speed;
use std::time::Instant;

const REFS: &str = "perfbench/refs.json";
const SPANS_DIR: &str = "perfbench/out";

/// Set-ups per measuring run, made in this process after its timed phase;
/// `setup_s` is the median of their times.  A set-up in a fresh process
/// also pays process start and the first touches of its memory; on a
/// shared 2-vCPU virtual machine that time slowed 2.8× between a fast and
/// a slow host phase where the host-speed probe slowed 2×, so it could not
/// be rescaled steadily.
const SETUP_REPEATS: usize = 21;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |_| format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .map_err(|_| format!("invalid --seconds `{value}`"))?
            }
            "--trace" => options.trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !options.seconds.is_finite() || options.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-refs") => gen_refs(&args[1..]).map(|()| 0),
        _ => parse(&args).and_then(|options| run(&options)),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}

fn gen_refs(args: &[String]) -> Result<(), String> {
    let out = match args {
        [] => REFS,
        [flag, value] if flag == "--out" => value.as_str(),
        _ => return Err("usage: perfbench gen-refs [--out PATH]".to_string()),
    };
    serve_mix::check_respelling()?;
    refs::generate(out)
}

/// The median of `SETUP_REPEATS` set-ups of this run's workload and seed,
/// each timed up to where a measuring run sends its first request and
/// then torn down, with a host-speed probe after each.
fn setup_seconds(options: &Options) -> Result<f64, String> {
    let mut speed = Speed::default();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        if options.workload == "serve-mix" {
            let session = serve_mix::setup(options.seed, REFS)?;
            times.push(start.elapsed().as_secs_f64());
            session.close()?;
        } else {
            let plan = engine_load::setup(&options.workload, options.seed, REFS)?;
            times.push(start.elapsed().as_secs_f64());
            drop(plan);
        }
        speed.probe();
    }
    let setup_s = metrics::median(&times);
    println!(
        "raw setup_s {setup_s:.6} s, rescaled by {:.4}",
        speed.factor()
    );
    Ok(setup_s * speed.factor())
}

fn run(options: &Options) -> Result<i32, String> {
    let mut values = Values::new();
    let mut speed = Speed::default();
    let (attempted, failed) = match options.workload.as_str() {
        "exact-polybench" | "warp-stencil" => run_engine(options, &mut values, &mut speed)?,
        "serve-mix" => run_serve(options, &mut values, &mut speed)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (exact-polybench, warp-stencil, serve-mix)"
            ))
        }
    };
    values.insert("peak_rss_mb", metrics::peak_rss_mib());
    let names = if options.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    speed.rescale(names, &mut values);
    if !options.trace {
        values.insert("setup_s", setup_seconds(options)?);
    }
    let correct = metrics::emit(names, &values, attempted, failed);
    Ok(if correct { 0 } else { 1 })
}

fn write_spans(options: &Options, tracer: &Tracer) -> Result<(), String> {
    let path = format!(
        "{SPANS_DIR}/spans-{}-seed{}.jsonl",
        options.workload, options.seed
    );
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("spans: {} written to {path}", tracer.spans().len());
    Ok(())
}

fn run_engine(
    options: &Options,
    values: &mut Values,
    speed: &mut Speed,
) -> Result<(u64, u64), String> {
    let plan = engine_load::setup(&options.workload, options.seed, REFS)?;
    if !options.trace {
        let (tally, baseline, wall_s) = engine_load::measure(&plan, options.seconds, speed);
        tally.end_to_end(&baseline, values, wall_s);
        println!(
            "requests: {} timed in {wall_s:.3} s, {} baseline",
            tally.latencies_ms.len(),
            baseline.latencies_ms.len()
        );
        return Ok((
            tally.attempted + baseline.attempted,
            tally.failed + baseline.failed,
        ));
    }
    // Passes in the order untraced, traced, traced, untraced, so a drift
    // in machine speed cancels out of the overhead.  The per-layer metrics
    // and spans are the first traced pass's.
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut layers = LayerTally::default();
    let mut untraced_s = engine_load::untraced_pass(&plan, &mut tally, speed);
    let mut traced_s = engine_load::traced_pass(&plan, &mut tracer, &mut tally, &mut layers, speed);
    traced_s += engine_load::traced_pass(
        &plan,
        &mut Tracer::new(Instant::now()),
        &mut tally,
        &mut LayerTally::default(),
        speed,
    );
    untraced_s += engine_load::untraced_pass(&plan, &mut tally, speed);
    layers.values(&tracer, values);
    metrics::overhead_values(values, untraced_s / 2.0, traced_s / 2.0);
    write_spans(options, &tracer)?;
    Ok((tally.attempted, tally.failed))
}

fn run_serve(
    options: &Options,
    values: &mut Values,
    speed: &mut Speed,
) -> Result<(u64, u64), String> {
    let setup = || serve_mix::setup(options.seed, REFS);
    let session = setup()?;
    println!("stream: {}", serve_mix::shares(&session.lines));
    if !options.trace {
        // Whole rounds of the stream, each on a fresh service, for about
        // `--seconds`.
        let (mut tally, mut wall_s, mut rounds) = (Tally::default(), 0.0, 0);
        let mut session = Some(session);
        while let Some(next) = session.take() {
            let phase = speed.during(|| next.run(None))?;
            tally.absorb(phase.tally);
            wall_s += phase.wall_s;
            rounds += 1;
            if metrics::another_round(wall_s, phase.wall_s, options.seconds) {
                session = Some(setup()?);
            }
        }
        tally.end_to_end(&Tally::default(), values, wall_s);
        println!(
            "requests: {rounds} rounds in {wall_s:.3} s, {} latency samples",
            tally.latencies_ms.len()
        );
        return Ok((tally.attempted, tally.failed));
    }
    // Rounds in the order untraced, traced, traced, untraced, each on a
    // fresh service, so a drift in machine speed cancels out of the
    // overhead.  The per-layer metrics and spans are the first traced
    // round's.
    let epoch = Instant::now();
    let mut tracers = [Tracer::new(epoch), Tracer::new(epoch)];
    let mut discarded = [Tracer::new(epoch), Tracer::new(epoch)];
    let untraced_1 = speed.during(|| session.run(None))?;
    let traced_1 = speed.during(|| setup()?.run(Some(&mut tracers)))?;
    let traced_2 = speed.during(|| setup()?.run(Some(&mut discarded)))?;
    let untraced_2 = speed.during(|| setup()?.run(None))?;
    let [mut tracer, other] = tracers;
    tracer.absorb(other);
    traced_1.per_layer(&tracer, values);
    metrics::overhead_values(
        values,
        (untraced_1.wall_s + untraced_2.wall_s) / 2.0,
        (traced_1.wall_s + traced_2.wall_s) / 2.0,
    );
    write_spans(options, &tracer)?;
    let phases = [untraced_1, traced_1, traced_2, untraced_2];
    let attempted = phases.iter().map(|p| p.tally.attempted).sum();
    let failed = phases.iter().map(|p| p.tally.failed).sum();
    Ok((attempted, failed))
}
