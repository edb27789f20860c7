//! Host speed.  On a shared virtual machine the whole guest runs faster
//! or slower in phases that last from a second to many minutes (1.5–3×
//! apart on a 2-vCPU machine), and every host time moves with them: two
//! sets of ten runs of the same code could disagree by more than any
//! bound.  So a run also times a fixed reference loop, between its
//! requests or on a thread beside them, and reports each time rescaled to
//! the speed at which that loop takes `REFERENCE_NS`.  The raw times are
//! printed too.
//!
//! The loop is part of the benchmark, not of the program, so a change to
//! the program cannot move a probe taken alone; one taken beside busy
//! cores shares their caches with the program's threads.  It is
//! compute-bound and cache-resident, like the simulators' inner loops: an
//! 8-way LRU cache of 64 sets fed a pseudo-random block stream.  Over eight warp-stencil runs on a 2-vCPU
//! virtual machine it narrowed the spread (interquartile range over
//! median) of `warping_ns_per_access` from 0.080 to 0.023, where a
//! memory-bound loop (random reads over 16 MiB) narrowed it only to 0.055.

use crate::metrics::{median, Values};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Blocks one probe feeds the reference cache.
const PROBE_BLOCKS: u32 = 300_000;

/// One probe's time at the reference speed: about its median on a 2-vCPU
/// virtual machine in a fast phase.
const REFERENCE_NS: f64 = 1.2e6;

/// Pause between the probes taken beside work that keeps every core busy.
/// At this pause such a probe, by its thread's CPU clock, takes what one
/// taken alone takes by the wall clock (0.90–1.06 of it over ten
/// serve-mix runs on a 2-vCPU virtual machine); at 50 ms it took twice as
/// long.
const PROBE_PERIOD: Duration = Duration::from_millis(100);

/// The reference loop's seed.
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

#[derive(Default)]
pub struct Speed {
    probes_ns: Vec<f64>,
    spent: Duration,
}

impl Speed {
    /// Times one run of the reference loop.
    pub fn probe(&mut self) {
        let start = Instant::now();
        black_box(reference_loop(black_box(SEED)));
        let elapsed = start.elapsed();
        self.spent += elapsed;
        self.probes_ns.push(elapsed.as_nanos() as f64);
    }

    /// Runs `work` while a thread of its own probes every `PROBE_PERIOD`,
    /// timing each probe by that thread's CPU clock: `work` keeps every
    /// core busy, so a wall-clock probe would time how the scheduler
    /// shares the cores out, not the host's speed.  The probes take about
    /// 2 % of one core.
    pub fn during<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let prober = scope.spawn(|| {
                let mut probes = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let start = thread_cpu_ns();
                    black_box(reference_loop(black_box(SEED)));
                    probes.push((thread_cpu_ns() - start) as f64);
                    std::thread::park_timeout(PROBE_PERIOD);
                }
                probes
            });
            let out = work();
            stop.store(true, Ordering::Relaxed);
            prober.thread().unpark();
            let probes = prober.join().expect("the prober does not panic");
            self.probes_ns.extend(probes);
            out
        })
    }

    /// Time spent in probes so far, to leave out of a timed phase.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// What a host time measured at this run's speed is multiplied by to
    /// give the time at the reference speed (1 without probes).
    pub fn factor(&self) -> f64 {
        if self.probes_ns.is_empty() {
            1.0
        } else {
            REFERENCE_NS / median(&self.probes_ns)
        }
    }

    /// Prints the raw value of every time (`s`, `ms`, `us`, `ns`) and rate
    /// (`1/s`) among `names`, then rescales it to the reference speed.
    pub fn rescale(&self, names: &[(&str, &str)], values: &mut Values) {
        let factor = self.factor();
        println!(
            "host speed: reference loop median {:.4} ms over {} probes; times rescaled by {factor:.4}",
            median(&self.probes_ns) / 1e6,
            self.probes_ns.len()
        );
        for &(name, unit) in names {
            let scale = match unit {
                "s" | "ms" | "us" | "ns" => factor,
                "1/s" => 1.0 / factor,
                _ => continue,
            };
            if let Some(value) = values.get_mut(name) {
                println!("raw {name:28} {:>16.6} {unit}", *value);
                *value *= scale;
            }
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); `clock_gettime` only writes through it.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock is readable on Linux");
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// The reference loop; returns the miss count so the work is kept.
fn reference_loop(mut x: u64) -> u64 {
    let mut sets = [[u64::MAX; 8]; 64];
    let mut misses = 0;
    for _ in 0..PROBE_BLOCKS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = x % 4096;
        let set = &mut sets[(block % 64) as usize];
        let way = set.iter().position(|&tag| tag == block).unwrap_or_else(|| {
            misses += 1;
            set.len() - 1
        });
        set[..=way].rotate_right(1);
        set[0] = block;
    }
    misses
}
