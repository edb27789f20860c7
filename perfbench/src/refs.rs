//! Reference counts: generated once with the reference walk
//! (`scop::for_each_access`, Algorithm 1) into a fresh
//! `simulate::MultiLevelSystem`, committed as `refs.json`, and checked
//! against every reply of every run.

use crate::coords::{self, Coord};
use cache_model::LevelStats;
use serde::Value;
use simulate::{MemorySystem, MultiLevelSystem};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The command that regenerates `refs.json`, run from the repository root.
pub const GENERATE_COMMAND: &str =
    "cargo run --release --offline --manifest-path perfbench/Cargo.toml -- gen-refs --out perfbench/refs.json";

pub struct Refs(HashMap<String, Vec<LevelStats>>);

impl Refs {
    pub fn load(path: &str) -> Result<Refs, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
        let Some(Value::Object(entries)) = value.get("entries") else {
            return Err(format!("{path} has no `entries` object"));
        };
        let mut map = HashMap::with_capacity(entries.len());
        for (key, levels) in entries {
            let levels = levels
                .as_array()
                .ok_or_else(|| format!("{key}: levels must be an array"))?
                .iter()
                .map(|level| match level.as_array() {
                    Some([a, h, m]) => Some(LevelStats {
                        accesses: a.as_u64()?,
                        hits: h.as_u64()?,
                        misses: m.as_u64()?,
                    }),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("{key}: each level must be [accesses, hits, misses]"))?;
            map.insert(key.clone(), levels);
        }
        Ok(Refs(map))
    }

    pub fn get(&self, key: &str) -> Result<&[LevelStats], String> {
        self.0
            .get(key)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("no reference counts for {key}"))
    }
}

/// Checks one reply against its reference.  Exact replies (`bounds` is
/// `None`) must match every level bit for bit; sampled replies must
/// simulate the same accesses and keep each level's miss count within its
/// reported bound.
pub fn check(
    reference: &[LevelStats],
    levels: &[LevelStats],
    bounds: Option<&[u64]>,
) -> Result<(), String> {
    if levels.len() != reference.len() {
        return Err(format!(
            "{} levels reported, {} expected",
            levels.len(),
            reference.len()
        ));
    }
    match bounds {
        None if levels != reference => Err(format!("counts {levels:?} != reference {reference:?}")),
        None => Ok(()),
        Some(bounds) => {
            if bounds.len() != reference.len() {
                return Err(format!(
                    "{} bounds for {} levels",
                    bounds.len(),
                    reference.len()
                ));
            }
            if levels[0].accesses != reference[0].accesses {
                return Err(format!(
                    "{} accesses, reference {}",
                    levels[0].accesses, reference[0].accesses
                ));
            }
            for (i, ((got, want), bound)) in levels.iter().zip(reference).zip(bounds).enumerate() {
                if got.misses.abs_diff(want.misses) > *bound {
                    return Err(format!(
                        "level {i}: {} misses, reference {}, outside bound {bound}",
                        got.misses, want.misses
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Exact counts of one coordinate by the reference walk.
fn reference_counts(coord: &Coord) -> Result<Vec<LevelStats>, String> {
    let scop = coord.kernel().build()?;
    let mut system = MultiLevelSystem::new(coord.memory());
    scop::for_each_access(&scop, |access| system.access(access.address, access.kind));
    Ok(system.level_stats().to_vec())
}

/// Computes every coordinate's reference counts, on one thread per core,
/// and writes them to `out`.
pub fn generate(out: &str) -> Result<(), String> {
    let coords = coords::all_coords();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let results = Mutex::new(BTreeMap::new());
    let failure = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(coord) = coords.get(index) else {
                    break;
                };
                match reference_counts(coord) {
                    Ok(levels) => {
                        eprintln!("{}", coord.key());
                        results
                            .lock()
                            .expect("no generator thread panics")
                            .insert(coord.key(), levels);
                    }
                    Err(e) => {
                        *failure.lock().expect("no generator thread panics") =
                            Some(format!("{}: {e}", coord.key()));
                    }
                }
            });
        }
    });
    if let Some(message) = failure.into_inner().expect("threads joined") {
        return Err(message);
    }
    let results = results.into_inner().expect("threads joined");
    let mut text = String::new();
    text.push_str("{\n");
    text.push_str(&format!("\"command\": \"{GENERATE_COMMAND}\",\n"));
    text.push_str(
        "\"walk\": \"scop::for_each_access (reference walk) into a fresh simulate::MultiLevelSystem\",\n",
    );
    text.push_str("\"entries\": {\n");
    let lines: Vec<String> = results
        .iter()
        .map(|(key, levels)| {
            let levels: Vec<String> = levels
                .iter()
                .map(|l| format!("[{},{},{}]", l.accesses, l.hits, l.misses))
                .collect();
            format!("\"{key}\": [{}]", levels.join(","))
        })
        .collect();
    text.push_str(&lines.join(",\n"));
    text.push_str("\n}\n}\n");
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {} reference entries to {out}", results.len());
    Ok(())
}
