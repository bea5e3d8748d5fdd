//! Correcting timings for the host's speed at the moment they were taken.
//!
//! The host flips between a fast state and one about 1.7 times slower, for
//! stretches from a fraction of a second to minutes, so a total, mean or
//! median of a run's timings moves with the slow share of the run, and two
//! runs of the same code differ by up to that factor. So a fixed reference
//! operation of the same kind as the timed ones is timed again and again
//! through the run, between them: an engine run beside engine runs, set-ups
//! and cold sweeps, a fixed warm request beside warm requests. Operations
//! of one kind slow down by about the same factor in the slow state, so a
//! reference's time over the fastest reference of its kind in the benchmark
//! run is the slowdown the operations next to it met. Each timing is divided
//! by the slowdown of the reference nearest to it in time: what it would
//! have taken at the host's fastest speed. A change that makes such
//! operations faster makes their reference faster too, so corrected times
//! still fall with the operations' own.
//!
//! A run spent wholly in the slow state has no fast reference of its own;
//! corrected by its own fastest reference it would read as slow as the host
//! was. So the fastest reference of each kind is kept between runs of the
//! same build and workload ([`Anchors`]), and every run is corrected by the
//! fastest one any of them saw.

use crate::engine::{run_stream, stream_scenario};
use crate::report::Report;
use crate::stats::Summary;
use mapreduce_experiments::Scenario;
use mapreduce_support::json::{JsonValue, ToJson};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Jobs of the engine reference run.
const REFERENCE_JOBS: usize = 1_000;
/// Seed of the engine reference run: the same input in every benchmark run.
const REFERENCE_SEED: u64 = 0;

/// A timed operation: when it happened and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Midpoint, in seconds since the run's clock started.
    at: f64,
    /// Duration in seconds.
    seconds: f64,
}

/// The reference timings of one kind of operation in one benchmark run; see
/// the module docs.
pub struct HostSpeed {
    started: Instant,
    /// `(midpoint, seconds)` of each reference, in time order.
    references: Vec<(f64, f64)>,
    /// The fastest reference of earlier runs ([`Anchors`]), if faster than
    /// every one of this run.
    anchor: f64,
}

impl HostSpeed {
    /// A reference series whose timings count from `started`; series that
    /// share it make interchangeable [`Timing`]s.
    pub fn new(started: Instant) -> HostSpeed {
        HostSpeed {
            started,
            references: Vec::new(),
            anchor: f64::INFINITY,
        }
    }

    /// The timing of an operation that started at `start` and took
    /// `seconds`.
    pub fn timing(&self, start: Instant, seconds: f64) -> Timing {
        let from = start.saturating_duration_since(self.started).as_secs_f64();
        Timing {
            at: from + seconds / 2.0,
            seconds,
        }
    }

    /// Adds a reference timing, later than every earlier one.
    pub fn reference(&mut self, timing: Timing) {
        self.references.push((timing.at, timing.seconds));
    }

    /// `timings` in seconds at the host's fastest speed in this run, each
    /// divided by the slowdown of the reference nearest to it in time.
    ///
    /// # Panics
    /// Panics when no reference has been timed.
    pub fn corrected(&self, timings: &[Timing]) -> Vec<f64> {
        correct(&self.references, self.fastest(), timings)
    }

    /// The fastest reference of this run or of the [`Anchors`] applied.
    fn fastest(&self) -> f64 {
        self.references
            .iter()
            .map(|&(_, s)| s)
            .fold(self.anchor, f64::min)
    }

    /// Each reference's slowdown against the fastest one.
    pub fn slowdowns(&self) -> Summary {
        let fastest = self.fastest();
        let slowdowns: Vec<f64> = self.references.iter().map(|&(_, s)| s / fastest).collect();
        Summary::of(&slowdowns)
    }
}

/// The engine reference: SRPTMS+C over [`REFERENCE_JOBS`] streamed jobs of
/// seed [`REFERENCE_SEED`] (≈ 18 ms when the host is fast).
pub struct EngineReference {
    scenario: Scenario,
}

impl Default for EngineReference {
    fn default() -> EngineReference {
        EngineReference {
            scenario: stream_scenario(REFERENCE_JOBS),
        }
    }
}

impl EngineReference {
    /// Times one reference run into `speed`. A run that fails or loses jobs
    /// is a failed check.
    pub fn run(&self, report: &mut Report, speed: &mut HostSpeed) {
        let t0 = Instant::now();
        let (_, _, outcome) = run_stream(&self.scenario, REFERENCE_SEED);
        speed.reference(speed.timing(t0, t0.elapsed().as_secs_f64()));
        let jobs = outcome.map(|o| o.records().len());
        report.check(jobs.as_ref().ok() == Some(&REFERENCE_JOBS), || {
            format!("reference run: {jobs:?} jobs completed")
        });
    }
}

/// The fastest reference of each kind seen by the runs of one build and
/// workload, in a file that outlives the run.
pub struct Anchors {
    path: PathBuf,
    fastest: BTreeMap<String, f64>,
}

impl Anchors {
    /// Reads the anchors at `path`; a missing or unreadable file holds none.
    pub fn load(path: PathBuf) -> Anchors {
        let fastest = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .and_then(|value| match value {
                JsonValue::Object(map) => Some(map),
                _ => None,
            })
            .map(|map| {
                map.iter()
                    .filter_map(|(kind, v)| Some((kind.clone(), v.as_f64()?)))
                    .filter(|&(_, s)| s > 0.0)
                    .collect()
            })
            .unwrap_or_default();
        Anchors { path, fastest }
    }

    /// Makes `speed` correct by the fastest reference of kind `kind` that
    /// this or an earlier run saw, and keeps that one.
    pub fn apply(&mut self, kind: &str, speed: &mut HostSpeed) {
        if let Some(&earlier) = self.fastest.get(kind) {
            speed.anchor = earlier;
        }
        self.fastest.insert(kind.to_string(), speed.fastest());
    }

    /// Writes the anchors back; a failed write only costs later runs them.
    pub fn save(&self) {
        let json = JsonValue::Object(
            self.fastest
                .iter()
                .map(|(kind, s)| (kind.clone(), s.to_json()))
                .collect(),
        );
        if let Err(e) = std::fs::write(&self.path, json.to_compact_string()) {
            eprintln!("perfbench: cannot write {}: {e}", self.path.display());
        }
    }
}

fn correct(references: &[(f64, f64)], fastest: f64, timings: &[Timing]) -> Vec<f64> {
    assert!(!references.is_empty(), "no reference run was timed");
    timings
        .iter()
        .map(|t| {
            let after = references.partition_point(|&(at, _)| at < t.at);
            let nearest = match (after.checked_sub(1), references.get(after)) {
                (Some(before), Some(&(next_at, _))) => {
                    if t.at - references[before].0 <= next_at - t.at {
                        before
                    } else {
                        after
                    }
                }
                (Some(before), None) => before,
                (None, _) => after,
            };
            t.seconds * fastest / references[nearest].1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(at: f64, seconds: f64) -> Timing {
        Timing { at, seconds }
    }

    #[test]
    fn each_timing_is_scaled_by_its_nearest_reference() {
        // The reference ran in 1 s at t = 0 and t = 20, and in 2 s (the
        // slow state) at t = 10.
        let references = [(0.0, 1.0), (10.0, 2.0), (20.0, 1.0)];
        let timings = [
            timing(-1.0, 4.0), // before the first reference
            timing(4.0, 4.0),  // nearest t = 0
            timing(6.0, 4.0),  // nearest t = 10: halved
            timing(14.0, 4.0), // nearest t = 10: halved
            timing(16.0, 4.0), // nearest t = 20
            timing(30.0, 4.0), // after the last reference
        ];
        assert_eq!(
            correct(&references, 1.0, &timings),
            [4.0, 4.0, 2.0, 2.0, 4.0, 4.0]
        );
    }

    #[test]
    fn a_steady_host_leaves_timings_alone() {
        let references = [(0.0, 0.5), (1.0, 0.5)];
        let timings = [timing(0.2, 0.3), timing(0.9, 0.7)];
        assert_eq!(correct(&references, 0.5, &timings), [0.3, 0.7]);
    }

    #[test]
    fn anchors_carry_the_fastest_reference_between_runs() {
        let dir = std::env::temp_dir().join(format!("perfbench-anchors-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fastest.json");
        let _ = std::fs::remove_file(&path);
        let run = |reference_s: f64| {
            let mut speed = HostSpeed::new(Instant::now());
            speed.reference(Timing {
                at: 0.0,
                seconds: reference_s,
            });
            let mut anchors = Anchors::load(path.clone());
            anchors.apply("engine", &mut speed);
            anchors.save();
            speed.corrected(&[Timing {
                at: 0.0,
                seconds: 1.0,
            }])[0]
        };
        // A first run has only its own reference.
        assert_eq!(run(0.2), 1.0);
        // A run spent in the slow state is corrected by the first run's.
        assert_eq!(run(0.4), 0.5);
        // A faster reference becomes the anchor.
        assert_eq!(run(0.1), 1.0);
        assert_eq!(run(0.2), 0.5);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
