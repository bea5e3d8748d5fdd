//! `stream_srptmsc`: SRPTMS+C over the streaming generator, calling the
//! library in-process.
//!
//! The workload is a fixed list of short streams (one engine run each) whose
//! size is set by the arguments, never by the clock, so every outcome
//! repeats exactly per seed. The clock only sets how many times the list is
//! cycled. Warm queries and set-ups are timed after every stream, so each
//! timing metric samples the whole run rather than one stretch of it: the
//! host's speed can drift in phases lasting seconds.

use crate::layers::{EngineLayers, SchedulerCrate};
use crate::report::Report;
use crate::speed::{EngineReference, HostSpeed, Timing};
use crate::stats::{tail_percentile, Summary};
use crate::trace::Tracer;
use crate::Args;
use mapreduce_experiments::{Scenario, WorkloadSource};
use mapreduce_metrics::{FlowtimeSummary, QuantileSketch, StreamingFlowtime};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{FaultPlan, SimError, SimOutcome, Simulation};
use mapreduce_workload::{GoogleTraceProfile, JobSource, StreamingGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Streamed runs per cycle, each over its own seed: enough that the cost
/// of one seed's trace, which varies by about a fifth between seeds, averages
/// out of the throughput.
const STREAMS: u64 = 32;
/// Jobs per streamed run: short (≈ 60 ms), so the host's speed changes
/// little within one run; see [`HostSpeed`].
const STREAM_JOBS: usize = 2_500;
/// Fewest warm queries per benchmark run: enough for ten beyond the p99.
const WARM_QUERIES: usize = 1_000;
/// Warm queries after each stream, from the second cycle on.
const WARM_PER_STREAM: usize = 10;
/// Repetitions of the warm reference query; the median is kept.
const WARM_REFERENCE_REPEATS: usize = 3;
/// Warm queries ask for the summaries of the first 1, 2, …, `WARM_SIZES`
/// streams in turn. Identical queries would time as two narrow peaks, one
/// per host state, where sizes that overlap the peaks keep the median
/// from jumping between them when the host's speed is misjudged.
const WARM_SIZES: usize = 4;

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The seed of the `k`-th input of a run with seed `seed`.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// The stream1m construction at `jobs` jobs: 10 jobs per machine, arrival
/// window stretched to hold the paper's ≈45 % load.
pub fn stream_scenario(jobs: usize) -> Scenario {
    let machines = (jobs / 10).max(8);
    let window = 35_032u64 * (jobs as u64) * 12_000 / (6_064 * machines as u64);
    Scenario {
        profile: GoogleTraceProfile::scaled(jobs).with_arrival_window(window),
        machines,
        seeds: Vec::new(),
        source: WorkloadSource::Streaming,
        fault: FaultPlan::none(),
    }
}

/// A streamed run's summary, the way the stream tiers summarise: one pass
/// folding every record into exact moments and a quantile sketch.
fn stream_summary(outcome: &SimOutcome) -> FlowtimeSummary {
    let mut moments = StreamingFlowtime::new();
    let mut sketch = QuantileSketch::new();
    for record in outcome.records() {
        moments.fold(record);
        sketch.record(record.flowtime());
    }
    FlowtimeSummary::from_streaming(
        &outcome.scheduler,
        &moments,
        &sketch,
        outcome.mean_copies_per_task(),
    )
}

/// Builds one stream's generator arrival schedule, engine and scheduler
/// (the set-up), then runs it. Returns the set-up seconds, the run seconds
/// and the outcome.
pub fn run_stream(scenario: &Scenario, seed: u64) -> (f64, f64, Result<SimOutcome, SimError>) {
    let t0 = Instant::now();
    let generator = StreamingGenerator::new(scenario.profile.clone(), seed);
    let sim = Simulation::from_source(scenario.sim_config(seed), Box::new(generator));
    let mut scheduler = SrptMsC::new(0.6, 3.0);
    let build_s = secs(t0);
    let t0 = Instant::now();
    let outcome = sim.run(&mut scheduler);
    (build_s, secs(t0), outcome)
}

/// Cycles over the streams until the time is up, timing every stream, its
/// set-up, an engine reference run and a warm query block after it, and
/// sets the end-to-end metrics from the timings corrected for the host's
/// speed ([`HostSpeed`]). Throughput is all jobs streamed over their total
/// corrected time.
fn measure(args: &Args, report: &mut Report, scenario: &Scenario, seeds: &[u64]) {
    let started = Instant::now();
    let n = seeds.len();
    let engine = EngineReference::default();
    let mut speed = HostSpeed::new(started);
    // The warm queries' reference: the one-stream query, timed before each
    // warm block.
    let mut warm_speed = HostSpeed::new(started);
    let mut cycles = 0;
    let mut streams = Vec::new();
    let mut setup = Vec::new();
    let mut warm = Vec::new();
    let mut first: Vec<SimOutcome> = Vec::with_capacity(n);
    let mut first_summaries: Vec<FlowtimeSummary> = Vec::with_capacity(n);
    // Warm blocks follow every stream from the second cycle on; the fewest
    // cycles already hold every warm query the p99 needs.
    let min_cycles = 1 + WARM_QUERIES.div_ceil(n * WARM_PER_STREAM);
    let time_up = || secs(started) >= args.seconds as f64;
    while cycles < min_cycles || !time_up() {
        for (i, &seed) in seeds.iter().enumerate() {
            let t0 = Instant::now();
            let (build_s, _, outcome) = run_stream(scenario, seed);
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => return report.check(false, || format!("stream {seed}: {e}")),
            };
            let summary = black_box(stream_summary(&outcome));
            setup.push(speed.timing(t0, build_s));
            streams.push(speed.timing(t0, secs(t0) - build_s));
            engine.run(report, &mut speed);
            if cycles == 0 {
                report.check(outcome.records().len() == STREAM_JOBS, || {
                    format!("stream {seed}: {} jobs completed", outcome.records().len())
                });
                first.push(outcome);
                first_summaries.push(summary);
            } else {
                report.check(outcome == first[i], || {
                    format!("stream {seed}: a repeated run differs from the first")
                });
                let t0 = Instant::now();
                let repeats: Vec<f64> = (0..WARM_REFERENCE_REPEATS)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(stream_summary(black_box(&first[0])));
                        secs(t)
                    })
                    .collect();
                warm_speed.reference(warm_speed.timing(t0, Summary::of(&repeats).median));
                for _ in 0..WARM_PER_STREAM {
                    let size = warm.len() % WARM_SIZES + 1;
                    let t0 = Instant::now();
                    let answer: Vec<FlowtimeSummary> = black_box(&first[..size])
                        .iter()
                        .map(stream_summary)
                        .collect();
                    warm.push(warm_speed.timing(t0, secs(t0)));
                    report.check(answer[..] == first_summaries[..size], || {
                        "a repeated summary differs from the first".to_string()
                    });
                }
            }
        }
        if cycles == 0 {
            // One pass over the streams, every outcome retained. Later
            // passes need no more memory, but the allocator's free lists
            // fragment as warm queries and reference runs interleave, and
            // that growth differs from run to run by a fifth.
            let peak = crate::host::vm_hwm(None).unwrap_or(0);
            report.set("peak_rss_mb", peak as f64 / 1e6);
        }
        cycles += 1;
    }

    report.info("cycles", cycles);
    let mut anchors = crate::anchors(args);
    anchors.apply("engine", &mut speed);
    anchors.apply("warm", &mut warm_speed);
    anchors.save();
    let setup = speed.corrected(&setup);
    report.set_sampled("setup_s", Summary::of(&setup).median, Summary::of(&setup));
    let stream_s = speed.corrected(&streams);
    let total_s: f64 = stream_s.iter().sum();
    let rates: Vec<f64> = stream_s.iter().map(|s| STREAM_JOBS as f64 / s).collect();
    let runs = rates.len() as f64;
    report.set_sampled(
        "jobs_per_s",
        runs * STREAM_JOBS as f64 / total_s,
        Summary::of(&rates),
    );
    report.set("cold_cells_per_s", runs / total_s);
    report.add_samples("engine_slowdown", speed.slowdowns());
    let mean = |f: fn(&SimOutcome) -> f64| first.iter().map(f).sum::<f64>() / n as f64;
    report.set("sim_mean_flowtime", mean(SimOutcome::mean_flowtime));
    report.set(
        "sim_weighted_flowtime",
        mean(SimOutcome::weighted_mean_flowtime),
    );
    set_warm(report, &warm_speed, &warm);
}

/// Sets the warm-request percentiles from the warm timings corrected by
/// `speed`, the warm reference; a p99 without ten samples beyond it is a
/// failed check, never a reported number. Also reports the slowdowns the
/// correction divided out.
pub fn set_warm(report: &mut Report, speed: &HostSpeed, warm: &[Timing]) {
    let warm_ms: Vec<f64> = speed.corrected(warm).iter().map(|s| s * 1e3).collect();
    let summary = Summary::of(&warm_ms);
    report.set_sampled("warm_request_p50_ms", summary.median, summary);
    match tail_percentile(&warm_ms, 0.99) {
        Some(p99) => report.set("warm_request_p99_ms", p99),
        None => report.check(false, || {
            format!("{} warm requests cannot back a p99", warm_ms.len())
        }),
    }
    report.add_samples("warm_slowdown", speed.slowdowns());
}

/// SRPTMS+C (ε = 0.6, r = 3) over the streaming generator at the stream1m
/// density: [`STREAMS`] streams of [`STREAM_JOBS`] jobs.
pub fn stream_srptmsc(args: &Args, report: &mut Report, layers: &mut EngineLayers) {
    let scenario = stream_scenario(STREAM_JOBS);
    report.info("streams", STREAMS);
    report.info("jobs_per_stream", STREAM_JOBS);
    report.info("machines", scenario.machines);
    let seeds: Vec<u64> = (0..STREAMS).map(|k| sub_seed(args.seed, k)).collect();
    if args.trace {
        stream_traced(args, &scenario, &seeds, report, layers);
    } else {
        measure(args, report, &scenario, &seeds);
    }
}

/// Checks a traced run against its untraced twin: both complete every job,
/// they are equal, and (when `faults`) crashes actually killed copies.
/// Returns the traced outcome when both runs completed.
pub fn check_twins(
    report: &mut Report,
    what: &str,
    bare: Result<SimOutcome, SimError>,
    traced: Result<SimOutcome, SimError>,
    jobs: usize,
    faults: bool,
) -> Option<SimOutcome> {
    match (bare, traced) {
        (Ok(bare), Ok(traced)) => {
            report.check(bare.records().len() == jobs, || {
                format!("{what}: {} of {jobs} jobs completed", bare.records().len())
            });
            report.check(traced == bare, || {
                format!("{what}: traced outcome differs from the untraced outcome")
            });
            if faults {
                report.check(bare.copies_killed_by_fault > 0, || {
                    format!("{what}: no copy was killed by a crash")
                });
            }
            Some(traced)
        }
        (bare, traced) => {
            report.check(false, || {
                format!(
                    "{what} failed: untraced {:?}, traced {:?}",
                    bare.err(),
                    traced.err()
                )
            });
            None
        }
    }
}

/// The traced run of `stream_srptmsc`: each stream run once with every
/// seam wrapped and once untraced. The wrapped run goes first, while no
/// other outcome is held, so the first stream's peak-RSS growth is the
/// engine's own (its retained job shells and records).
fn stream_traced(
    args: &Args,
    scenario: &Scenario,
    seeds: &[u64],
    report: &mut Report,
    layers: &mut EngineLayers,
) {
    let mut tracer = Tracer::default();
    for (k, &seed) in seeds.iter().enumerate() {
        let what = format!("stream {seed}");
        let (generator, generate_ns) = tracer.span("generate arrivals", 0, |_, _| {
            StreamingGenerator::new(scenario.profile.clone(), seed)
        });
        layers.generate_ns += generate_ns;
        layers.generate_jobs += STREAM_JOBS as u64;
        let rss_before = (k == 0)
            .then(|| {
                crate::host::reset_peak_rss();
                crate::host::vm_rss()
            })
            .flatten();
        let (traced, traced_ns) = layers.traced_run(
            &mut tracer,
            0,
            &format!("{what} (traced)"),
            scenario.sim_config(seed),
            Box::new(generator) as Box<dyn JobSource>,
            &mut SrptMsC::new(0.6, 3.0),
            SchedulerCrate::Core,
        );
        if let (Some(before), Some(peak)) = (rss_before, crate::host::vm_hwm(None)) {
            layers.rss_growth = (peak.saturating_sub(before), STREAM_JOBS as u64);
        }
        let ((_, run_s, bare), _) = tracer.span(format!("{what} (untraced)"), 0, |_, _| {
            run_stream(scenario, seed)
        });
        layers.untraced_ns += (run_s * 1e9) as u64;
        layers.traced_ns += traced_ns;
        if let Some(outcome) = check_twins(report, &what, bare, traced, STREAM_JOBS, false) {
            let t0 = Instant::now();
            black_box(stream_summary(&outcome));
            layers.summary_ns += nanos(t0);
            layers.summary_jobs += outcome.records().len() as u64;
        }
    }
    crate::write_trace(args, &tracer);
}
