//! Per-layer totals of a traced run and the per-layer metrics made from
//! them. A layer a workload never calls reports 0.

use crate::report::Report;
use crate::trace::{SpanId, Tracer};
use crate::wrap::{EventCounts, SchedulerTimes, TimedScheduler, TimedSource};
use mapreduce_sim::{Scheduler, SimConfig, SimError, SimOutcome, Simulation};
use mapreduce_workload::JobSource;
use std::sync::atomic::Ordering;

/// Which crate a scheduler under a traced run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerCrate {
    /// `mapreduce-sched`: SRPTMS+C.
    Core,
    /// `mapreduce-baselines`: FIFO, Fair, Mantri, Restart, ….
    Baselines,
}

/// Totals of the scheduler calls of one crate.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecisionTotals {
    /// Wrapper totals.
    pub times: SchedulerTimes,
    /// Decision instants the engine reported to the observer.
    pub observed_instants: u64,
    /// Copies requested across those instants.
    pub copies_requested: u64,
    /// Largest ranked prefix any run consumed.
    pub ranked_prefix_max: usize,
}

/// Totals of the engine layers (workload, core, baselines, sim, metrics)
/// over the traced engine runs of one benchmark run.
#[derive(Debug, Default)]
pub struct EngineLayers {
    /// Nanoseconds inside the job source's `next_job`.
    pub source_ns: u64,
    /// Jobs pulled.
    pub source_jobs: u64,
    /// Nanoseconds generating workloads (trace or arrival schedule).
    pub generate_ns: u64,
    /// Jobs generated.
    pub generate_jobs: u64,
    /// SRPTMS+C decisions.
    pub core: DecisionTotals,
    /// Baseline decisions.
    pub baselines: DecisionTotals,
    /// Engine wall time minus scheduler and source time.
    pub sim_self_ns: u64,
    /// Lifecycle counts.
    pub events: EventCounts,
    /// Machine-slots lost to crashes.
    pub wasted_work: u64,
    /// Busy machine-slots.
    pub busy_slots: u64,
    /// Largest resident job count of any run.
    pub peak_resident_jobs: usize,
    /// Largest copy-slot count of any run.
    pub peak_copy_slots: usize,
    /// Peak-RSS growth in bytes around one wrapped engine run that held
    /// no other outcome, and that run's jobs (`stream_srptmsc` only).
    pub rss_growth: (u64, u64),
    /// Nanoseconds summarising outcomes.
    pub summary_ns: u64,
    /// Jobs summarised.
    pub summary_jobs: u64,
    /// Wall time of the traced runs (engine runs, or the request replay).
    pub traced_ns: u64,
    /// Wall time of their untraced twins.
    pub untraced_ns: u64,
}

impl EngineLayers {
    /// Runs one simulation with every seam wrapped: a timed job source, a
    /// timed scheduler and a counting observer, inside a span named `name`.
    /// The outcome is bit-identical to the bare run's. Returns it (or the
    /// engine's error) with the run's wall time in nanoseconds.
    #[allow(clippy::too_many_arguments)]
    pub fn traced_run(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        name: &str,
        config: SimConfig,
        source: Box<dyn JobSource>,
        scheduler: &mut dyn Scheduler,
        owner: SchedulerCrate,
    ) -> (Result<SimOutcome, SimError>, u64) {
        let (source, clock) = TimedSource::new(source);
        let mut timed = TimedScheduler::new(scheduler);
        let mut counts = EventCounts::default();
        let (outcome, wall_ns) = tracer.span(name, parent, |_, _| {
            Simulation::from_source(config, Box::new(source))
                .run_with_observer(&mut timed, &mut counts)
        });
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return (Err(e), wall_ns),
        };
        let source_ns = clock.ns.load(Ordering::Relaxed);
        self.source_ns += source_ns;
        self.source_jobs += clock.jobs.load(Ordering::Relaxed);
        let times = timed.times;
        let decisions = match owner {
            SchedulerCrate::Core => &mut self.core,
            SchedulerCrate::Baselines => &mut self.baselines,
        };
        decisions.times.instants += times.instants;
        decisions.times.productive += times.productive;
        decisions.times.schedule_ns += times.schedule_ns;
        decisions.times.hooks += times.hooks;
        decisions.times.hook_ns += times.hook_ns;
        decisions.observed_instants += counts.instants;
        decisions.copies_requested += counts.copies_requested;
        decisions.ranked_prefix_max = decisions
            .ranked_prefix_max
            .max(outcome.telemetry.ranked_prefix_len_max);
        self.sim_self_ns += wall_ns.saturating_sub(times.schedule_ns + times.hook_ns + source_ns);
        self.events.launched += counts.launched;
        self.events.cancelled += counts.cancelled;
        self.events.fault_killed += counts.fault_killed;
        self.events.completed += counts.completed;
        self.wasted_work += outcome.wasted_work;
        self.busy_slots += outcome.busy_machine_slots;
        self.peak_resident_jobs = self.peak_resident_jobs.max(outcome.peak_resident_jobs);
        self.peak_copy_slots = self.peak_copy_slots.max(outcome.peak_copy_slots);
        (Ok(outcome), wall_ns)
    }
}

/// Totals of the service layers (experiments, server, support) over the
/// in-process replay of `serve_mixed`.
#[derive(Debug, Default)]
pub struct ServiceLayers {
    /// Nanoseconds fingerprinting cells, and cells fingerprinted.
    pub fingerprint: (u64, u64),
    /// Nanoseconds inside `run_cells`, and cells it simulated.
    pub run_cells: (u64, u64),
    /// Nanoseconds decoding request lines, and requests decoded.
    pub decode: (u64, u64),
    /// Submit nanoseconds of all-hit sweeps.
    pub submit_warm: Vec<f64>,
    /// Submit nanoseconds of sweeps that simulated.
    pub submit_cold: Vec<f64>,
    /// Nanoseconds encoding responses, and responses encoded.
    pub encode: (u64, u64),
    /// Response bytes encoded.
    pub response_bytes: u64,
    /// Nanoseconds of cache hits, and hits.
    pub lookup: (u64, u64),
    /// Nanoseconds of cache stores, cells stored and bytes appended.
    pub store: (u64, u64, u64),
    /// Nanoseconds reopening cache files, and bytes read.
    pub reload: (u64, u64),
    /// Cells served from the cache, and cells requested.
    pub hits: (u64, u64),
    /// Nanoseconds of `metrics` requests, and requests.
    pub metrics_request: (u64, u64),
    /// Nanoseconds parsing JSON, and bytes parsed.
    pub json_parse: (u64, u64),
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        crate::stats::Summary::of(values).median
    }
}

/// Sets every per-layer metric from the totals, plus the tracing overhead.
pub fn set_layer_metrics(
    report: &mut Report,
    engine: &EngineLayers,
    service: &ServiceLayers,
    overhead_ratio: f64,
) {
    report.set(
        "workload.source_ns_per_job",
        per(engine.source_ns, engine.source_jobs),
    );
    report.set(
        "workload.generate_ns_per_job",
        per(engine.generate_ns, engine.generate_jobs),
    );
    for (prefix, d) in [("core", &engine.core), ("baselines", &engine.baselines)] {
        report.set(
            &format!("{prefix}.schedule_ns_per_instant"),
            per(d.times.schedule_ns, d.times.instants),
        );
        report.set(&format!("{prefix}.instants"), d.times.instants as f64);
        report.set(
            &format!("{prefix}.productive_instant_ratio"),
            per(d.times.productive, d.times.instants),
        );
    }
    report.set(
        "core.hook_ns_per_event",
        per(engine.core.times.hook_ns, engine.core.times.hooks),
    );
    report.set(
        "core.copies_requested_per_instant",
        per(engine.core.copies_requested, engine.core.observed_instants),
    );
    report.set(
        "core.ranked_prefix_max",
        engine.core.ranked_prefix_max as f64,
    );
    let launched = engine.events.launched;
    report.set("sim.self_ns_per_copy", per(engine.sim_self_ns, launched));
    report.set("sim.copies_launched", launched as f64);
    report.set(
        "sim.cancelled_copy_ratio",
        per(engine.events.cancelled, launched),
    );
    report.set(
        "sim.fault_killed_ratio",
        per(engine.events.fault_killed, launched),
    );
    report.set(
        "sim.wasted_work_share",
        per(engine.wasted_work, engine.busy_slots),
    );
    report.set("sim.peak_resident_jobs", engine.peak_resident_jobs as f64);
    report.set("sim.peak_copy_slots", engine.peak_copy_slots as f64);
    report.set(
        "sim.rss_bytes_per_job",
        per(engine.rss_growth.0, engine.rss_growth.1),
    );
    report.set(
        "metrics.summary_ns_per_job",
        per(engine.summary_ns, engine.summary_jobs),
    );
    report.set(
        "experiments.fingerprint_ns_per_cell",
        per(service.fingerprint.0, service.fingerprint.1),
    );
    report.set(
        "experiments.run_cells_ns_per_cell",
        per(service.run_cells.0, service.run_cells.1),
    );
    report.set(
        "server.decode_ns_per_request",
        per(service.decode.0, service.decode.1),
    );
    report.set("server.submit_warm_ns", median(&service.submit_warm));
    report.set("server.submit_cold_ns", median(&service.submit_cold));
    report.set(
        "server.encode_ns_per_request",
        per(service.encode.0, service.encode.1),
    );
    report.set(
        "server.cache_lookup_ns_per_hit",
        per(service.lookup.0, service.lookup.1),
    );
    report.set(
        "server.cache_store_ns_per_cell",
        per(service.store.0, service.store.1),
    );
    report.set(
        "server.cache_bytes_per_cell",
        per(service.store.2, service.store.1),
    );
    report.set(
        "server.reload_ns_per_byte",
        per(service.reload.0, service.reload.1),
    );
    report.set(
        "server.cache_hit_ratio",
        per(service.hits.0, service.hits.1),
    );
    report.set(
        "server.response_bytes",
        per(service.response_bytes, service.encode.1),
    );
    report.set(
        "server.metrics_request_ns",
        per(service.metrics_request.0, service.metrics_request.1),
    );
    report.set(
        "support.json_parse_ns_per_byte",
        per(service.json_parse.0, service.json_parse.1),
    );
    report.set("trace.overhead_ratio", overhead_ratio);
}
