//! Timing and counting wrappers around the library's public seams.
//!
//! Each wrapper forwards every trait method to the wrapped value unchanged
//! and only adds clocks and counters, so a wrapped run is bit-identical to
//! the bare run (pinned by the tests below). Per-call costs are summed into
//! totals; a span per call would outweigh the work it measures.

use mapreduce_experiments::cache::{CacheStats, OutcomeCache};
use mapreduce_sim::{
    Action, CancelReason, ClusterState, CopyCancelled, CopyLaunched, DecisionInstant, IndexDemands,
    JobRecord, Scheduler, SimObserver, SimOutcome, Slot,
};
use mapreduce_support::hash::Fingerprint;
use mapreduce_workload::{JobId, JobSource, JobSpec, TaskId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Totals a [`TimedSource`] shares with its creator. The engine owns the
/// source for the whole run, so the counters live behind an `Arc`.
#[derive(Debug, Default)]
pub struct SourceClock {
    /// Nanoseconds spent inside the wrapped `next_job`.
    pub ns: AtomicU64,
    /// Jobs the wrapped source yielded.
    pub jobs: AtomicU64,
}

/// A [`JobSource`] that times every `next_job` call of the wrapped source.
pub struct TimedSource {
    inner: Box<dyn JobSource>,
    clock: Arc<SourceClock>,
}

impl TimedSource {
    /// Wraps `inner`; the returned clock reads the totals after the run.
    pub fn new(inner: Box<dyn JobSource>) -> (Self, Arc<SourceClock>) {
        let clock = Arc::new(SourceClock::default());
        (
            TimedSource {
                inner,
                clock: Arc::clone(&clock),
            },
            clock,
        )
    }
}

impl JobSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn total_jobs(&self) -> usize {
        self.inner.total_jobs()
    }
    fn next_job(&mut self) -> Option<JobSpec> {
        let t0 = Instant::now();
        let job = self.inner.next_job();
        self.clock.ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        if job.is_some() {
            self.clock.jobs.fetch_add(1, Ordering::Relaxed);
        }
        job
    }
    fn resident_jobs(&self) -> usize {
        self.inner.resident_jobs()
    }
}

/// Totals of a [`TimedScheduler`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerTimes {
    /// Decision calls (`schedule` + `schedule_into`).
    pub instants: u64,
    /// Decision calls that returned at least one action.
    pub productive: u64,
    /// Nanoseconds inside decision calls.
    pub schedule_ns: u64,
    /// Event hook calls (arrival, task finished, task unlaunched).
    pub hooks: u64,
    /// Nanoseconds inside event hooks.
    pub hook_ns: u64,
}

/// A [`Scheduler`] that forwards every method to the wrapped scheduler and
/// times the decision calls and the event hooks.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    /// Totals so far.
    pub times: SchedulerTimes,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        TimedScheduler {
            inner,
            times: SchedulerTimes::default(),
        }
    }

    fn note_decision(&mut self, t0: Instant, actions: usize) {
        self.times.schedule_ns += ns_since(t0);
        self.times.instants += 1;
        self.times.productive += u64::from(actions > 0);
    }

    fn note_hook(&mut self, t0: Instant) {
        self.times.hook_ns += ns_since(t0);
        self.times.hooks += 1;
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let t0 = Instant::now();
        let actions = self.inner.schedule(state);
        self.note_decision(t0, actions.len());
        actions
    }
    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let before = actions.len();
        let t0 = Instant::now();
        self.inner.schedule_into(state, actions);
        self.note_decision(t0, actions.len() - before);
    }
    fn wakeup_interval(&self) -> Option<Slot> {
        self.inner.wakeup_interval()
    }
    fn index_demands(&self) -> IndexDemands {
        self.inner.index_demands()
    }
    fn priority_r(&self) -> Option<f64> {
        self.inner.priority_r()
    }
    fn on_job_arrival(&mut self, job: JobId, state: &ClusterState<'_>) {
        let t0 = Instant::now();
        self.inner.on_job_arrival(job, state);
        self.note_hook(t0);
    }
    fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
        let t0 = Instant::now();
        self.inner.on_task_finished(task, state);
        self.note_hook(t0);
    }
    fn on_task_unlaunched(&mut self, task: TaskId, state: &ClusterState<'_>) {
        let t0 = Instant::now();
        self.inner.on_task_unlaunched(task, state);
        self.note_hook(t0);
    }
}

/// A [`SimObserver`] that counts the lifecycle events the per-layer
/// ratios are made of.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Copies launched.
    pub launched: u64,
    /// Copies cancelled for any reason.
    pub cancelled: u64,
    /// Copies killed by a machine fault.
    pub fault_killed: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Decision instants observed.
    pub instants: u64,
    /// Copies requested across those instants' launch actions.
    pub copies_requested: u64,
}

impl SimObserver for EventCounts {
    fn on_job_completed(&mut self, _record: &JobRecord) {
        self.completed += 1;
    }
    fn on_copy_launched(&mut self, _event: CopyLaunched) {
        self.launched += 1;
    }
    fn on_copy_cancelled(&mut self, event: CopyCancelled) {
        self.cancelled += 1;
        if event.reason == CancelReason::Fault {
            self.fault_killed += 1;
        }
    }
    fn on_decision_instant(&mut self, event: DecisionInstant) {
        self.instants += 1;
        self.copies_requested += event.copies_requested as u64;
    }
}

/// Totals of a [`TimedCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheTimes {
    /// Lookups that hit.
    pub hits: u64,
    /// Nanoseconds inside lookups that hit.
    pub hit_ns: u64,
    /// Stores.
    pub stores: u64,
    /// Nanoseconds inside stores.
    pub store_ns: u64,
}

/// An [`OutcomeCache`] that times lookups and stores of the wrapped cache.
pub struct TimedCache<'a, C: OutcomeCache> {
    inner: &'a C,
    times: Mutex<CacheTimes>,
}

impl<'a, C: OutcomeCache> TimedCache<'a, C> {
    /// Wraps `inner`.
    pub fn new(inner: &'a C) -> Self {
        TimedCache {
            inner,
            times: Mutex::new(CacheTimes::default()),
        }
    }

    /// Totals so far.
    pub fn times(&self) -> CacheTimes {
        *self.times.lock().expect("cache timer poisoned")
    }
}

impl<C: OutcomeCache> OutcomeCache for TimedCache<'_, C> {
    fn lookup(&self, fingerprint: Fingerprint) -> Option<SimOutcome> {
        let t0 = Instant::now();
        let hit = self.inner.lookup(fingerprint);
        let ns = ns_since(t0);
        if hit.is_some() {
            let mut times = self.times.lock().expect("cache timer poisoned");
            times.hits += 1;
            times.hit_ns += ns;
        }
        hit
    }
    fn store(&self, fingerprint: Fingerprint, outcome: &SimOutcome) {
        let t0 = Instant::now();
        self.inner.store(fingerprint, outcome);
        let ns = ns_since(t0);
        let mut times = self.times.lock().expect("cache timer poisoned");
        times.stores += 1;
        times.store_ns += ns;
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_experiments::{Scenario, SchedulerKind};
    use mapreduce_server::ResultCache;
    use mapreduce_sim::Simulation;

    /// The bare run of one cell of `Scenario::test()` under a crash plan, so
    /// the unlaunch hook and the fault-kill path are exercised too.
    fn scenario() -> Scenario {
        let base = Scenario::test();
        let plan = mapreduce_sim::FaultPlan::new(vec![mapreduce_sim::FaultClass::crashes(
            base.machines,
            2_000.0,
            250.0,
        )]);
        base.with_fault(plan)
    }

    #[test]
    fn wrapped_runs_equal_bare_runs() {
        let scenario = scenario();
        let seed = scenario.seeds[0];
        for kind in [
            SchedulerKind::paper_default(),
            SchedulerKind::Fifo,
            SchedulerKind::Mantri,
            SchedulerKind::Fair,
            SchedulerKind::Restart,
        ] {
            let bare =
                Simulation::from_source(scenario.sim_config(seed), scenario.job_source(seed))
                    .run(kind.build().as_mut())
                    .expect("bare run completes");

            let (source, clock) = TimedSource::new(scenario.job_source(seed));
            let mut inner = kind.build();
            let mut timed = TimedScheduler::new(inner.as_mut());
            let mut counts = EventCounts::default();
            let wrapped = Simulation::from_source(scenario.sim_config(seed), Box::new(source))
                .run_with_observer(&mut timed, &mut counts)
                .expect("wrapped run completes");

            assert_eq!(wrapped, bare, "{kind:?}: wrappers changed the outcome");
            let jobs = bare.records().len() as u64;
            assert_eq!(clock.jobs.load(Ordering::Relaxed), jobs);
            assert_eq!(counts.completed, jobs);
            assert_eq!(counts.launched, bare.total_copies as u64);
            assert_eq!(counts.fault_killed, bare.copies_killed_by_fault);
            assert!(timed.times.instants > 0 && timed.times.hooks > 0);
            assert!(timed.times.productive <= timed.times.instants);
            assert_eq!(timed.name(), bare.scheduler);
        }
    }

    #[test]
    fn timed_cache_forwards_lookup_store_and_stats() {
        let scenario = Scenario::test();
        let seed = scenario.seeds[0];
        let outcome = mapreduce_experiments::runner::run_cell(SchedulerKind::Fifo, &scenario, seed);
        let fingerprint =
            mapreduce_experiments::cell_fingerprint(SchedulerKind::Fifo, &scenario, seed);
        let cache = ResultCache::in_memory();
        let timed = TimedCache::new(&cache);
        assert_eq!(timed.lookup(fingerprint), None);
        timed.store(fingerprint, &outcome);
        assert_eq!(timed.lookup(fingerprint), Some(outcome));
        assert_eq!(timed.stats(), cache.stats());
        let times = timed.times();
        assert_eq!((times.hits, times.stores), (1, 1));
    }
}
