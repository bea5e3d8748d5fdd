//! Pins the engine's launchable-task aggregate and the early-outs built on it.
//!
//! `ClusterState::total_launchable_tasks()` is `O(1)` on engine-built
//! snapshots: the `AliveIndex` keeps it current at every arrival, first
//! launch, fault un-launch, Map-phase completion and job completion.
//! SRPTMS+C and the fair fill return at once when it reads 0, so a stale
//! aggregate would silently skip launches. A forwarding wrapper checks it
//! against a scan of the alive jobs at every scheduler call, for every
//! scheduler of the golden suite, with and without machine crashes (which
//! return tasks to the unscheduled pool).

use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca};
use mapreduce_sched::{SrptMsC, SrptMsCConfig};
use mapreduce_sim::{
    Action, ClusterState, FaultClass, FaultPlan, IndexDemands, JobState, Scheduler, SimConfig,
    SimOutcome, Simulation, Slot, StragglerModel,
};
use mapreduce_workload::{
    ArrivalProcess, DurationDistribution, JobId, JobSpecBuilder, TaskId, Trace, WorkloadBuilder,
};

/// One decision instant as the wrapped scheduler saw it.
#[derive(Debug, Clone, Copy)]
struct Instant {
    now: Slot,
    available: usize,
    launchable: usize,
    ranked_prefix: usize,
}

/// Forwards every `Scheduler` method to `inner`, asserting the launchable
/// aggregate against the scan on each call and logging every decision.
struct Checked {
    inner: Box<dyn Scheduler>,
    instants: Vec<Instant>,
    unlaunched: usize,
}

impl Checked {
    fn new(inner: Box<dyn Scheduler>) -> Self {
        Checked {
            inner,
            instants: Vec::new(),
            unlaunched: 0,
        }
    }

    fn check(&self, state: &ClusterState<'_>) -> usize {
        let scanned: usize = state
            .alive_jobs()
            .map(JobState::launchable_unscheduled)
            .sum();
        assert_eq!(
            state.total_launchable_tasks(),
            scanned,
            "{}: launchable aggregate diverges from the scan at slot {}",
            self.inner.name(),
            state.now()
        );
        scanned
    }

    fn log(&mut self, state: &ClusterState<'_>, launchable: usize) {
        self.instants.push(Instant {
            now: state.now(),
            available: state.available_machines(),
            launchable,
            ranked_prefix: state.ranked_prefix_consumed(),
        });
    }
}

impl Scheduler for Checked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let launchable = self.check(state);
        let actions = self.inner.schedule(state);
        self.log(state, launchable);
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let launchable = self.check(state);
        self.inner.schedule_into(state, actions);
        self.log(state, launchable);
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
        self.check(state);
        self.inner.on_job_arrival(job, state);
    }

    fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
        self.check(state);
        self.inner.on_task_finished(task, state);
    }

    fn on_task_unlaunched(&mut self, task: TaskId, state: &ClusterState<'_>) {
        self.check(state);
        self.unlaunched += 1;
        self.inner.on_task_unlaunched(task, state);
    }
}

/// A fresh instance of every scheduler in the golden suite.
fn golden_suite() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SrptMsC::new(0.6, 3.0)),
        Box::new(Mantri::new()),
        Box::new(Late::new()),
        Box::new(Restart::new()),
        Box::new(FairScheduler::new()),
        Box::new(Fifo::new()),
        Box::new(Sca::new()),
    ]
}

/// Two-phase jobs with heavy-tailed durations, so reduces regularly wait on
/// their Map phase while machines sit free.
fn random_trace(seed: u64) -> Trace {
    WorkloadBuilder::new()
        .num_jobs(25)
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: 15.0,
        })
        .map_tasks_per_job(1, 5)
        .reduce_tasks_per_job(0, 3)
        .map_duration(DurationDistribution::lognormal_from_moments(40.0, 40.0).unwrap())
        .reduce_duration(DurationDistribution::lognormal_from_moments(60.0, 40.0).unwrap())
        .weights(&[1.0, 2.0, 5.0])
        .build(seed)
}

fn run(scheduler: &mut dyn Scheduler, trace: &Trace, config: SimConfig) -> SimOutcome {
    Simulation::new(config, trace)
        .run(scheduler)
        .expect("simulation must complete")
}

/// Runs the golden suite wrapped and bare under `config`: the aggregate must
/// match the scan at every call, and the wrapper must not change the
/// trajectory. Returns the total number of fault un-launches seen.
fn check_suite(config: &SimConfig) -> usize {
    let mut unlaunched = 0;
    for seed in 0..4 {
        let trace = random_trace(seed);
        let config = config.clone().with_seed(seed);
        for (inner, mut bare) in golden_suite().into_iter().zip(golden_suite()) {
            let mut checked = Checked::new(inner);
            let wrapped = run(&mut checked, &trace, config.clone());
            let plain = run(bare.as_mut(), &trace, config.clone());
            assert_eq!(
                wrapped, plain,
                "{}: wrapper changed the run",
                plain.scheduler
            );
            assert!(!checked.instants.is_empty());
            assert!(
                checked
                    .instants
                    .iter()
                    .any(|i| i.available > 0 && i.launchable == 0),
                "{}: no instant with free machines and nothing launchable",
                plain.scheduler
            );
            unlaunched += checked.unlaunched;
        }
    }
    unlaunched
}

#[test]
fn launchable_aggregate_matches_scan_for_the_golden_suite() {
    let config = SimConfig::new(12).with_straggler_model(StragglerModel::MachineSlowdown {
        probability: 0.15,
        factor: 5.0,
    });
    check_suite(&config);
}

#[test]
fn launchable_aggregate_matches_scan_under_machine_crashes() {
    let machines = 12;
    let plan = FaultPlan::new(vec![FaultClass::crashes(machines, 200.0, 40.0)]);
    let unlaunched = check_suite(&SimConfig::new(machines).with_fault_plan(plan));
    assert!(unlaunched > 0, "crashes never returned a task to the pool");
}

#[test]
fn srptmsc_skips_the_ranked_order_when_only_gated_reduces_remain() {
    // Map 0 finishes at slot 10, freeing its machine while map 1 still runs:
    // the job's only unscheduled task is its reduce, gated on the Map phase.
    let job = JobSpecBuilder::new(JobId::new(0))
        .map_tasks_from_workloads(&[10.0, 50.0])
        .reduce_tasks_from_workloads(&[5.0])
        .build();
    let trace = Trace::new(vec![job]).unwrap();
    let config = SrptMsCConfig::new(0.6, 3.0).with_cloning(false);
    let mut checked = Checked::new(Box::new(SrptMsC::with_config(config)));
    let outcome = run(&mut checked, &trace, SimConfig::new(4));
    assert_eq!(outcome.record(JobId::new(0)).unwrap().completion, 55);

    let at_10 = checked
        .instants
        .iter()
        .find(|i| i.now == 10)
        .expect("map 0's completion is a decision instant");
    assert_eq!(at_10.available, 3);
    assert_eq!(at_10.launchable, 0);
    assert_eq!(
        at_10.ranked_prefix, 0,
        "a no-op instant must not read the ranked order"
    );
    // The productive instants still read it.
    assert!(checked.instants.iter().any(|i| i.ranked_prefix > 0));
}

/// Hides the engine's ranked order from SRPTMS+C (no `priority_r`), so it
/// takes the path hand-built snapshots take: sort the alive jobs itself.
struct Unranked(SrptMsC);

impl Scheduler for Unranked {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        self.0.schedule(state)
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        self.0.schedule_into(state, actions);
    }
}

#[test]
fn srptmsc_sorting_fallback_matches_the_ranked_path() {
    for seed in 0..4 {
        let trace = random_trace(seed);
        let config = SimConfig::new(12).with_seed(seed);
        let ranked = run(&mut SrptMsC::new(0.6, 3.0), &trace, config.clone());
        let sorted = run(&mut Unranked(SrptMsC::new(0.6, 3.0)), &trace, config);
        assert_eq!(ranked, sorted, "seed {seed}");
    }
}
