//! `serve_mixed`: the real `serve` binary on its stdin/stdout line
//! protocol, closed loop with one client, over a seeded multi-tenant mix of
//! warm sweeps, cold sweeps and `stats`/`metrics` requests. Set-up is a
//! start from the pre-built cache file until the first `stats` reply; it is
//! timed for the server under load and, spread across the run, for extra
//! servers started from a copy of the same file. The traced run replays the
//! same request sequence in-process.

use crate::engine::{check_twins, set_warm};
use crate::layers::{EngineLayers, SchedulerCrate, ServiceLayers};
use crate::report::Report;
use crate::speed::{EngineReference, HostSpeed, Timing};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::wrap::TimedCache;
use crate::Args;
use mapreduce_experiments::cache::OutcomeCache;
use mapreduce_experiments::{cell_fingerprint, fig7, runner::run_cells, Scenario, SchedulerKind};
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_server::{
    serve_lines, Request, ResultCache, SweepRequest, SweepResponse, SweepServer,
};
use mapreduce_sim::{FaultClass, FaultPlan, Simulation};
use mapreduce_support::json::{FromJson, JsonValue, ToJson};
use mapreduce_support::rng::{Rng, SimRng};
use mapreduce_workload::MaterializedSource;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Jobs per cell.
const CELL_JOBS: usize = 1_000;
/// Seeds per sweep request; with the line-up, 4 cells per request, so a
/// cold sweep is short (≈ 0.1 s) and the host's speed changes little
/// within one (see [`HostSpeed`]).
const SEEDS_PER_REQUEST: u64 = 1;
/// Every sweep's scheduler line-up.
const LINEUP: [SchedulerKind; 4] = [
    SchedulerKind::Fifo,
    SchedulerKind::SrptMsC {
        epsilon: 0.6,
        r: 3.0,
    },
    SchedulerKind::Mantri,
    SchedulerKind::Fair,
];
/// Requests stored in the pre-built cache before the timed part.
const PREBUILT: usize = 12;
/// Warm sweeps per second of `--seconds`, never below what a p99 needs.
const WARM_PER_SECOND: usize = 300;
/// Cold sweeps per run, whatever `--seconds` is, so the cache (and the
/// server's peak RSS) ends the same size in every run.
const COLD_SWEEPS: usize = 120;
/// Repetitions of the warm reference sweep; the median is kept.
const WARM_REFERENCE_REPEATS: usize = 3;
/// Extra servers started from the pre-built cache during the run.
const RELOADS: usize = 20;
/// A `stats` or `metrics` request (alternating) every this many sweeps.
const STATUS_EVERY: usize = 40;
/// Jobs of the traced run's crash probe.
const CRASH_JOBS: usize = 2_000;
/// Fig. 7's mild crash level: mean machine up time in slots.
const MILD_MTBF: f64 = 8_000.0;
/// Tenants the sweeps are spread over.
const TENANTS: [&str; 4] = ["ana", "bo", "chen", "dee"];

/// What one step of the mix does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A sweep of request `request`; `cold` on its first appearance.
    Sweep {
        /// Index into [`Traffic::requests`].
        request: usize,
        /// Whether every cell is new to the cache.
        cold: bool,
        /// How many of the request's schedulers (the first ones) are asked
        /// for: all of them when cold.
        schedulers: usize,
    },
    /// A `stats` request.
    Stats,
    /// A `metrics` request.
    Metrics,
    /// Start another server from a copy of the pre-built cache, wait for
    /// its first `stats` reply and stop it: one more set-up sample.
    Reload,
}

/// One step of the mix and its protocol line (empty for a reload).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// What the step does.
    pub kind: OpKind,
    /// The request line sent.
    pub line: String,
}

/// The seeded request mix of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Distinct sweeps; the first [`PREBUILT`] are in the pre-built cache.
    pub requests: Vec<SweepRequest>,
    /// The steps, in order.
    pub ops: Vec<Op>,
}

fn sweep_request(seed: u64, index: u64) -> SweepRequest {
    let mut scenario = Scenario::scaled(CELL_JOBS, 0);
    let first = seed
        .wrapping_mul(1_000_003)
        .wrapping_add(index * SEEDS_PER_REQUEST);
    scenario.seeds = (0..SEEDS_PER_REQUEST)
        .map(|i| first.wrapping_add(i))
        .collect();
    SweepRequest::new(scenario, LINEUP.to_vec())
}

fn sweep_line(request: &SweepRequest, schedulers: usize, tenant: &str) -> String {
    let mut request = request.clone().with_tenant(tenant);
    request.schedulers.truncate(schedulers);
    match request.to_json() {
        JsonValue::Object(mut map) => {
            map.insert("cmd".into(), JsonValue::String("sweep".into()));
            JsonValue::Object(map).to_compact_string()
        }
        _ => unreachable!("requests serialize to objects"),
    }
}

/// The request mix for `seed` over a `seconds`-long run.
pub fn traffic(seed: u64, seconds: usize) -> Traffic {
    let warm = (WARM_PER_SECOND * seconds).max(crate::stats::samples_for_tail(0.99) + 100);
    let cold = COLD_SWEEPS;
    let sweeps = warm + cold;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED_5E4E);
    let requests: Vec<SweepRequest> = (0..(PREBUILT + cold) as u64)
        .map(|i| sweep_request(seed, i))
        .collect();
    let mut ops = Vec::new();
    let mut issued = PREBUILT;
    let mut cold_left = cold;
    let mut warm_sent = 0;
    for n in 0..sweeps {
        if n % (sweeps / RELOADS) == sweeps / RELOADS / 2 {
            ops.push(Op {
                kind: OpKind::Reload,
                line: String::new(),
            });
        }
        if n > 0 && n % STATUS_EVERY == 0 {
            let stats = (n / STATUS_EVERY) % 2 == 1;
            ops.push(Op {
                kind: if stats {
                    OpKind::Stats
                } else {
                    OpKind::Metrics
                },
                line: format!(
                    "{{\"cmd\":\"{}\"}}",
                    if stats { "stats" } else { "metrics" }
                ),
            });
        }
        let tenant = TENANTS[(rng.next_u64() % TENANTS.len() as u64) as usize];
        // Cold sweeps sit at fixed positions, so every seed's cache grows
        // the same way.
        let is_cold = cold_left > 0 && n % (sweeps / cold) == sweeps / cold / 2;
        // Warm sweeps ask for the first 1, 2, 3 and 4 schedulers of an
        // earlier sweep in turn. Identical requests would time as two
        // narrow peaks when the host flips between its fast and slow
        // state, and the median would jump from one to the other as the
        // slow share of the run crosses one half; requests of mixed size
        // overlap the peaks, so the median moves in proportion to it.
        let (request, cold_now, schedulers) = if is_cold {
            cold_left -= 1;
            issued += 1;
            (issued - 1, true, LINEUP.len())
        } else {
            warm_sent += 1;
            let request = (rng.next_u64() % issued as u64) as usize;
            (request, false, warm_sent % LINEUP.len() + 1)
        };
        ops.push(Op {
            kind: OpKind::Sweep {
                request,
                cold: cold_now,
                schedulers,
            },
            line: sweep_line(&requests[request], schedulers, tenant),
        });
    }
    Traffic { requests, ops }
}

/// Cells stored by `requests` distinct sweeps.
fn cells_of(requests: usize) -> usize {
    requests * LINEUP.len() * SEEDS_PER_REQUEST as usize
}

/// Whether a warm reply for the first `schedulers` schedulers carries the
/// same results as the cold reply's first ones: every cell's scheduler,
/// seed, fingerprint and summary, and the averages. Cells are
/// scheduler-major, so they are a prefix of the cold reply's cells.
fn same_results(warm: &SweepResponse, cold: &SweepResponse, schedulers: usize) -> bool {
    let cells = schedulers * SEEDS_PER_REQUEST as usize;
    warm.averages.len() == schedulers
        && warm.cells.len() == cells
        && cold.averages.get(..schedulers) == Some(&warm.averages[..])
        && cold.cells.len() >= cells
        && warm.cells.iter().zip(&cold.cells).all(|(w, c)| {
            w.scheduler == c.scheduler
                && w.seed == c.seed
                && w.fingerprint == c.fingerprint
                && w.summary == c.summary
        })
}

fn remove_if_present(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Writes the pre-built cache (untimed): the first [`PREBUILT`] requests,
/// simulated in-process into a fresh file. Returns their responses.
fn prebuild(path: &Path, traffic: &Traffic) -> std::io::Result<Vec<SweepResponse>> {
    remove_if_present(path)?;
    let server = SweepServer::new(ResultCache::open(path)?);
    Ok(traffic.requests[..PREBUILT]
        .iter()
        .map(|request| server.submit(request))
        .collect())
}

/// The reply's `response`, if the reply is `ok:true` and parses.
fn sweep_reply(reply: &JsonValue) -> Option<SweepResponse> {
    if reply.get("ok") != Some(&JsonValue::Bool(true)) {
        return None;
    }
    SweepResponse::from_json(reply.get("response")?).ok()
}

/// Checks one sweep reply against the request's history and records it as
/// the reference when it is the request's cold reply.
fn check_sweep(
    report: &mut Report,
    reply: Option<SweepResponse>,
    request: usize,
    cold: bool,
    schedulers: usize,
    references: &mut [Option<SweepResponse>],
) {
    let cells = schedulers * SEEDS_PER_REQUEST as usize;
    let Some(reply) = reply else {
        return report.check(false, || format!("sweep {request}: reply not ok"));
    };
    if cold {
        report.check(reply.simulated == cells && reply.cache_hits == 0, || {
            format!("cold sweep {request}: simulated {}", reply.simulated)
        });
        references[request] = Some(reply);
    } else {
        let ok = reply.simulated == 0
            && reply.cache_hits == cells
            && references[request]
                .as_ref()
                .is_some_and(|cold| same_results(&reply, cold, schedulers));
        report.check(ok, || {
            format!(
                "warm sweep {request}: simulated {}, {} hits, or results differ",
                reply.simulated, reply.cache_hits
            )
        });
    }
}

/// A running `serve` child; dropping it stops and reaps the process.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(binary: &Path, cache: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(binary)
            .arg("--cache")
            .arg(cache)
            .env("RAYON_NUM_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        let mut reply = String::new();
        if self.stdout.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "serve closed its output",
            ));
        }
        Ok(reply)
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn stop(mut self) -> std::io::Result<bool> {
        let reply = self.request("{\"cmd\":\"shutdown\"}")?;
        let status = self.child.wait()?;
        Ok(status.success() && reply.contains("\"ok\":true"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts `serve` and times it until the reloaded cache answers `stats`
/// with `entries` entries.
fn start_timed(
    report: &mut Report,
    binary: &Path,
    cache: &Path,
    entries: usize,
    speed: &HostSpeed,
    setup: &mut Vec<Timing>,
) -> std::io::Result<Server> {
    let t0 = Instant::now();
    let mut server = Server::start(binary, cache)?;
    let reply = server.request("{\"cmd\":\"stats\"}")?;
    setup.push(speed.timing(t0, t0.elapsed().as_secs_f64()));
    let loaded = JsonValue::parse(&reply)
        .ok()
        .and_then(|v| v.get("cache")?.get("entries")?.as_u64());
    report.check(loaded == Some(entries as u64), || {
        format!("start loaded {loaded:?} entries, expected {entries}")
    });
    Ok(server)
}

pub fn serve_mixed(
    args: &Args,
    report: &mut Report,
    layers: &mut EngineLayers,
    service: &mut ServiceLayers,
) {
    let traffic = traffic(args.seed, args.seconds);
    let sweeps = traffic
        .ops
        .iter()
        .filter(|op| matches!(op.kind, OpKind::Sweep { .. }))
        .count();
    report.info("requests", traffic.ops.len());
    report.info("sweeps", sweeps);
    report.info("cells_per_sweep", cells_of(1));
    report.info("jobs_per_cell", CELL_JOBS);
    let cache = args
        .out_dir
        .join(format!("serve-cache-{}.jsonl", args.seed));
    let prebuilt = match prebuild(&cache, &traffic) {
        Ok(responses) => responses,
        Err(e) => return report.check(false, || format!("pre-building the cache: {e}")),
    };
    let result = if args.trace {
        replay_traced(args, &traffic, &cache, prebuilt, report, layers, service)
    } else {
        drive(args, &traffic, &cache, prebuilt, report)
    };
    if let Err(e) = result {
        report.check(false, || format!("serve_mixed: {e}"));
    }
    // The cache files are per-run scratch of tens of MB each; only the
    // Chrome trace is kept.
    for tag in ["reload", "traced", "untraced"] {
        let _ = std::fs::remove_file(cache.with_extension(format!("{tag}.jsonl")));
    }
    let _ = std::fs::remove_file(&cache);
}

/// The untraced run: the real binary, one client, closed loop.
fn drive(
    args: &Args,
    traffic: &Traffic,
    cache: &Path,
    prebuilt: Vec<SweepResponse>,
    report: &mut Report,
) -> std::io::Result<()> {
    let binary = args
        .serve
        .as_deref()
        .ok_or_else(|| std::io::Error::other("--serve <path of the serve binary> is required"))?;
    let mut references: Vec<Option<SweepResponse>> = prebuilt.into_iter().map(Some).collect();
    references.resize(traffic.requests.len(), None);
    let probe_cache = fresh_copy(cache, "reload")?;
    let mut stored = PREBUILT;
    // Server starts and cold sweeps are corrected by the engine reference
    // run, timed in the client after each; warm sweeps by a fixed warm
    // sweep, timed at every `stats`/`metrics` request.
    let started = Instant::now();
    let engine = EngineReference::default();
    let mut speed = HostSpeed::new(started);
    let mut warm_speed = HostSpeed::new(started);
    let warm_reference = sweep_line(&traffic.requests[0], LINEUP.len(), TENANTS[0]);
    let mut setup = Vec::new();
    let mut warm = Vec::new();
    let mut cold_sweeps = Vec::new();
    // Client-side seconds spent on each kind of step and on the references,
    // reported as shares.
    let mut spent = [0.0f64; 5];
    let mut server = start_timed(report, binary, cache, cells_of(stored), &speed, &mut setup)?;
    engine.run(report, &mut speed);
    for op in &traffic.ops {
        let t0 = Instant::now();
        match op.kind {
            OpKind::Reload => {
                let extra = start_timed(
                    report,
                    binary,
                    &probe_cache,
                    cells_of(PREBUILT),
                    &speed,
                    &mut setup,
                )?;
                let stopped = extra.stop()?;
                report.check(stopped, || "serve did not shut down cleanly".to_string());
            }
            OpKind::Sweep {
                request,
                cold,
                schedulers,
            } => {
                let t0 = Instant::now();
                let reply = server.request(&op.line)?;
                let seconds = t0.elapsed().as_secs_f64();
                if cold {
                    stored += 1;
                    cold_sweeps.push(speed.timing(t0, seconds));
                } else {
                    warm.push(warm_speed.timing(t0, seconds));
                }
                let parsed = JsonValue::parse(&reply).ok();
                let response = parsed.as_ref().and_then(sweep_reply);
                check_sweep(report, response, request, cold, schedulers, &mut references);
            }
            OpKind::Stats => {
                let reply = JsonValue::parse(&server.request(&op.line)?).ok();
                let entries = reply
                    .as_ref()
                    .and_then(|v| v.get("cache")?.get("entries")?.as_u64());
                report.check(entries == Some(cells_of(stored) as u64), || {
                    format!(
                        "stats reports {entries:?} entries, expected {}",
                        cells_of(stored)
                    )
                });
            }
            OpKind::Metrics => {
                let reply = JsonValue::parse(&server.request(&op.line)?).ok();
                let ok = reply.as_ref().is_some_and(|v| {
                    v.get("ok") == Some(&JsonValue::Bool(true))
                        && v.get("exposition")
                            .and_then(JsonValue::as_str)
                            .is_some_and(|text| text.contains("mapreduce_"))
                });
                report.check(ok, || {
                    "metrics reply is not a well-formed exposition".to_string()
                });
            }
        }
        let kind = match op.kind {
            OpKind::Sweep { cold: false, .. } => 0,
            OpKind::Sweep { cold: true, .. } => 1,
            OpKind::Stats | OpKind::Metrics => 2,
            OpKind::Reload => 3,
        };
        spent[kind] += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        match op.kind {
            OpKind::Reload | OpKind::Sweep { cold: true, .. } => engine.run(report, &mut speed),
            OpKind::Stats | OpKind::Metrics => {
                let mut repeats = Vec::new();
                for _ in 0..WARM_REFERENCE_REPEATS {
                    let t = Instant::now();
                    let reply = server.request(&warm_reference)?;
                    repeats.push(t.elapsed().as_secs_f64());
                    let parsed = JsonValue::parse(&reply).ok();
                    let response = parsed.as_ref().and_then(sweep_reply);
                    check_sweep(report, response, 0, false, LINEUP.len(), &mut references);
                }
                warm_speed.reference(warm_speed.timing(t0, Summary::of(&repeats).median));
            }
            OpKind::Sweep { cold: false, .. } => {}
        }
        spent[4] += t0.elapsed().as_secs_f64();
    }
    let total: f64 = spent.iter().sum();
    let names = ["warm", "cold", "status", "reload", "reference"];
    for (name, s) in names.iter().zip(spent) {
        report.info(&format!("time_share_{name}"), s / total);
    }
    let peak_rss = crate::host::vm_hwm(Some(server.child.id())).unwrap_or(0);
    let stopped = server.stop()?;
    report.check(stopped, || "serve did not shut down cleanly".to_string());

    let mut anchors = crate::anchors(args);
    anchors.apply("engine", &mut speed);
    anchors.apply("warm", &mut warm_speed);
    anchors.save();
    let setup = speed.corrected(&setup);
    report.set_sampled("setup_s", Summary::of(&setup).median, Summary::of(&setup));
    report.set("peak_rss_mb", peak_rss as f64 / 1e6);
    // All cold cells over their total corrected time.
    let cold_s = speed.corrected(&cold_sweeps);
    let rates: Vec<f64> = cold_s.iter().map(|s| cells_of(1) as f64 / s).collect();
    let cells_per_s = (cold_s.len() * cells_of(1)) as f64 / cold_s.iter().sum::<f64>();
    report.set_sampled("cold_cells_per_s", cells_per_s, Summary::of(&rates));
    report.set("jobs_per_s", cells_per_s * CELL_JOBS as f64);
    report.add_samples("engine_slowdown", speed.slowdowns());
    set_warm(report, &warm_speed, &warm);
    set_flowtimes(report, &references);
    Ok(())
}

/// The simulated flowtimes of every cell the run stored: the mean of the
/// cells' mean and weighted mean flowtimes.
fn set_flowtimes(report: &mut Report, references: &[Option<SweepResponse>]) {
    let summaries: Vec<&FlowtimeSummary> = references
        .iter()
        .flatten()
        .flat_map(|r| r.cells.iter().map(|c| &c.summary))
        .collect();
    let n = summaries.len() as f64;
    report.set(
        "sim_mean_flowtime",
        summaries.iter().map(|s| s.mean).sum::<f64>() / n,
    );
    report.set(
        "sim_weighted_flowtime",
        summaries.iter().map(|s| s.weighted_mean).sum::<f64>() / n,
    );
}

fn nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// A copy of the pre-built cache for one replay.
fn fresh_copy(cache: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let copy = cache.with_extension(format!("{tag}.jsonl"));
    std::fs::copy(cache, &copy)?;
    Ok(copy)
}

/// The same request sequence through the public line-protocol entry point
/// in-process, uninstrumented: the baseline of the tracing overhead.
/// Returns the sweep responses in order and the wall time.
fn replay_untraced(
    traffic: &Traffic,
    cache: &Path,
    probe_cache: &Path,
) -> std::io::Result<(Vec<SweepResponse>, u64)> {
    let t0 = Instant::now();
    let server = SweepServer::new(ResultCache::open(cache)?);
    let mut responses = Vec::new();
    for op in &traffic.ops {
        if op.kind == OpKind::Reload {
            drop(SweepServer::new(ResultCache::open(probe_cache)?));
            continue;
        }
        let mut out = Vec::new();
        serve_lines(&server, op.line.as_bytes(), &mut out)?;
        if let OpKind::Sweep { .. } = op.kind {
            let reply = JsonValue::parse(&String::from_utf8_lossy(&out))
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            responses.push(
                sweep_reply(&reply).ok_or_else(|| std::io::Error::other("sweep reply not ok"))?,
            );
        }
    }
    Ok((responses, nanos(t0)))
}

/// The traced run: the request sequence replayed in-process with a span per
/// request and per decode/submit/encode phase, then a probe of the cache,
/// the cell runner and one wrapped engine run per scheduler.
#[allow(clippy::too_many_arguments)]
fn replay_traced(
    args: &Args,
    traffic: &Traffic,
    cache: &Path,
    prebuilt: Vec<SweepResponse>,
    report: &mut Report,
    layers: &mut EngineLayers,
    service: &mut ServiceLayers,
) -> std::io::Result<()> {
    let probe_cache = fresh_copy(cache, "reload")?;
    let (untraced, untraced_ns) =
        replay_untraced(traffic, &fresh_copy(cache, "untraced")?, &probe_cache)?;
    let path = fresh_copy(cache, "traced")?;
    let mut tracer = Tracer::default();
    let mut references: Vec<Option<SweepResponse>> = prebuilt.into_iter().map(Some).collect();
    references.resize(traffic.requests.len(), None);
    let t0 = Instant::now();
    let server = reload(&mut tracer, service, &path)?;
    let mut traced = Vec::new();
    for op in &traffic.ops {
        match op.kind {
            OpKind::Reload => drop(reload(&mut tracer, service, &probe_cache)?),
            OpKind::Stats | OpKind::Metrics => {
                let mut out = Vec::new();
                let (io, ns) = tracer.span(op.line.clone(), 0, |_, _| {
                    serve_lines(&server, op.line.as_bytes(), &mut out)
                });
                io?;
                report.check(
                    String::from_utf8_lossy(&out).contains("\"ok\":true"),
                    || format!("{} reply not ok", op.line),
                );
                if op.kind == OpKind::Metrics {
                    service.metrics_request.0 += ns;
                    service.metrics_request.1 += 1;
                }
            }
            OpKind::Sweep {
                request,
                cold,
                schedulers,
            } => {
                let (response, _) = tracer.span("request", 0, |tracer, id| {
                    traced_sweep(tracer, id, service, &server, &op.line)
                });
                check_sweep(
                    report,
                    response.clone(),
                    request,
                    cold,
                    schedulers,
                    &mut references,
                );
                traced.extend(response);
            }
        }
    }
    let traced_ns = nanos(t0);
    report.check(traced == untraced, || {
        "traced replay responses differ from the untraced replay".to_string()
    });
    probe(args, &mut tracer, &server, traffic, report, layers, service)?;
    layers.traced_ns += traced_ns;
    layers.untraced_ns += untraced_ns;
    crate::write_trace(args, &tracer);
    Ok(())
}

/// Opens a cache file the way a starting server does, timed.
fn reload(
    tracer: &mut Tracer,
    service: &mut ServiceLayers,
    path: &Path,
) -> std::io::Result<SweepServer> {
    let bytes = file_len(path);
    let (cache, ns) = tracer.span("reload", 0, |_, _| ResultCache::open(path));
    service.reload.0 += ns;
    service.reload.1 += bytes;
    Ok(SweepServer::new(cache?))
}

/// One sweep line through decode → fingerprint → submit → encode, each in
/// its own span. Returns the response as the client would parse it.
fn traced_sweep(
    tracer: &mut Tracer,
    parent: u64,
    service: &mut ServiceLayers,
    server: &SweepServer,
    line: &str,
) -> Option<SweepResponse> {
    let (request, decode_ns) = tracer.span("decode", parent, |_, _| {
        let t0 = Instant::now();
        let value = JsonValue::parse(line).ok()?;
        let parse_ns = nanos(t0);
        match Request::from_json(&value).ok()? {
            Request::Sweep(sweep) => Some((sweep, parse_ns)),
            _ => None,
        }
    });
    let (request, parse_ns) = request?;
    service.decode.0 += decode_ns;
    service.decode.1 += 1;
    service.json_parse.0 += parse_ns;
    service.json_parse.1 += line.len() as u64;
    let ((), fingerprint_ns) = tracer.span("fingerprint", parent, |_, _| {
        for &kind in &request.schedulers {
            for &seed in &request.scenario.seeds {
                std::hint::black_box(cell_fingerprint(kind, &request.scenario, seed));
            }
        }
    });
    service.fingerprint.0 += fingerprint_ns;
    service.fingerprint.1 += request.num_cells() as u64;
    let (response, submit_ns) = tracer.span("submit", parent, |_, _| server.submit(&request));
    if response.simulated == 0 {
        service.submit_warm.push(submit_ns as f64);
    } else {
        service.submit_cold.push(submit_ns as f64);
    }
    service.hits.0 += response.cache_hits as u64;
    service.hits.1 += request.num_cells() as u64;
    let (encoded, encode_ns) = tracer.span("encode", parent, |_, _| {
        JsonValue::object([
            ("ok", true.to_json()),
            ("cmd", JsonValue::String("sweep".into())),
            ("response", response.to_json()),
        ])
        .to_compact_string()
    });
    service.encode.0 += encode_ns;
    service.encode.1 += 1;
    service.response_bytes += encoded.len() as u64;
    let t0 = Instant::now();
    let parsed = JsonValue::parse(&encoded).ok();
    service.json_parse.0 += nanos(t0);
    service.json_parse.1 += encoded.len() as u64;
    sweep_reply(&parsed?)
}

/// After the replay: every stored cell looked up (a hit each) and stored
/// into a scratch cache, their summaries timed, one request re-run through
/// the cell runner, and one cell per scheduler re-run with every engine
/// seam wrapped — each compared with the cached outcome.
fn probe(
    args: &Args,
    tracer: &mut Tracer,
    server: &SweepServer,
    traffic: &Traffic,
    report: &mut Report,
    layers: &mut EngineLayers,
    service: &mut ServiceLayers,
) -> std::io::Result<()> {
    let scratch = args
        .out_dir
        .join(format!("probe-cache-{}.jsonl", args.seed));
    remove_if_present(&scratch)?;
    let scratch_cache = ResultCache::open(&scratch)?;
    let lookups = TimedCache::new(server.cache());
    let stores = TimedCache::new(&scratch_cache);
    let mut first = Vec::new();
    for (i, request) in traffic.requests.iter().enumerate() {
        let ((), _) = tracer.span("lookup", 0, |_, _| {
            for &kind in &request.schedulers {
                for &seed in &request.scenario.seeds {
                    let fingerprint = cell_fingerprint(kind, &request.scenario, seed);
                    let Some(outcome) = lookups.lookup(fingerprint) else {
                        return report.check(false, || format!("cell of request {i} not cached"));
                    };
                    report.check(outcome.records().len() == CELL_JOBS, || {
                        format!("cached cell of request {i} is incomplete")
                    });
                    stores.store(fingerprint, &outcome);
                    let t0 = Instant::now();
                    std::hint::black_box(FlowtimeSummary::from_outcome(&outcome));
                    layers.summary_ns += nanos(t0);
                    layers.summary_jobs += outcome.records().len() as u64;
                    if i == 0 {
                        first.push((kind, seed, outcome));
                    }
                }
            }
        });
    }
    let times = lookups.times();
    service.lookup = (times.hit_ns, times.hits);
    let times = stores.times();
    drop(scratch_cache);
    service.store = (times.store_ns, times.stores, file_len(&scratch));
    let _ = std::fs::remove_file(&scratch);

    let request = &traffic.requests[0];
    let cells: Vec<(SchedulerKind, u64)> = first.iter().map(|(k, s, _)| (*k, *s)).collect();
    let (outcomes, ns) = tracer.span("run_cells", 0, |_, _| run_cells(&request.scenario, &cells));
    service.run_cells.0 += ns;
    service.run_cells.1 += cells.len() as u64;
    report.check(
        outcomes
            .iter()
            .zip(&first)
            .all(|(o, (_, _, cached))| o == cached),
        || "run_cells differs from the cached outcomes".to_string(),
    );

    for kind in LINEUP {
        let Some((_, seed, cached)) = first.iter().find(|(k, _, _)| *k == kind) else {
            continue;
        };
        let (trace, ns) = tracer.span("generate trace", 0, |_, _| request.scenario.trace(*seed));
        layers.generate_ns += ns;
        layers.generate_jobs += CELL_JOBS as u64;
        let owner = match kind {
            SchedulerKind::SrptMsC { .. } => SchedulerCrate::Core,
            _ => SchedulerCrate::Baselines,
        };
        let (traced, _) = layers.traced_run(
            tracer,
            0,
            &format!("{} (traced)", kind.label()),
            request.scenario.sim_config(*seed),
            Box::new(MaterializedSource::new(trace)),
            kind.build().as_mut(),
            owner,
        );
        report.check(traced.as_ref().ok() == Some(cached), || {
            format!(
                "{}: wrapped run differs from the cached outcome",
                kind.label()
            )
        });
    }
    probe_crashes(
        tracer,
        traffic.requests[0].scenario.seeds[0],
        report,
        layers,
    );
    Ok(())
}

/// The kill/re-execute path, which the sweeps never take: FIFO over one
/// trace of [`CRASH_JOBS`] jobs under Fig. 7's mild crash plan (MTBF
/// [`MILD_MTBF`] slots, MTTR = MTBF / 8), run bare and with every engine
/// seam wrapped. The two must be equal, and crashes must kill copies.
fn probe_crashes(tracer: &mut Tracer, seed: u64, report: &mut Report, layers: &mut EngineLayers) {
    let scenario = Scenario::scaled(CRASH_JOBS, 0);
    let plan = FaultPlan::new(vec![FaultClass::crashes(
        scenario.machines,
        MILD_MTBF,
        MILD_MTBF * fig7::MTTR_FRACTION,
    )]);
    let scenario = scenario.with_fault(plan);
    let (trace, ns) = tracer.span("generate trace", 0, |_, _| scenario.trace(seed));
    layers.generate_ns += ns;
    layers.generate_jobs += CRASH_JOBS as u64;
    let kind = SchedulerKind::Fifo;
    let (bare, _) = tracer.span("FIFO under crashes (untraced)", 0, |_, _| {
        Simulation::new(scenario.sim_config(seed), &trace).run(kind.build().as_mut())
    });
    let (traced, _) = layers.traced_run(
        tracer,
        0,
        "FIFO under crashes (traced)",
        scenario.sim_config(seed),
        Box::new(MaterializedSource::new(trace)),
        kind.build().as_mut(),
        SchedulerCrate::Baselines,
    );
    check_twins(report, "FIFO under crashes", bare, traced, CRASH_JOBS, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        assert_eq!(traffic(7, 30), traffic(7, 30));
        assert_ne!(traffic(7, 30).ops, traffic(8, 30).ops);
    }

    #[test]
    fn the_mix_has_its_shape() {
        let mix = traffic(3, 30);
        let count =
            |pred: &dyn Fn(&OpKind) -> bool| mix.ops.iter().filter(|op| pred(&op.kind)).count();
        let warm = count(&|k| matches!(k, OpKind::Sweep { cold: false, .. }));
        let cold = count(&|k| matches!(k, OpKind::Sweep { cold: true, .. }));
        assert!(warm >= crate::stats::samples_for_tail(0.99));
        assert_eq!(cold, COLD_SWEEPS);
        assert_eq!(count(&|k| *k == OpKind::Reload), RELOADS);
        assert!(count(&|k| *k == OpKind::Stats) > 0 && count(&|k| *k == OpKind::Metrics) > 0);
        // Every request is cold exactly once, before any warm repeat of it.
        let mut seen = vec![false; mix.requests.len()];
        seen[..PREBUILT].iter_mut().for_each(|s| *s = true);
        let mut sizes = [0usize; LINEUP.len()];
        for op in &mix.ops {
            if let OpKind::Sweep {
                request,
                cold,
                schedulers,
            } = op.kind
            {
                assert_eq!(cold, !seen[request], "request {request}");
                seen[request] = true;
                sizes[schedulers - 1] += 1;
                let sent = JsonValue::parse(&op.line).expect("request lines are JSON");
                let Ok(Request::Sweep(sweep)) = Request::from_json(&sent) else {
                    panic!("not a sweep: {}", op.line);
                };
                assert_eq!(sweep.schedulers, LINEUP[..schedulers]);
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Warm sweeps of every size, in equal numbers.
        let warm_of_size = (warm / LINEUP.len()) as f64;
        for (k, &n) in sizes.iter().enumerate() {
            let n = if k + 1 == LINEUP.len() { n - cold } else { n };
            assert!((n as f64 - warm_of_size).abs() <= 1.0, "{sizes:?}");
        }
    }
}
