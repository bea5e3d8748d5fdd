//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <stream_srptmsc|serve_mixed> --seed N
//!           --seconds S --trace <0|1> [--serve PATH] [--out-dir DIR]
//!           [--build-id ID]
//! ```
//!
//! Prints the run's metadata and the per-metric sample summaries, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). `perfbench/run.py` builds and runs it; see
//! `perfbench/README.md` for what each workload and metric means.

mod engine;
mod host;
mod layers;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;
mod wrap;

use layers::{EngineLayers, ServiceLayers};
use mapreduce_support::json::{JsonValue, ToJson};
use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `serve` binary (`serve_mixed` only).
    pub serve: Option<PathBuf>,
    /// Where cache files, the Chrome trace and the speed anchors go.
    pub out_dir: PathBuf,
    /// Names the build; runs of one build share their speed anchors.
    pub build_id: String,
}

const WORKLOADS: [&str; 2] = ["stream_srptmsc", "serve_mixed"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        serve: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        build_id: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| bad("expected 1..=600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--serve" => args.serve = Some(PathBuf::from(&value)),
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--build-id" => args.build_id = value.clone(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds is required".to_string());
    }
    Ok(args)
}

/// The speed anchors of this build and workload ([`speed::Anchors`]).
pub fn anchors(args: &Args) -> speed::Anchors {
    let name = format!("fastest-{}-{}.json", args.workload, args.build_id);
    speed::Anchors::load(args.out_dir.join(name))
}

/// Writes the traced run's spans as `trace-<workload>-<seed>.json`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json().to_compact_string()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let mut engine = EngineLayers::default();
    let mut service = ServiceLayers::default();
    match args.workload.as_str() {
        "stream_srptmsc" => engine::stream_srptmsc(&args, &mut report, &mut engine),
        _ => serve::serve_mixed(&args, &mut report, &mut engine, &mut service),
    }

    let wanted: &[(&str, &str)] = if args.trace {
        let overhead = engine.traced_ns as f64 / engine.untraced_ns.max(1) as f64;
        layers::set_layer_metrics(&mut report, &engine, &service, overhead);
        &PER_LAYER
    } else {
        report.set("ok_ratio", report.ok_ratio());
        &END_TO_END
    };

    for failure in report.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    let run = JsonValue::object([
        ("workload", args.workload.to_json()),
        ("seed", args.seed.to_json()),
        ("seconds", args.seconds.to_json()),
        ("trace", args.trace.to_json()),
        ("cpu_model", host::cpu_model().to_json()),
        (
            "worker_threads",
            mapreduce_support::parallel::worker_threads(usize::MAX).to_json(),
        ),
        ("workload_size", JsonValue::Object(report.info.clone())),
    ]);
    println!("{}", JsonValue::object([("run", run)]).to_compact_string());
    println!(
        "{}",
        JsonValue::object([("samples", report.samples_json())]).to_compact_string()
    );
    println!("{}", report.result_json(wanted).to_compact_string());
    ExitCode::SUCCESS
}
