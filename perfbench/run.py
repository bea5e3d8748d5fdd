#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <stream_srptmsc|serve_mixed> \
        --seed N --seconds S --trace <0|1>

Builds the `serve` binary and the `perfbench` package from source in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs one
workload with one worker thread. Standard output ends with one JSON line:
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). Earlier lines carry the
host and run metadata and each timing metric's sample count and quartiles.
Build logs go to standard error. Exits non-zero, printing no result, when the
sources are missing, the build fails or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("stream_srptmsc", "serve_mixed")
# A run must end within 180 s; leave room for start-up and the build check
# that precedes it.
RUN_TIMEOUT_S = 170


def command_output(argv, cwd):
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit():
    """The commit of the checkout, or None when it is not a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"], REPO)
    if top is None or pathlib.Path(top).resolve() != REPO:
        return None
    return command_output(["git", "rev-parse", "HEAD"], REPO)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of a checkout
    that is not a git repository can still be told apart."""
    digest = hashlib.sha256()
    files = [REPO / "Cargo.toml", REPO / "Cargo.lock", HERE / "Cargo.toml"]
    files += sorted((REPO / "crates").rglob("*.rs")) + sorted((HERE / "src").rglob("*.rs"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "mapreduce-server", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for argv in steps:
        if subprocess.run(argv, cwd=REPO, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (REPO / "Cargo.toml").is_file() or not (REPO / "crates" / "server").is_dir():
        print("perfbench: no repository sources next to perfbench/, nothing to build",
              file=sys.stderr)
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), RAYON_NUM_THREADS="1")
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cpus = sorted(os.sched_getaffinity(0))
    digest = source_digest()
    host = {
        # Counted before the run is pinned to one of them.
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "rustc": command_output(["rustc", "-V"], REPO),
        "git_commit": git_commit(),
        "source_digest": digest,
    }
    argv = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", str(target / "release" / "serve"),
        "--out-dir", str(target / "perfbench"),
        # Runs of the same sources share the fastest host speed they saw.
        "--build-id", digest,
    ]
    # One CPU for the benchmark and the `serve` child alike: the closed loop
    # never runs both at once, and on a virtualised host a wake-up across
    # vCPUs can stall for milliseconds, which would show as request latency.
    try:
        os.sched_setaffinity(0, {cpus[0]})
    except OSError as e:
        print(f"perfbench: running unpinned: {e}", file=sys.stderr)
    try:
        done = subprocess.run(argv, cwd=REPO, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    print(json.dumps({"host": host}))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
