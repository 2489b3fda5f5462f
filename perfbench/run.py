#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `repro` and the benchmark binary from source (release profile,
into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload, adds
the peak resident memory of the workload's processes, appends the result
with a host fingerprint to `perfbench/results/history.jsonl`, and prints
the result as one JSON object on the last line of standard output.
See perfbench/README.md.
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys

WORKLOADS = ["paper-repro", "serve-distinct", "serve-coalesced", "solver-converge"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "results")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (
        ["-p", "ihw-bench", "--bin", "repro"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        # Cargo reports on stderr; keep stdout for the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint():
    """Where and from what a result was measured."""
    target_cpu = None
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if os.path.exists(config):
        with open(config) as f:
            m = re.search(r"target-cpu=([\w.-]+)", f.read())
            target_cpu = m.group(1) if m else None
    m = re.search(r"target-cpu=([\w.-]+)", os.environ.get("RUSTFLAGS", ""))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "target_cpu": (m.group(1) if m else target_cpu) or "default",
        "rustc": capture(["rustc", "--version"]),
        "commit": capture(["git", "rev-parse", "HEAD"]) or os.environ.get("PERFBENCH_COMMIT", "unknown"),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    repro = os.path.join(target, "release", "repro")
    bench = [
        os.path.join(target, "release", "ihw-perfbench"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", a.trace,
        "--repro", repro, "--out-dir", RESULTS,
    ]
    proc = subprocess.Popen(bench, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = None
    for line in proc.stdout:
        if last is not None:
            print(last, flush=True)
        last = line.rstrip("\n")
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(last) if code == 0 else None
    except (TypeError, json.JSONDecodeError):
        result = None
    if result is None:
        if last is not None:
            print(last)
        sys.exit(f"perfbench: benchmark exited with {code} and no result")

    if a.trace == "0":
        if a.workload == "paper-repro":
            # The workload's process is `repro`, which is smaller than the
            # benchmark process that starts it: measure one pass alone.
            jobs = str(len(os.sched_getaffinity(0)))
            child = subprocess.Popen([repro, "--jobs", jobs, "all"], cwd=ROOT, stdout=subprocess.DEVNULL)
            usage = os.wait4(child.pid, 0)[2]
        peak = usage.ru_maxrss / 1024.0
        print(f"{'peak_rss_mb':<44} {peak:>16.6f} MB")
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    record = {
        "host": fingerprint(),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": int(a.trace),
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "history.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
