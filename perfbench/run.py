#!/usr/bin/env python3
"""The SQLB benchmark: builds `perfbench/` and measures one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

With `--trace 0` the run times `Simulator::new` and `Simulator::run`
(observability off) and reports the end-to-end metrics; with `--trace 1`
it runs the layer replay and reports the per-layer metrics. Either way the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, and the exit code is non-zero when a
run's output check (report digest, query accounting, replay fidelity)
failed. `--summary` measures every workload in turn and prints one table
of the end-to-end metrics plus `failed_ratio`, with units and sample
counts; it exits non-zero on any digest mismatch.

Run it from the repository root. It builds with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`) and writes the spans of the
last traced replay under that directory.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "sqlb-perfbench")


def pinned_digest(manifest, workload, seed):
    entry = manifest["workloads"].get(workload, {})
    pin = entry.get("pinned", {})
    return pin.get("digest") if pin.get("seed") == seed else None


def run_one(binary, manifest, workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, output lines)."""
    mode = "trace" if trace else "measure"
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    digest = pinned_digest(manifest, workload, seed)
    if digest:
        cmd += ["--expect-digest", digest]
    if trace:
        cmd += ["--spans-dir", os.path.join(target_dir(), "perfbench-spans")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return 1, [f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s"]
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def check_result(line, expected_metrics):
    """Parses the result line and checks its shape; returns it or None."""
    try:
        result = json.loads(line)
    except (ValueError, TypeError):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if expected_metrics is not None and set(result["metrics"]) != set(expected_metrics):
        missing = set(expected_metrics) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected_metrics)
        print(f"perfbench: metrics missing {sorted(missing)}, unexpected {sorted(extra)}",
              file=sys.stderr)
        return None
    return result


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    bench = load_json(path)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args()

    manifest = load_json(os.path.join(HERE, "manifest.json"))
    if not args.summary and args.workload not in manifest["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1

    if not args.summary:
        code, lines = run_one(binary, manifest, args.workload, args.seed,
                              args.seconds, args.trace == 1)
        for line in lines:
            print(line)
        result = check_result(lines[-1] if lines else "", declared_metrics(args.trace == 1))
        if result is None:
            print("perfbench: no well-formed result line", file=sys.stderr)
            return code or 1
        return code

    rows, failed = [], False
    for workload in manifest["workloads"]:
        started = time.monotonic()
        code, lines = run_one(binary, manifest, workload, args.seed, args.seconds, False)
        print(f"== {workload} ({time.monotonic() - started:.1f} s)")
        for line in lines[:-1]:
            print("   " + line)
        result = check_result(lines[-1] if lines else "", None)
        if code != 0 or result is None or not result["correct"]:
            failed = True
            print(f"   FAILED (exit {code})")
            continue
        m = result["metrics"]
        rows.append((workload, m, result["failed"] / max(result["attempted"], 1)))
    print()
    print(f"{'workload':<18} {'allocations_per_s':>20} {'setup_s':>12} "
          f"{'peak_rss_mb':>13} {'failed_ratio':>13}")
    for workload, m, ratio in rows:
        print(f"{workload:<18} {m['allocations_per_s']['value']:>16.1f} 1/s "
              f"{m['setup_s']['value']:>10.6f} s {m['peak_rss_mb']['value']:>10.1f} MB "
              f"{ratio:>13.6f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
