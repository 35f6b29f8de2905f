#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, as a fresh process:

    python3 perfbench/run.py --workload tpcc-tebaldi3 --seed 1 --seconds 20 --trace 0

The last line of standard output is the result: one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).

Every workload, untraced and traced, with the tracing overhead:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

Run from the root of the repository. Build output goes to standard error;
the build honours CARGO_TARGET_DIR.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
# Headroom on top of --seconds for set-up, warm-up, checks and recovery.
SLACK_SECONDS = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds the harness; returns the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the program's sources (crates/) are not here; run from a full checkout")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "harness", "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs one measurement; returns (its output lines, result object)."""
    argv = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {seconds + SLACK_SECONDS} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")
    return lines, result


def check_result(spec, result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    missing = sorted(set(wanted) - set(got))
    extra = sorted(set(got) - set(wanted))
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unlisted {extra}")
    for name, unit in wanted.items():
        if got[name]["unit"] != unit:
            fail(f"{name} is in {got[name]['unit']}, BENCHMARK.json says {unit}")


def run_all(spec, exe, seed, seconds):
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {}
        for trace in (0, 1):
            lines, result = run_once(exe, workload, seed, seconds, trace)
            check_result(spec, result, trace)
            print("\n".join(lines[:-1]))
            print()
            results[trace] = result
        untraced = results[0]["metrics"]["throughput_tps"]["value"]
        traced = results[1]["metrics"]["workloads.traced_throughput_tps"]["value"]
        correct = results[0]["correct"] and results[1]["correct"]
        rows.append((workload, untraced, traced, correct, results[0]["failed"] + results[1]["failed"]))
    print(f"{'workload':<20} {'tx/s untraced':>14} {'tx/s traced':>12} {'overhead':>9}  checks  failed")
    for workload, untraced, traced, correct, failed in rows:
        overhead = 1.0 - traced / untraced if untraced else 0.0
        print(f"{workload:<20} {untraced:>14.1f} {traced:>12.1f} {overhead:>8.1%}  "
              f"{'ok' if correct else 'FAILED':<6}  {failed}")
    if not all(row[3] for row in rows):
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and report the tracing overhead")
    args = parser.parse_args()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if not args.all and not args.workload:
        parser.error("give --workload <name> or --all")
    exe = build()
    if args.all:
        run_all(spec, exe, args.seed, seconds)
        return
    lines, result = run_once(exe, args.workload, args.seed, seconds, args.trace)
    check_result(spec, result, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
