#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds the benchmark package (perfbench/Cargo.toml, a
workspace of its own that depends on the repository's crates by path)
in release mode, then runs one measurement. Its last line of standard
output is the benchmark's JSON result. Build output goes to standard
error. The build directory is $CARGO_TARGET_DIR, or .bench_build when
that is unset.

The second form runs the benchmark's own checks: its unit tests (the
percentile helper, count-matched freshness on a scripted emission order,
and a corrupted store segment failing the correctness gate), then the
detection check. That check slows one stage, `Collector::pump_at`, by a
fixed busy-wait per call. The slowdown must move `samples_per_s` on
`ingest_wire`, where the collector is on every sample's path, by more
than the metric's bound, and leave `ingest_filter`, whose wire is nearly
idle, within it.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "pla-perfbench"

# Detection check: busy-wait per collector pump, seeds, and run length.
DETECT_DELAY_US = 300
DETECT_SEEDS = (101, 102, 103, 104, 105)
DETECT_SECONDS = 6


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def build():
    if cargo("build", "--quiet") != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", BINARY)


def run(binary, args):
    """Runs the benchmark binary; returns its parsed JSON result."""
    out = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"perfbench: {' '.join(args)} exited with {out.returncode}")
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def samples_per_s(binary, workload, seed, delay_us):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(DETECT_SECONDS),
            "--trace", "0", "--collector-delay-us", str(delay_us)]
    _, result = run(binary, args)
    if not result["correct"]:
        sys.exit(f"perfbench: {workload} seed {seed} failed its correctness gate")
    return result["metrics"]["samples_per_s"]["value"]


def selftest():
    if cargo("test", "--quiet") != 0:
        sys.exit("perfbench: unit tests failed")
    binary = build()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "samples_per_s")
    ok = True
    for workload, must_move in (("ingest_wire", True), ("ingest_filter", False)):
        base, slow = [], []
        # Pair a plain and a slowed run per seed, back to back, and take
        # the median of the pairs' ratios, so the host's drift between
        # pairs cancels.
        for seed in DETECT_SEEDS:
            base.append(samples_per_s(binary, workload, seed, 0))
            slow.append(samples_per_s(binary, workload, seed, DETECT_DELAY_US))
        change = statistics.median(s / b for s, b in zip(slow, base)) - 1.0
        moved = -change > bound
        verdict = "ok" if moved == must_move else "FAILED"
        ok &= moved == must_move
        print(f"{workload}: samples_per_s {statistics.median(base):.0f} -> "
              f"{statistics.median(slow):.0f} (median change per seed {change:+.1%}) with a "
              f"{DETECT_DELAY_US} us collector delay; must "
              f"{'exceed' if must_move else 'stay within'} the {bound:.0%} bound: {verdict}")
        print(f"  plain {[round(v) for v in base]}, slowed {[round(v) for v in slow]}")
    sys.exit(0 if ok else 1)


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
    binary = build()
    stdout, _ = run(binary, sys.argv[1:])
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
