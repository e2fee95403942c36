#!/usr/bin/env python3
"""Regenerate (or incrementally update) BENCH_BASELINE.json.

The vendored criterion harness (see vendor/README.md) prints one line per
benchmark to stderr:

    <group>/<id>            <ns_per_iter> ns/iter   [<rate> elem/s|B/s]

This script runs bench targets, parses those lines, and writes the
numbers plus machine metadata to BENCH_BASELINE.json at the repo root.
Later perf PRs diff their runs against this file to claim wins.

Usage:
    python3 scripts/bench_baseline.py [output.json] [--quick]
        Full recapture: run every bench target, rewrite the file.
        --quick sets PLA_BENCH_QUICK=1 (short windows); the flag is
        stamped into the capture metadata so bench_compare.py can warn
        when comparing across window lengths.
    python3 scripts/bench_baseline.py --merge --bench NAME [--bench NAME2]
        Run only the named bench target(s) and merge their cells into
        the existing file (machine metadata untouched) — how a PR that
        adds one bench checks in its baseline cells without re-timing
        the whole suite on a possibly different machine.

Besides the numbers, the file records capture metadata: cpu count,
platform, rustc, the CPU's SIMD feature set (a fingerprint of the CPU
class), and whether quick mode was used. bench_compare.py refuses to
gate against a baseline whose machine metadata does not match the
current host.
"""

import json
import os
import re
import subprocess
import sys

LINE = re.compile(
    r"^(?P<name>\S.*?)\s+(?P<ns>[\d.]+) ns/iter(?:\s+(?P<rate>[\d.]+) (?P<unit>elem/s|B/s))?\s*$"
)

# The feature flags that fingerprint the CPU class a baseline was
# captured on. Anything else in /proc/cpuinfo is noise for our purposes.
SIMD_FEATURES = ("sse2", "avx", "avx2", "avx512f", "fma")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_features():
    """The host's SIMD-relevant feature flags, sorted (empty off-Linux)."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    return sorted(name for name in SIMD_FEATURES if name in flags)
    except OSError:
        pass
    return []


def run_benches(repo, bench_names, quick):
    cmd = ["cargo", "bench"]
    for name in bench_names:
        cmd += ["--bench", name]
    env = dict(os.environ)
    if quick:
        env["PLA_BENCH_QUICK"] = "1"
    proc = subprocess.run(
        cmd,
        cwd=repo,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
        env=env,
    )
    benchmarks = {}
    for line in proc.stderr.splitlines():
        m = LINE.match(line.strip())
        if not m or m.group("name").startswith("group "):
            continue
        entry = {"ns_per_iter": float(m.group("ns"))}
        if m.group("rate"):
            key = "elements_per_sec" if m.group("unit") == "elem/s" else "bytes_per_sec"
            entry[key] = float(m.group("rate"))
        benchmarks[m.group("name")] = entry
    if not benchmarks:
        sys.exit("no benchmark lines parsed from cargo bench output")
    return benchmarks


def main():
    args = sys.argv[1:]
    merge = False
    quick = False
    bench_names = []
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--merge":
            merge = True
        elif args[i] == "--quick":
            quick = True
        elif args[i] == "--bench":
            i += 1
            if i >= len(args):
                sys.exit("--bench needs a target name")
            bench_names.append(args[i])
        else:
            positional.append(args[i])
        i += 1
    out_path = positional[0] if positional else "BENCH_BASELINE.json"
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    full_out = os.path.join(repo, out_path)
    if merge and not os.path.exists(full_out):
        sys.exit(
            f"--merge: {out_path} does not exist; run a full capture first "
            "(bench results would have been discarded after the run)"
        )

    benchmarks = run_benches(repo, bench_names, quick)

    if merge:
        with open(full_out) as f:
            baseline = json.load(f)
        baseline["benchmarks"].update(benchmarks)
    else:
        toolchain = subprocess.run(
            ["rustc", "--version"], stdout=subprocess.PIPE, text=True, check=True
        ).stdout.strip()
        baseline = {
            "_comment": (
                "Wall-clock numbers from the vendored criterion stand-in "
                "(vendor/README.md): means, no statistics. Compare against runs "
                "on the same machine only; regenerate with "
                "scripts/bench_baseline.py."
            ),
            "machine": {
                "cpus": cpu_count(),
                "cpu_features": cpu_features(),
                "platform": sys.platform,
                "rustc": toolchain,
            },
            "capture": {"quick": quick},
            "benchmarks": benchmarks,
        }
    with open(full_out, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    verb = "merged into" if merge else "wrote"
    print(f"{verb} {out_path}: {len(benchmarks)} benchmarks")


if __name__ == "__main__":
    main()
