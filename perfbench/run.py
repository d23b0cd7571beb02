#!/usr/bin/env python3
"""End-to-end benchmark of the slam-kdv workspace.

Run from the repository root:

    python3 perfbench/run.py --workload render --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --trace-all [--seed 1] [--seconds 20]

The first form builds the benchmark (a package of its own in this
directory, built against the repository's crates), runs one workload and
prints, as the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The second runs every
workload traced and prints every per-layer metric with its unit.

Every run also takes part in the work-repeat check: the counts that must
repeat exactly for a seed (intervals swept, tiles hit and missed, bands
computed, patched and recomputed, the final generation) are stored under
`perfbench/out/repeat/`, keyed by a hash of the sources, the workload, the
seed and `--seconds`, and a later run of the same key whose counts differ
is marked incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
WORKLOADS = ["render", "pan", "live"]
# Bounds one run of the program; a run is sized to take about --seconds.
RUN_TIMEOUT_S = 170
# What the program is built from; a change to any of these is a new key
# for the work-repeat check.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path or None."""
    manifest = HERE / "Cargo.toml"
    if not (ROOT / "crates").is_dir():
        log(f"no crates/ directory next to {HERE.name}/: nothing to build against")
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log(f"build failed: {' '.join(cmd)}")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    binary = target / "release" / "kdv-perfbench"
    if not binary.is_file():
        log(f"build produced no {binary}")
        return None
    return binary


def source_hash():
    h = hashlib.sha256()
    for entry in SOURCES:
        path = ROOT / entry
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload, seed, seconds, counts):
    """Stores the first counts seen for this key; returns False if a
    stored set differs from `counts`."""
    store = WORKDIR / "repeat"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{source_hash()}-{workload}-{seed}-{seconds}.json"
    if path.exists():
        want = json.loads(path.read_text())
        if want != counts:
            diff = {k: (want.get(k), counts.get(k)) for k in set(want) | set(counts)
                    if want.get(k) != counts.get(k)}
            log(f"work-repeat: {workload} seed {seed} repeated different work "
                f"(earlier, now): {diff}")
            return False
        return True
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the result object or None."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--workdir", str(WORKDIR)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{workload}: exited with {done.returncode}")
        return None
    result = json.loads(lines[-1])
    counts = result.pop("repeat")
    if not check_repeat(workload, seed, seconds, counts):
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-all", action="store_true",
                    help="run every workload traced and print its per-layer metrics")
    args = ap.parse_args()
    if not args.trace_all and args.workload is None:
        ap.error("--workload is required (or --trace-all)")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        sys.exit(1)
    if not args.trace_all:
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace == 1)
        if result is None:
            sys.exit(1)
        print(json.dumps(result))
        return

    ok = True
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args.seed, args.seconds, True)
        if result is None:
            sys.exit(1)
        ok &= result["correct"]
        print(f"== {workload} (seed {args.seed}, {args.seconds} s): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"{workload:7} {name:24} {m['value']:>16.6g} {m['unit']}")
        print(f"spans: {WORKDIR / f'spans-{workload}-{args.seed}.jsonl'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
