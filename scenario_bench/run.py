#!/usr/bin/env python3
"""Run one AN2 scenario-benchmark workload and print its metrics.

    python3 scenario_bench/run.py --workload fattree_be --seed 1 --seconds 50 --trace 0

Run from the repository root. Builds the Rust package next to this file
(release, offline; target directory from CARGO_TARGET_DIR, else
.bench_build), then runs its binary once per repetition, each in a fresh
process, until --seconds have passed. With --trace 0 the last stdout line
holds the end-to-end metrics (over all the repetitions); with --trace 1
untraced and traced repetitions alternate and it holds the per-layer
metrics (medians over the traced ones) plus the tracing overhead, and the
last traced repetition's spans are written to <target>/spans/ as a Chrome
trace. The line before the result is the run record: provenance and
min/quartiles/median/mean/max of every metric. The record is also appended to
scenario_bench/records.jsonl.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BINARY = "an2-scenario-bench"
MIN_REPS = 3
# Repetitions must end this many seconds after the build.
DEADLINE_S = 160

# End-to-end metrics: name -> (unit, value from one repetition's record).
END_TO_END = {
    "setup_s": ("s", lambda r: r["setup_s"]),
    "cells_per_s": ("1/s", lambda r: r["cells_delivered"] / r["run_s"]),
    "total_s": ("s", lambda r: r["total_s"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
    "delivered_frac": ("ratio", lambda r: r["packets_ok"] / r["packets"]),
    "cell_latency_p50_slots": ("slots", lambda r: r["latency_p50_slots"]),
    "cell_latency_p999_slots": ("slots", lambda r: r["latency_p999_slots"]),
}

# How the untraced repetitions of a run give the reported host times; every
# other end-to-end metric is their median. On a shared host the machine's
# speed switches between a fast and a slow state that each last tens of
# seconds. A median over a run then jumps between the two states, while a
# rate over the whole run and a mean follow the share of the run spent in
# each. `setup_s` stays a median: it is milliseconds on the SRC workloads,
# where one scheduler stall would move a mean.
RUN_VALUE = {
    "cells_per_s": lambda reps: (sum(r["cells_delivered"] for r in reps)
                                 / sum(r["run_s"] for r in reps)),
    "total_s": lambda reps: statistics.fmean(r["total_s"] for r in reps),
}

# Per-layer metrics of the sharded stepping layer: reported name -> name in
# the 2-shard repetition of a traced run.
SHARD_LAYERS = {"shard2.work_imbalance": "shard.work_imbalance",
                "shard2.network_build_ms": "network.build_ms",
                "shard2.step_s": "step.s", "shard2.step_ms_p99": "step.ms_p99"}

# Quantities of the simulated run that must repeat exactly for one seed.
MODEL_KEYS = ("digest", "attempted", "failed", "packets_ok", "cells_delivered",
              "latency_samples", "latency_p50_slots", "latency_p999_slots", "reconverge_ms")


def summary(values):
    """min, quartiles, median, mean and max of a list of numbers."""
    v = sorted(values)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return {"n": len(v), "min": v[0], "q1": q[0], "median": statistics.median(v),
            "q3": q[2], "max": v[-1], "mean": statistics.fmean(v)}


def build(target):
    """Builds the benchmark; returns the binary path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / BINARY
    return binary if done.returncode == 0 and binary.exists() else None


def rep(binary, args, deadline):
    """One repetition in a fresh process; returns its parsed record."""
    timeout = max(5.0, deadline - time.monotonic())
    try:
        done = subprocess.run([str(binary), *args], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"repetition timed out after {timeout:.0f} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"errors": [f"exit code {done.returncode}"]}
    return json.loads(lines[-1])


def provenance(root):
    """Commit, source fingerprint, cores and toolchain."""
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except OSError:
            return None
    h = hashlib.sha256()
    for top in ("crates", "compat"):
        for p in sorted((root / top).rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml"):
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    for name in ("Cargo.toml", "Cargo.lock"):
        p = root / name
        if p.exists():
            h.update(p.read_bytes())
    return {
        "commit": out(["git", "rev-parse", "HEAD"]) or os.environ.get("BENCH_COMMIT", "unknown"),
        "source_sha256": h.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "-V"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(target)
    if binary is None:
        print("benchmark build failed; run from the repository root", file=sys.stderr)
        return 2

    base = ["--workload", a.workload, "--seed", str(a.seed)]
    spans_file = target / "spans" / f"{a.workload}-{a.seed}.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    errors = []
    expect = None
    plain, traced = [], []
    while not errors:
        want_traced = a.trace == 1 and len(traced) < len(plain)
        args = base + ["--trace", "1" if want_traced else "0"]
        if want_traced:
            args += ["--spans", str(spans_file)]
        if expect:
            args += ["--expect-digest", expect]
        r = rep(binary, args, deadline)
        errors += r.get("errors", [])
        if errors:
            break
        expect = expect or r["digest"]
        (traced if want_traced else plain).append(r)
        enough = len(plain) >= MIN_REPS and (a.trace == 0 or len(traced) >= MIN_REPS)
        if enough and time.monotonic() - start >= a.seconds:
            break

    two = None
    if a.trace == 1 and not errors:
        # Sharded stepping: one traced repetition on 2 shards, which must
        # reproduce the 1-shard digest of the same inputs and seed.
        two = rep(binary, base + ["--trace", "1", "--shards", "2", "--expect-digest", expect],
                  deadline)
        errors += [f"2-shard repetition: {e}" for e in two.get("errors", [])]

    reps = plain + traced
    checked = reps + [two] if two and not errors else reps
    for r in checked[1:]:
        for k in MODEL_KEYS:
            if r[k] != reps[0][k]:
                errors.append(f"{k} differs between repetitions of one seed")
    for r in checked:
        if not r["traced"]:
            continue
        layers = r["layers"]
        self_ms = sum(v["value"] for k, v in layers.items() if k.startswith("self."))
        if abs(self_ms - r["total_s"] * 1e3) > 0.01:
            errors.append(f"self times sum to {self_ms} ms, not total {r['total_s'] * 1e3} ms")

    stats = {}
    metrics = {}
    if reps and not errors:
        for name, (unit, f) in END_TO_END.items():
            stats[name] = dict(summary([f(r) for r in plain]), unit=unit)
        if a.trace == 0:
            metrics = {n: {"value": RUN_VALUE[n](plain) if n in RUN_VALUE
                           else stats[n]["median"], "unit": stats[n]["unit"]}
                       for n in END_TO_END}
        else:
            for name, first in traced[0]["layers"].items():
                s = summary([r["layers"][name]["value"] for r in traced])
                stats[name] = dict(s, unit=first["unit"])
                metrics[name] = {"value": s["median"], "unit": first["unit"]}
            t_total = statistics.median(r["total_s"] for r in traced)
            overhead = t_total / stats["total_s"]["median"]
            metrics["trace.total_s"] = {"value": t_total, "unit": "s"}
            metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
            # The sharded-step layer, from the 2-shard repetition.
            del metrics["shard.work_imbalance"]
            for name, layer in SHARD_LAYERS.items():
                metrics[name] = two["layers"][layer]
            for name in ("setup_s", "cells_per_s", "total_s"):
                unit, f = END_TO_END[name]
                metrics["shard2." + name] = {"value": f(two), "unit": unit}

    record = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace, "seconds": a.seconds,
        "repetitions": {"untraced": len(plain), "traced": len(traced),
                        "traced_2shard": int(two is not None)},
        **provenance(root),
        "digest": reps[0]["digest"] if reps else None,
        "delivered_base_packets": reps[0]["packets"] if reps else None,
        "cells_expected": reps[0]["cells_expected"] if reps else None,
        "cell_latency_samples": reps[0]["latency_samples"] if reps else None,
        "reconverge_ms": reps[0]["reconverge_ms"] if reps else None,
        "spans_trace": str(spans_file) if traced else None,
        "errors": errors[:20],
        "metrics": stats,
    }
    line = json.dumps(record, sort_keys=True)
    print(line)
    with open(BENCH_DIR / "records.jsonl", "a", encoding="utf-8") as f:
        f.write(line + "\n")
    # The operations of one scenario: every repetition of a seed repeats
    # them exactly (checked above), so the counts do not depend on how
    # many repetitions fitted into --seconds.
    print(json.dumps({
        "correct": not errors and bool(reps),
        "attempted": max(1, reps[0]["attempted"] if reps else 0),
        "failed": reps[0]["failed"] if reps else 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
