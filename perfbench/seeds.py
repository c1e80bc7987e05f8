#!/usr/bin/env python3
"""Run the benchmark over several workload seeds and summarise it.

Usage:
    python3 perfbench/seeds.py [--seeds 1-10] [--trace-seed N] [--out summary.json]

For every workload and seed it runs ``perfbench/run.py`` once (run_seconds
from BENCHMARK.json), then prints each end-to-end metric's median and
quartile spread, (q3 - q1) / median, next to the metric's bound.  A spread
above a third of the bound is marked "wide"; above the bound, "over".
``--trace-seed`` adds one traced run per workload for the per-layer table.
``--out`` writes the summary, including the host
block and every run's output hashes, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}\n"
                           f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    details = json.loads(
        (ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), details


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in [wl["name"] for wl in spec["workloads"]]:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        hashes, failed = {}, 0
        for seed in seeds:
            last, details = run_once(w, seed, 0)
            failed += last["failed"]
            for m in bounds:
                values[m].append(last["metrics"][m]["value"])
            hashes[seed] = {inv["key"]: inv["hashes"]
                            for inv in details["passes"][0]["invocations"]}
            summary["host"] = details["host"] | {"workload_seed": None}
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds), flush=True)
        entry = {"failed": failed, "end_to_end": {}, "hashes": hashes}
        for m, meta in bounds.items():
            s = entry["end_to_end"][m] = spread(values[m])
            flag = "over" if s["spread"] > meta["bound"] else (
                "wide" if s["spread"] > meta["bound"] / 3 else "ok")
            print(f"  {w:14s} {m:12s} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f} (bound {meta['bound']}) {flag}", flush=True)
        if args.trace_seed is not None:
            last, _ = run_once(w, args.trace_seed, 1)
            failed += last["failed"]
            entry["per_layer"] = {k: v["value"] for k, v in last["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
        entry["failed"] = failed
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
