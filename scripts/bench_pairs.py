#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a before/after claim.

Runs ``perfbench/run.py --workload W --seed S --trace 0`` in PARENT_DIR and
in CHANGE_DIR, one after the other, for N pairs on seeds S, S+1, ...; the
checkout that goes first alternates from pair to pair, so slow drift of
the host loads both sides alike.  Every run takes the benchmark's own
length (``run_seconds`` of ``BENCHMARK.json``).  Then it prints, for each
end-to-end metric (``end_to_end`` in ``BENCHMARK.json``), each side's
median and interquartile range, the ratio of the medians (change /
parent), and in how many pairs the change was better, in the metric's
direction; a tie counts for neither side.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload certify \\
        --pairs 10 --seed-base 101

Each checkout needs its own ``perfbench/`` and ``BENCHMARK.json``; the
metric directions are read from CHANGE_DIR's.  A run that exits non-zero
stops the script with its output.  A pair of certify runs takes about
70 s, of conductance about 90 s.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics one perfbench run in ``checkout`` prints."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    res = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{checkout}: perfbench exited {res.returncode}\n{res.stdout}{res.stderr}")
    last = json.loads(res.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def quartile_spread(values: list[float]) -> float:
    """Upper minus lower quartile (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): "
              + ", ".join(f"{name} {runs['parent'][-1][name]:.4g} -> "
                          f"{runs['change'][-1][name]:.4g}" for name in better),
              flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.seed_base}-"
          f"{args.seed_base + args.pairs - 1}")
    print(f"{'metric':<16}{'parent':>12}{'IQR':>10}{'change':>12}{'IQR':>10}{'ratio':>9}"
          f"{'wins':>8}")
    for name, direction in better.items():
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        ratio = m_new / m_old if m_old else float("nan")
        print(f"{name:<16}{m_old:>12.4g}{quartile_spread(old):>10.3g}{m_new:>12.4g}"
              f"{quartile_spread(new):>10.3g}{ratio:>9.3f}{wins:>5}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
