#!/usr/bin/env python3
"""Evidence on the two acceptance checks that stay red (08 and 09).

Reruns each check's protocol, with its seeds, at the sizes where it fails
and beyond, and prints the results as markdown tables:

08 batched-scaling   two-choice batched rounds, b in {1, 2, 4, 8}n, m = 50b:
                     median final gaps and gap(8n)/gap(n) at n = 1024 (30
                     reps, the check's own size) and n = 4096, 16384 (10
                     reps), beside the ratio that the Los-Sauerwald batched
                     gap Theta(log n / log((4n/b) log n)) predicts with its
                     constants dropped.  The check needs a ratio >= 3.
09 conductance       graphical allocation at n = 1024 on a cycle and on a
                     random 4-regular graph (graph seed 1), m in {10, 100,
                     1000} n ln n, exp1 and unit weights: median final gaps
                     and their ratio (30 reps, 10 at 1000 n ln n).  The check
                     runs exp1 at 10 n ln n and needs a ratio > 3.

Neither check's threshold is changed by this script; it only measures.
Takes about 25 s on a 2-CPU host.

    PYTHONPATH=src python3 scripts/standing_failures.py
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

from binlab.experiments import final_gaps, run_seed
from binlab.graphs import build_graph
from binlab.processes import parse_process, run_batched
from binlab.weights import parse_weights

BATCH_FACTORS = (1, 2, 4, 8)


def batched_ratio_prediction(n: int) -> float:
    """gap(8n)/gap(n) of Theta(log n / log((4n/b) log n)), constants dropped."""
    def gap(b: int) -> float:
        return math.log(n) / math.log(4 * n / b * math.log(n))
    return gap(8 * n) / gap(n)


def acceptance_08() -> None:
    print("### Acceptance 08: two-choice batched rounds, m = 50b\n")
    print("| n | reps | " + " | ".join(f"b={k}n" for k in BATCH_FACTORS)
          + " | gap(8n)/gap(n) | predicted |")
    print("|---" * (len(BATCH_FACTORS) + 4) + "|")
    spec = parse_process("two-choice")
    for n, reps in ((1 << 10, 30), (1 << 12, 10), (1 << 14, 10)):
        med = {}
        for k in BATCH_FACTORS:
            b = k * n
            med[k] = statistics.median(
                run_batched(spec, n, 50 * b, b, run_seed(0xACC8, k, rep))[-1].gap
                for rep in range(reps))
        cells = " | ".join(f"{med[k]:.1f}" for k in BATCH_FACTORS)
        print(f"| {n} | {reps} | {cells} | {med[8] / med[1]:.2f} "
              f"| {batched_ratio_prediction(n):.2f} |")
    print("\nThe check needs gap(8n)/gap(n) >= 3 at n = 1024.\n")


def acceptance_09() -> None:
    print("### Acceptance 09: cycle against random 4-regular, n = 1024\n")
    print("| weights | m | reps | cycle | random 4-regular | ratio |")
    print("|---|---|---|---|---|---|")
    n = 1 << 10
    graphs = (build_graph("cycle", n, seed=1),
              build_graph("random-regular", n, d=4, seed=1))
    for wtext in ("exp1", "unit"):
        w = parse_weights(wtext)
        for scale, reps in ((10, 30), (100, 30), (1000, 10)):
            m = int(scale * n * math.log(n))
            cycle, expander = (
                statistics.median(final_gaps(
                    parse_process("graphical", weights=w, graph=g), n, m, reps, 0xACC9))
                for g in graphs)
            print(f"| {wtext} | {scale}·n ln n | {reps} | {cycle:.1f} "
                  f"| {expander:.1f} | {cycle / expander:.2f} |")
    print("\nThe check runs exp1 at 10·n ln n with 30 reps and needs a ratio > 3.\n")


def main(argv=None) -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args(argv)
    for part in (acceptance_08, acceptance_09):
        t0 = time.perf_counter()
        part()
        print(f"({time.perf_counter() - t0:.0f} s)\n")


if __name__ == "__main__":
    main()
