#!/usr/bin/env python3
"""Randomized certification of the per-step potential drift inequality.

Draws (load state, compliant allocation vector, parameters) instances at
random, certifies each against the tight additive drift bound, and writes
one CSV row per certificate.  Exits non-zero if any certificate fails.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from binlab.checks import CERT_CSV_HEADER
from binlab.core import LoadState
from binlab.potentials import certify_drift
from binlab.vectors import ConditionParams, ProbabilityVector, worst_case_vector

DELTAS = (0.25, 1 / 3, 0.5, 0.75)
DENOM = {0.25: 4, 1 / 3: 3, 0.5: 2, 0.75: 4}


def compliant_vector(rng: np.random.Generator, delta: float, eps: float,
                     n: int) -> ProbabilityVector:
    """Random vector meeting the prefix/suffix margins: cap a random
    vector's prefix sums at the extremal profile's."""
    if rng.integers(0, 4) == 0:
        return worst_case_vector(delta, eps, n)
    raw = rng.exponential(1.0, n) ** rng.choice((1, 3))
    r = worst_case_vector(delta, eps, n).array
    capped = np.maximum.accumulate(np.minimum(np.cumsum(raw / raw.sum()),
                                              np.cumsum(r)))
    return ProbabilityVector(probs=tuple(np.diff(np.concatenate(([0.0], capped)))))


def random_loads(rng: np.random.Generator, n: int) -> np.ndarray:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return np.bincount(rng.integers(0, n, int(rng.integers(1, 10)) * n),
                           minlength=n).astype(float)
    if kind == 1:
        return np.round(rng.exponential(rng.uniform(0.5, 20.0), n))
    if kind == 2:
        loads = np.zeros(n)
        loads[0] = rng.uniform(1.0, 50.0)
        return loads
    return rng.normal(0.0, rng.uniform(0.5, 30.0), n)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=os.environ.get("BINLAB_OUT", "."))
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    rows = [CERT_CSV_HEADER]
    failures = 0
    min_slack = math.inf
    for _ in range(args.count):
        delta = float(rng.choice(DELTAS))
        n = int(rng.choice(range(DENOM[delta] * 2, 257, DENOM[delta])))
        eps = float(rng.uniform(0.05, 0.9))
        gamma = float(10 ** rng.uniform(-3, 0))
        state = LoadState.from_loads(random_loads(rng, n))
        p = compliant_vector(rng, delta, eps, n)
        res = certify_drift(state, p,
                            ConditionParams(delta=delta, epsilon=eps), gamma)
        rows.append(res.csv_row())
        failures += not res.passed
        min_slack = min(min_slack, res.slack)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "drift_certificates.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"{args.count - failures}/{args.count} certificates passed "
          f"(min slack {min_slack:.4g}); rows in {path}")
    if failures:
        sys.exit(2)


if __name__ == "__main__":
    main()
