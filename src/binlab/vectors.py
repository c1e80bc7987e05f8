"""Rank-indexed probability vectors and the bias conditions on them.

An allocation process is summarized by the probability ``p[i]`` that one
ball lands in the bin of rank ``i`` (rank 0 = heaviest).  The conditions
checked here bound how much probability such a vector may put on heavy
ranks:

* D0 — entries are non-decreasing in rank (lighter bins never less likely).
* D1 — the entry at the quantile position is at most ``(1 - eps)/n``.
* C1 — every prefix up to the quantile carries at most a ``(1 - eps)``
  fraction of the uniform mass, and every suffix past it at least a
  matching excess ``(1 + eps*delta/(1-delta))`` fraction.
* C2 — no entry exceeds ``c_cap / n``.

All checks run on plain Python arithmetic so they accept floats or
``fractions.Fraction`` entries alike; pass ``tol=0`` with Fractions for
exact verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import LoadState, tie_blocks

SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbabilityVector:
    """Immutable probability vector over ranks; validates on construction.

    ``array`` holds the entries as one read-only float64 array, built once,
    for the numpy consumers."""

    probs: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.probs) < 1:
            raise ValueError("empty probability vector")
        total = 0.0
        for v in self.probs:
            if not (-SUM_TOL <= v <= 1 + SUM_TOL):
                raise ValueError(f"entry {v} outside [0, 1]")
            total += v
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"entries sum to {total}, not 1")
        arr = np.array(self.probs, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def n(self) -> int:
        return len(self.probs)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        return cls(probs=(1.0 / n,) * n)


@dataclass(frozen=True)
class ConditionParams:
    """Quantile/bias parameters (delta, eps) plus optional max-entry cap."""

    delta: float
    epsilon: float
    c_cap: float | None = None

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.c_cap is not None and self.c_cap <= 0:
            raise ValueError(f"c_cap must be positive, got {self.c_cap}")

    def eps_tilde(self):
        """Suffix excess implied by (delta, epsilon)."""
        return self.epsilon * self.delta / (1 - self.delta)


def quantile_index(delta, n: int) -> int:
    """Number of ranks in the capped prefix; requires delta*n integral.

    Accepts floats (snapped within 1e-9) or exact rationals.
    """
    t = delta * n
    if isinstance(t, Fraction):
        if t.denominator != 1:
            raise ValueError(f"delta*n = {t} is not an integer")
        ti = int(t)
    else:
        ti = round(t)
        if abs(t - ti) > 1e-9:
            raise ValueError(f"delta*n = {t} is not within 1e-9 of an integer")
    if not 1 <= ti <= n - 1:
        raise ValueError(f"quantile index {ti} out of range for n={n}")
    return ti


def _entries(p) -> Sequence:
    return p.probs if isinstance(p, ProbabilityVector) else p


def check_d0(p) -> bool:
    """Entries non-decreasing in rank."""
    q = _entries(p)
    return all(q[i] <= q[i + 1] for i in range(len(q) - 1))


def check_d1(p, delta, epsilon, tol=SUM_TOL) -> bool:
    """Entry at the quantile rank at most (1 - eps)/n."""
    q = _entries(p)
    n = len(q)
    t = quantile_index(delta, n)
    return q[t - 1] <= (1 - epsilon) / n + tol


def check_c1(p, delta, epsilon, tol=SUM_TOL) -> bool:
    """Prefix caps up to the quantile and suffix excess past it."""
    q = _entries(p)
    n = len(q)
    t = quantile_index(delta, n)
    eps_tilde = epsilon * delta / (1 - delta)
    prefix = q[0] * 0  # zero of the element type
    for k in range(1, t + 1):
        prefix = prefix + q[k - 1]
        if prefix > (1 - epsilon) * k / n + tol:
            return False
    suffix = q[0] * 0
    for k in range(n, t, -1):  # k = n ... t+1; suffix = sum of q[k-1:]
        suffix = suffix + q[k - 1]
        if suffix < (1 + eps_tilde) * (n - k + 1) / n - tol:
            return False
    return True


def check_c2(p, c_cap, tol=SUM_TOL) -> bool:
    """Max entry at most c_cap/n."""
    q = _entries(p)
    n = len(q)
    return max(q) <= c_cap / n + tol


def check_conditions(p, params: ConditionParams, tol=SUM_TOL) -> dict[str, bool]:
    """Run all applicable checks; key 'C2' present only when c_cap is set."""
    out = {
        "D0": check_d0(p),
        "D1": check_d1(p, params.delta, params.epsilon, tol),
        "C1": check_c1(p, params.delta, params.epsilon, tol),
    }
    if params.c_cap is not None:
        out["C2"] = check_c2(p, params.c_cap, tol)
    return out


def majorizes(p, q, tol=SUM_TOL) -> bool:
    """True if every prefix sum of p weakly dominates that of q.

    Both vectors must already be in non-increasing *bias* order convention
    used throughout (rank-indexed); lengths must match.
    """
    a, b = _entries(p), _entries(q)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    pa = a[0] * 0
    pb = pa
    for x, y in zip(a, b):
        pa = pa + x
        pb = pb + y
        if pa < pb - tol:
            return False
    return True


def worst_case_vector(delta: float, epsilon: float, n: int) -> ProbabilityVector:
    """The extreme vector satisfying C1 with equality on both sides.

    Puts ``(1-eps)/n`` on each rank up to the quantile and the matching
    excess ``(1 + eps*delta/(1-delta))/n`` on every rank past it; it
    majorizes every vector satisfying C1(delta, eps).
    """
    t = quantile_index(delta, n)
    lo = (1 - epsilon) / n
    hi = (1 + epsilon * delta / (1 - delta)) / n
    return ProbabilityVector(probs=(lo,) * t + (hi,) * (n - t))


def max_entry_cap(delta, epsilon):
    """Smallest C such that the worst-case vector satisfies C2(C)."""
    return 1 + delta * epsilon / (1 - delta)


def average_ties(p: ProbabilityVector, state: LoadState) -> ProbabilityVector:
    """Replace p's entries by their mean over each equal-load rank block.

    Averaging within tie blocks never increases the maximum entry and keeps
    every block-aligned prefix sum unchanged, so it can only help the bias
    conditions.
    """
    if p.n != state.n:
        raise ValueError(f"vector has {p.n} entries but state has {state.n} bins")
    out = list(p.probs)
    for a, b in tie_blocks(state):
        block = p.probs[a:b]
        mean = sum(block) / (b - a)
        out[a:b] = [mean] * (b - a)
    return ProbabilityVector(probs=tuple(out))
