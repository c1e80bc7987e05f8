"""Load vectors with an incrementally maintained rank order.

A ``LoadState`` tracks the load of each of ``n`` bins together with the
ranking of bins from heaviest to lightest.  Equal loads are ranked by
ascending bin id, which keeps the order total and reproducible; processes
that want a different tie sensitivity randomize at the sampling layer
instead (see ``processes.ProcessSpec.tie_rule``).

Loads are stored as floats by default.  ``exact=True`` switches to Python
integers for unit-weight runs where exact conservation matters.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np


class LoadState:
    """Per-bin loads plus the heaviest-to-lightest bin order.

    Attributes
    ----------
    n             : number of bins
    loads         : per-bin load, indexed by bin id (0-based)
    total_weight  : sum of all loads
    step          : number of allocations applied so far
    sorted_index  : bin ids in non-increasing load order (rank 0 = heaviest);
                    equal loads appear in ascending bin-id order
    rank_of       : inverse of sorted_index
    """

    __slots__ = ("n", "loads", "total_weight", "step", "sorted_index",
                 "rank_of", "_neg_loads", "exact")

    def __init__(self, n: int, *, exact: bool = False):
        if n < 1:
            raise ValueError(f"need at least one bin, got n={n}")
        self.n = n
        self.exact = exact
        zero = 0 if exact else 0.0
        self.loads = [zero] * n
        self.total_weight = zero
        self.step = 0
        self.sorted_index = list(range(n))
        self.rank_of = list(range(n))
        # parallel to sorted_index: negated loads, non-decreasing, for bisect
        self._neg_loads = [-zero] * n

    @classmethod
    def from_loads(cls, loads: Iterable[float], *, exact: bool = False) -> "LoadState":
        """Build a state with prescribed initial loads (step stays 0)."""
        if exact:
            vals = [int(v) for v in loads]
        else:
            vals = [float(v) for v in loads]
        st = cls(len(vals), exact=exact)
        st.loads = vals
        st.total_weight = sum(vals)
        neg = [-v for v in vals]
        order = sorted(range(st.n), key=neg.__getitem__)  # stable: ties by id
        st.sorted_index = order
        st.rank_of = [0] * st.n
        for r, b in enumerate(order):
            st.rank_of[b] = r
        st._neg_loads = [neg[b] for b in order]
        return st

    def copy(self) -> "LoadState":
        st = LoadState.__new__(LoadState)
        st.n = self.n
        st.exact = self.exact
        st.loads = list(self.loads)
        st.total_weight = self.total_weight
        st.step = self.step
        st.sorted_index = list(self.sorted_index)
        st.rank_of = list(self.rank_of)
        st._neg_loads = list(self._neg_loads)
        return st

    def apply_allocation(self, bin_id: int, weight: float) -> None:
        """Add ``weight`` to one bin and restore the rank order.

        The allocated bin is rotated left to its new position; cost is
        proportional to the distance moved (zero for most allocations into
        already-heavy bins).
        """
        if not 0 <= bin_id < self.n:
            raise ValueError(f"bin {bin_id} out of range for n={self.n}")
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        if self.exact:
            if weight != int(weight):
                raise ValueError(f"exact mode requires integer weights, got {weight}")
            weight = int(weight)
        b = bin_id
        loads = self.loads
        new = loads[b] + weight
        loads[b] = new
        self.total_weight += weight
        self.step += 1
        if weight == 0:
            return
        r = self.rank_of[b]
        si = self.sorted_index
        nl = self._neg_loads
        # destination: first rank whose (load, id) key sorts after (new, b)
        lo = bisect_left(nl, -new, 0, r)
        hi = bisect_right(nl, -new, 0, r)
        # within [lo, hi) loads equal `new` and ids ascend, so bisect by id
        j = bisect_left(si, b, lo, hi)
        if j < r:
            si[j + 1:r + 1] = si[j:r]
            nl[j + 1:r + 1] = nl[j:r]
            si[j] = b
            rank_of = self.rank_of
            for k in range(j + 1, r + 1):
                rank_of[si[k]] = k
            rank_of[b] = j
        nl[j] = -new

    # -- read-only views ---------------------------------------------------

    def mean_load(self) -> float:
        return self.total_weight / self.n

    def normalized(self) -> np.ndarray:
        """Per-bin loads minus the average load, indexed by bin id."""
        return np.asarray(self.loads, dtype=float) - self.total_weight / self.n

    def sorted_normalized(self) -> np.ndarray:
        """Normalized loads in rank order (non-increasing)."""
        avg = self.total_weight / self.n
        return np.array([self.loads[b] for b in self.sorted_index], dtype=float) - avg

    def gap(self) -> float:
        """Maximum load above average; zero for a flat state.

        The heaviest bin is never below the average, but a float total can
        round to just above the largest load, so the result is clamped at 0.
        """
        g = self.loads[self.sorted_index[0]] - self.total_weight / self.n
        return g if g >= 0 else 0.0

    def max_abs_normalized(self) -> float:
        avg = self.total_weight / self.n
        hi = self.loads[self.sorted_index[0]] - avg
        lo = avg - self.loads[self.sorted_index[-1]]
        return hi if hi >= lo else lo


def new_state(n: int, *, exact: bool = False) -> LoadState:
    """Fresh all-zero state on ``n`` bins."""
    return LoadState(n, exact=exact)


def resorted(state: LoadState) -> tuple[list[int], list[int]]:
    """Recompute (sorted_index, rank_of) from scratch; the oracle for the
    incremental maintenance."""
    loads = state.loads
    order = sorted(range(state.n), key=lambda b: (-loads[b], b))
    rank = [0] * state.n
    for r, b in enumerate(order):
        rank[b] = r
    return order, rank


def tie_blocks(state: LoadState) -> list[tuple[int, int]]:
    """Half-open rank ranges [a, b) of equal-load runs, in rank order."""
    si = state.sorted_index
    loads = state.loads
    blocks = []
    a = 0
    for r in range(1, state.n):
        if loads[si[r]] != loads[si[a]]:
            blocks.append((a, r))
            a = r
    blocks.append((a, state.n))
    return blocks


def check_sorted_invariant(state: LoadState) -> None:
    """Raise AssertionError if the incremental order disagrees with a full
    re-sort or the inverse mapping is broken (test helper)."""
    order, rank = resorted(state)
    assert state.sorted_index == order, "sorted_index diverged from re-sort"
    assert state.rank_of == rank, "rank_of diverged from re-sort"
    assert state._neg_loads == [-state.loads[b] for b in order], "neg_loads cache diverged"
