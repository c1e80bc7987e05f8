"""Load vectors, ranked heaviest first on read.

A ``LoadState`` holds the load of each of ``n`` bins as a float64 array,
the same representation the compiled kernel and the sweep probes use.
The ranking of bins from heaviest to lightest is not maintained per ball:
``sorted_index`` and ``rank_of`` come from one stable sort of the negated
loads, cached until the next ``apply_allocation``, and ``rank(b)`` reads a
single bin's rank by an O(n) count without sorting.  Equal loads are
ranked by ascending bin id, which keeps the order total and reproducible;
processes that want a different tie sensitivity randomize at the sampling
layer instead (see ``processes.ProcessSpec.tie_rule``).
"""
from __future__ import annotations

import numpy as np


class LoadState:
    """Per-bin loads plus the heaviest-to-lightest bin order.

    Attributes
    ----------
    n             : number of bins
    loads         : per-bin load, indexed by bin id (0-based); a read-only
                    float64 view that ``apply_allocation`` updates
    total_weight  : sum of all loads, a Python float summed left to right
    step          : number of allocations applied so far
    sorted_index  : bin ids in non-increasing load order (rank 0 = heaviest);
                    equal loads appear in ascending bin-id order
    rank_of       : inverse of sorted_index
    """

    __slots__ = ("n", "loads", "_loads", "total_weight", "step", "_ranked")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one bin, got n={n}")
        self.n = n
        self._loads = np.zeros(n)
        self.loads = self._loads.view()
        self.loads.flags.writeable = False
        self.total_weight = 0.0
        self.step = 0
        self._ranked = None

    @classmethod
    def from_loads(cls, loads) -> "LoadState":
        """Build a state with prescribed initial loads (copied; step stays 0)."""
        vals = np.array(loads, dtype=float)
        st = cls(len(vals))
        st._loads[:] = vals
        st.total_weight = sum(vals.tolist())
        return st

    def apply_allocation(self, bin_id: int, weight: float) -> None:
        """Add ``weight`` to one bin; the rank order is recomputed on the
        next read."""
        if not 0 <= bin_id < self.n:
            raise ValueError(f"bin {bin_id} out of range for n={self.n}")
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        self._loads[bin_id] += weight
        self.total_weight += weight
        self.step += 1
        self._ranked = None

    # -- rank order ----------------------------------------------------------

    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ranked is None:
            order = np.argsort(-self._loads, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(self.n)
            order.flags.writeable = rank.flags.writeable = False
            self._ranked = (order, rank)
        return self._ranked

    @property
    def sorted_index(self) -> np.ndarray:
        return self._ranks()[0]

    @property
    def rank_of(self) -> np.ndarray:
        return self._ranks()[1]

    def rank(self, b: int) -> int:
        """``rank_of[b]`` by one O(n) count of the bins ranked ahead of
        ``b``, without a sort."""
        loads = self._loads
        lb = loads[b]
        return int(np.count_nonzero(loads > lb)) + int(np.count_nonzero(loads[:b] == lb))

    # -- read-only views ---------------------------------------------------

    def normalized(self) -> np.ndarray:
        """Per-bin loads minus the average load, indexed by bin id."""
        return self._loads - self.total_weight / self.n

    def sorted_normalized(self) -> np.ndarray:
        """Normalized loads in rank order (non-increasing)."""
        return self._loads[self.sorted_index] - self.total_weight / self.n

    def gap(self) -> float:
        """Maximum load above average; zero for a flat state.

        The heaviest bin is never below the average, but a float total can
        round to just above the largest load, so the result is clamped at 0.
        """
        g = float(self._loads.max()) - self.total_weight / self.n
        return g if g >= 0 else 0.0


def new_state(n: int) -> LoadState:
    """Fresh all-zero state on ``n`` bins."""
    return LoadState(n)


def tie_ends(state: LoadState) -> np.ndarray:
    """Rank cut points 0 = e_0 < e_1 < ... < e_k = n of the equal-load
    runs, as int64."""
    s = state.loads[state.sorted_index]
    return np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1, [state.n]))


def tie_blocks(state: LoadState) -> list[tuple[int, int]]:
    """Half-open rank ranges [a, b) of equal-load runs, in rank order."""
    ends = tie_ends(state).tolist()
    return list(zip(ends, ends[1:]))
