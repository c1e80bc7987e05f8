"""Allocation processes: sampling rules, exact oracles, and fast runners.

Kinds
-----
one-choice      one uniform sample per ball
two-choice      lesser loaded of two uniform samples (ties: higher bin id)
d-choice        lesser loaded of d uniform samples
one-plus-beta   with probability beta act like two-choice, else one-choice
quantile        first sample if its rank is past the delta-quantile, else
                a second fresh sample
twinning        one sample; one ball if it ranks in the top delta fraction,
                otherwise two balls (both to it)
penalty         first sample gets one ball if it ranks past the quantile,
                otherwise a second sample gets two
reset-memory    two-ball rounds: ball 1 to a uniform sample, ball 2 to the
                lesser loaded (at round start) of that sample and a fresh
                one
graphical       uniform random edge of a regular graph, ball to the lesser
                loaded endpoint

Two per-ball paths exist and are tested against each other:

exact       ``sample_round``/``step`` over a ``LoadState``: the sampler,
            and ``round_law``, the O(n) float law of one round that
            ``binlab drift-check`` uses and the one law oracle, pinned by
            the tests to the closed-form vectors and to a brute force over
            every scripted draw of ``sample_round``.
            Without a C compiler, ``make_engine`` returns ``_StepEngine``,
            a ``step`` loop with the engine interface.
kernel      what ``make_engine`` returns: the per-ball decision loops of
            ``_kernel.c``, compiled on first use (see ``kernel.py``), over a
            float64 load array.  ``run`` uses it for every sweep.

Both consume random draws in the same documented order, so a seeded run or
a scripted one gives the same loads and ball counts on the kernel as on
``step``.

Batched rounds (several balls per step) are a third engine,
``_BatchedEngine``: b unit balls per round from the rank vector against
the round-start ranking, ties by ascending id (``tie_rule="random"`` is
refused).  The kernel draws each round's rank counts as numpy's
``Generator.multinomial`` does, bit for bit, and ranks and applies them in
the same call; the numpy ``multinomial`` with ``_batched_round`` is the
reference it is pinned to.
``run`` and ``run_batched`` drive every engine through one probe loop and
one interface: ``advance(target)`` (until at least ``target`` balls),
``balls``, ``loads`` (the live float64 load array) and ``spec``.

The lesser-loaded rule is ``_lightest``: the least-loaded candidates in
first-seen order, without repeats.  A tie goes to the highest bin id, or
under ``tie_rule="random"`` to ``best[int(u * k)]`` for one uniform draw u.
The exact sampler (``_pick_min``) uses it; the kernel inlines it and is
pinned to the exact path by the differential tests.

The exact path reads its draws through ``_Draws``, in chunks from a source
with the kernel's protocol (``bins``/``floats``/``weights``/``edges``): the
seeded ``_ChunkSource`` or a ``_ScriptSource`` that the tests and selftest
share with the kernel.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernel
from .core import LoadState, cut_points
from .graphs import RegularGraph
from .potentials import scaled_exp, unscaled
from .rng import make_generator
from .vectors import ConditionParams, ProbabilityVector, quantile_index
from .weights import WeightDistribution, parse_weights

KINDS = ("one-choice", "two-choice", "d-choice", "one-plus-beta", "quantile",
         "twinning", "penalty", "reset-memory", "graphical")

_CHUNK = 1 << 14
# batched rank counts per multinomial call without the kernel: 256 KiB of
# int64.  Each run on a fanned-out sweep's threads holds its own block; at
# 2^17 (1 MiB) a fanned-out batched sweep peaked at 40.3 MiB RSS against
# 37.9 MiB here, at equal speed.  The kernel path holds no such block: it
# draws each round's n counts into one buffer per advance.
_DRAW_COUNTS = 1 << 15


class UnsupportedProcessError(ValueError):
    """Raised when an operation is undefined for the given process kind."""


def _unit() -> WeightDistribution:
    return WeightDistribution(kind="unit")


@dataclass(frozen=True)
class ProcessSpec:
    """One allocation process with its parameters and weight law."""

    kind: str
    d: int | None = None
    beta: float | None = None
    delta: float | None = None
    weights: WeightDistribution = field(default_factory=_unit)
    tie_rule: str = "higher-index"
    graph: RegularGraph | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.tie_rule not in ("higher-index", "random"):
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")
        if self.kind == "d-choice":
            if self.d is None or self.d < 1:
                raise ValueError("d-choice needs d >= 1")
        elif self.d is not None:
            raise ValueError(f"{self.kind} takes no d")
        if self.kind == "one-plus-beta":
            if self.beta is None or not 0 <= self.beta <= 1:
                raise ValueError("one-plus-beta needs beta in [0, 1]")
        elif self.beta is not None:
            raise ValueError(f"{self.kind} takes no beta")
        if self.kind in ("quantile", "twinning", "penalty"):
            if self.delta is None or not 0 < self.delta < 1:
                raise ValueError(f"{self.kind} needs delta in (0, 1)")
        elif self.delta is not None:
            raise ValueError(f"{self.kind} takes no delta")
        if self.kind == "graphical":
            if self.graph is None:
                raise ValueError("graphical needs a graph")
        elif self.graph is not None:
            raise ValueError(f"{self.kind} takes no graph")
        if self.kind in ("twinning", "penalty") and self.weights.kind != "unit":
            raise ValueError(f"{self.kind} supports unit weights only")

    def label(self) -> str:
        parts = [self.kind]
        if self.d is not None and self.kind == "d-choice":
            parts.append(f"d={self.d}")
        if self.beta is not None:
            parts.append(f"beta={self.beta:g}")
        if self.delta is not None:
            parts.append(f"delta={self.delta:g}")
        if self.weights.kind != "unit":
            parts.append(self.weights.label())
        return ":".join(parts)


def parse_process(text: str, weights: WeightDistribution | None = None,
                  graph: RegularGraph | None = None,
                  tie_rule: str = "higher-index") -> ProcessSpec:
    """Parse 'two-choice', 'd-choice:d=3', 'one-plus-beta:beta=0.5',
    'quantile:delta=0.5', 'twinning:delta=0.5', 'penalty:delta=0.25', ..."""
    kind, _, arg = text.strip().partition(":")
    kw: dict = {}
    if arg:
        key, _, val = arg.partition("=")
        if key == "d":
            kw["d"] = int(val)
        elif key == "beta":
            kw["beta"] = float(val)
        elif key == "delta":
            kw["delta"] = float(val)
        else:
            raise ValueError(f"unknown process argument {arg!r}")
    if weights is not None:
        kw["weights"] = weights
    if graph is not None:
        kw["graph"] = graph
    return ProcessSpec(kind=kind, tie_rule=tie_rule, **kw)


# -- allocation vectors (time-homogeneous kinds) ------------------------------

def allocation_vector(spec: ProcessSpec, n: int) -> ProbabilityVector:
    """Rank-indexed one-ball allocation vector; defined only for kinds whose
    vector does not depend on the load configuration."""
    if spec.kind == "one-choice":
        return ProbabilityVector.uniform(n)
    if spec.kind in ("two-choice", "d-choice"):
        d = 2 if spec.kind == "two-choice" else spec.d
        nd = float(n) ** d
        return ProbabilityVector(probs=tuple(
            ((i + 1) ** d - i ** d) / nd for i in range(n)))
    if spec.kind == "one-plus-beta":
        b = spec.beta
        return ProbabilityVector(probs=tuple(
            (1 - b) / n + b * (2 * i + 1) / (n * n) for i in range(n)))
    if spec.kind == "quantile":
        t = quantile_index(spec.delta, n)
        dl = t / n
        return ProbabilityVector(probs=tuple(
            dl / n if i < t else (1 + dl) / n for i in range(n)))
    raise UnsupportedProcessError(
        f"{spec.kind} has no load-independent allocation vector")


def d_choice_vector_exact(n: int, d: int) -> list[Fraction]:
    return [Fraction((i + 1) ** d - i ** d, n ** d) for i in range(n)]


def one_plus_beta_vector_exact(n: int, beta: Fraction) -> list[Fraction]:
    return [(1 - beta) / Fraction(n) + beta * Fraction(2 * i + 1, n * n)
            for i in range(n)]


def quantile_vector_exact(n: int, t: int) -> list[Fraction]:
    return [Fraction(t, n * n) if i < t else Fraction(n + t, n * n)
            for i in range(n)]


def canonical_conditions(spec: ProcessSpec, n: int,
                         graph_eps: float | None = None) -> ConditionParams:
    """Bias-condition parameters under which this process's allocation
    vector is certified, with the quantile snapped to an integral rank."""
    if n < 2:
        raise UnsupportedProcessError(f"n = {n}: a single bin has no bias margin")

    def snap(x: float) -> float:
        return min(max(round(x * n), 1), n - 1) / n

    if spec.kind in ("two-choice", "reset-memory"):
        return ConditionParams(delta=snap(0.25), epsilon=0.5, c_cap=2.0)
    if spec.kind == "d-choice":
        if spec.d < 2:
            raise UnsupportedProcessError("d-choice with d=1 is uniform; no bias margin")
        return ConditionParams(delta=snap(0.25), epsilon=0.5, c_cap=float(spec.d))
    if spec.kind == "one-plus-beta":
        if spec.beta == 0:
            raise UnsupportedProcessError("beta=0 is uniform; no bias margin")
        return ConditionParams(delta=snap(0.25), epsilon=spec.beta / 2, c_cap=2.0)
    if spec.kind in ("quantile", "twinning", "penalty"):
        dl = quantile_index(spec.delta, n) / n
        return ConditionParams(delta=dl, epsilon=1 - dl, c_cap=2.0)
    if spec.kind == "graphical":
        if graph_eps is None:
            raise ValueError("graphical needs a conductance lower bound graph_eps")
        return ConditionParams(delta=snap(0.5), epsilon=graph_eps, c_cap=2.0)
    raise UnsupportedProcessError(f"{spec.kind} has no canonical bias conditions")


def comparison_vector(spec: ProcessSpec, n: int) -> ProbabilityVector:
    """The rank-indexed vector the process's drift is certified against:
    its own vector when load-independent, the quantile vector for the
    twinning/penalty rules, the two-choice vector for reset-memory."""
    if spec.kind in ("twinning", "penalty"):
        return allocation_vector(ProcessSpec(kind="quantile", delta=spec.delta), n)
    if spec.kind == "reset-memory":
        return allocation_vector(ProcessSpec(kind="two-choice"), n)
    return allocation_vector(spec, n)


def expected_balls_per_step(spec: ProcessSpec, n: int) -> Fraction:
    """Exact expected number of balls one step/round allocates at size n
    (the quantile snapped to an integral rank, as the processes do)."""
    if spec.kind == "twinning":
        return 2 - Fraction(quantile_index(spec.delta, n), n)
    if spec.kind == "penalty":
        return 1 + Fraction(quantile_index(spec.delta, n), n)
    if spec.kind == "reset-memory":
        return Fraction(2)
    return Fraction(1)


# -- the law of one round -----------------------------------------------------

def _block_law(ends: np.ndarray, cum, denom: int) -> np.ndarray:
    """Per rank r, (cum(r+1) - cum(r)) / denom averaged over the block
    [a, b) of the cut points ``ends`` that holds r: (cum(b) - cum(a)) /
    (denom * (b - a)).  ``cum`` maps an integer array to an integer array,
    elementwise and increasing.  The cut points are int64 while cum(n) and
    denom * n stay below 2^53, so every int-to-float conversion is exact,
    and Python ints past that; either way each entry is one correctly
    rounded division of two integers, as Python's int / int."""
    n = int(ends[-1])
    widths = np.diff(ends)
    if cum(n) >= 2 ** 53 or denom * n >= 2 ** 53:
        ends = ends.astype(object)
    vals = np.diff(cum(ends)) / (denom * np.diff(ends))
    return np.repeat(vals.astype(float, copy=False), widths)


def _choice_law(ends: np.ndarray, d: int) -> np.ndarray:
    """P(the lesser loaded of d uniform samples has rank r).  On LoadState
    ranks "lesser loaded, ties to the higher id" is "higher rank", so this
    is ((r+1)^d - r^d)/n^d; a random tie is uniform over its block."""
    n = int(ends[-1])
    return _block_law(ends, lambda k: k ** d, n ** d)


def _edge_law(spec: ProcessSpec, state: LoadState) -> np.ndarray:
    """P(a uniform edge's lesser-loaded endpoint has rank r), O(|E|)."""
    edges = np.asarray(spec.graph.edges)
    eu, ev = edges[:, 0], edges[:, 1]
    rank, loads = state.rank_of, state.loads
    ru, rv = rank[eu], rank[ev]
    if spec.tie_rule == "random":
        half = np.where((loads[eu] == loads[ev]) & (eu != ev), 0.5, 0.0)
    else:
        half = np.zeros(len(eu))
    n = state.n
    counts = (np.bincount(np.maximum(ru, rv), 1.0 - half, minlength=n)
              + np.bincount(np.minimum(ru, rv), half, minlength=n))
    return counts / len(eu)


def round_law(spec: ProcessSpec, state: LoadState) -> dict[tuple[int, int], np.ndarray]:
    """The law of one round on this state, in O(n) (graphical: O(|E|)).

    Maps (K, c) to the rank-indexed array of P(the round allocates K balls
    and c of them land in rank r); for each rank the atoms sum to 1.  It is
    the law of ``sample_round``, pinned by the tests to a brute force over
    scripted draws and to the closed-form vectors; its expected ball count
    sum_r sum_{K,c} c * P_r(K, c) is ``expected_balls_per_step``.  Weights
    are i.i.d. and independent of the bins in every kind, so the law and
    the weight law give the exact expectation of anything the round does
    to a potential.  Every kind but graphical sees the state only through
    its ``tie_cuts``.
    """
    n = state.n
    if spec.kind != "graphical":
        return cut_round_law(spec, n, tie_cuts(spec, state.loads[state.sorted_index]))
    if spec.graph.n != n:
        raise ValueError("graph size does not match state")
    q = _edge_law(spec, state)
    return {(1, 1): q, (1, 0): 1.0 - q}


def tie_cuts(spec: ProcessSpec, ranked: np.ndarray) -> np.ndarray:
    """The rank cut points of the ties a round of ``spec`` sees on the loads
    ``ranked`` (in rank order): their equal-load runs under random ties,
    0, 1, ..., n (each rank alone) under higher-index ties and for the
    quantile kinds, whose rounds compare ranks, never loads."""
    if spec.tie_rule == "random" and spec.kind not in ("quantile", "twinning", "penalty"):
        return cut_points(ranked)
    return np.arange(len(ranked) + 1)


def cut_round_law(spec: ProcessSpec, n: int, ends: np.ndarray
                  ) -> dict[tuple[int, int], np.ndarray]:
    """``round_law`` of a non-graphical kind on n bins, from the int64 rank
    cut points ``ends`` (0 = e_0 < ... < e_k = n) that ``tie_cuts`` gives;
    states with the same cut points have the same law."""
    kind = spec.kind
    t = quantile_index(spec.delta, n) if spec.delta is not None else 0
    light = (np.arange(n) >= t).astype(float)  # rank past the quantile
    if kind == "twinning":
        # one sample: one ball if it ranks below t, else two balls to it
        return {(1, 1): (1.0 - light) / n, (1, 0): (t - (1.0 - light)) / n,
                (2, 2): light / n, (2, 0): (n - t - light) / n}
    if kind == "penalty":
        # a light first sample takes one ball, else a fresh one takes two
        return {(1, 1): light / n, (1, 0): (n - t - light) / n,
                (2, 2): np.full(n, t / (n * n)), (2, 0): np.full(n, t * (n - 1) / (n * n))}
    if kind == "reset-memory":
        # ball 1 to a uniform i1, ball 2 to the lesser of i1 and a fresh
        # sample; u_r = P(rank r beats one uniform sample)
        u = _block_law(ends, lambda k: k * (k + 1) // 2, n)
        q = _choice_law(ends, 2)
        both = u / n
        one = (1.0 - u) / n + q - both
        return {(2, 2): both, (2, 1): one, (2, 0): 1.0 - both - one}
    if kind in ("one-choice", "two-choice", "d-choice"):
        d = {"one-choice": 1, "two-choice": 2}.get(kind, spec.d)
        q = _choice_law(ends, d)
    elif kind == "one-plus-beta":
        q = (1 - spec.beta) / n + spec.beta * _choice_law(ends, 2)
    elif kind == "quantile":
        q = (n * light + t) / (n * n)
    else:
        raise ValueError(f"{kind} has no cut-point round law")
    return {(1, 1): q, (1, 0): 1.0 - q}


# -- exact single rounds over LoadState ---------------------------------------

class _Draws:
    """Sequential draw source for one or more exact rounds.

    Draw order per round is part of the contract (the kernel replays it):
    bins in sampling order, the mixing float before any bins
    (one-plus-beta), tie floats right after the tied comparison, one weight
    per ball in landing order.  Draws come from ``source``'s chunks by the
    kernel's rule: a decision that reads k bins at once (``bins(k)``)
    discards the rest of a chunk holding fewer than k and takes a fresh
    one, which must hold k.  A chunk with a bin outside [0, n) or an edge
    outside [0, n_edges) is rejected.
    """

    def __init__(self, n: int, wdist: WeightDistribution, source, n_edges: int = 0):
        self.n = n
        self.wdist = wdist
        self.n_edges = n_edges
        self.source = source
        self._chunks: dict[str, tuple[list, int]] = {}

    def _take(self, stream: str, k: int = 1) -> list:
        buf, i = self._chunks.get(stream, ((), 0))
        if i + k > len(buf):
            chunk = np.asarray(getattr(self.source, stream)())
            bound = {"bins": self.n, "edges": self.n_edges}.get(stream)
            if bound is not None and chunk.size and not (
                    chunk.min() >= 0 and chunk.max() < bound):
                raise IndexError("draw out of range")
            buf, i = chunk.tolist(), 0
            if len(buf) < k:
                raise IndexError("draw chunk shorter than one decision needs")
        self._chunks[stream] = (buf, i + k)
        return buf[i:i + k]

    def bins(self, k: int) -> list[int]:
        """The k candidate bins of one decision."""
        return self._take("bins", k)

    def bin(self) -> int:
        return self.bins(1)[0]

    def float(self) -> float:
        return self._take("floats")[0]

    def weight(self) -> float:
        if self.wdist.kind == "unit":
            return 1.0
        return self._take("weights")[0]

    def edge(self) -> int:
        return self._take("edges")[0]


def _lightest(loads, cands: Sequence[int]) -> list[int]:
    """The least-loaded candidates in first-seen order, without repeats."""
    best = [cands[0]]
    bl = loads[cands[0]]
    for c in cands[1:]:
        lc = loads[c]
        if lc < bl:
            best, bl = [c], lc
        elif lc == bl and c not in best:
            best.append(c)
    return best


def _pick_min(loads, cands, tie_rule, draws: _Draws) -> int:
    best = _lightest(loads, cands)
    k = len(best)
    if k == 1:
        return best[0]
    if tie_rule == "higher-index":
        return max(best)
    return best[min(int(draws.float() * k), k - 1)]


def sample_round(spec: ProcessSpec, state: LoadState,
                 draws: _Draws) -> tuple[tuple[int, float], ...]:
    """Sample one round's allocations against the current state without
    mutating it: (bin, weight) per ball, in landing order."""
    n = state.n
    loads = state.loads
    kind = spec.kind

    if kind in ("one-choice", "two-choice", "d-choice"):
        d = {"one-choice": 1, "two-choice": 2}.get(kind, spec.d)
        b = _pick_min(loads, draws.bins(d), spec.tie_rule, draws)
        return ((b, draws.weight()),)

    if kind == "one-plus-beta":
        if draws.float() < spec.beta:
            b = _pick_min(loads, draws.bins(2), spec.tie_rule, draws)
        else:
            b = draws.bin()
        return ((b, draws.weight()),)

    if kind == "quantile":
        b = draws.bin()
        if state.rank(b) < quantile_index(spec.delta, n):
            b = draws.bin()  # below the quantile: a fresh sample
        return ((b, draws.weight()),)

    if kind == "twinning":
        t = quantile_index(spec.delta, n)
        i = draws.bin()
        if state.rank(i) < t:
            return ((i, 1.0),)
        return ((i, 1.0), (i, 1.0))

    if kind == "penalty":
        t = quantile_index(spec.delta, n)
        i1 = draws.bin()
        if state.rank(i1) >= t:
            return ((i1, 1.0),)
        i2 = draws.bin()
        return ((i2, 1.0), (i2, 1.0))

    if kind == "reset-memory":
        i1, i2 = draws.bins(2)
        w1 = draws.weight()
        b = _pick_min(loads, (i1, i2), spec.tie_rule, draws)
        w2 = draws.weight()
        return ((i1, w1), (b, w2))

    if kind == "graphical":
        e = draws.edge()
        u, v = spec.graph.edges[e]
        b = _pick_min(loads, (u, v), spec.tie_rule, draws)
        return ((b, draws.weight()),)

    raise UnsupportedProcessError(f"cannot sample {kind}")


def step(spec: ProcessSpec, state: LoadState,
         draws: _Draws) -> tuple[tuple[int, float], ...]:
    """Sample one round, apply it to the state and return its pairs."""
    out = sample_round(spec, state, draws)
    for b, w in out:
        state.apply_allocation(b, w)
    return out


@functools.lru_cache(maxsize=64)
def rank_vector(spec: ProcessSpec, n: int) -> np.ndarray:
    """``allocation_vector(spec, n)`` as the read-only float64 array, summing
    to 1, that batched rounds draw from.  Cached per (spec, n):
    ``experiments.sweep`` builds each batched cell's vector before any run
    starts, so a kind without one fails first, and the sweep's worker
    threads only read the cache."""
    pv = allocation_vector(spec, n).array
    pv = pv / pv.sum()
    pv.flags.writeable = False
    return pv


@functools.lru_cache(maxsize=64)
def rank_tables(spec: ProcessSpec, n: int) -> np.ndarray:
    """``kernel.multinomial_tables`` of ``rank_vector(spec, n)``: numpy's
    per-category multinomial values, computed once per (spec, n) for the
    kernel's batched rounds."""
    return kernel.multinomial_tables(rank_vector(spec, n))


def _check_rank_vector(pv: np.ndarray) -> None:
    """numpy's ``multinomial`` rule for ``pvals``: every entry in [0, 1] (so
    no nan) and the first n - 1 summing to at most 1 + 1e-12.  numpy sums
    them with Kahan's compensation, this pairwise: the two differ by far
    less than the slack.  The kernel's draw skips numpy's check."""
    if not np.all((pv >= 0) & (pv <= 1)):
        raise ValueError("rank vector has an entry below 0, above 1 or nan")
    if pv[:-1].sum() > 1 + 1e-12:
        raise ValueError("rank vector's first n - 1 entries sum past 1")


def _batched_round(loads: np.ndarray, counts: np.ndarray) -> None:
    """Reference batched round: add ``counts[r]`` unit balls to the bin of
    rank r in the round-start ranking, heaviest first, ties by ascending id.
    Unit balls keep ``loads`` whole numbers, so while their spread fits in
    16 bits the ranking is a stable (radix, O(n)) sort of each bin's
    distance below the heaviest.  ``kernel.batched_rounds`` does the same in
    C and must agree with this exactly."""
    top = loads.max()
    if top - loads.min() < 1 << 16:
        order = np.argsort((top - loads).astype(np.uint16), kind="stable")
    else:
        order = np.lexsort((np.arange(len(loads)), -loads))
    loads[order] += counts


# -- draw sources and engines -----------------------------------------------

class _ChunkSource:
    """Draws for the engines in chunks of ``_CHUNK`` per call, and bins in
    chunks of ``bins_size`` (at least one decision's worth); tests
    substitute scripted chunks.  The chunk size is part of the stream: the
    bins, floats and weights chunks interleave on one generator, so a
    different size moves every later draw.  numpy's Philox keeps its
    buffered 32-bit half across calls (even across ``random()`` draws),
    so consecutive ``integers`` calls alone would read as one."""

    def __init__(self, rng: np.random.Generator, n: int,
                 wdist: WeightDistribution, n_edges: int = 0,
                 bins_size: int = _CHUNK):
        self.rng = rng
        self.n = n
        self.wdist = wdist
        self.n_edges = n_edges
        self.bins_size = bins_size

    def bins(self) -> np.ndarray:
        return self.rng.integers(0, self.n, size=self.bins_size)

    def edges(self) -> np.ndarray:
        return self.rng.integers(0, self.n_edges, size=_CHUNK)

    def floats(self) -> np.ndarray:
        return self.rng.random(_CHUNK)

    def weights(self) -> np.ndarray:
        return self.wdist.sample(self.rng, _CHUNK)


class _ScriptSource:
    """Replays fixed draw lists once; raises when a stream runs dry."""

    def __init__(self, bins=(), floats=(), weights=(), edges=()):
        self._bins = list(bins)
        self._floats = list(floats)
        self._weights = list(weights)
        self._edges = list(edges)

    def _take(self, name):
        buf = getattr(self, name)
        if not buf:
            raise ValueError(f"scripted {name[1:]} exhausted")
        setattr(self, name, [])
        return buf

    def bins(self):
        return self._take("_bins")

    def floats(self):
        return self._take("_floats")

    def weights(self):
        return self._take("_weights")

    def edges(self):
        return self._take("_edges")


class _StepEngine:
    """The per-ball engine when the kernel cannot be built: a ``step`` loop
    on a ``LoadState``, reading ``source`` through ``_Draws`` as the kernel
    reads it.  Same interface as ``kernel.KernelEngine``; ``loads`` is the
    state's read-only float64 array."""

    def __init__(self, spec: ProcessSpec, n: int, source):
        self.spec = spec
        self.state = LoadState(n)
        self.balls = 0
        self._draws = _Draws(n, spec.weights, n_edges=_n_edges(spec), source=source)

    @property
    def loads(self) -> np.ndarray:
        return self.state.loads

    def advance(self, target: int) -> None:
        while self.balls < target:
            self.balls += len(step(self.spec, self.state, draws=self._draws))


def make_engine(spec: ProcessSpec, n: int, rng: np.random.Generator | None = None,
                source=None):
    """Build the per-ball engine for one run: the compiled kernel, or
    ``_StepEngine`` when the kernel cannot be built.  Tests may inject a
    script source."""
    lib = kernel.load()
    source = _source(spec, n, rng, source)
    if lib is None:
        return _StepEngine(spec, n, source)
    return kernel.KernelEngine(lib, spec, n, source)


def _n_edges(spec: ProcessSpec) -> int:
    return len(spec.graph.edges) if spec.graph is not None else 0


def _source(spec: ProcessSpec, n: int, rng, source):
    if spec.kind == "graphical" and spec.graph.n != n:
        raise ValueError("graph size does not match n")
    if source is not None:
        return source
    if rng is None:
        raise ValueError("need rng or source")
    return _ChunkSource(rng, n, spec.weights, _n_edges(spec), max(_CHUNK, spec.d or 0))


class _BatchedEngine:
    """Batched rounds with the engine interface.  Each round adds b unit
    balls, one multinomial row of rank counts from ``rank_vector``, to the
    bins ranked at the round's start (heaviest first, ties by ascending
    id); ``advance`` runs whole rounds, so it stops less than b balls past
    its target.  The rank vector is checked once, by numpy's rule, before
    any draw.  The compiled kernel runs an advance's rounds in one call
    (``kernel.batched_rounds``): it draws each row as
    ``rng.multinomial(b, pv)`` would, from the ``rank_tables`` of the cell,
    and ranks and applies it.  Without the kernel, the rows come from
    ``rng.multinomial(b, pv, size=k)`` calls of at most ``_DRAW_COUNTS``
    counts (one row when n is larger), which numpy draws exactly as k
    single calls, and ``_batched_round`` applies them one at a time."""

    def __init__(self, spec: ProcessSpec, n: int, b: int, rng: np.random.Generator):
        if spec.weights.kind != "unit":
            raise ValueError("batched rounds support unit weights only")
        if spec.tie_rule == "random":
            raise ValueError("batched rounds break ties by ascending bin id, not at random")
        if not 1 <= b < 1 << 63:  # the kernel counts a round's balls in an int64
            raise ValueError(f"batch size must be in [1, 2^63), got {b}")
        self.spec = spec
        self._b = b
        self.loads = np.zeros(n)
        self.balls = 0
        self._pv = rank_vector(spec, n)
        _check_rank_vector(self._pv)
        self._lib = kernel.load()
        self._tables = None if self._lib is None else rank_tables(spec, n)
        self._rng = rng

    def advance(self, target: int) -> None:
        rounds = max(0, -(-(target - self.balls) // self._b))
        if self._lib is not None:
            kernel.batched_rounds(self._lib, self._rng, self._tables, self._b, rounds,
                                  self.loads)
            self.balls += self._b * rounds
            return
        per_draw = max(1, _DRAW_COUNTS // len(self.loads))
        while rounds:
            counts = self._rng.multinomial(self._b, self._pv, size=min(rounds, per_draw))
            for row in counts:
                _batched_round(self.loads, row)
            rounds -= len(counts)
            self.balls += self._b * len(counts)


# -- runs and probes ------------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    """What to record along a run: explicit ball counts (default: every n
    balls plus the final state), a smoothing gamma for the potential, and
    overload thresholds to count bins against."""

    steps: tuple[int, ...] | None = None
    gamma: float | None = None
    thresholds: tuple[float, ...] = ()


@dataclass(frozen=True)
class ProbeRow:
    step: int
    gap: float
    max_abs: float
    gamma_value: float | None
    gamma_total: float | None
    bins_ge: tuple[int, ...]
    seed: int


def _probe_points(probe: ProbeConfig | None, n: int, m: int) -> list[int]:
    if probe is not None and probe.steps is not None:
        pts = sorted(set(int(s) for s in probe.steps if 0 <= s <= m))
        if not pts or pts[-1] != m:
            pts.append(m)
        return pts
    pts = list(range(n, m + 1, n))
    if not pts or pts[-1] != m:
        pts.append(m)
    return pts


def _snapshot(loads, balls: int, probe: ProbeConfig | None, seed: int) -> ProbeRow:
    # a copy: engines hand over their live load arrays
    y = np.array(loads, dtype=float)
    y -= y.mean()
    gap = float(y.max())
    max_abs = max(gap, float(-y.min()))
    gamma = probe.gamma if probe is not None else None
    if gamma is not None:
        n = len(y)
        total = math.inf
        if gamma * max_abs < 709:  # log Gamma >= gamma * max|y|: else unscaled's inf
            terms, s = scaled_exp(gamma * np.concatenate((y, -y)))
            total = unscaled(float(np.sum(terms[:n]) + np.sum(terms[n:])), s)
        if total == math.inf:
            raise ValueError(f"the potential overflows float64 at gamma={gamma:g}, "
                             f"n={n}, step {balls}; use a smaller gamma")
    else:
        total = None
    thresholds = probe.thresholds if probe is not None else ()
    bins_ge = tuple(int(np.sum(y >= z)) for z in thresholds)
    return ProbeRow(step=balls, gap=gap, max_abs=max_abs, gamma_value=gamma,
                    gamma_total=total, bins_ge=bins_ge, seed=seed)


def _probe_run(eng, probe: ProbeConfig | None, n: int, m: int,
               seed: int) -> list[ProbeRow]:
    """Advance ``eng`` to each probe point and snapshot it there, one row
    per ball count: a point the engine already passed (a multi-ball step or
    a batched round can overshoot several) has no row of its own."""
    rows = []
    for pt in _probe_points(probe, n, m):
        if rows and eng.balls >= pt:
            continue
        eng.advance(pt)
        rows.append(_snapshot(eng.loads, eng.balls, probe, seed))
    return rows


def run(spec: ProcessSpec, n: int, m: int, seed: int,
        probe: ProbeConfig | None = None) -> list[ProbeRow]:
    """Run until at least m balls are allocated, recording probes.

    Multi-ball steps may overshoot a probe point (and m) by one ball; the
    recorded step is the actual ball count.  Deterministic in (spec, n, m,
    seed).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    kernel.check_ball_target(m)
    eng = make_engine(spec, n, make_generator(seed, 0))
    return _probe_run(eng, probe, n, m, seed)


def run_batched(spec: ProcessSpec, n: int, m: int, b: int, seed: int,
                probe: ProbeConfig | None = None) -> list[ProbeRow]:
    """``run`` on ``_BatchedEngine``'s rounds of b balls; probes land on
    round boundaries."""
    if n < 1:
        raise ValueError("need n >= 1")
    kernel.check_ball_target(m)
    # not through make_engine, whose engines the benchmark times as per-ball work
    eng = _BatchedEngine(spec, n, b, make_generator(seed, 0))
    return _probe_run(eng, probe, n, m, seed)
