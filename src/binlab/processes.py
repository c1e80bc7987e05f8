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

Three execution paths exist and are tested against each other:

exact       ``sample_round``/``step`` over a ``LoadState``: the oracle, with
            rational enumeration of one step's allocation law beside it.
kernel      what ``make_engine`` returns: the per-ball decision loops of
            ``_kernel.c``, compiled on first use (see ``kernel.py``), over a
            float64 load array.  ``run`` uses it for every sweep.
reference   the Python engines (``reference_engine``): plain load lists plus
            whatever index structure the decision rule needs.  They pin the
            kernel in the differential tests and are what ``make_engine``
            falls back to when no C compiler is found or the build fails.

All three consume random draws in the same documented order, so scripted
draws replay identically on each, and a seeded run gives the same loads,
ball and step counts on the kernel as on the reference engines.

The lesser-loaded rule is ``_lightest``: the least-loaded candidates in
first-seen order, without repeats.  A tie goes to the highest bin id, or
under ``tie_rule="random"`` to ``best[int(u * k)]`` for one uniform draw u.
Enumeration (``_recipient_dist``), the exact sampler (``_pick_min``) and
the reference d-choice loop use it; the two-candidate loops of the
reference engines and the kernel inline it and are pinned to the exact path
by the differential tests.

The exact path reads its draws through ``_Draws`` in one of two ways: one
scalar numpy call per draw from a generator (the stream of
``binlab drift-check``), or one value at a time from a chunk source with
the engine protocol (``bins``/``floats``/``weights``/``edges``), such as a
``_ScriptSource`` that the tests and selftest share with the engines.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernel
from .core import LoadState
from .graphs import RegularGraph
from .potentials import scaled_exp, unscaled
from .rng import make_generator
from .vectors import ConditionParams, ProbabilityVector, quantile_index
from .weights import WeightDistribution, parse_weights

KINDS = ("one-choice", "two-choice", "d-choice", "one-plus-beta", "quantile",
         "twinning", "penalty", "reset-memory", "graphical")

_CHUNK = 1 << 14
ENUM_LIMIT = 64


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


@dataclass(frozen=True)
class RoundOutcome:
    """What one round allocated: (bin, weight) per ball, in landing order."""

    bins_hit: tuple[tuple[int, float], ...]
    steps_consumed: int
    samples_used: int

    def balls(self) -> int:
        return len(self.bins_hit)

    def total_weight(self) -> float:
        return sum(w for _, w in self.bins_hit)


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


# -- exact enumeration over a concrete state ----------------------------------

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


def _recipient_dist(loads, cands: Sequence[int], tie_rule: str):
    """Distribution of the lesser-loaded candidate under the tie rule, as
    (bin, Fraction) pairs."""
    best = _lightest(loads, cands)
    if tie_rule == "higher-index":
        return [(max(best), Fraction(1))]
    share = Fraction(1, len(best))
    return [(b, share) for b in best]


def _lesser_counts(state: LoadState, pairs, share: Fraction,
                   tie_rule: str) -> list[Fraction]:
    """Expected balls per rank when one ball goes to the lesser-loaded bin
    of a pair drawn from ``pairs``, each with probability ``share``."""
    out = [Fraction(0)] * state.n
    for cands in pairs:
        for b, pr in _recipient_dist(state.loads, cands, tie_rule):
            out[state.rank_of[b]] += share * pr
    return out


def expected_ball_counts(spec: ProcessSpec, state: LoadState,
                         ball: int | None = None) -> list[Fraction]:
    """Exact expected number of balls per rank in one step on this state,
    by enumerating the sample space with rational arithmetic.

    Sums to ``expected_balls_per_step``.  For reset-memory, ``ball``
    selects the first or second ball of the round instead of their sum.
    The kinds that enumerate n^2 sample pairs need n <= ``ENUM_LIMIT``.
    """
    n = state.n
    kind = spec.kind
    if ball is not None and kind != "reset-memory":
        raise ValueError("ball selector applies to reset-memory only")
    uniform = [Fraction(1, n)] * n

    if kind == "graphical":
        g = spec.graph
        if g.n != n:
            raise ValueError("graph size does not match state")
        return _lesser_counts(state, g.edges, Fraction(1, len(g.edges)),
                              spec.tie_rule)
    if kind == "one-choice" or (kind == "d-choice" and spec.d == 1):
        return uniform
    if kind == "twinning":
        t = quantile_index(spec.delta, n)
        return [Fraction(1 if r < t else 2, n) for r in range(n)]

    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUM_LIMIT}, got {n}")
    if kind == "d-choice" and spec.d > 2:
        raise ValueError("enumeration supports at most n^2 outcomes (d <= 2)")

    if kind in ("quantile", "penalty"):
        # below the quantile the ball (penalty: both balls) goes to a
        # fresh uniform sample
        t = quantile_index(spec.delta, n)
        w = Fraction(1 if kind == "quantile" else 2, n * n)
        out = [Fraction(0)] * n
        for i in range(n):
            if state.rank_of[i] >= t:
                out[state.rank_of[i]] += Fraction(1, n)
            else:
                for j in range(n):
                    out[state.rank_of[j]] += w
        return out

    pairs = _lesser_counts(state, itertools.product(range(n), repeat=2),
                           Fraction(1, n * n), spec.tie_rule)
    if kind == "one-plus-beta":
        beta = Fraction(spec.beta)
        return [(1 - beta) * u + beta * p for u, p in zip(uniform, pairs)]
    if kind == "reset-memory":
        if ball == 1:
            return uniform
        if ball == 2:
            return pairs
        return [u + p for u, p in zip(uniform, pairs)]
    return pairs


def empirical_allocation_fractions(spec: ProcessSpec, state: LoadState,
                                   ball: int | None = None) -> list[Fraction]:
    """Exact per-rank allocation law: expected ball counts normalized by
    the expected total, as rationals."""
    counts = expected_ball_counts(spec, state, ball=ball)
    total = sum(counts)
    return [c / total for c in counts]


def empirical_allocation_vector(spec: ProcessSpec, state: LoadState,
                                ball: int | None = None) -> ProbabilityVector:
    """Float view of ``empirical_allocation_fractions``."""
    return ProbabilityVector(probs=tuple(
        float(f) for f in empirical_allocation_fractions(spec, state, ball=ball)))


# -- exact single rounds over LoadState ---------------------------------------

class _Draws:
    """Sequential draw source for one or more exact rounds.

    Draw order per round is part of the contract (engines replay it):
    bins in sampling order, the mixing float before any bins
    (one-plus-beta), tie floats right after the tied comparison, one weight
    per ball in landing order.  Draws come from ``rng`` one scalar call at a
    time, or, when ``source`` is given, one value at a time from its chunks.
    """

    def __init__(self, n: int, wdist: WeightDistribution,
                 rng: np.random.Generator | None = None, n_edges: int = 0,
                 source=None):
        self.n = n
        self.wdist = wdist
        self.rng = rng
        self.n_edges = n_edges
        self.source = source
        self._chunks: dict[str, tuple[list, int]] = {}

    def _next(self, stream: str):
        buf, i = self._chunks.get(stream, ((), 0))
        if i >= len(buf):
            buf, i = np.asarray(getattr(self.source, stream)()).tolist(), 0
        self._chunks[stream] = (buf, i + 1)
        return buf[i]

    def bin(self) -> int:
        if self.source is not None:
            return self._next("bins")
        return int(self.rng.integers(0, self.n))

    def float(self) -> float:
        if self.source is not None:
            return self._next("floats")
        return float(self.rng.random())

    def weight(self) -> float:
        if self.wdist.kind == "unit":
            return 1.0
        if self.source is not None:
            return self._next("weights")
        return float(self.wdist.sample(self.rng, 1)[0])

    def edge(self) -> int:
        if self.source is not None:
            return self._next("edges")
        return int(self.rng.integers(0, self.n_edges))


def _pick_min(loads, cands, tie_rule, draws: _Draws) -> int:
    best = _lightest(loads, cands)
    k = len(best)
    if k == 1:
        return best[0]
    if tie_rule == "higher-index":
        return max(best)
    return best[min(int(draws.float() * k), k - 1)]


def sample_round(spec: ProcessSpec, state: LoadState,
                 rng: np.random.Generator | None = None,
                 draws: _Draws | None = None) -> RoundOutcome:
    """Sample one round's allocations against the current state without
    mutating it."""
    n = state.n
    if draws is None:
        if rng is None:
            raise ValueError("need rng or draws")
        n_edges = len(spec.graph.edges) if spec.graph is not None else 0
        draws = _Draws(n, spec.weights, rng=rng, n_edges=n_edges)
    loads = state.loads
    kind = spec.kind

    if kind == "one-choice":
        b = draws.bin()
        return RoundOutcome(((b, draws.weight()),), 1, 1)

    if kind in ("two-choice", "d-choice"):
        d = 2 if kind == "two-choice" else spec.d
        cands = [draws.bin() for _ in range(d)]
        b = _pick_min(loads, cands, spec.tie_rule, draws)
        return RoundOutcome(((b, draws.weight()),), 1, d)

    if kind == "one-plus-beta":
        if draws.float() < spec.beta:
            cands = [draws.bin(), draws.bin()]
            b = _pick_min(loads, cands, spec.tie_rule, draws)
            return RoundOutcome(((b, draws.weight()),), 1, 2)
        b = draws.bin()
        return RoundOutcome(((b, draws.weight()),), 1, 1)

    if kind == "quantile":
        t = quantile_index(spec.delta, n)
        i1 = draws.bin()
        if state.rank_of[i1] >= t:
            return RoundOutcome(((i1, draws.weight()),), 1, 1)
        i2 = draws.bin()
        return RoundOutcome(((i2, draws.weight()),), 1, 2)

    if kind == "twinning":
        t = quantile_index(spec.delta, n)
        i = draws.bin()
        if state.rank_of[i] < t:
            return RoundOutcome(((i, 1.0),), 1, 1)
        return RoundOutcome(((i, 1.0), (i, 1.0)), 1, 1)

    if kind == "penalty":
        t = quantile_index(spec.delta, n)
        i1 = draws.bin()
        if state.rank_of[i1] >= t:
            return RoundOutcome(((i1, 1.0),), 1, 1)
        i2 = draws.bin()
        return RoundOutcome(((i2, 1.0), (i2, 1.0)), 1, 2)

    if kind == "reset-memory":
        i1 = draws.bin()
        i2 = draws.bin()
        w1 = draws.weight()
        b = _pick_min(loads, (i1, i2), spec.tie_rule, draws)
        w2 = draws.weight()
        return RoundOutcome(((i1, w1), (b, w2)), 2, 2)

    if kind == "graphical":
        e = draws.edge()
        u, v = spec.graph.edges[e]
        b = _pick_min(loads, (u, v), spec.tie_rule, draws)
        return RoundOutcome(((b, draws.weight()),), 1, 2)

    raise UnsupportedProcessError(f"cannot sample {kind}")


def step(spec: ProcessSpec, state: LoadState,
         rng: np.random.Generator | None = None,
         draws: _Draws | None = None) -> RoundOutcome:
    """Sample one round and apply it to the state."""
    out = sample_round(spec, state, rng=rng, draws=draws)
    for b, w in out.bins_hit:
        state.apply_allocation(b, w)
    return out


def _batched_round(loads: np.ndarray, pv: np.ndarray, b: int,
                   rng: np.random.Generator) -> None:
    """Add b unit balls to ``loads`` i.i.d. from the rank-indexed vector
    ``pv``, all against the round-start ranking: heaviest first, ties by
    ascending id."""
    order = np.lexsort((np.arange(len(loads)), -loads))
    loads[order] += rng.multinomial(b, pv)


# -- fast engines --------------------------------------------------------------

class _ChunkSource:
    """Draws for the engines in chunks of ``_CHUNK`` per call, and bins in
    chunks of ``bins_size`` (at least one decision's worth); tests
    substitute scripted chunks.  The chunk size is part of the stream:
    numpy drops its buffered 32-bit half at the end of each ``integers``
    call."""

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


class _Lists:
    """A draw source as the Python engines read it: lists, since indexing
    numpy arrays element by element is slow."""

    def __init__(self, source):
        self._source = source

    def __getattr__(self, name):
        fetch = getattr(self._source, name)
        return lambda: np.asarray(fetch()).tolist()


class _EngineBase:
    def __init__(self, spec: ProcessSpec, n: int, source):
        self.spec = spec
        self.n = n
        self.src = _Lists(source)
        self.unit = spec.weights.kind == "unit"
        self.loads = [0] * n if self.unit else [0.0] * n
        self.balls = 0
        self.steps = 0
        self._ib: list = []
        self._ii = 0
        self._fb: list = []
        self._fi = 0
        self._wb: list = []
        self._wi = 0

    def advance(self, target: int) -> None:
        raise NotImplementedError


class _ChoiceEngine(_EngineBase):
    """one-choice, two-choice, d-choice, one-plus-beta."""

    def __init__(self, spec, n, source):
        super().__init__(spec, n, source)
        if spec.kind == "one-plus-beta":
            self.d = 2
            self.beta = spec.beta
        else:
            self.d = 1 if spec.kind == "one-choice" else (2 if spec.kind == "two-choice" else spec.d)
            self.beta = None

    def advance(self, target: int) -> None:
        loads = self.loads
        src = self.src
        ib, ii = self._ib, self._ii
        fb, fi = self._fb, self._fi
        wb, wi = self._wb, self._wi
        unit = self.unit
        beta = self.beta
        d = self.d
        random_ties = self.spec.tie_rule == "random"
        balls = self.balls
        while balls < target:
            if beta is not None:
                if fi >= len(fb):
                    fb = src.floats()
                    fi = 0
                k = 2 if fb[fi] < beta else 1
                fi += 1
            else:
                k = d
            if ii + k > len(ib):
                ib = src.bins()
                ii = 0
                if len(ib) < k:
                    raise IndexError("draw chunk shorter than one decision needs")
            if k == 1:
                b = ib[ii]
                ii += 1
            elif k == 2:
                i = ib[ii]
                j = ib[ii + 1]
                ii += 2
                li = loads[i]
                lj = loads[j]
                if li < lj:
                    b = i
                elif lj < li:
                    b = j
                elif not random_ties:
                    b = i if i > j else j
                elif i == j:
                    b = i
                else:
                    if fi >= len(fb):
                        fb = src.floats()
                        fi = 0
                    b = i if fb[fi] < 0.5 else j
                    fi += 1
            else:
                best = _lightest(loads, ib[ii:ii + k])
                ii += k
                if not random_ties:
                    b = max(best)
                elif len(best) == 1:
                    b = best[0]
                else:
                    if fi >= len(fb):
                        fb = src.floats()
                        fi = 0
                    b = best[min(int(fb[fi] * len(best)), len(best) - 1)]
                    fi += 1
            if unit:
                loads[b] += 1
            else:
                if wi >= len(wb):
                    wb = src.weights()
                    wi = 0
                loads[b] += wb[wi]
                wi += 1
            balls += 1
        self.steps += balls - self.balls
        self.balls = balls
        self._ib, self._ii = ib, ii
        self._fb, self._fi = fb, fi
        self._wb, self._wi = wb, wi


class _ThresholdEngine(_EngineBase):
    """quantile, twinning, penalty: rank-vs-quantile decisions via an
    exactly maintained top-T set (lazy-deletion heap keyed by weakness)."""

    def __init__(self, spec, n, source):
        super().__init__(spec, n, source)
        self.t = quantile_index(spec.delta, n)
        self.in_h = bytearray(n)
        self.version = [0] * n
        zero = 0 if self.unit else 0.0
        self.heap = [(zero, -b, b, 0) for b in range(self.t)]
        heapq.heapify(self.heap)
        for b in range(self.t):
            self.in_h[b] = 1

    def _bump(self, b: int, lb) -> None:
        # load of a member changed: push a fresh heap entry
        v = self.version[b] + 1
        self.version[b] = v
        heapq.heappush(self.heap, (lb, -b, b, v))

    def _maybe_enter(self, b: int, lb) -> None:
        # non-member strengthened: displace the weakest member if beaten
        heap = self.heap
        in_h = self.in_h
        version = self.version
        while True:
            lw, _negw, w, ver = heap[0]
            if in_h[w] and ver == version[w]:
                break
            heapq.heappop(heap)
        if lb > lw or (lb == lw and b < w):
            heapq.heappop(heap)
            in_h[w] = 0
            version[w] += 1
            in_h[b] = 1
            self._bump(b, lb)

    def advance(self, target: int) -> None:
        kind = self.spec.kind
        loads = self.loads
        src = self.src
        in_h = self.in_h
        ib, ii = self._ib, self._ii
        wb, wi = self._wb, self._wi
        unit = self.unit
        one = 1 if unit else 1.0
        balls = self.balls
        steps = self.steps
        while balls < target:
            if ii >= len(ib):
                ib = src.bins()
                ii = 0
            b = ib[ii]
            ii += 1
            if kind == "twinning":
                add = one if in_h[b] else one + one
                lb = loads[b] + add
                loads[b] = lb
                balls += 1 if in_h[b] else 2
                if in_h[b]:
                    self._bump(b, lb)
                else:
                    self._maybe_enter(b, lb)
            elif kind == "penalty":
                if not in_h[b]:
                    lb = loads[b] + one
                    loads[b] = lb
                    balls += 1
                    self._maybe_enter(b, lb)
                else:
                    if ii >= len(ib):
                        ib = src.bins()
                        ii = 0
                    b2 = ib[ii]
                    ii += 1
                    lb = loads[b2] + one + one
                    loads[b2] = lb
                    balls += 2
                    if in_h[b2]:
                        self._bump(b2, lb)
                    else:
                        self._maybe_enter(b2, lb)
            else:  # quantile
                if in_h[b]:
                    if ii >= len(ib):
                        ib = src.bins()
                        ii = 0
                    b = ib[ii]
                    ii += 1
                if unit:
                    w = 1
                else:
                    if wi >= len(wb):
                        wb = src.weights()
                        wi = 0
                    w = wb[wi]
                    wi += 1
                lb = loads[b] + w
                loads[b] = lb
                balls += 1
                if in_h[b]:
                    self._bump(b, lb)
                else:
                    self._maybe_enter(b, lb)
            steps += 1
        self.balls = balls
        self.steps = steps
        self._ib, self._ii = ib, ii
        self._wb, self._wi = wb, wi


class _ResetEngine(_EngineBase):
    def advance(self, target: int) -> None:
        loads = self.loads
        src = self.src
        ib, ii = self._ib, self._ii
        fb, fi = self._fb, self._fi
        wb, wi = self._wb, self._wi
        unit = self.unit
        random_ties = self.spec.tie_rule == "random"
        balls = self.balls
        steps = self.steps
        while balls < target:
            if ii + 2 > len(ib):
                ib = src.bins()
                ii = 0
            i1 = ib[ii]
            i2 = ib[ii + 1]
            ii += 2
            l1 = loads[i1]
            l2 = loads[i2] if i2 != i1 else l1
            if unit:
                loads[i1] = l1 + 1
            else:
                if wi >= len(wb):
                    wb = src.weights()
                    wi = 0
                loads[i1] = l1 + wb[wi]
                wi += 1
            if l1 < l2:
                b = i1
            elif l2 < l1:
                b = i2
            elif not random_ties or i1 == i2:
                b = i1 if i1 > i2 else i2
            else:
                if fi >= len(fb):
                    fb = src.floats()
                    fi = 0
                b = i1 if fb[fi] < 0.5 else i2
                fi += 1
            if unit:
                loads[b] += 1
            else:
                if wi >= len(wb):
                    wb = src.weights()
                    wi = 0
                loads[b] += wb[wi]
                wi += 1
            balls += 2
            steps += 2
        self.balls = balls
        self.steps = steps
        self._ib, self._ii = ib, ii
        self._fb, self._fi = fb, fi
        self._wb, self._wi = wb, wi


class _GraphEngine(_EngineBase):
    def __init__(self, spec, n, source):
        super().__init__(spec, n, source)
        self.eu = [u for u, _ in spec.graph.edges]
        self.ev = [v for _, v in spec.graph.edges]

    def advance(self, target: int) -> None:
        loads = self.loads
        src = self.src
        eu, ev = self.eu, self.ev
        ib, ii = self._ib, self._ii
        fb, fi = self._fb, self._fi
        wb, wi = self._wb, self._wi
        unit = self.unit
        random_ties = self.spec.tie_rule == "random"
        balls = self.balls
        while balls < target:
            if ii >= len(ib):
                ib = src.edges()
                ii = 0
            e = ib[ii]
            ii += 1
            u = eu[e]
            v = ev[e]
            lu = loads[u]
            lv = loads[v]
            if lu < lv:
                b = u
            elif lv < lu:
                b = v
            elif not random_ties:
                b = u if u > v else v
            else:
                if fi >= len(fb):
                    fb = src.floats()
                    fi = 0
                b = u if fb[fi] < 0.5 else v
                fi += 1
            if unit:
                loads[b] += 1
            else:
                if wi >= len(wb):
                    wb = src.weights()
                    wi = 0
                loads[b] += wb[wi]
                wi += 1
            balls += 1
        self.steps += balls - self.balls
        self.balls = balls
        self._ib, self._ii = ib, ii
        self._fb, self._fi = fb, fi
        self._wb, self._wi = wb, wi


def make_engine(spec: ProcessSpec, n: int, rng: np.random.Generator | None = None,
                source=None):
    """Build the fast stepper for one run: the compiled kernel, or the
    Python reference engine when the kernel cannot be built.  Tests may
    inject a script source."""
    advance = kernel.load()
    if advance is None:
        return reference_engine(spec, n, rng, source)
    return kernel.KernelEngine(advance, spec, n, _source(spec, n, rng, source))


def reference_engine(spec: ProcessSpec, n: int, rng: np.random.Generator | None = None,
                     source=None):
    """The Python engine for one run, drawing exactly as the kernel does."""
    source = _source(spec, n, rng, source)
    if spec.kind in ("one-choice", "two-choice", "d-choice", "one-plus-beta"):
        return _ChoiceEngine(spec, n, source)
    if spec.kind in ("quantile", "twinning", "penalty"):
        return _ThresholdEngine(spec, n, source)
    if spec.kind == "reset-memory":
        return _ResetEngine(spec, n, source)
    return _GraphEngine(spec, n, source)


def _source(spec: ProcessSpec, n: int, rng, source):
    if spec.kind == "graphical" and spec.graph.n != n:
        raise ValueError("graph size does not match n")
    if source is not None:
        return source
    if rng is None:
        raise ValueError("need rng or source")
    n_edges = len(spec.graph.edges) if spec.graph is not None else 0
    return _ChunkSource(rng, n, spec.weights, n_edges, max(_CHUNK, spec.d or 0))


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
    # a copy: engines and run_batched hand over their live load arrays
    y = np.array(loads, dtype=float)
    y -= y.mean()
    gap = float(y.max())
    max_abs = max(gap, float(-y.min()))
    gamma = probe.gamma if probe is not None else None
    if gamma is not None:
        n = len(y)
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


def run(spec: ProcessSpec, n: int, m: int, seed: int,
        probe: ProbeConfig | None = None) -> list[ProbeRow]:
    """Run until at least m balls are allocated, recording probes.

    Multi-ball steps may overshoot a probe point (and m) by one ball; the
    recorded step is the actual ball count.  Deterministic in (spec, n, m,
    seed).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    rng = make_generator(seed, 0)
    eng = make_engine(spec, n, rng)
    rows = []
    for pt in _probe_points(probe, n, m):
        eng.advance(pt)
        rows.append(_snapshot(eng.loads, eng.balls, probe, seed))
    return rows


def run_batched(spec: ProcessSpec, n: int, m: int, b: int, seed: int,
                probe: ProbeConfig | None = None) -> list[ProbeRow]:
    """Batched variant: rounds of b balls drawn i.i.d. from the process's
    allocation vector against the round-start ranking.  Unit weights only;
    probes land on round boundaries."""
    if spec.weights.kind != "unit":
        raise ValueError("batched rounds support unit weights only")
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    pv = np.asarray(allocation_vector(spec, n).probs, dtype=float)
    pv = pv / pv.sum()
    rng = make_generator(seed, 0)
    loads = np.zeros(n)
    rows = []
    balls = 0
    for pt in _probe_points(probe, n, m):
        while balls < pt:
            _batched_round(loads, pv, b, rng)
            balls += b
        rows.append(_snapshot(loads, balls, probe, seed))
    return rows
