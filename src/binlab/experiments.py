"""Declarative experiment sweeps over allocation processes.

A sweep runs the full factorial of (process, n, batch size, repetition),
records probe rows into a table, and downstream helpers aggregate medians,
fit order-of-growth predictors, and run lower-bound trial batteries.
Theorem-style constants are existential, so fits report an observed
constant and a residual spread instead of asserting any fixed value.
"""
from __future__ import annotations

import math
import os
import re
import statistics
from dataclasses import dataclass

import numpy as np

from . import kernel
from .graphs import RegularGraph, build_graph, conductance_lower_bound
from .potentials import gamma_for_weighted
from .processes import (ProbeConfig, ProbeRow, ProcessSpec, UnsupportedProcessError,
                        canonical_conditions, parse_process, rank_vector, run,
                        run_batched)
from .tableio import Table
from .weights import WeightDistribution, parse_weights, s_for_gamma

_SCALED = re.compile(r"^(\d+)(n|nlogn|b)?$")


def scaled_count(rule: str, n: int, b: int = 0) -> int:
    """Resolve a count rule: '5000' absolute, '200n', '4nlogn' (natural
    log), or '50b' (requires a batch size)."""
    m = _SCALED.match(rule.strip())
    if not m:
        raise ValueError(f"bad count rule {rule!r} (want e.g. 5000, 200n, 4nlogn, 50b)")
    k = int(m.group(1))
    unit = m.group(2)
    if unit is None:
        return k
    if unit == "n":
        return k * n
    if unit == "nlogn":
        return math.ceil(k * n * math.log(n)) if n > 1 else k
    if b < 1:
        raise ValueError("count rule in units of b needs a batch size")
    return k * b


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: processes x bin counts x batch sizes x repetitions."""

    processes: tuple[str, ...]
    ns: tuple[int, ...]
    m: str = "100n"
    reps: int = 1
    seed: int = 0
    weights: str = "unit"
    batches: tuple[str, ...] = ("0",)   # "0" = sequential; "2n" scales with n
    gamma: str = ""                     # "", "auto", or a number > 0
    thresholds: tuple[float, ...] = ()
    probe_steps: tuple[int, ...] | None = None
    tie_rule: str = "higher-index"
    graph: str = ""                     # graph kind for graphical processes
    keep: str = "final"                 # "final" or "trajectory"
    cond_delta: str = ""                # drift-check: override canonical delta
    cond_epsilon: str = ""              # drift-check: override canonical epsilon

    def __post_init__(self):
        if not self.processes:
            raise ValueError("need at least one process")
        if not self.ns or any(n < 1 for n in self.ns):
            raise ValueError("all n must be >= 1")
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.keep not in ("final", "trajectory"):
            raise ValueError(f"keep must be final or trajectory, got {self.keep!r}")
        if self.probe_steps is not None:
            if any(s < 0 for s in self.probe_steps):
                raise ValueError(f"probe_steps must be >= 0, got {self.probe_steps}")
            object.__setattr__(self, "probe_steps",
                               tuple(sorted(set(self.probe_steps))))
        for b in self.batches:
            if not _SCALED.match(b) or _SCALED.match(b).group(2) == "b":
                raise ValueError(f"bad batch size {b!r}")
        if self.gamma not in ("", "auto"):
            g = float(self.gamma)
            if not (math.isfinite(g) and g > 0):
                raise ValueError("gamma must be '', 'auto' or a finite number > 0, "
                                 f"got {self.gamma!r}")
        if not all(math.isfinite(z) for z in self.thresholds):
            raise ValueError(f"thresholds must be finite, got {self.thresholds}")
        # batched rounds take unit-weight balls and rank ties by ascending id
        wd = parse_weights(self.weights)
        if any(scaled_count(b, 2) > 0 for b in self.batches):
            if wd.kind != "unit":
                raise ValueError("batched rounds are defined for unit weights only; "
                                 "use weights=unit or batches=0")
            if self.tie_rule == "random":
                raise ValueError("batched rounds break ties by ascending bin id; "
                                 "use tie_rule=higher-index or batches=0")


def _auto_gamma(spec: ProcessSpec, n: int, wdist: WeightDistribution):
    """gamma = eps*delta/(16*C*S) from the process's canonical conditions,
    with (delta, eps, C, S); all None when the process has no bias margin."""
    try:
        if spec.kind == "graphical":
            eps = conductance_lower_bound(spec.graph)
            cond = canonical_conditions(spec, n, graph_eps=eps)
        else:
            cond = canonical_conditions(spec, n)
    except UnsupportedProcessError:
        return None, (None,) * 4
    s = s_for_gamma(wdist)
    return gamma_for_weighted(cond, cond.c_cap, s), (cond.delta, cond.epsilon, cond.c_cap, s)


def record_headers(thresholds: tuple[float, ...] = ()) -> tuple[str, ...]:
    """Sweep CSV columns; ``sweep`` appends each row in this order."""
    base = ("point", "kind", "n", "d", "beta", "delta", "b", "seed", "step",
            "gap", "max_abs_y", "gamma_value", "gamma_total", "cond_delta",
            "cond_epsilon", "cond_c", "cond_s")
    return base + tuple(f"bins_ge_{z:g}" for z in thresholds)


def run_seed(master: int, *path: int) -> int:
    """Deterministic per-run seed: a 64-bit child of the master seed at a
    sweep coordinate."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def sweep(cfg: ExperimentConfig) -> Table:
    """Run the full factorial; rows ordered by (process, n, batch, rep,
    step) and deterministic given the master seed."""
    wdist = parse_weights(cfg.weights)
    runs = []
    for pi, ptext in enumerate(cfg.processes):
        kind = ptext.strip().partition(":")[0]
        for ni, n in enumerate(cfg.ns):
            graph = None
            if kind == "graphical":
                if not cfg.graph:
                    raise ValueError("graphical process needs a graph= entry")
                graph = _parse_graph(cfg.graph, n, cfg.seed)
            spec = parse_process(ptext, weights=wdist, graph=graph,
                                 tie_rule=cfg.tie_rule)
            for bi, btext in enumerate(cfg.batches):
                b = scaled_count(btext, n)
                if b > 0:
                    rank_vector(spec, n)  # raises here, before any run, if it has none
                m = scaled_count(cfg.m, n, b)
                kernel.check_ball_target(m)  # here, before any run starts
                gamma, cond = None, (None,) * 4
                if cfg.gamma == "auto":
                    gamma, cond = _auto_gamma(spec, n, wdist)
                elif cfg.gamma:
                    gamma = float(cfg.gamma)
                # keep = final records one row per run: probe only at m
                steps = (m,) if cfg.keep == "final" else cfg.probe_steps
                probe = ProbeConfig(steps=steps, gamma=gamma,
                                    thresholds=cfg.thresholds)
                for rep in range(cfg.reps):
                    runs.append(_Run(spec, n, m, b, run_seed(cfg.seed, pi, ni, bi, rep),
                                     probe, cond))
    table = Table(headers=record_headers(cfg.thresholds))
    for job, rows in zip(runs, _run_all(runs)):
        spec = job.spec
        for r in rows:
            table.append((spec.label(), spec.kind, job.n, spec.d, spec.beta,
                          spec.delta, job.b, job.seed, r.step, r.gap, r.max_abs,
                          r.gamma_value, r.gamma_total, *job.cond, *r.bins_ge))
    return table


@dataclass(frozen=True)
class _Run:
    """One run of a sweep, with the condition columns its rows carry."""

    spec: ProcessSpec
    n: int
    m: int
    b: int
    seed: int
    probe: ProbeConfig
    cond: tuple


def _execute(job: _Run) -> list[ProbeRow]:
    if job.b > 0:
        return run_batched(job.spec, job.n, job.m, job.b, job.seed, job.probe)
    return run(job.spec, job.n, job.m, job.seed, job.probe)


# A sweep whose runs request at least this many balls in total is spread
# over the usable CPUs.  Starting, feeding and closing a worker pool costs
# 12-20 ms on a 2-CPU x86-64 host, where 2^24 balls take 0.4-1.7 s of engine
# or batched work in one process: a sweep that fans out gains far more
# than the pool costs, and a small one pays nothing.
FANOUT_MIN_BALLS = 1 << 24


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, as ``taskset`` sets)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _run_all(runs: list[_Run]) -> list[list[ProbeRow]]:
    """Probe rows of every run, in the order of ``runs``.

    Each run is seeded by its own coordinates, so where it executes cannot
    change its rows.  Large sweeps go to a pool of forked workers: a fork
    inherits the imported modules, the loaded kernel and the batched rank
    vectors that ``sweep`` built, where a spawned worker would import
    binlab again.  The parent's only other thread is OpenBLAS's, which
    shuts itself down around a fork.
    """
    workers = min(_usable_cpus(), len(runs))
    if workers >= 2 and sum(job.m for job in runs) >= FANOUT_MIN_BALLS:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            kernel.load()  # every run uses it: build or open it once, not per worker
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                # imap hands out one run at a time and yields in order, so a
                # failing run raises the error it would raise in this process
                return list(pool.imap(_execute, runs))
    return [_execute(job) for job in runs]


def _parse_graph(text: str, n: int, seed: int) -> RegularGraph:
    """Graph axis entry: 'cycle', 'hypercube', 'torus-grid', 'complete',
    or 'random-regular:d=4'."""
    kind, _, arg = text.partition(":")
    d = None
    if arg:
        key, _, val = arg.partition("=")
        if key != "d":
            raise ValueError(f"unknown graph argument {arg!r}")
        d = int(val)
    return build_graph(kind, n, d=d, seed=seed)


_GROUP_COLS = ("point", "kind", "n", "d", "beta", "delta", "b", "step")
_CARRY_COLS = ("gamma_value", "cond_delta", "cond_epsilon", "cond_c", "cond_s")


def aggregate(table: Table) -> Table:
    """Median per (config point, step) across repetitions.

    Idempotent: aggregating an aggregated table returns it unchanged
    (groups are singletons; the reps column carries the count through).
    """
    idx = {h: i for i, h in enumerate(table.headers)}
    for c in _GROUP_COLS:
        if c not in idx:
            raise ValueError(f"table lacks column {c!r}")
    med_cols = [h for h in table.headers
                if h not in _GROUP_COLS + _CARRY_COLS + ("seed", "reps")]
    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    for row in table.rows:
        key = tuple(row[idx[c]] for c in _GROUP_COLS)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    headers = _GROUP_COLS + tuple(c for c in _CARRY_COLS if c in idx) \
        + ("reps",) + tuple(med_cols)
    out = Table(headers=headers)
    for key in order:
        rows = groups[key]
        carry = [rows[0][idx[c]] for c in _CARRY_COLS if c in idx]
        reps = sum((r[idx["reps"]] if "reps" in idx else 1) for r in rows)
        meds = []
        for c in med_cols:
            vals = [r[idx[c]] for r in rows if r[idx[c]] is not None]
            meds.append(float(statistics.median(vals)) if vals else None)
        out.append(key + tuple(carry) + (reps,) + tuple(meds))
    return out


@dataclass(frozen=True)
class FitReport:
    """One-parameter least-squares fit of median gap against a predictor."""

    axis: str
    points: tuple[tuple[float, float, float], ...]  # (axis value, x, median gap)
    kappa: float
    max_rel_residual: float


def gap_scaling_report(table: Table, axis: str, complement: bool = False) -> FitReport:
    """Fit median final gap ~ kappa * x where x is the axis's predictor:

    axis       predictor x
    beta       log(n) / beta
    delta      log(n) / delta   (complement=True: log(n) / (1 - delta))
    b_over_n   (b/n) * log(n)
    log_n      log(n)
    """
    if axis not in ("beta", "delta", "b_over_n", "log_n"):
        raise ValueError(f"unknown axis {axis!r}")
    idx = {h: i for i, h in enumerate(table.headers)}
    for c in ("point", "kind", "n", "b", "step", "gap"):
        if c not in idx:
            raise ValueError(f"table lacks column {c!r}")

    # keep only each group's final probe step
    last: dict[tuple, int] = {}
    for row in table.rows:
        key = (row[idx["point"]], row[idx["n"]], row[idx["b"]])
        last[key] = max(last.get(key, 0), row[idx["step"]])

    by_value: dict[float, list[float]] = {}
    for row in table.rows:
        key = (row[idx["point"]], row[idx["n"]], row[idx["b"]])
        if row[idx["step"]] != last[key]:
            continue
        n = row[idx["n"]]
        if axis == "beta":
            v = row[idx["beta"]]
            x = math.log(n) / v if v else None
        elif axis == "delta":
            v = row[idx["delta"]]
            if v is not None and complement:
                v = 1.0 - v
            x = math.log(n) / v if v else None
        elif axis == "b_over_n":
            v = row[idx["b"]] / n
            x = v * math.log(n) if v else None
        else:
            v = float(n)
            x = math.log(n)
        if x is None:
            raise ValueError(f"row lacks a value on axis {axis!r}")
        by_value.setdefault(float(v), []).append((x, row[idx["gap"]]))

    if len(by_value) < 3:
        raise ValueError(f"need >= 3 axis points, got {len(by_value)}")
    pts = []
    for v in sorted(by_value):
        xs = {x for x, _ in by_value[v]}
        if len(xs) != 1:
            raise ValueError(f"axis value {v} maps to several predictor values")
        med = float(statistics.median(g for _, g in by_value[v]))
        pts.append((v, xs.pop(), med))
    sxx = sum(x * x for _, x, _ in pts)
    sxy = sum(x * g for _, x, g in pts)
    kappa = sxy / sxx
    rel = max(abs(g - kappa * x) / abs(kappa * x) for _, x, g in pts)
    return FitReport(axis=axis, points=tuple(pts), kappa=kappa,
                     max_rel_residual=rel)


_UNIFORM_COMPONENT = ("one-choice", "one-plus-beta", "twinning", "penalty",
                      "reset-memory")


def final_gaps(spec: ProcessSpec, n: int, m: int, reps: int, seed: int) -> list[float]:
    """Final-step gap of `reps` independent runs (deterministic per seed)."""
    gaps = []
    for rep in range(reps):
        rows = run(spec, n, m, run_seed(seed, rep))
        gaps.append(rows[-1].gap)
    return gaps


def lower_bound_trials(spec: ProcessSpec, n: int, c_scale: float, kappa: float,
                       reps: int, seed: int) -> float:
    """Fraction of runs of ~c_scale*n*log(n) balls whose gap reaches
    kappa*log(n).

    Restricted to processes that allocate at least one ball per round with
    a uniform component (the regime where the log(n) gap floor applies).
    """
    if spec.kind not in _UNIFORM_COMPONENT or \
            (spec.kind == "one-plus-beta" and spec.beta == 1.0):
        raise ValueError(
            f"{spec.label()} has no uniform allocation component")
    m = math.ceil(c_scale * n * math.log(n))
    gaps = final_gaps(spec, n, m, reps, seed)
    bar = kappa * math.log(n)
    return sum(g >= bar for g in gaps) / reps
