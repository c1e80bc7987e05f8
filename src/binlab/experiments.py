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
import threading
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import left_to_right_sum
from .graphs import RegularGraph, build_graph, conductance_lower_bound
from .potentials import DriftEvaluator, gamma_for_weighted, require_c1, require_exact_gamma
from .processes import (ProbeConfig, ProbeRow, ProcessSpec, UnsupportedProcessError,
                        canonical_conditions, comparison_vector, cut_round_law,
                        make_engine, parse_process, rank_vector, run, run_batched,
                        tie_cuts)
from .rng import make_generator
from .tableio import Table
from .weights import parse_weights, s_for_gamma

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


def _refuse_ignored(cfg: ExperimentConfig, command: str, ignored: dict[str, str]) -> None:
    """Raise ValueError naming the first key of ``ignored`` (key: why the
    command ignores it) that ``cfg`` sets to other than its default."""
    for key, why in ignored.items():
        # a dataclass keeps each field's default as a class attribute
        if getattr(cfg, key) != getattr(ExperimentConfig, key):
            raise ValueError(f"config key {key} is not supported by {command} {why}".rstrip())


def _graphical(ptext: str) -> bool:
    return ptext.strip().partition(":")[0] == "graphical"


def _cells(cfg: ExperimentConfig):
    """(process index, n index, n, spec) of each cell, in config order; a
    graphical process gets its graph built from the config seed."""
    wdist = parse_weights(cfg.weights)
    for pi, ptext in enumerate(cfg.processes):
        for ni, n in enumerate(cfg.ns):
            graph = None
            if _graphical(ptext):
                if not cfg.graph:
                    raise ValueError("graphical process needs a graph= entry")
                graph = _parse_graph(cfg.graph, n, cfg.seed)
            yield pi, ni, n, parse_process(ptext, weights=wdist, graph=graph,
                                           tie_rule=cfg.tie_rule)


def _conditions(spec: ProcessSpec, n: int):
    """(gamma = eps*delta/(16*C*S), canonical conditions, S); raises
    UnsupportedProcessError when the process has no bias margin."""
    if spec.kind == "graphical":
        cond = canonical_conditions(spec, n, graph_eps=conductance_lower_bound(spec.graph))
    else:
        cond = canonical_conditions(spec, n)
    s = s_for_gamma(spec.weights)
    return gamma_for_weighted(cond, cond.c_cap, s), cond, s


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
    step) and deterministic given the master seed.  Refuses probe_steps
    under keep = final, and graph without a graphical process."""
    ignored = {}
    if cfg.keep == "final":
        ignored["probe_steps"] = "under keep = final, which probes at m only"
    if not any(_graphical(p) for p in cfg.processes):
        ignored["graph"] = "without a graphical process"
    _refuse_ignored(cfg, "simulate", ignored)
    runs = []
    for pi, ni, n, spec in _cells(cfg):
        gamma, cond = None, (None,) * 4
        if cfg.gamma == "auto":
            try:
                gamma, params, s = _conditions(spec, n)
                cond = (params.delta, params.epsilon, params.c_cap, s)
            except UnsupportedProcessError:
                pass
        elif cfg.gamma:
            gamma = float(cfg.gamma)
        for bi, btext in enumerate(cfg.batches):
            b = scaled_count(btext, n)
            if b > 0:
                rank_vector(spec, n)  # raises here, before any run, if it has none
            m = scaled_count(cfg.m, n, b)
            kernel.check_ball_target(m)  # here, before any run starts
            # keep = final records one row per run: probe only at m
            steps = (m,) if cfg.keep == "final" else cfg.probe_steps
            probe = ProbeConfig(steps=steps, gamma=gamma, thresholds=cfg.thresholds)
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


# probes per drift-check block: each of its matrices holds at most this many
# doubles (32 KiB).  Warm in-process drift-check runs on the certify
# benchmark's two configs (n = 64 to 1024) took a median 28.1, 28.4 and
# 28.1 ms at 2^12, 26.6, 26.7 and 27.4 ms at 2^14, and 28.2, 27.5 and 29.2
# ms at 2^16 (three alternating rounds of 40 runs, 2-CPU x86-64 host), with
# a peak RSS of 38.2 MiB at 2^12 and 39.1 MiB at both larger sizes.  2^12
# keeps the peak of one probe at a time, for a gain of about 1 ms of ~300
# per benchmark pass given up.
_BLOCK_DOUBLES = 1 << 12


def certify(cfg: ExperimentConfig) -> tuple[list, list]:
    """The counterpart of ``sweep`` for drift-check: one run per (process,
    n), probed every n balls up to m; each probe gives a ``certify_drift``
    certificate and the phi and psi ``drift_step_bound_exact`` checks.
    Graphical processes and the keys it does not read are refused, and
    every cell is validated, before any engine is built.  A cell's probes
    are evaluated in blocks: the engine advances through a block's probes,
    their states' rows are stacked into a matrix, and one ``DriftEvaluator``
    call gives the block's certificates and checks.  A probe sorts the
    loads once; the round law depends on the state only through the tie
    cut points (fixed under higher-index ties), so it is rebuilt only when
    they change, and a block whose probes share one law passes it as one
    row."""
    _refuse_ignored(cfg, "drift-check", dict.fromkeys(
        ("batches", "probe_steps", "thresholds", "keep", "reps", "graph"), ""))
    if any(_graphical(p) for p in cfg.processes):
        raise ValueError("graphical processes are not supported by drift-check")
    cells = []
    for pi, ni, n, spec in _cells(cfg):
        gamma, cond, s = _conditions(spec, n)
        if cfg.gamma not in ("", "auto"):
            gamma = float(cfg.gamma)
        require_exact_gamma(gamma)
        p = comparison_vector(spec, n)
        require_c1(p, cond)
        m = scaled_count(cfg.m, n)
        kernel.check_ball_target(m)
        cells.append((pi, ni, n, spec, m, gamma, cond, p, 2.0 * cond.c_cap * s))
    certs, checks = [], []
    for pi, ni, n, spec, m, gamma, cond, p, k_quad in cells:
        ev = DriftEvaluator(p, gamma, params=cond, weights=spec.weights, k=k_quad)
        eng = make_engine(spec, n, make_generator(cfg.seed, pi, ni))
        probes = range(0, m + 1, n)
        rows = max(1, _BLOCK_DOUBLES // n)
        law, law_ends = None, None
        for first in range(0, len(probes), rows):
            block = probes[first:first + rows]
            ys, laws = np.empty((len(block), n)), []
            for i, probe_at in enumerate(block):
                eng.advance(probe_at)
                # the loads in rank order (engines never hold -0.0, so the
                # values do not depend on how equal loads are ordered)
                ranked = np.sort(eng.loads)[::-1]
                np.subtract(ranked, left_to_right_sum(eng.loads) / n, out=ys[i])
                ends = tie_cuts(spec, ranked)
                if law is None or not np.array_equal(ends, law_ends):
                    law, law_ends = cut_round_law(spec, n, ends), ends
                laws.append(law)
            if all(one is law for one in laws):
                block_law = {atom: probs[None] for atom, probs in law.items()}
            else:
                block_law = {atom: np.array([one[atom] for one in laws]) for atom in law}
            block_certs, block_checks = ev.evaluate(ys, block_law)
            certs += block_certs
            checks += block_checks
    return certs, checks


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


# A sweep fans out only when its runs request at least this many balls in
# total.  Below it sit the conductance workload's graphical sweeps with
# gamma = auto (0.37 M and 0.57 M balls): their eigvalsh leaves OpenBLAS's
# threads spinning, and two workers beside that spin took them 32 and
# 112 ms against 29 and 108 ms serial.  Above it, the sweep-engines sweeps
# (2.6 M and 4.1 M balls) went from 43 to 30 ms and from 74 to 47 ms on two
# threads.  (In-process medians of 15 to 60 sweeps, 2-CPU x86-64 host.)
FANOUT_MIN_BALLS = 1 << 21


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, as ``taskset`` sets)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _run_all(runs: list[_Run]) -> list[list[ProbeRow]]:
    """Probe rows of every run, in the order of ``runs``.

    Each run is seeded by its own coordinates, so where it runs cannot
    change its rows.  A large sweep of one-row runs on the kernel spreads
    over one thread per usable CPU: a seeded kernel engine draws its own
    chunks and runs a whole advance without the GIL.  Runs that probe along
    the way stay serial, since each probe takes the GIL back (a sweep probed
    every n balls ran 2.3x slower on two threads).  The workers take runs in
    order and none after a failure, so every run before the failing one has
    started, and the error raised is the one a serial sweep raises.
    """
    workers = min(_usable_cpus(), len(runs))
    if (workers < 2 or sum(job.m for job in runs) < FANOUT_MIN_BALLS
            or any(job.probe.steps != (job.m,) for job in runs)
            or kernel.load() is None):
        return [_execute(job) for job in runs]
    rows, errors = [None] * len(runs), {}
    lock, todo = threading.Lock(), iter(range(len(runs)))

    def work():
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                rows[i] = _execute(runs[i])
            except BaseException as exc:
                errors[i] = exc

    # daemons, so that an interrupted sweep exits without finishing its runs
    threads = [threading.Thread(target=work, daemon=True) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return rows


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
    """Final-step gap of `reps` independent runs (deterministic per seed),
    each probed at m only."""
    probe = ProbeConfig(steps=(m,))
    runs = [_Run(spec, n, m, 0, run_seed(seed, rep), probe, ()) for rep in range(reps)]
    return [rows[-1].gap for rows in _run_all(runs)]


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
