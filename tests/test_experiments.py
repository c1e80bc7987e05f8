"""Sweep orchestration, aggregation, scaling fits, and trial batteries."""
from __future__ import annotations

import math
import sys
import threading

import pytest

from binlab import experiments
from binlab.experiments import (ExperimentConfig, aggregate, certify, final_gaps,
                                gap_scaling_report, lower_bound_trials,
                                record_headers, run_seed, scaled_count, sweep)
from binlab import processes
from binlab.graphs import cycle_graph
from binlab.processes import ProbeConfig, parse_process, run
from binlab.tableio import Table, dumps_csv


@pytest.mark.parametrize("rule,n,b,expect", [
    ("5000", 1024, 0, 5000),
    ("200n", 64, 0, 12800),
    ("4nlogn", 64, 0, math.ceil(4 * 64 * math.log(64))),
    ("1nlogn", 1, 0, 1),
    ("50b", 16, 32, 1600),
])
def test_scaled_count(rule, n, b, expect):
    assert scaled_count(rule, n, b) == expect


def test_scaled_count_rejects():
    with pytest.raises(ValueError):
        scaled_count("n200", 64)
    with pytest.raises(ValueError):
        scaled_count("4.5n", 64)
    with pytest.raises(ValueError):
        scaled_count("50b", 64)  # no batch size in scope


def test_config_validation():
    ok = ExperimentConfig(processes=("two-choice",), ns=(8,))
    assert ok.m == "100n" and ok.keep == "final"
    with pytest.raises(ValueError):
        ExperimentConfig(processes=(), ns=(8,))
    with pytest.raises(ValueError):
        ExperimentConfig(processes=("two-choice",), ns=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(processes=("two-choice",), ns=(8,), reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(processes=("two-choice",), ns=(8,), keep="all")
    with pytest.raises(ValueError):
        ExperimentConfig(processes=("two-choice",), ns=(8,), batches=("2b",))
    with pytest.raises(ValueError, match="unit weights only"):
        ExperimentConfig(processes=("two-choice",), ns=(8,),
                         weights="exp1", batches=("2n",))


def test_run_seed_determinism():
    a = run_seed(123, 0, 1, 2)
    assert a == run_seed(123, 0, 1, 2)
    assert a != run_seed(123, 0, 1, 3)
    assert a != run_seed(124, 0, 1, 2)
    assert 0 <= a < 2 ** 64


def test_sweep_shape_final():
    cfg = ExperimentConfig(processes=("two-choice", "one-choice"), ns=(8, 16),
                           m="10n", reps=3, seed=5)
    t = sweep(cfg)
    assert t.headers == record_headers(())
    assert len(t) == 2 * 2 * 3  # process x n x rep, one final row each
    idx = {h: i for i, h in enumerate(t.headers)}
    for row in t.rows:
        assert row[idx["step"]] == 10 * row[idx["n"]]
        assert row[idx["gap"]] >= 0


def test_sweep_final_probes_once_per_run(monkeypatch):
    snapshot = processes._snapshot
    calls = []
    monkeypatch.setattr(processes, "_snapshot",
                        lambda *a: calls.append(a[1]) or snapshot(*a))
    cfg = ExperimentConfig(processes=("two-choice",), ns=(8,), m="10n",
                           reps=3, batches=("0", "2n"))
    t = sweep(cfg)
    assert len(t) == 6
    assert calls == [80] * 6  # one probe per run, at m


def test_sweep_shape_trajectory():
    cfg = ExperimentConfig(processes=("two-choice",), ns=(8,), m="10n",
                           reps=2, keep="trajectory")
    t = sweep(cfg)
    assert len(t) == 2 * 10  # probes every n balls


def test_sweep_deterministic_bytes():
    cfg = ExperimentConfig(processes=("two-choice",), ns=(16,), m="20n",
                           reps=4, seed=9, gamma="auto")
    a = dumps_csv(sweep(cfg))
    b = dumps_csv(sweep(cfg))
    assert a == b
    c = dumps_csv(sweep(ExperimentConfig(processes=("two-choice",), ns=(16,),
                                         m="20n", reps=4, seed=10, gamma="auto")))
    assert a != c


def test_sweep_auto_gamma_columns():
    cfg = ExperimentConfig(processes=("two-choice",), ns=(64,), m="5n",
                           gamma="auto")
    t = sweep(cfg)
    idx = {h: i for i, h in enumerate(t.headers)}
    row = t.rows[0]
    # eps*delta/(16*C*S) = 0.5*0.25/32, bit-exact in binary floats
    assert row[idx["gamma_value"]] == 1 / 256
    assert row[idx["cond_delta"]] == 0.25
    assert row[idx["cond_epsilon"]] == 0.5
    assert row[idx["cond_c"]] == 2.0
    assert row[idx["cond_s"]] == 1.0
    recompute = (row[idx["cond_epsilon"]] * row[idx["cond_delta"]]
                 / (16 * row[idx["cond_c"]] * row[idx["cond_s"]]))
    assert row[idx["gamma_value"]] == recompute


def test_sweep_graphical_auto_gamma_epsilon_is_a_lower_bound():
    n = 64
    cfg = ExperimentConfig(processes=("graphical",), ns=(n,), m="2n",
                           graph="cycle", gamma="auto")
    t = sweep(cfg)
    idx = {h: i for i, h in enumerate(t.headers)}
    half_lambda2 = math.sin(math.pi / n) ** 2  # (1 - cos(2 pi / n)) / 2
    eps = t.rows[0][idx["cond_epsilon"]]
    assert 0 < eps <= half_lambda2


def test_sweep_uniform_process_has_no_gamma():
    cfg = ExperimentConfig(processes=("one-choice",), ns=(8,), m="5n",
                           gamma="auto")
    t = sweep(cfg)
    idx = {h: i for i, h in enumerate(t.headers)}
    assert t.rows[0][idx["gamma_value"]] is None
    assert t.rows[0][idx["gamma_total"]] is None


def test_sweep_batched_and_graphical():
    cfg = ExperimentConfig(processes=("two-choice",), ns=(16,), m="4b",
                           batches=("2n",), reps=2)
    t = sweep(cfg)
    idx = {h: i for i, h in enumerate(t.headers)}
    assert all(row[idx["b"]] == 32 for row in t.rows)
    assert all(row[idx["step"]] == 128 for row in t.rows)

    gcfg = ExperimentConfig(processes=("graphical",), ns=(16,), m="5n",
                            graph="hypercube")
    gt = sweep(gcfg)
    assert len(gt) == 1
    with pytest.raises(ValueError, match="graph"):
        sweep(ExperimentConfig(processes=("graphical",), ns=(16,), m="5n"))


def _no_cells(monkeypatch) -> list:
    """Calls of ``experiments._cells``, which no refused config reaches."""
    calls = []
    monkeypatch.setattr(experiments, "_cells", lambda cfg: calls.append(cfg) or iter(()))
    return calls


def test_sweep_refuses_probe_steps_under_keep_final(monkeypatch):
    cells = _no_cells(monkeypatch)
    cfg = ExperimentConfig(processes=("two-choice",), ns=(8,), m="2n", probe_steps=(8,))
    with pytest.raises(ValueError, match="^config key probe_steps is not supported by "
                                         "simulate under keep = final, which probes at m only$"):
        sweep(cfg)
    assert cells == []


# the library form of drift-check makes its refusals, before any cell resolves
@pytest.mark.parametrize("change,text", [
    ({"reps": 5}, "config key reps is not supported by drift-check"),
    ({"batches": ("2n",)}, "config key batches is not supported by drift-check"),
    ({"processes": ("two-choice", "graphical")},
     "graphical processes are not supported by drift-check"),
], ids=["reps", "batches", "graphical"])
def test_certify_refuses_what_drift_check_ignores(monkeypatch, change, text):
    cells = _no_cells(monkeypatch)
    cfg = ExperimentConfig(**{"processes": ("two-choice",), "ns": (8,), "m": "2n", **change})
    with pytest.raises(ValueError, match=f"^{text}$"):
        certify(cfg)
    assert cells == []


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(processes=("two-choice", "one-plus-beta:beta=0.5"), ns=(16, 32),
                     m="20b", batches=("1n", "4n"), reps=3, seed=4),
    ExperimentConfig(processes=("two-choice", "twinning:delta=0.5", "reset-memory"),
                     ns=(16, 32), m="20n", reps=3, seed=6, gamma="0.5",
                     thresholds=(1.0, 2.0), keep="trajectory"),
    ExperimentConfig(processes=("two-choice", "twinning:delta=0.5", "reset-memory"),
                     ns=(16, 32), m="20n", reps=3, seed=6, gamma="0.5",
                     thresholds=(1.0, 2.0)),
    ExperimentConfig(processes=("graphical",), ns=(16, 32), m="10n", reps=3, seed=8,
                     graph="random-regular:d=4", gamma="auto"),
], ids=["batched", "per-ball", "per-ball-final", "graphical-auto-gamma"])
def test_sweep_bytes_do_not_depend_on_fan_out(monkeypatch, thread_starts, cfg):
    monkeypatch.setattr(experiments, "FANOUT_MIN_BALLS", 0)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: workers)
        out.append(dumps_csv(sweep(cfg)))
    # one CPU runs the sweep in this thread; two fan it out on two threads,
    # unless its runs probe along the way (keep = trajectory)
    assert len(thread_starts) == (0 if cfg.keep == "trajectory" else 2)
    assert out[0] == out[1]


def test_fanned_out_runs_each_run_once_under_contention(monkeypatch):
    # more workers than CPUs, switching threads every microsecond: a run
    # taken twice or lost would show in the counts or the rows
    runs = [experiments._Run(parse_process("two-choice"), 8, 8, 0, i,
                             ProbeConfig(steps=(8,)), ()) for i in range(400)]
    taken, lock = [0] * len(runs), threading.Lock()

    def execute(job):
        with lock:
            taken[job.seed] += 1
        return [job.seed]

    monkeypatch.setattr(experiments, "_execute", execute)
    monkeypatch.setattr(experiments, "FANOUT_MIN_BALLS", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(target=lambda: out.append(experiments._run_all(runs)))
        t.start()
        t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not t.is_alive()
    assert out == [[[i] for i in range(len(runs))]]
    assert taken == [1] * len(runs)


def test_fanned_out_sweep_raises_the_first_failing_runs_error(monkeypatch):
    # runs 3 and 5 of 8 fail.  On two workers, run 3 fails only after run 5
    # has: the other worker takes runs 4 and 5 meanwhile.  The error raised
    # is still run 3's, the one a serial sweep raises, and once a run has
    # failed no worker takes another, so runs 6 and 7 never start
    spec = parse_process("two-choice")
    runs = [experiments._Run(spec, 8, 8, 0, i, ProbeConfig(steps=(8,)), ())
            for i in range(8)]
    monkeypatch.setattr(experiments, "FANOUT_MIN_BALLS", 0)
    for workers, started in ((1, [0, 1, 2, 3]), (2, [0, 1, 2, 3, 4, 5])):
        log, five_failed = [], threading.Event()

        def execute(job):
            log.append(job.seed)
            if job.seed == 3 and workers > 1:
                assert five_failed.wait(timeout=30)
            if job.seed in (3, 5):
                five_failed.set()
                raise ValueError(f"run {job.seed}")
            return []

        monkeypatch.setattr(experiments, "_execute", execute)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: workers)
        with pytest.raises(ValueError, match="^run 3$"):
            experiments._run_all(runs)
        assert sorted(log) == started


def test_aggregate_medians_and_idempotence():
    cfg = ExperimentConfig(processes=("two-choice",), ns=(8, 16), m="10n",
                           reps=5, seed=3)
    t = sweep(cfg)
    agg = aggregate(t)
    idx = {h: i for i, h in enumerate(agg.headers)}
    assert len(agg) == 2  # one row per n
    assert all(row[idx["reps"]] == 5 for row in agg.rows)
    assert "seed" not in agg.headers
    again = aggregate(agg)
    assert again.headers == agg.headers
    assert [tuple(r) for r in again.rows] == [tuple(r) for r in agg.rows]


def test_aggregate_median_value_hand_checked():
    t = Table(headers=record_headers(()))
    base = ["p", "two-choice", 8, None, None, None, 0]
    for seed, gap in ((1, 3.0), (2, 1.0), (3, 2.0)):
        t.append(tuple(base) + (seed, 80, gap, gap, None, None, None, None,
                                None, None))
    agg = aggregate(t)
    idx = {h: i for i, h in enumerate(agg.headers)}
    assert agg.rows[0][idx["gap"]] == 2.0
    assert agg.rows[0][idx["reps"]] == 3


def test_gap_scaling_report_synthetic_exact_fit():
    t = Table(headers=record_headers(()))
    n = 256
    for beta in (0.1, 0.2, 0.4, 0.8):
        x = math.log(n) / beta
        row = ("p", "one-plus-beta", n, None, beta, None, 0, 1, 100,
               3.0 * x, 3.0 * x, None, None, None, None, None, None)
        t.append(row)
    rep = gap_scaling_report(t, "beta")
    assert rep.kappa == pytest.approx(3.0, rel=1e-12)
    assert rep.max_rel_residual == pytest.approx(0.0, abs=1e-12)
    assert len(rep.points) == 4
    assert rep.points[0][0] == 0.1  # sorted by axis value


def test_gap_scaling_report_axes_and_errors():
    t = Table(headers=record_headers(()))
    for nn in (64, 256, 1024):
        t.append(("p", "two-choice", nn, None, None, None, 0, 1, nn,
                  2.0 * math.log(nn), 0.0, None, None, None, None, None, None))
    rep = gap_scaling_report(t, "log_n")
    assert rep.kappa == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        gap_scaling_report(t, "volume")
    short = Table(headers=record_headers(()))
    short.append(("p", "two-choice", 64, None, None, None, 0, 1, 64,
                  1.0, 1.0, None, None, None, None, None, None))
    with pytest.raises(ValueError, match=">= 3"):
        gap_scaling_report(short, "log_n")


def test_gap_scaling_delta_complement():
    t = Table(headers=record_headers(()))
    n = 256
    for delta in (0.25, 0.5, 0.75):
        x = math.log(n) / (1 - delta)
        t.append(("p", "twinning", n, None, None, delta, 0, 1, 100,
                  1.5 * x, 1.5 * x, None, None, None, None, None, None))
    rep = gap_scaling_report(t, "delta", complement=True)
    assert rep.kappa == pytest.approx(1.5, rel=1e-12)


def test_gap_scaling_uses_final_step_only():
    t = Table(headers=record_headers(()))
    for nn in (64, 256, 1024):
        # an early probe row with a huge gap must be ignored
        t.append(("p", "two-choice", nn, None, None, None, 0, 1, nn // 2,
                  999.0, 999.0, None, None, None, None, None, None))
        t.append(("p", "two-choice", nn, None, None, None, 0, 1, nn,
                  2.0 * math.log(nn), 0.0, None, None, None, None, None, None))
    rep = gap_scaling_report(t, "log_n")
    assert rep.kappa == pytest.approx(2.0, rel=1e-12)


def _bins_ge(loads, thresholds):
    return processes._snapshot(loads, 0, processes.ProbeConfig(thresholds=thresholds),
                               0).bins_ge


def test_count_bins_outside():
    # the sweeps' bins_ge_z columns: bins with normalized load >= z
    loads = [3.0, -1.0, -1.0, -1.0]  # normalized: (3, -1, -1, -1)
    assert _bins_ge(loads, (2.0, 1.0, 0.5, 3.0, 3.5)) == (1, 1, 1, 1, 0)
    assert _bins_ge(loads, (-1.0, -2.0)) == (4, 4)


def test_count_bins_outside_monotone_in_z():
    loads = [9.0, 4.0, 4.0, 1.0, 0.0, 0.0]
    counts = _bins_ge(loads, (0.5, 1.0, 2.0, 4.0, 8.0))
    assert list(counts) == sorted(counts, reverse=True)


def test_final_gaps_deterministic():
    spec = parse_process("two-choice")
    a = final_gaps(spec, 32, 320, reps=5, seed=4)
    b = final_gaps(spec, 32, 320, reps=5, seed=4)
    assert a == b and len(a) == 5
    assert all(g >= 0 for g in a)


@pytest.mark.parametrize("spec,n,m", [
    (parse_process("twinning:delta=0.5"), 64, 64 * 25 + 1),    # two-ball steps
    (parse_process("graphical", graph=cycle_graph(32)), 32, 32 * 40 + 7),
], ids=["twinning", "graphical"])
@pytest.mark.parametrize("workers", [1, 2])
def test_final_gaps_probe_at_m_only(monkeypatch, thread_starts, spec, n, m, workers):
    # probed at m alone, each run ends as run() probed every n balls ends:
    # the engine's stop at m does not depend on earlier stops
    snapshot, probes = processes._snapshot, []
    monkeypatch.setattr(processes, "_snapshot",
                        lambda *a: probes.append(a[1]) or snapshot(*a))
    monkeypatch.setattr(experiments, "FANOUT_MIN_BALLS", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: workers)
    gaps = final_gaps(spec, n, m, reps=6, seed=11)
    assert len(probes) == 6 and min(probes) >= m
    assert len(thread_starts) == (workers if workers > 1 else 0)
    assert gaps == [run(spec, n, m, run_seed(11, rep))[-1].gap for rep in range(6)]


def test_lower_bound_trials_gate_and_range():
    with pytest.raises(ValueError, match="uniform"):
        lower_bound_trials(parse_process("two-choice"), 64, 1.0, 0.1, 4, 0)
    with pytest.raises(ValueError, match="uniform"):
        lower_bound_trials(parse_process("one-plus-beta:beta=1"), 64, 1.0, 0.1, 4, 0)
    frac = lower_bound_trials(parse_process("one-choice"), 64, 1.0, 0.25, 10, 2)
    assert 0.0 <= frac <= 1.0
    # one-choice at m = n log n comfortably exceeds a 0.05*log(n) gap
    assert lower_bound_trials(parse_process("one-choice"), 64, 1.0, 0.05, 10, 2) == 1.0
