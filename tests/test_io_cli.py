"""CSV tables, SVG rendering, config parsing, and the command line.

CLI tests call ``binlab.cli.main`` in-process and assert on exit codes and
captured output; the printed vector/conductance lines are golden.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from binlab import configfile, experiments, kernel
from binlab.cli import main
from binlab.configfile import parse_config_text
from binlab.experiments import ExperimentConfig
from binlab.graphs import complete_graph, cycle_graph, write_graph_file
from binlab.svgplot import PlotSpec, Series, render_series, render_svg, table_series
from binlab.tableio import Table, dumps_csv, format_cell, read_csv, write_csv
from binlab.weights import POISSON_LAM_MAX, parse_weights


# -- tableio -------------------------------------------------------------------

def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(0.12345678912) == "0.123456789"
    assert format_cell(1e-7) == "1e-07"
    assert format_cell(42) == "42"
    assert format_cell("kind") == "kind"


def test_table_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Table(headers=("a", "b", "a"))
    t = Table(headers=("a", "b"))
    with pytest.raises(ValueError):
        t.append((1,))
    t.append((1, 2.5))
    assert len(t) == 1
    assert t.column("b") == [2.5]
    with pytest.raises(KeyError):
        t.column("c")


def test_csv_round_trip_types(tmp_path):
    t = Table(headers=("name", "count", "ratio", "note"))
    t.append(("alpha", 3, 0.5, None))
    t.append(("with,comma", -1, 1e-9, "x"))
    path = tmp_path / "t.csv"
    write_csv(t, path)
    back = read_csv(path)
    assert back.headers == t.headers
    assert back.rows[0] == ("alpha", 3, 0.5, None)
    assert back.rows[1] == ("with,comma", -1, 1e-09, "x")


def test_csv_bytes_stable(tmp_path):
    t = Table(headers=("a", "b"))
    t.append((1, 0.1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(t, p1)
    write_csv(t, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    assert b"\r" not in p1.read_bytes()


def test_csv_header_only(tmp_path):
    t = Table(headers=("x", "y"))
    assert dumps_csv(t) == "x,y\n"
    path = tmp_path / "empty.csv"
    write_csv(t, path)
    back = read_csv(path)
    assert back.headers == ("x", "y") and len(back) == 0


def test_csv_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="ragged"):
        read_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_csv(p)


# -- svgplot -------------------------------------------------------------------

def test_plot_spec_validation():
    with pytest.raises(ValueError):
        PlotSpec(x="a", y="b", scale="sqrt")


def _demo_table() -> Table:
    t = Table(headers=("n", "gap", "kind"))
    for kind in ("two-choice", "one-choice"):
        for n in (256, 16, 64):
            t.append((n, (2.0 if kind == "one-choice" else 1.0) + n / 100, kind))
    return t


def test_table_series_grouping_and_order():
    series = table_series(_demo_table(), PlotSpec(x="n", y="gap", group_by="kind"))
    assert [s.label for s in series] == ["one-choice", "two-choice"]
    for s in series:
        assert s.xs == (16.0, 64.0, 256.0)  # sorted by x within the group
    flat = table_series(_demo_table(), PlotSpec(x="n", y="gap"))
    assert len(flat) == 1 and len(flat[0].xs) == 6


def test_render_is_deterministic_and_escaped():
    series = [Series(label="a<b", xs=(1.0, 2.0), ys=(1.0, 4.0))]
    svg1 = render_series(series, title="t&1", xlabel="x", ylabel="y")
    svg2 = render_series(series, title="t&1", xlabel="x", ylabel="y")
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")
    assert "a&lt;b" in svg1 and "t&amp;1" in svg1
    assert "<script" not in svg1


def test_render_polyline_per_series():
    series = table_series(_demo_table(), PlotSpec(x="n", y="gap", group_by="kind"))
    svg = render_series(series)
    assert svg.count("<polyline") == 2


def test_render_log_scales(tmp_path):
    t = _demo_table()
    out = tmp_path / "p.svg"
    render_svg(t, PlotSpec(x="n", y="gap", group_by="kind", scale="log-log",
                           title="scaling"), out)
    text = out.read_text()
    assert text.startswith("<svg ") and "polyline" in text
    with pytest.raises(KeyError):
        render_svg(t, PlotSpec(x="missing", y="gap"), tmp_path / "q.svg")


# -- configfile ----------------------------------------------------------------

FULL_CONFIG = """
# sweep configuration
processes = two-choice, one-plus-beta:beta=0.5
ns = 16, 64
m = 20n
reps = 3
seed = 7
weights = unit
batches = 0, 2n
gamma = auto
thresholds = 1.0, 2.5
tie_rule = higher-index
keep = trajectory
"""


def test_parse_full_config():
    cfg = parse_config_text(FULL_CONFIG)
    assert cfg.processes == ("two-choice", "one-plus-beta:beta=0.5")
    assert cfg.ns == (16, 64)
    assert cfg.m == "20n" and cfg.reps == 3 and cfg.seed == 7
    assert cfg.batches == ("0", "2n")
    assert cfg.thresholds == (1.0, 2.5)
    assert cfg.keep == "trajectory"


def test_parse_config_errors():
    for key in ("color", "cond_delta", "cond_epsilon"):
        with pytest.raises(ValueError, match=f"^line 3: unknown key '{key}'$"):
            parse_config_text(f"processes=two-choice\nns=8\n{key}=0.5\n")
    with pytest.raises(ValueError, match="^line 2: duplicate key 'processes'$"):
        parse_config_text("processes=a\nprocesses=b\nns=8\n")
    with pytest.raises(ValueError, match="^config lacks required key 'processes'$"):
        parse_config_text("ns=8\n")
    with pytest.raises(ValueError, match="^config lacks required key 'ns'$"):
        parse_config_text("processes=two-choice\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("processes two-choice\nns=8\n")


def test_parse_config_minimal_defaults():
    cfg = parse_config_text("processes=two-choice\nns=8\n")
    assert cfg.m == "100n" and cfg.reps == 1 and cfg.batches == ("0",)


def test_parse_config_sets_every_key():
    text = ("processes = two-choice, graphical\nns = 16, 64\nm = 20n\nreps = 3\nseed = 7\n"
            "weights = unit\nbatches = 0, 2n\ngamma = 0.25\nthresholds = 1.0, 2.5\n"
            "probe_steps = 64, 8\ntie_rule = higher-index\ngraph = random-regular:d=4\n"
            "keep = trajectory\n")
    built = ExperimentConfig(
        processes=("two-choice", "graphical"), ns=(16, 64), m="20n", reps=3, seed=7,
        weights="unit", batches=("0", "2n"), gamma="0.25", thresholds=(1.0, 2.5),
        probe_steps=(8, 64), tie_rule="higher-index", graph="random-regular:d=4",
        keep="trajectory")
    assert len(text.splitlines()) == len(fields(ExperimentConfig)) == 13
    assert parse_config_text(text) == built


def test_configfile_schema_lists_the_config_fields():
    # the module docstring is the human-readable schema: one entry per key,
    # in the order of ExperimentConfig's fields
    keys = re.findall(r"^    ([a-z_]+) ", configfile.__doc__.partition("Schema")[2],
                      flags=re.MULTILINE)
    assert keys == [f.name for f in fields(ExperimentConfig)]


# -- cli -----------------------------------------------------------------------

def test_cli_vector_two_choice_golden(capsys):
    assert main(["vector", "two-choice", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.0625,0.1875,0.3125,0.4375"
    assert out[1] == "C1: pass (δ=1/4, ε=1/2), C2: pass (C=2)"
    assert out[2] == "D0: pass, D1: pass"


def test_cli_vector_uniform_note(capsys):
    assert main(["vector", "one-choice", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.25,0.25,0.25,0.25"
    assert out[1] == "no canonical conditions (uniform process)"


def test_cli_vector_single_bin_has_no_conditions(capsys):
    assert main(["vector", "two-choice", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["1", "no canonical conditions (uniform process)"]
    assert captured.err == ""


def test_cli_vector_rejects_dynamic_process(capsys):
    assert main(["vector", "twinning:delta=0.5", "8"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_vector_rejects_n_below_one(capsys, n):
    assert main(["vector", "two-choice", n]) == 1
    assert capsys.readouterr().err == f"error: n must be >= 1, got {n}\n"


# every text the parse paths take ends in an exit code or a ValueError, never
# a traceback: process texts and sizes for ``vector`` (d-choice up to
# d = 200 at n <= 4096), and weight parameters numpy accepts
VECTOR_TEXTS = ("one-choice", "two-choice", "one-plus-beta:beta=0.5", "quantile:delta=0.25",
                "twinning:delta=0.5", "reset-memory", "graphical", "d-choice:d=0",
                "d-choice:d=x", "two-choice:beta=1", "bogus",
                *(f"d-choice:d={d}" for d in (1, 3, 8, 52, 53, 100, 200)))


@pytest.mark.parametrize("text", VECTOR_TEXTS)
def test_cli_vector_never_raises(capsys, text):
    for n in ("1", "2", "3", "1000", "4096"):
        assert main(["vector", text, n]) in (0, 1), (text, n)


# each range whole, and denser where the default zeta moves
WEIGHT_TEXTS = [f"{law}={x!r}" for law, grid in (
    ("poisson:l", (np.geomspace(5e-324, POISSON_LAM_MAX, 48), np.geomspace(1e-8, 10, 32))),
    ("geom:p", (np.geomspace(5e-324, 0.999, 48), np.geomspace(1e-16, 0.999, 32))))
    for x in np.concatenate(grid).tolist()] + ["poisson:l=0.25", "geom:p=1.6e-8"]


@pytest.mark.parametrize("text", WEIGHT_TEXTS)
def test_parse_weights_raises_only_value_error(text):
    try:
        w = parse_weights(text)
    except ValueError as exc:
        assert text.partition(":")[0] in str(exc)  # the message names the law
    else:
        assert w.label().partition("=")[0] == text.partition("=")[0]


@pytest.mark.parametrize("command", ["vector", "batched", "drift-check"])
def test_cli_d_choice_beyond_float_range_exits_0(tmp_path, monkeypatch, capsys, command):
    # n^d = 2000^100 overflows float64
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("processes = d-choice:d=100\nns = 2000\nm = 2n\nseed = 3\n"
                   + ("batches = 1n\n" if command == "batched" else ""))
    argv = {"vector": ["vector", "d-choice:d=100", "2000"],
            "batched": ["simulate", str(cfg)], "drift-check": ["drift-check", str(cfg)]}
    assert main(argv[command]) == 0
    assert capsys.readouterr().err == ""


def test_cli_simulate_small_poisson_mean(tmp_path, monkeypatch, capsys):
    # its default zeta overflowed float64's exp when the law was parsed
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    cfg = tmp_path / "light.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 10n\nweights = poisson:l=0.1\n")
    assert main(["simulate", str(cfg)]) == 0
    assert (tmp_path / "runs.csv").exists()


def test_cli_conductance_exact(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    write_graph_file(complete_graph(4), str(path))
    assert main(["conductance", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "phi = 0.666667 (exact)"


def test_cli_conductance_bounds_large(tmp_path, capsys):
    path = tmp_path / "c32.txt"
    write_graph_file(cycle_graph(32), str(path))
    assert main(["conductance", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("phi in [")
    assert "spectral bounds" in out


def test_cli_conductance_missing_file(capsys):
    assert main(["conductance", "/nonexistent/graph.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["vector", "two-choice"]) == 1  # n missing
    capsys.readouterr()


def test_cli_simulate_and_plot(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("processes = two-choice\nns = 16\nm = 10n\nreps = 2\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path / "out"))
    assert main(["simulate", str(cfg), "--out", "runs.csv",
                 "--aggregate", "agg.csv"]) == 0
    runs = tmp_path / "out" / "runs.csv"
    agg = tmp_path / "out" / "agg.csv"
    assert runs.exists() and agg.exists()
    first = runs.read_bytes()
    assert main(["simulate", str(cfg), "--out", "runs.csv"]) == 0
    assert runs.read_bytes() == first  # same seed, same bytes

    assert main(["plot", str(runs), "--x", "n", "--y", "gap",
                 "--out", "gap.svg"]) == 0
    svg = (tmp_path / "out" / "gap.svg").read_text()
    assert svg.startswith("<svg ")
    capsys.readouterr()


def test_cli_simulate_seed_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("processes = two-choice\nns = 16\nm = 10n\nreps = 2\nseed = 1\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg), "--out", "a.csv"]) == 0
    assert main(["simulate", str(cfg), "--seed", "2", "--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()
    capsys.readouterr()


def test_cli_simulate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("processes = two-choice\nns = 16\nmystery = 3\n")
    assert main(["simulate", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_batched_kind_without_vector_fails_before_any_run(tmp_path, monkeypatch,
                                                              capsys):
    calls = []
    execute = experiments._execute
    monkeypatch.setattr(experiments, "_execute",
                        lambda job: calls.append(job) or execute(job))
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    cfg = tmp_path / "batched.cfg"
    cfg.write_text("processes = one-choice,twinning:delta=0.5\nns = 16\n"
                   "m = 4b\nreps = 3\nbatches = 1n\n")
    assert main(["simulate", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: twinning has no load-independent allocation vector\n")
    assert calls == []


def test_cli_batched_random_ties_fail_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiments, "_execute", calls.append)
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    cfg = tmp_path / "batched.cfg"
    cfg.write_text("processes = two-choice\nns = 64\nm = 10b\nseed = 5\n"
                   "batches = 1n\ntie_rule = random\n")
    assert main(["simulate", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: batched rounds break ties by ascending bin id; "
        "use tie_rule=higher-index or batches=0\n")
    assert calls == [] and not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("engine", ["kernel", "step"])
def test_cli_simulate_refuses_weights_numpy_would_refuse(tmp_path, monkeypatch, capsys,
                                                         engine):
    # the kernel draws poisson weights with numpy's random_poisson, which
    # does not check l as Generator.poisson does: the config is refused
    # before any run, on either engine
    calls = []
    monkeypatch.setattr(experiments, "_execute", calls.append)
    if engine == "step":
        monkeypatch.setattr(kernel, "load", lambda: None)
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 10n\nweights = poisson:l=1e19\n")
    assert main(["simulate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: poisson weights need 0 < l <= ") and "got l=1e+19" in err
    assert calls == [] and not (tmp_path / "runs.csv").exists()


def test_cli_simulate_single_bin_auto_gamma_has_empty_conditions(tmp_path, monkeypatch,
                                                                  capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("processes = two-choice,one-choice\nns = 1,4\nm = 5n\ngamma = auto\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    t = read_csv(tmp_path / "runs.csv")
    cols = ("n", "gamma_value", "cond_delta", "cond_epsilon", "cond_c", "cond_s")
    rows = [tuple(t.column(c)[i] for c in cols) for i in range(len(t))]
    assert rows == [(1, None, None, None, None, None), (4, 1 / 256, 0.25, 0.5, 2, 1),
                    (1, None, None, None, None, None), (4, None, None, None, None, None)]


@pytest.mark.parametrize("key,value,why", [
    ("probe_steps", "8", "under keep = final, which probes at m only"),
    ("graph", "cycle", "without a graphical process")],
    ids=["probe_steps", "graph"])
def test_cli_simulate_rejects_ignored_keys(tmp_path, monkeypatch, capsys, key, value, why):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"processes = two-choice\nns = 8\nm = 2n\n{key} = {value}\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: config key {key} is not supported by simulate {why}\n")
    assert not (tmp_path / "runs.csv").exists()


def test_cli_simulate_accepts_the_keys_it_uses(tmp_path, monkeypatch, capsys):
    # probe_steps under keep = trajectory, graph with a graphical process
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("processes = two-choice,graphical\nns = 8\nm = 2n\ngraph = cycle\n"
                   "keep = trajectory\nprobe_steps = 8\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    assert read_csv(tmp_path / "runs.csv").column("step") == [8, 16, 8, 16]


@pytest.mark.parametrize("line,msg", [
    ("gamma = 1e400", "gamma"),
    ("gamma = nan", "gamma"),
    ("gamma = -2", "gamma"),
    ("gamma = 0", "gamma"),
    ("thresholds = nan,inf", "thresholds"),
    ("thresholds = 1,-inf", "thresholds"),
    ("probe_steps = 8,-1", "probe_steps"),
])
def test_cli_simulate_rejects_non_finite_inputs(tmp_path, monkeypatch, capsys,
                                                line, msg):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"processes = two-choice\nns = 8\nm = 10n\n{line}\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


def test_cli_simulate_potential_overflow_exits_1(tmp_path, monkeypatch, capsys,
                                                thread_starts):
    # one-choice at n = 8 reaches gamma*gap > 709 by m = 100n at gamma = 30;
    # fanned out on two threads the error and its message are the same
    cfg = tmp_path / "over.cfg"
    cfg.write_text("processes = one-choice,two-choice\nns = 8,16\nm = 100n\n"
                   "reps = 20\nseed = 3\ngamma = 30\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and "gamma=30" in err and "n=8" in err
    monkeypatch.setattr(experiments, "FANOUT_MIN_BALLS", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    assert main(["simulate", str(cfg)]) == 1
    assert len(thread_starts) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "runs.csv").exists()


def test_cli_simulate_overflowing_exponent_exits_1(tmp_path, monkeypatch, capsys):
    # gamma * y itself overflows to inf here; the run must stop on the
    # gamma * max|y| >= 709 check before numpy warns of inf or NaN
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("processes = one-choice\nns = 8\nm = 50n\ngamma = 1e308\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and "gamma=1e+308" in err and "n=8" in err
    assert not (tmp_path / "runs.csv").exists()


def test_cli_drift_check_passes(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "smallest certificate slack" in out and "smallest step-bound slack" in out
    certs = (tmp_path / "drift-certs.csv").read_text().splitlines()
    assert certs[0].startswith("inputs_hash,")
    assert len(certs) == 1 + 3  # probes at 0, 8, 16 balls
    checks = (tmp_path / "drift-checks.csv").read_text().splitlines()
    assert len(checks) == 1 + 6  # phi and psi per probe


def _random_ties(processes: str, weights: str) -> str:
    return (f"processes = {processes}\nns = 16,64,256\nm = 10n\ntie_rule = random\n"
            f"weights = {weights}\nseed = 11\ngamma = auto\n")


# sha256 of (drift-certs.csv, drift-checks.csv).  Law entries, potentials
# and hashes feed the bytes, so an ulp moved anywhere on the exact path
# changes them; d = 9 takes n^d past 2^53.  A and B break ties at random,
# so a cell's round law changes along the walk; under the higher-index
# ties of the shipped config and of the certify benchmark's three-kinds
# copy of it, every probe of a cell has the same law.
_DRIFT_PINS = {
    "A": (_random_ties("two-choice,d-choice:d=3,d-choice:d=9,one-plus-beta:beta=0.5,"
                       "quantile:delta=0.25,reset-memory", "exp1"),
          "1704118c9b9e41d5952a189e5bba8989b997bb97fb71fffc60ba3a8cabdb1e33",
          "486f5018215a3106de3d2e06502d51e406d1567cfaa0a37b2283dda525ba2a06"),
    "B": (_random_ties("twinning:delta=0.5,penalty:delta=0.25,d-choice:d=9", "unit"),
          "3e52a0e5de66bf7d1c1cd5e943cd049f496051051266847c71d8224513bdb90a",
          "346fb8c7e8dc23c21784f8d7e74c4726039ab9e7edd58fddf2e725865e5278c5"),
    "shipped": ((Path(__file__).resolve().parents[1] / "configs" / "drift_two_choice.cfg")
                .read_text(),
                "c0836f65ad9c33012a6eb7366df015a59f5f1a076cc87285e2654dae3bc69959",
                "952101e7b75d1e05f5d0861100e5ad3d236da6f3c1e2281ffe4b6d4ef4d53b88"),
    "three-kinds": ("processes = two-choice,quantile:delta=0.5,reset-memory\n"
                    "ns = 256,1024\nm = 20n\nseed = 7\ngamma = auto\n",
                    "97158c74aaa23ffa0316e3cd186eedc075181ee4e4d179fa3f8af0bfd260a2e3",
                    "9b8b15b4cc9b5edd1fcc3080c6f3c4d8936a1bd4dab4ea3e17b84222518c4401"),
}


def _built_engines(monkeypatch) -> list[str]:
    """Class names of the engines ``experiments.certify`` builds, as they
    are built."""
    built = []
    make_engine = experiments.make_engine

    def counted(*args):
        eng = make_engine(*args)
        built.append(type(eng).__name__)
        return eng

    monkeypatch.setattr(experiments, "make_engine", counted)
    return built


# the walk runs on the compiled kernel, and on ``_StepEngine`` when
# ``kernel.load`` finds no kernel: both write the pinned bytes
@pytest.mark.parametrize("name,engine", [
    pytest.param(name, engine, id=name if engine == "kernel" else f"{name}-{engine}")
    for name in sorted(_DRIFT_PINS) for engine in ("kernel", "fallback")])
def test_cli_drift_check_bytes_pinned(tmp_path, monkeypatch, capsys, name, engine):
    text, certs_sha, checks_sha = _DRIFT_PINS[name]
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(text)
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    built = _built_engines(monkeypatch)
    if engine == "fallback":
        monkeypatch.setattr(kernel, "load", lambda: None)
    assert main(["drift-check", str(cfg)]) == 0
    capsys.readouterr()
    parsed = parse_config_text(text)
    assert len(built) == len(parsed.processes) * len(parsed.ns)  # one walk per (process, n)
    if engine == "fallback":
        assert set(built) == {"_StepEngine"}
    digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("drift-certs.csv", "drift-checks.csv")}
    assert digest == {"drift-certs.csv": certs_sha, "drift-checks.csv": checks_sha}


# sha256 of runs.csv from a graphical gamma = auto sweep at ns = 64,128.
# cond_epsilon is the conductance lower bound, and gamma_value and
# gamma_total follow from it; the random-regular graph is drawn from the
# config seed, so its pairing sampler feeds the bytes too.
_GRAPHICAL_PINS = {
    ("cycle", "exp1"): "67008c6020851c97e3a4fe2361d1d16826941eb978fa87f94435eef8d44d82f3",
    ("cycle", "unit"): "90fadcbcfb817179a103bf3d2ad1ee09fe9fb1d1f8dca2ee53b1b27778cc2fb9",
    ("random-regular:d=4", "exp1"):
        "6e3384399eae514f173a9dc5e543059c6e44350826d2de47a7abf1e7811331b3",
    ("random-regular:d=4", "unit"):
        "0cb0b06216abe78402935ac7aee43a3acea993bb47bb4a8b710c2aab8de0177b",
}


@pytest.mark.parametrize("graph,weights", sorted(_GRAPHICAL_PINS))
def test_cli_graphical_sweep_bytes_pinned(tmp_path, monkeypatch, capsys, graph, weights):
    cfg = tmp_path / "graphical.cfg"
    cfg.write_text(f"processes = graphical\nns = 64,128\nm = 10n\nreps = 2\n"
                   f"graph = {graph}\nweights = {weights}\nseed = 5\ngamma = auto\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
    assert digest == _GRAPHICAL_PINS[graph, weights]


# sha256 of runs.csv from trajectory sweeps: every per-ball kind (exp1
# weights where the kind allows them, random ties, gamma = auto), and the
# batched kinds at n = 10 and 96 with probes off the round boundaries.
_SWEEP_PINS = {
    "per-ball-exp1": (
        "processes = one-choice,two-choice,d-choice:d=3,one-plus-beta:beta=0.5,"
        "quantile:delta=0.5,reset-memory,graphical\nns = 12,96\nm = 12n\nreps = 2\n"
        "seed = 3\nweights = exp1\ntie_rule = random\nkeep = trajectory\n"
        "gamma = auto\nthresholds = 1,2.5\ngraph = cycle\n",
        "cf81a790e42dbe0724bc5a855f85835883cd316ab45e5ea57c001b86dc90eba3"),
    "per-ball-unit": (
        "processes = twinning:delta=0.5,penalty:delta=0.25\nns = 12,96\nm = 12n\n"
        "reps = 2\nseed = 3\ntie_rule = random\nkeep = trajectory\ngamma = auto\n"
        "thresholds = 1,2.5\n",
        "890fc23a9eced0b39fb431632e26af9fe04ad44235d0fdf5332e6d33de18a175"),
    "batched": (
        "processes = two-choice,d-choice:d=3,one-plus-beta:beta=0.5,quantile:delta=0.5\n"
        "ns = 10,96\nm = 40b\nreps = 2\nseed = 4\nbatches = 1n,3n,7\nkeep = trajectory\n"
        "probe_steps = 0,5,33,101,250,1000\ngamma = 0.5\nthresholds = 1,2\n",
        "8593fa304eb89e0f741159f324aa601dd61dc761b268f74b63a03d3a57dce6d5"),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_PINS))
def test_cli_sweep_bytes_pinned(tmp_path, monkeypatch, capsys, name):
    text, sha = _SWEEP_PINS[name]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest() == sha


# at n = 16 the hypercube and the torus grid are 4-regular: a d= that
# matches the kind's degree is refused too
@pytest.mark.parametrize("graph", ["cycle:d=4", "complete:d=3", "hypercube:d=4",
                                   "torus-grid:d=4"])
def test_cli_simulate_rejects_d_on_fixed_degree_graph(tmp_path, monkeypatch, capsys, graph):
    cfg = tmp_path / "graphical.cfg"
    cfg.write_text(f"processes = graphical\nns = 16\nm = 10n\ngraph = {graph}\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    kind = graph.partition(":")[0]
    assert f"graph kind '{kind}' fixes its own degree" in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("line,key", [
    ("batches = 2n", "batches"), ("probe_steps = 3,5", "probe_steps"),
    ("thresholds = 1", "thresholds"), ("keep = trajectory", "keep"),
    ("reps = 5", "reps"), ("graph = cycle", "graph"),
    # other spellings of the default `batches = 0` differ from it
    ("batches = 0,0", "batches"), ("batches = 0n", "batches")])
def test_cli_drift_check_rejects_ignored_keys(tmp_path, monkeypatch, capsys, line, key):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(f"processes = two-choice\nns = 8\nm = 2n\n{line}\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key} is not supported by drift-check" in err
    assert not (tmp_path / "drift-certs.csv").exists()


# a key written out at its default is not set: `batches = 0` and `reps = 1` pass
def test_cli_drift_check_accepts_keys_at_their_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\nbatches = 0\nreps = 1\n"
                   "keep = final\nthresholds =\ngraph =\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_cli_drift_check_single_bin_exits_1(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice\nns = 1\nm = 2n\ngamma = auto\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: n = 1: a single bin has no bias margin\n"
    assert not (tmp_path / "drift-certs.csv").exists()


def test_cli_drift_check_rejects_graphical(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice,graphical\nns = 8\nm = 2n\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 1
    assert "graphical processes are not supported by drift-check" in capsys.readouterr().err


def test_cli_drift_check_precondition_violation(tmp_path, monkeypatch, capsys):
    # the exact step-bound check's rounding bound holds for gamma <= 1/2
    # only; certification must refuse to run rather than emit rows
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    built = _built_engines(monkeypatch)
    cfg = tmp_path / "drift.cfg"
    for line in ("gamma = 0.9\nweights = geom:p=0.5", "gamma = 1"):
        cfg.write_text(f"processes = two-choice\nns = 8\nm = 2n\n{line}\n")
        assert main(["drift-check", str(cfg)]) == 1
        assert "precondition violated: gamma must lie in (0, 1/2]" in capsys.readouterr().err
    assert built == [] and list(tmp_path.glob("*.csv")) == []


def test_cli_drift_check_fails_before_any_run(tmp_path, monkeypatch, capsys):
    # beta = 0 has no bias margin: refused before the two-choice cell runs
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice,one-plus-beta:beta=0\nns = 64\nm = 2n\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    built = _built_engines(monkeypatch)
    assert main(["drift-check", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: beta=0 is uniform; no bias margin\n"
    assert built == [] and list(tmp_path.glob("*.csv")) == []


def test_cli_selftest_single_group(capsys):
    assert main(["selftest", "--group", "io"]) == 0
    out = capsys.readouterr().out
    assert "ok   io." in out
    assert "selftest: 0 failures" in out


def test_cli_selftest_unknown_group_is_a_usage_error(capsys):
    assert main(["selftest", "--group", "bogus"]) == 1
    captured = capsys.readouterr()
    assert "invalid choice: 'bogus'" in captured.err
    assert "selftest:" not in captured.out


@pytest.mark.parametrize("cell", ["nan", "inf", pytest.param("9" * 400, id="huge-int")])
def test_cli_plot_rejects_non_finite_cell(tmp_path, capsys, cell):
    table = tmp_path / "t.csv"
    table.write_text(f"n,gap\n16,1.5\n64,{cell}\n")
    out = tmp_path / "p.svg"
    assert main(["plot", str(table), "--x", "n", "--y", "gap", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "'gap'" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--x", "--y", "--group-by"])
def test_cli_plot_names_a_missing_column(tmp_path, capsys, flag):
    table = tmp_path / "t.csv"
    table.write_text("n,gap,kind\n16,1.5,a\n64,2.5,b\n")
    out = tmp_path / "p.svg"
    args = {"--x": "n", "--y": "gap", flag: "zz"}
    argv = ["plot", str(table), "--out", str(out)]
    assert main(argv + [a for kv in args.items() for a in kv]) == 1
    assert capsys.readouterr().err == (
        "error: no column 'zz'; the table has columns n, gap, kind\n")
    assert not out.exists()


# -- import hygiene ----------------------------------------------------------
# The runtime is numpy only: no command imports scipy.  A sweep fans out on
# threads, so no command, a fanned-out sweep included, imports
# multiprocessing.  Each case runs in a fresh interpreter and reports the
# modules of the named packages left in sys.modules.

_SRC = Path(__file__).resolve().parents[1] / "src"
_NOTHING = {"scipy": [], "multiprocessing": []}


def _fresh(tmp_path, code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(_SRC), "BINLAB_OUT": str(tmp_path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def _loaded(tmp_path, body: str,
            packages: tuple[str, ...] = ("scipy", "multiprocessing")) -> dict[str, list[str]]:
    return _fresh(tmp_path, f"import json, sys\n{body}\n"
                  "print(json.dumps({p: sorted(k for k in sys.modules "
                  f"if k == p or k.startswith(p + '.')) for p in {packages!r}}}))\n")


def _cli_body(*argv: str) -> str:
    return f"from binlab.cli import main\nassert main({list(argv)!r}) == 0"


def test_import_cli_loads_no_scipy(tmp_path):
    assert _loaded(tmp_path, "import binlab.cli") == _NOTHING


def test_simulate_without_graph_loads_no_scipy(tmp_path):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("processes = two-choice,one-plus-beta:beta=0.5\nns = 16\nm = 10n\n"
                   "reps = 2\ngamma = auto\nthresholds = 2\n")
    assert _loaded(tmp_path, _cli_body("simulate", str(cfg))) == _NOTHING
    assert (tmp_path / "runs.csv").exists()


def test_drift_check_loads_no_scipy(tmp_path):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\ngamma = auto\n")
    assert _loaded(tmp_path, _cli_body("drift-check", str(cfg))) == _NOTHING
    assert (tmp_path / "drift-certs.csv").exists()


def test_graphical_auto_gamma_loads_no_scipy(tmp_path):
    # the certified conductance bound runs on numpy's LAPACK
    cfg = tmp_path / "cycle.cfg"
    cfg.write_text("processes = graphical\nns = 16\nm = 10n\ngraph = cycle\ngamma = auto\n")
    assert _loaded(tmp_path, _cli_body("simulate", str(cfg))) == _NOTHING
    eps = read_csv(tmp_path / "runs.csv").column("cond_epsilon")
    assert eps and all(0 < e <= 2 / 16 for e in eps)  # the cycle's phi is 2/n


def test_graphical_sweep_loads_no_numpy_ma(tmp_path):
    # the pairing sampler's repeated-edge test sorts instead of np.unique,
    # whose first call imports numpy.ma
    cfg = tmp_path / "rr4.cfg"
    cfg.write_text("processes = graphical\nns = 64\nm = 10n\n"
                   "graph = random-regular:d=4\ngamma = auto\n")
    body = _cli_body("simulate", str(cfg))
    assert _loaded(tmp_path, body, ("numpy.ma",)) == {"numpy.ma": []}
    # positive control: the helper sees numpy.ma where np.unique runs
    assert "numpy.ma" in _loaded(tmp_path, "import numpy as np\nnp.unique([2, 1])",
                                 ("numpy.ma",))["numpy.ma"]


def test_conductance_bounds_cli_loads_no_scipy(tmp_path):
    path = tmp_path / "c32.txt"
    write_graph_file(cycle_graph(32), str(path))
    assert _loaded(tmp_path, _cli_body("conductance", str(path))) == _NOTHING


def test_fanned_out_sweep_loads_no_multiprocessing(tmp_path):
    # a sweep over the fan-out threshold starts one thread per usable CPU
    # and writes the serial bytes
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("processes = two-choice\nns = 16\nm = 10n\nreps = 2\n")
    body = ("import threading\nstarts = []\nstart = threading.Thread.start\n"
            "threading.Thread.start = lambda self: starts.append(1) or start(self)\n"
            "import binlab.experiments as e\n"
            "e.FANOUT_MIN_BALLS = 0\n"
            "e._usable_cpus = lambda: 2\n"
            + _cli_body("simulate", str(cfg), "--out", "fanned.csv")
            + "\nassert starts == [1, 1], starts")
    assert _loaded(tmp_path, body) == _NOTHING
    serial = _cli_body("simulate", str(cfg), "--out", "serial.csv")
    assert _loaded(tmp_path, serial) == _NOTHING
    assert (tmp_path / "fanned.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("cmd", ["simulate", "drift-check", "conductance"])
def test_main_freezes_the_start_up_heap(tmp_path, cmd):
    # what is alive once binlab.cli is imported is frozen out of the cyclic
    # collector, so interpreter teardown does not walk and free it
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\n")
    graph = tmp_path / "c8.txt"
    write_graph_file(cycle_graph(8), str(graph))
    body = ("import gc, json\nimport binlab.cli\ngc.collect()\n"
            "alive = len(gc.get_objects())\n"
            + _cli_body(cmd, str(graph if cmd == "conductance" else cfg))
            + "\nprint(json.dumps([alive, gc.get_freeze_count()]))")
    alive, frozen = _fresh(tmp_path, body)
    assert frozen >= alive


def test_numeric_mgf_loads_no_scipy_and_matches_closed_form(tmp_path):
    body = ("from binlab.weights import mgf, parse_weights\n"
            "d = parse_weights('exp1')\n"
            "for z in (-1.0, 0.1, 0.45):\n"
            "    closed, numeric = mgf(d, z), mgf(d, z, method='numeric')\n"
            "    assert abs(numeric - closed) <= 1e-7 * closed, (z, closed, numeric)")
    assert _loaded(tmp_path, body) == _NOTHING


@pytest.mark.parametrize("argv", [
    ("vector", "two-choice", "8"),
    ("plot", "t.csv", "--x", "n", "--y", "gap", "--group-by", "kind"),
    ("selftest",),
], ids=lambda argv: argv[0])
def test_command_loads_no_scipy(tmp_path, monkeypatch, argv):
    (tmp_path / "t.csv").write_text("n,gap,kind\n16,1.5,a\n64,2.5,b\n")
    monkeypatch.chdir(tmp_path)
    assert _loaded(tmp_path, _cli_body(*argv)) == _NOTHING


def test_selftest_passes_with_scipy_blocked(tmp_path):
    body = ("class _NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, _NoScipy())\n"
            "try:\n"
            "    import scipy\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('the blocker let scipy through')\n"
            + _cli_body("selftest"))
    assert _loaded(tmp_path, body) == _NOTHING


# -- names the benchmark traces ----------------------------------------------
# perfbench/tracing.py wraps these by name; a rename breaks `--trace 1` with
# an AttributeError, and only this test would otherwise notice.

def test_traced_names_resolve():
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    names = [(modname, attr) for _, modname, attr, _ in runpy.run_path(str(tracing))["TRACED"]]
    names.append(("binlab.processes", "make_engine"))
    # tracing.install looks each one up in sys.modules once binlab.cli is imported
    for modname, attr in names:
        assert callable(getattr(sys.modules[modname], attr, None)), f"{modname}.{attr}"
    assert callable(sys.modules["binlab.core"].LoadState.apply_allocation)
    # the count functions read these arguments by name
    check = sys.modules["binlab.potentials"].drift_step_bound_check
    assert "trials" in inspect.signature(check).parameters
    assert "path" in inspect.signature(sys.modules["binlab.tableio"].write_csv).parameters


def test_import_cli_loads_what_the_benchmark_needs_and_no_more(tmp_path):
    # tracing.install looks every traced module up in sys.modules after
    # `import binlab.cli`, and launch.py patches cli.load_config and
    # cli.read_graph_file; the compiler's subprocess and the plot's svgplot
    # load only where they run
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    traced = sorted({modname for _, modname, _, _ in runpy.run_path(str(tracing))["TRACED"]})
    names = traced + ["subprocess", "binlab.svgplot"]
    loaded = _fresh(tmp_path, (
        "import json, sys\nimport binlab.cli as cli\n"
        "assert callable(cli.load_config) and callable(cli.read_graph_file)\n"
        f"print(json.dumps([m for m in {names!r} if m in sys.modules]))\n"))
    assert loaded == traced
    kernel.load()  # a command that finds the library cached compiles nothing
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\n")
    body = _cli_body("drift-check", str(cfg))
    assert _loaded(tmp_path, body, ("subprocess",)) == {"subprocess": []}
    table = tmp_path / "t.csv"
    table.write_text("x,y\n1,2\n2,3\n")
    body = _cli_body("plot", str(table), "--x", "x", "--y", "y")
    assert _loaded(tmp_path, body, ("binlab.svgplot",)) == {"binlab.svgplot": ["binlab.svgplot"]}


@pytest.mark.parametrize("cmd", ["simulate", "drift-check", "conductance"])
def test_perfbench_launch_records_the_set_up_mark(tmp_path, cmd):
    # launch.py marks the end of set-up by wrapping cli.load_config and
    # cli.read_graph_file; a command that parses its input elsewhere leaves
    # every benchmark run without the mark
    launch = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\n")
    graph = tmp_path / "c8.txt"
    write_graph_file(cycle_graph(8), str(graph))
    marks = tmp_path / "marks.json"
    env = {**os.environ, "PYTHONPATH": str(_SRC), "BINLAB_OUT": str(tmp_path),
           "PERFBENCH_MARKS": str(marks)}
    subprocess.run([sys.executable, str(launch), cmd,
                    str(graph if cmd == "conductance" else cfg)],
                   env=env, capture_output=True, check=True)
    assert isinstance(json.loads(marks.read_text())["setup_end"], float)


def _traced_sweep(tmp_path, cfg_text: str):
    """``binlab simulate`` under perfbench's spans, in a fresh interpreter:
    the span totals and the rows written."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    cfg, spans = tmp_path / "traced.cfg", tmp_path / "spans.bin"
    cfg.write_text(cfg_text)
    totals = _fresh(tmp_path, (
        "import json, runpy\nimport binlab.cli\n"
        f"tr = runpy.run_path({str(tracing)!r})\n"
        "rec = tr['SpanRecorder']()\ntr['install'](rec)\n"
        f"assert binlab.cli.main(['simulate', {str(cfg)!r}]) == 0\n"
        f"rec.dump({str(spans)!r})\n"
        f"print(json.dumps(tr['span_totals']({str(spans)!r})))\n"))
    return totals, read_csv(tmp_path / "runs.csv")


def _advance_spans(totals) -> set[str]:
    return {k for k in totals if k.startswith("processes.engine_advance.")}


def test_traced_spans_per_layer(tmp_path):
    # serial sweeps (far below FANOUT_MIN_BALLS), so every span is recorded here
    totals, table = _traced_sweep(tmp_path, (
        "processes = two-choice,twinning:delta=0.5,reset-memory\nns = 16,32\n"
        "m = 10n\nreps = 2\nkeep = trajectory\n"))
    assert totals["processes.run"]["calls"] == 3 * 2 * 2
    assert "processes.run_batched" not in totals
    assert _advance_spans(totals) == {"processes.engine_advance.two-choice",
                                      "processes.engine_advance.twinning",
                                      "processes.engine_advance.reset-memory"}
    assert totals["processes.snapshot"]["calls"] == len(table)

    totals, table = _traced_sweep(tmp_path, (
        "processes = two-choice,quantile:delta=0.5\nns = 16\nm = 10b\nreps = 2\n"
        "batches = 1n,3\nkeep = trajectory\nprobe_steps = 5,17,29\n"))
    col = {h: i for i, h in enumerate(table.headers)}
    final = {}
    for row in table.rows:
        key = tuple(row[col[h]] for h in ("point", "n", "b", "seed"))
        final[key] = max(final.get(key, 0), row[col["step"]])
    assert len(final) == 2 * 2 * 2
    assert totals["processes.run_batched"]["calls"] == len(final)
    assert totals["processes.run_batched"]["count"] == sum(final.values())
    assert "processes.run" not in totals
    assert _advance_spans(totals) == set()
    assert totals["processes.snapshot"]["calls"] == len(table)
