"""CSV tables, SVG rendering, config parsing, and the command line.

CLI tests call ``binlab.cli.main`` in-process and assert on exit codes and
captured output; the printed vector/conductance lines are golden.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binlab import experiments
from binlab.cli import main
from binlab.configfile import parse_config_text
from binlab.graphs import complete_graph, cycle_graph, write_graph_file
from binlab.svgplot import PlotSpec, Series, render_series, render_svg, table_series
from binlab.tableio import Table, dumps_csv, format_cell, read_csv, write_csv


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
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("processes=two-choice\nns=8\ncolor=red\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("processes=a\nprocesses=b\nns=8\n")
    with pytest.raises(ValueError, match="processes"):
        parse_config_text("ns=8\n")
    with pytest.raises(ValueError, match="ns"):
        parse_config_text("processes=two-choice\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("processes two-choice\nns=8\n")


def test_parse_config_minimal_defaults():
    cfg = parse_config_text("processes=two-choice\nns=8\n")
    assert cfg.m == "100n" and cfg.reps == 1 and cfg.batches == ("0",)


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
    ("cond_delta", "0.5", "(drift-check only)"),
    ("cond_epsilon", "0.25", "(drift-check only)"),
    ("graph", "cycle", "without a graphical process")],
    ids=["probe_steps", "cond_delta", "cond_epsilon", "graph"])
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


def test_cli_simulate_potential_overflow_exits_1(tmp_path, monkeypatch, capsys):
    # one-choice at n = 8 reaches gamma*gap > 709 by m = 100n at gamma = 30;
    # through a worker pool the error and its message are the same
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


# sha256 of (drift-certs.csv, drift-checks.csv).  Law entries, potentials
# and hashes feed the bytes, so an ulp moved anywhere on the exact path
# changes them; d = 9 takes n^d past 2^53.
_DRIFT_PINS = {
    "A": ("two-choice,d-choice:d=3,d-choice:d=9,one-plus-beta:beta=0.5,"
          "quantile:delta=0.25,reset-memory", "exp1",
          "1704118c9b9e41d5952a189e5bba8989b997bb97fb71fffc60ba3a8cabdb1e33",
          "486f5018215a3106de3d2e06502d51e406d1567cfaa0a37b2283dda525ba2a06"),
    "B": ("twinning:delta=0.5,penalty:delta=0.25,d-choice:d=9", "unit",
          "3e52a0e5de66bf7d1c1cd5e943cd049f496051051266847c71d8224513bdb90a",
          "346fb8c7e8dc23c21784f8d7e74c4726039ab9e7edd58fddf2e725865e5278c5"),
}


@pytest.mark.parametrize("name", sorted(_DRIFT_PINS))
def test_cli_drift_check_bytes_pinned(tmp_path, monkeypatch, capsys, name):
    processes, weights, certs_sha, checks_sha = _DRIFT_PINS[name]
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(f"processes = {processes}\nns = 16,64,256\nm = 10n\n"
                   f"tie_rule = random\nweights = {weights}\nseed = 11\ngamma = auto\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 0
    capsys.readouterr()
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
    ("reps = 5", "reps"), ("graph = cycle", "graph")])
def test_cli_drift_check_rejects_ignored_keys(tmp_path, monkeypatch, capsys, line, key):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(f"processes = two-choice\nns = 8\nm = 2n\n{line}\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key} is not supported by drift-check" in err
    assert not (tmp_path / "drift-certs.csv").exists()


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
    cfg = tmp_path / "drift.cfg"
    # eps=0.9 overstates the two-choice bias; C1 fails and certification
    # must refuse to run rather than emit a failing certificate
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\ncond_epsilon = 0.9\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg)]) == 1
    assert "precondition violated" in capsys.readouterr().err


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
# The runtime is numpy only: no command imports scipy.  multiprocessing is
# imported only when a sweep fans out, so commands that never do so do not
# pay for it.  Each case runs in a fresh interpreter and reports the
# modules of the named packages left in sys.modules.

_SRC = Path(__file__).resolve().parents[1] / "src"
_NOTHING = {"scipy": [], "multiprocessing": []}


def _loaded(tmp_path, body: str,
            packages: tuple[str, ...] = ("scipy", "multiprocessing")) -> dict[str, list[str]]:
    code = (f"import json, sys\n{body}\n"
            "print(json.dumps({p: sorted(k for k in sys.modules "
            f"if k == p or k.startswith(p + '.')) for p in {packages!r}}}))\n")
    env = {**os.environ, "PYTHONPATH": str(_SRC), "BINLAB_OUT": str(tmp_path)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


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


def test_fanned_out_sweep_loads_multiprocessing(tmp_path):
    # positive control: a sweep at the fan-out threshold starts a worker pool
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("processes = two-choice\nns = 16\nm = 10n\nreps = 2\n")
    body = ("import binlab.experiments as e\n"
            "e.FANOUT_MIN_BALLS = 0\n"
            "e._usable_cpus = lambda: 2\n" + _cli_body("simulate", str(cfg)))
    assert "multiprocessing.pool" in _loaded(tmp_path, body)["multiprocessing"]


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
