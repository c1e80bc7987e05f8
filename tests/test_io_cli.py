"""CSV tables, SVG rendering, config parsing, and the command line.

CLI tests call ``binlab.cli.main`` in-process and assert on exit codes and
captured output; the printed vector/conductance lines are golden.
"""
from __future__ import annotations

import pytest

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


def test_cli_vector_rejects_dynamic_process(capsys):
    assert main(["vector", "twinning:delta=0.5", "8"]) == 1
    assert "error" in capsys.readouterr().err


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
    # one-choice at n = 8 reaches gamma*gap > 709 by m = 100n at gamma = 30
    cfg = tmp_path / "over.cfg"
    cfg.write_text("processes = one-choice,two-choice\nns = 8,16\nm = 100n\n"
                   "reps = 20\nseed = 3\ngamma = 30\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and "gamma=30" in err and "n=8" in err
    assert not (tmp_path / "runs.csv").exists()


def test_cli_drift_check_passes(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("processes = two-choice\nns = 8\nm = 2n\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["drift-check", str(cfg), "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    certs = (tmp_path / "drift-certs.csv").read_text().splitlines()
    assert certs[0].startswith("inputs_hash,")
    assert len(certs) == 1 + 3  # probes at 0, 8, 16 balls
    checks = (tmp_path / "drift-checks.csv").read_text().splitlines()
    assert len(checks) == 1 + 6  # phi and psi per probe


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
