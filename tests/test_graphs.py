"""Regular graphs, conductance oracles, and the edge-sampling vector.

Exact conductance values for the small named graphs are known in closed
form and double-checked here against a brute-force subset enumeration
written independently of the size-class implementation.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from binlab.core import LoadState
from binlab.cli import main
from binlab.graphs import (DENSE_LIMIT, EXACT_LIMIT, GraphSamplingError, RegularGraph,
                           _best_prefix_cut, _inverse_iteration, _laplacian_lambda2,
                           build_graph, complete_graph, conductance_bounds,
                           conductance_exact, conductance_lower_bound, cycle_graph,
                           hypercube_graph,
                           random_regular_graph, read_graph_file,
                           torus_grid_graph, write_graph_file)
from binlab.processes import ProcessSpec, round_law


def brute_conductance(g: RegularGraph) -> Fraction:
    """Independent oracle, fast to n = 22: every S holding vertex 0 as one
    bitmask, its cut summed edge by edge over all S at once in numpy."""
    n = g.n
    masks = np.arange(1 << (n - 1), dtype=np.int32) << 1 | 1
    member = [(masks >> v & 1).astype(np.uint8) for v in range(n)]
    cut = np.zeros(len(masks), dtype=np.uint8)
    for u, v in g.edges:
        cut += member[u] ^ member[v]
    size = np.sum(member, axis=0, dtype=np.int32)
    side = np.minimum(size, n - size)
    return min(Fraction(int(cut[side == s].min()), g.d * s) for s in range(1, n // 2 + 1))


def test_builders_shape():
    k4 = complete_graph(4)
    assert (k4.n, k4.d, len(k4.edges)) == (4, 3, 6)
    c5 = cycle_graph(5)
    assert (c5.n, c5.d, len(c5.edges)) == (5, 2, 5)
    q3 = hypercube_graph(8)
    assert (q3.n, q3.d, len(q3.edges)) == (8, 3, 12)
    t9 = torus_grid_graph(9)
    assert (t9.n, t9.d, len(t9.edges)) == (9, 4, 18)


def test_builder_validation():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        hypercube_graph(6)
    with pytest.raises(ValueError):
        torus_grid_graph(8)
    with pytest.raises(ValueError):
        build_graph("petersen", 10)
    with pytest.raises(ValueError):
        build_graph("random-regular", 10)  # d missing


def test_regular_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        RegularGraph(n=2, d=1, edges=((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        RegularGraph(n=4, d=2, edges=((0, 1), (1, 0), (2, 3), (3, 2)))
    with pytest.raises(ValueError, match="regular"):
        RegularGraph(n=4, d=2, edges=((0, 1), (1, 2), (2, 3), (0, 2)))
    with pytest.raises(ValueError, match="connected"):
        RegularGraph(n=6, d=2, edges=((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))


@pytest.mark.parametrize("g,phi", [
    (complete_graph(4), Fraction(2, 3)),    # cut 4 of 6 edges at |S|=2: 4/(3*2)
    (cycle_graph(4), Fraction(1, 2)),
    (cycle_graph(6), Fraction(1, 3)),       # 2/(2*3)
    (cycle_graph(5), Fraction(1, 2)),       # 2/(2*2)
    (hypercube_graph(8), Fraction(1, 3)),   # bisection 4/(3*4)
    (torus_grid_graph(9), Fraction(1, 2)),  # 6/(4*3)
])
def test_conductance_exact_named(g, phi):
    assert conductance_exact(g) == pytest.approx(float(phi), abs=1e-12)


@pytest.mark.parametrize("n", range(3, 10))
def test_conductance_complete_formula(n):
    # K_n: optimum at |S| = floor(n/2), phi = ceil(n/2)/(n-1)
    expect = math.ceil(n / 2) / (n - 1)
    assert conductance_exact(complete_graph(n)) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("g", [
    complete_graph(5), cycle_graph(7), hypercube_graph(8), torus_grid_graph(9),
    random_regular_graph(10, 3, seed=1),
    *(random_regular_graph(n, d, seed=seed)
      for n, seed in ((12, 3), (14, 4), (16, 9)) for d in (3, 4, 5)),
    # seeds the sampler only finds a simple 5-regular pairing for past 1000 tries
    random_regular_graph(12, 5, seed=1), random_regular_graph(14, 5, seed=2),
    # past n = 17 the high vertices walk their Gray code over many steps
    *(random_regular_graph(n, d, seed=n + d) for n in (18, 20, 22) for d in (3, 4)),
])
def test_conductance_exact_matches_brute_force(g):
    phi = brute_conductance(g)
    assert conductance_exact(g) == phi.numerator / phi.denominator  # correctly rounded


@pytest.mark.parametrize("g,phi", [
    (cycle_graph(24), Fraction(1, 12)),
    (complete_graph(24), Fraction(12, 23)),
    (random_regular_graph(24, 3, seed=1), Fraction(1, 11)),
    (random_regular_graph(24, 3, seed=5), Fraction(2, 15)),
    (random_regular_graph(24, 3, seed=7), Fraction(5, 33)),
])
def test_conductance_exact_pinned_at_limit(g, phi):
    assert g.n == EXACT_LIMIT
    assert conductance_exact(g) == float(phi)  # bit-identical, not approximate


def test_conductance_exact_size_limit():
    with pytest.raises(ValueError):
        conductance_exact(cycle_graph(EXACT_LIMIT + 1))


@pytest.mark.parametrize("g", [
    complete_graph(8), cycle_graph(12), hypercube_graph(16),
    torus_grid_graph(16), random_regular_graph(14, 3, seed=3),
])
def test_bounds_sandwich_exact(g):
    lo, hi = conductance_bounds(g)
    phi = conductance_exact(g)
    assert lo <= phi + 1e-9, (lo, phi)
    assert phi <= hi + 1e-9, (phi, hi)
    # a sweep cut is a genuine cut
    assert _best_prefix_cut(g, _inverse_iteration(*_laplacian_lambda2(g))) >= phi - 1e-9


@pytest.mark.parametrize("g", [
    complete_graph(8), cycle_graph(64), hypercube_graph(64), torus_grid_graph(100),
    random_regular_graph(200, 4, seed=7), random_regular_graph(1024, 4, seed=1),
])
def test_lower_bound_is_the_bounds_lower_bound(g):
    """gamma = auto reads the lower bound without the solve; it must be the
    same float that conductance_bounds reports."""
    assert conductance_lower_bound(g) == conductance_bounds(g)[0]


@pytest.mark.parametrize("n", [12, 64, 256, 1024, 2048])
def test_cycle_lower_bound_below_closed_form(n):
    """lambda_2 of the cycle's normalized Laplacian is 1 - cos(2 pi / n), so
    the Cheeger lower bound must not exceed half of it; it may sit below by
    at most twice the eigensolver margin of n * eps."""
    half_lambda2 = math.sin(math.pi / n) ** 2  # (1 - cos(2 pi / n)) / 2
    lo, _ = conductance_bounds(cycle_graph(n))
    assert lo <= half_lambda2
    assert lo >= half_lambda2 - 2 * n * sys.float_info.epsilon


def test_bounds_on_larger_graph():
    g = random_regular_graph(200, 4, seed=7)
    lo, hi = conductance_bounds(g)
    assert 0 < lo <= hi <= 1.0


_BOUNDS_SCRIPT = """\
import json, sys
from binlab.graphs import build_graph, conductance_bounds, conductance_lower_bound
from binlab.tableio import format_cell
out = []
for kind, n, d in json.loads(sys.argv[1]):
    g = build_graph(kind, n, d, seed=1)
    lo, hi = conductance_bounds(g)
    out.append([format_cell(lo), f"{hi:.6g}", format_cell(conductance_lower_bound(g))])
print(json.dumps(out))
"""


def test_bounds_do_not_depend_on_blas_threads():
    """The sweep vector comes from a fixed start vector, so the printed
    bounds are the same under one and two BLAS threads, also where lambda_2
    is repeated (cycle, torus grid, hypercube).  The lower bound is printed
    from both paths, as the CSV cells print it: its last bits can move with
    the thread count (cycle 256 reads 0x1.3bcfbd977a226p-13 under one
    thread and 0x1.3bcfbd9779006p-13 under two), far below nine digits."""
    cases = json.dumps([["cycle", 256, None], ["cycle", 512, None],
                        ["random-regular", 1024, 4], ["torus-grid", 256, None],
                        ["hypercube", 256, None]])
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        res = subprocess.run([sys.executable, "-c", _BOUNDS_SCRIPT, cases], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(json.loads(res.stdout))
    assert outs[0] == outs[1]


def test_bounds_above_dense_limit_allocate_nothing(tmp_path, monkeypatch, capsys):
    g = cycle_graph(DENSE_LIMIT + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n = {g.n} vertices, which holds 1024 MiB"):
            conductance_bounds(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one n x n float64 matrix would be 512 MiB
    path = tmp_path / "big.txt"
    write_graph_file(g, str(path))
    assert main(["conductance", str(path)]) == 1
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"processes = graphical\nns = {g.n}\nm = 10n\ngraph = cycle\n"
                   "gamma = auto\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    assert not (tmp_path / "runs.csv").exists()
    assert capsys.readouterr().err.count(f"the limit is n <= {DENSE_LIMIT}") == 2


def test_random_regular_properties():
    g = random_regular_graph(20, 3, seed=5)
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert set(deg) == {3}
    again = random_regular_graph(20, 3, seed=5)
    assert again.edges == g.edges  # same seed, same pairing
    other = random_regular_graph(20, 3, seed=6)
    assert other.edges != g.edges
    with pytest.raises(ValueError):
        random_regular_graph(9, 3, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular_graph(4, 4, seed=0)


@pytest.mark.parametrize("n,d,seed,digest", [
    (1024, 4, 1, "11564fd51c304047deaa086f6bde1ab38778beefe18adf099151446a45c0bb43"),
    (1024, 4, 201, "3101ba80c6b327ef74d2ddbf565161fd5c5dd5b2706db9ff9e21b45c83322306"),
    (64, 5, 3, "16a4d7bb8c09bb90ee1cc8fafa2d476f85a803400ce0124c08e719d1ffbb9c04"),
    (16, 4, 9, "b136b93b41c65e3e363884531da65a1e5ac6dedcb85ec436b06efff9964544bf"),
    (200, 3, 7, "4b866d85f206078dc3436a39b198baeb972286ad4fdfc0275c97de5bb1acf479"),
    (24, 3, 201, "e16368e613219e76c596e4d5e783dab0e3a3fa0532cdf48daa85d3abcb618cff"),
    (14, 5, 4, "0a570b8e756dc52f2e64d7543d228f40e472f40f9335ed971ff5e543d98bba53"),
])
def test_random_regular_edges_pinned(n, d, seed, digest):
    """The draw stream and the rejection rule fix the edge tuple, order and
    orientation included, so every graph-seeded sweep depends on them."""
    g = random_regular_graph(n, d, seed=seed)
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest


def test_random_regular_budget_exhausted_is_a_value_error(tmp_path, monkeypatch, capsys):
    with pytest.raises(GraphSamplingError, match="5-regular pairing on 12 vertices"):
        random_regular_graph(12, 5, seed=1, retries=10)
    assert issubclass(GraphSamplingError, ValueError)
    # K12 as a pairing: simple with probability about e^-30
    cfg = tmp_path / "k12.cfg"
    cfg.write_text("processes = graphical\nns = 12\nm = 10n\ngraph = random-regular:d=11\n")
    monkeypatch.setenv("BINLAB_OUT", str(tmp_path))
    assert main(["simulate", str(cfg)]) == 1
    assert "no simple connected 11-regular pairing" in capsys.readouterr().err


def test_graphical_vector_complete_graph_closed_form():
    """On K_n with distinct loads the edge process hits rank i exactly when
    the sampled edge joins it to a heavier bin: p_i = i / C(n,2)."""
    n = 6
    g = complete_graph(n)
    state = LoadState.from_loads([50 - 7 * k for k in range(n)])
    p = round_law(ProcessSpec(kind="graphical", graph=g), state)[(1, 1)]
    m = n * (n - 1) // 2
    for i, v in enumerate(p):
        assert v == pytest.approx(i / m, abs=1e-12)
    assert sum(p) == pytest.approx(1.0)


def test_graphical_vector_tie_goes_to_higher_id():
    g = cycle_graph(3)
    state = LoadState.from_loads([1, 1, 0])
    # edges (0,1), (1,2), (2,0): bin 2 wins two edges; the (0,1) tie -> id 1
    p = round_law(ProcessSpec(kind="graphical", graph=g), state)[(1, 1)]
    # ranks: 0 -> bin0, 1 -> bin1, 2 -> bin2
    assert p.tolist() == pytest.approx((0.0, 1 / 3, 2 / 3), abs=1e-12)


def test_graphical_vector_needs_matching_sizes():
    spec = ProcessSpec(kind="graphical", graph=complete_graph(4))
    with pytest.raises(ValueError):
        round_law(spec, LoadState.from_loads([1, 2]))


def test_graph_file_round_trip(tmp_path):
    g = random_regular_graph(12, 3, seed=9)
    path = tmp_path / "g.txt"
    write_graph_file(g, str(path))
    h = read_graph_file(str(path))
    assert (h.n, h.d) == (g.n, g.d)
    assert h.edges == g.edges
    header = path.read_text().splitlines()[0]
    assert header == "12 3"


def test_graph_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n1 2\n2 3\n3 4\n")  # missing closing edge: not regular
    with pytest.raises(ValueError):
        read_graph_file(str(bad))
    bad.write_text("2 1\n1 3\n")
    with pytest.raises(ValueError, match="out of range"):
        read_graph_file(str(bad))
    bad.write_text("2\n")
    with pytest.raises(ValueError):
        read_graph_file(str(bad))
