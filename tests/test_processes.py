"""Allocation processes: exact vectors, forced-draw semantics, fast engines.

``round_law`` is checked against the closed-form allocation vectors with
zero tolerance, and against a brute force over every scripted draw of
``sample_round`` in rational arithmetic.  Engine behaviour is pinned down
by replaying one shared draw stream through both the slow exact path and
the chunked engines.
"""
from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

from binlab import kernel, processes
from binlab.core import LoadState, new_state, tie_blocks
from binlab.experiments import ExperimentConfig, aggregate, sweep
from binlab.graphs import complete_graph, cycle_graph, hypercube_graph
from binlab.processes import (ProbeConfig, ProcessSpec,
                              UnsupportedProcessError, _BatchedEngine, _ChunkSource,
                              _Draws, _ScriptSource, _batched_round,
                              _probe_points,
                              _snapshot, allocation_vector, canonical_conditions,
                              comparison_vector, cut_round_law, d_choice_vector_exact,
                              expected_balls_per_step,
                              make_engine, one_plus_beta_vector_exact,
                              parse_process, quantile_vector_exact,
                              rank_vector, round_law, run, run_batched,
                              sample_round, step, tie_cuts)
from binlab.rng import make_generator
from binlab.vectors import check_conditions, quantile_index
from binlab.weights import parse_weights
from scripted_rounds import round_law_brute_force, scripted

F = Fraction


# -- spec parsing and validation ----------------------------------------------

@pytest.mark.parametrize("text,kind", [
    ("one-choice", "one-choice"),
    ("two-choice", "two-choice"),
    ("d-choice:d=3", "d-choice"),
    ("one-plus-beta:beta=0.5", "one-plus-beta"),
    ("quantile:delta=0.5", "quantile"),
    ("twinning:delta=0.25", "twinning"),
    ("penalty:delta=0.5", "penalty"),
    ("reset-memory", "reset-memory"),
])
def test_parse_process(text, kind):
    spec = parse_process(text)
    assert spec.kind == kind
    assert spec.weights.kind == "unit"


@pytest.mark.parametrize("text", [
    "three-choice", "d-choice", "d-choice:d=0", "one-plus-beta:beta=1.5",
    "quantile:delta=0", "two-choice:q=3", "graphical",
])
def test_parse_process_rejects(text):
    with pytest.raises(ValueError):
        parse_process(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec(kind="two-choice", d=2)
    with pytest.raises(ValueError):
        ProcessSpec(kind="twinning", delta=0.5, weights=parse_weights("exp1"))
    with pytest.raises(ValueError):
        ProcessSpec(kind="two-choice", tie_rule="coin")
    with pytest.raises(ValueError):
        ProcessSpec(kind="one-choice", graph=cycle_graph(4))
    g = cycle_graph(4)
    assert ProcessSpec(kind="graphical", graph=g).label() == "graphical"
    lbl = ProcessSpec(kind="d-choice", d=3, weights=parse_weights("exp1")).label()
    assert lbl == "d-choice:d=3:exp1"


# -- closed-form allocation vectors --------------------------------------------

def test_two_choice_vector_frozen():
    assert allocation_vector(parse_process("two-choice"), 2).probs == \
        pytest.approx((0.25, 0.75), abs=1e-15)
    assert allocation_vector(parse_process("two-choice"), 4).probs == \
        pytest.approx((0.0625, 0.1875, 0.3125, 0.4375), abs=1e-15)


def test_d_choice_vector_frozen():
    # ((i+1)^3 - i^3)/64 for n=4
    p = allocation_vector(parse_process("d-choice:d=3"), 4)
    assert p.probs == pytest.approx((1 / 64, 7 / 64, 19 / 64, 37 / 64), abs=1e-15)


@pytest.mark.parametrize("d,n", [(8, 1000), (100, 2000), (3, 16384)])
def test_d_choice_vector_is_the_round_law_row(d, n):
    # n^d past 2^53 (correct rounding) and past float64's range (no overflow)
    spec = parse_process(f"d-choice:d={d}")
    want = round_law(spec, LoadState(n))[(1, 1)]
    assert allocation_vector(spec, n).array.tolist() == want.tolist()


def test_one_plus_beta_vector_endpoints():
    n = 8
    flat = allocation_vector(parse_process("one-plus-beta:beta=0"), n)
    assert flat.probs == pytest.approx((1 / n,) * n, abs=1e-15)
    full = allocation_vector(parse_process("one-plus-beta:beta=1"), n)
    two = allocation_vector(parse_process("two-choice"), n)
    assert full.probs == pytest.approx(two.probs, abs=1e-15)


def test_quantile_vector_frozen():
    p = allocation_vector(parse_process("quantile:delta=0.5"), 4)
    assert p.probs == pytest.approx((1 / 8, 1 / 8, 3 / 8, 3 / 8), abs=1e-15)


def test_load_dependent_kinds_have_no_static_vector():
    for text in ("twinning:delta=0.5", "penalty:delta=0.5", "reset-memory"):
        with pytest.raises(UnsupportedProcessError):
            allocation_vector(parse_process(text), 8)


# -- the round law against the closed forms -------------------------------------

def distinct_state(n: int) -> LoadState:
    return LoadState.from_loads([3 * (n - k) for k in range(n)])


def one_ball_law(spec, state) -> list[float]:
    """P(the round's one ball lands on rank r), from ``round_law``."""
    return round_law(spec, state)[(1, 1)].tolist()


def ball_counts(spec, state) -> list[Fraction]:
    """sum_{K,c} c * P_r(K, c) from ``round_law``, as exact rationals."""
    counts = sum(c * p for (_, c), p in round_law(spec, state).items())
    return [F(x) for x in counts.tolist()]


def floats(exact) -> list[float]:
    return [float(x) for x in exact]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_two_choice_enumeration_identity(n):
    spec = parse_process("two-choice")
    got = one_ball_law(spec, distinct_state(n))
    assert got == floats(d_choice_vector_exact(n, 2))  # zero tolerance


@pytest.mark.parametrize("n,beta", [(4, 0.5), (8, 0.25), (6, 1.0), (5, 0.0)])
def test_one_plus_beta_enumeration_identity(n, beta):
    spec = parse_process(f"one-plus-beta:beta={beta}")
    got = one_ball_law(spec, distinct_state(n))
    assert got == floats(one_plus_beta_vector_exact(n, F(beta)))


@pytest.mark.parametrize("n,delta", [(4, 0.5), (8, 0.25), (16, 0.75)])
def test_quantile_enumeration_identity(n, delta):
    spec = parse_process(f"quantile:delta={delta}")
    got = one_ball_law(spec, distinct_state(n))
    assert got == floats(quantile_vector_exact(n, quantile_index(delta, n)))


def test_two_choice_identity_survives_ties_with_higher_index_rule():
    # ranks break ties by ascending id and the higher-index rule sends the
    # ball to the higher rank, exactly as strict inequality would
    spec = parse_process("two-choice")
    state = LoadState.from_loads([5, 5, 1, 1])
    assert one_ball_law(spec, state) == floats(d_choice_vector_exact(4, 2))


def test_two_choice_random_ties_average_within_blocks():
    spec = ProcessSpec(kind="two-choice", tie_rule="random")
    state = LoadState.from_loads([5, 5, 1, 1])
    got = one_ball_law(spec, state)
    base = d_choice_vector_exact(4, 2)
    expect = [(base[0] + base[1]) / 2] * 2 + [(base[2] + base[3]) / 2] * 2
    assert got == floats(expect)


def test_twinning_counts_exact():
    n, delta = 8, 0.25
    spec = parse_process(f"twinning:delta={delta}")
    t = quantile_index(delta, n)
    counts = ball_counts(spec, distinct_state(n))
    assert counts == [F(1, n)] * t + [F(2, n)] * (n - t)
    assert sum(counts) == expected_balls_per_step(spec, n) == 2 - F(t, n)


def test_penalty_counts_exact():
    n, delta = 8, 0.5
    spec = parse_process(f"penalty:delta={delta}")
    t = quantile_index(delta, n)
    counts = ball_counts(spec, distinct_state(n))
    # heavy first sample (prob t/n) redirects two balls uniformly
    expect = [F(t, n) * F(2, n)] * n
    for r in range(t, n):
        expect[r] += F(1, n)
    assert counts == expect
    assert sum(counts) == expected_balls_per_step(spec, n) == 1 + F(t, n)


def test_graphical_enumeration_matches_edge_count():
    g = complete_graph(5)
    spec = ProcessSpec(kind="graphical", graph=g)
    got = one_ball_law(spec, distinct_state(5))
    assert got == floats(F(i, 10) for i in range(5))


def test_graphical_law_on_the_128_cycle():
    n = 128
    g = cycle_graph(n)
    loads = make_generator(8, 0).permutation(n).tolist()  # distinct loads
    state = LoadState.from_loads(loads)
    got = one_ball_law(ProcessSpec(kind="graphical", graph=g), state)
    # |E| = n; a bin receives the ball from each edge to a heavier neighbour
    want = [F(0)] * n
    for b in range(n):
        heavier = sum(loads[v] > loads[b] for v in ((b - 1) % n, (b + 1) % n))
        want[state.rank_of[b]] = F(heavier, n)
    assert got == floats(want)
    for text in ("one-choice", "twinning:delta=0.5"):
        spec = parse_process(text)
        assert sum(ball_counts(spec, state)) == expected_balls_per_step(spec, n)


# -- canonical condition parameters ---------------------------------------------

def test_canonical_conditions_table():
    assert canonical_conditions(parse_process("two-choice"), 16) == \
        canonical_conditions(parse_process("reset-memory"), 16)
    c = canonical_conditions(parse_process("two-choice"), 16)
    assert (c.delta, c.epsilon, c.c_cap) == (0.25, 0.5, 2.0)
    c = canonical_conditions(parse_process("d-choice:d=5"), 16)
    assert c.c_cap == 5.0
    c = canonical_conditions(parse_process("one-plus-beta:beta=0.5"), 16)
    assert (c.delta, c.epsilon) == (0.25, 0.25)
    c = canonical_conditions(parse_process("quantile:delta=0.5"), 8)
    assert (c.delta, c.epsilon, c.c_cap) == (0.5, 0.5, 2.0)
    # snapping: n=6 has no rank at exactly n/4, nearest is 2/6
    c = canonical_conditions(parse_process("two-choice"), 6)
    assert c.delta == pytest.approx(2 / 6)


def test_canonical_conditions_errors():
    with pytest.raises(UnsupportedProcessError):
        canonical_conditions(parse_process("d-choice:d=1"), 8)
    with pytest.raises(UnsupportedProcessError):
        canonical_conditions(parse_process("one-plus-beta:beta=0"), 8)
    with pytest.raises(UnsupportedProcessError):
        canonical_conditions(parse_process("one-choice"), 8)
    g = cycle_graph(8)
    with pytest.raises(ValueError):
        canonical_conditions(ProcessSpec(kind="graphical", graph=g), 8)
    c = canonical_conditions(ProcessSpec(kind="graphical", graph=g), 8,
                             graph_eps=0.25)
    assert c.epsilon == 0.25


@pytest.mark.parametrize("text", [
    "two-choice", "d-choice:d=3", "one-plus-beta:beta=0.5", "quantile:delta=0.25",
    "twinning:delta=0.25", "penalty:delta=0.5", "reset-memory",
])
def test_comparison_vector_meets_its_own_conditions(text):
    n = 16
    spec = parse_process(text)
    cond = canonical_conditions(spec, n)
    verdict = check_conditions(comparison_vector(spec, n), cond)
    assert all(verdict.values()), (text, verdict)


# -- forced-draw single rounds ----------------------------------------------------

def u() -> "ProcessSpec":
    return parse_process("two-choice")


def test_two_choice_forced_picks_lighter():
    state = LoadState.from_loads([5, 0])
    out = sample_round(u(), state, draws=scripted(2, bins=[0, 1]))
    assert out == ((1, 1.0),)
    assert list(state.loads) == [5, 0]  # sample_round never mutates


def test_two_choice_tie_rules():
    state = LoadState.from_loads([3, 3])
    out = sample_round(u(), state, draws=scripted(2, bins=[0, 1]))
    assert out[0][0] == 1  # higher index wins ties
    spec = ProcessSpec(kind="two-choice", tie_rule="random")
    lo = sample_round(spec, state,
                      draws=scripted(2, bins=[0, 1], floats=[0.0]))
    hi = sample_round(spec, state,
                      draws=scripted(2, bins=[0, 1], floats=[0.99]))
    assert {lo[0][0], hi[0][0]} == {0, 1}


def test_quantile_forced_branches():
    spec = parse_process("quantile:delta=0.5")
    state = LoadState.from_loads([9, 7, 5, 3])
    keep = sample_round(spec, state, draws=scripted(4, bins=[2]))
    assert keep == ((2, 1.0),)
    redraw = sample_round(spec, state, draws=scripted(4, bins=[0, 3]))
    assert redraw == ((3, 1.0),)


def test_twinning_forced_branches():
    spec = parse_process("twinning:delta=0.5")
    state = LoadState.from_loads([9, 7, 5, 3])
    heavy = sample_round(spec, state, draws=scripted(4, bins=[0]))
    assert heavy == ((0, 1.0),)
    light = sample_round(spec, state, draws=scripted(4, bins=[3]))
    assert light == ((3, 1.0), (3, 1.0))  # twin lands in the same bin


def test_penalty_forced_branches():
    spec = parse_process("penalty:delta=0.5")
    state = LoadState.from_loads([9, 7, 5, 3])
    light = sample_round(spec, state, draws=scripted(4, bins=[3]))
    assert light == ((3, 1.0),)
    heavy = sample_round(spec, state, draws=scripted(4, bins=[0, 2]))
    assert heavy == ((2, 1.0), (2, 1.0))  # both balls to the second draw


def test_reset_memory_compares_round_start_loads():
    spec = parse_process("reset-memory")
    state = LoadState.from_loads([0, 1])
    out = step(spec, state, draws=scripted(2, bins=[0, 1]))
    # ball 1 raises bin 0 to 1, but the comparison uses the round-start
    # loads (0, 1), so ball 2 still goes to bin 0
    assert out == ((0, 1.0), (0, 1.0))
    assert list(state.loads) == [2, 1]


def test_one_plus_beta_forced_coin():
    spec = parse_process("one-plus-beta:beta=0.5")
    state = LoadState.from_loads([4, 0, 2])
    one = sample_round(spec, state,
                       draws=scripted(3, bins=[0], floats=[0.9]))
    assert one == ((0, 1.0),)
    two = sample_round(spec, state,
                       draws=scripted(3, bins=[0, 2], floats=[0.1]))
    assert two == ((2, 1.0),)


def test_graphical_forced_edge():
    spec = ProcessSpec(kind="graphical", graph=cycle_graph(4))
    state = LoadState.from_loads([0, 5, 3, 1])
    out = sample_round(spec, state, draws=scripted(4, n_edges=4, edges=[1]))
    assert out == ((2, 1.0),)  # edge (1,2): bin 2 is lighter


def test_weighted_round_consumes_weight_draw():
    spec = ProcessSpec(kind="two-choice", weights=parse_weights("exp1"))
    state = LoadState.from_loads([5, 0])
    out = sample_round(spec, state,
                       draws=scripted(2, spec.weights, bins=[0, 1], weights=[2.5]))
    assert out == ((1, 2.5),)


def test_forced_draws_exhaustion():
    # the script runs out at a chunk boundary: the second round needs a
    # fresh chunk of bins
    state = LoadState.from_loads([5, 0])
    draws = scripted(2, bins=[0, 1])
    sample_round(u(), state, draws=draws)
    with pytest.raises(ValueError, match="exhausted"):
        sample_round(u(), state, draws=draws)


# -- the round law against the sampler ------------------------------------------

# the delta kinds take delta = 2/n (1/2 at n = 2), so the quantile is
# integral on every state
LAW_CASES = [
    ("one-choice", None), ("two-choice", None), ("d-choice:d=2", None),
    ("d-choice:d=3", None), ("one-plus-beta:beta=0.5", None),
    ("quantile:delta={q}", None), ("twinning:delta={q}", None),
    ("penalty:delta={q}", None), ("reset-memory", None),
    ("graphical", cycle_graph(4)), ("graphical", complete_graph(4)),
    ("graphical", cycle_graph(7)), ("graphical", hypercube_graph(8)),
]
LAW_STATES = [(2, 1, 1, 0), (1, 1, 0, 0), (0, 2, 2, 1), (0, 0, 0, 0),
              (1, 0, 1, 0, 1), (2, 2, 2, 0, 1), (0, 0, 0, 0, 0),
              (1, 1), (2, 0, 2), (1, 2, 0, 2, 1, 1), (0, 2, 1, 2, 0, 0, 1),
              (2, 1, 1, 0, 2, 1, 0, 2)]


def _case_id(text, graph) -> str:
    """The case's text and its graph's degree, and the graph's size unless
    it is 4."""
    if graph is None:
        return f"{text}-"
    return f"{text}-{graph.d}" + ("" if graph.n == 4 else f"n{graph.n}")


@pytest.mark.parametrize("tie", ["higher-index", "random"])
@pytest.mark.parametrize("text,graph", LAW_CASES,
                         ids=[_case_id(t, g) for t, g in LAW_CASES])
def test_round_law_matches_every_script(text, graph, tie):
    for loads in LAW_STATES:
        if graph is not None and graph.n != len(loads):
            continue
        state = LoadState.from_loads(loads)
        q = min(2, state.n - 1) / state.n
        spec = parse_process(text.format(q=q), graph=graph, tie_rule=tie)
        want = round_law_brute_force(spec, state)
        got = round_law(spec, state)
        for atom in set(want) | set(got):
            exact = [float(x) for x in want.get(atom, [F(0)] * state.n)]
            assert np.allclose(got.get(atom, 0.0), exact, rtol=0, atol=1e-12), (loads, atom)


_NON_GRAPHICAL = ("one-choice", "two-choice", "d-choice:d=3", "d-choice:d=9",
                  "one-plus-beta:beta=0.5", "quantile:delta=0.25", "reset-memory",
                  "twinning:delta=0.5", "penalty:delta=0.25")


@pytest.mark.parametrize("tie", ["higher-index", "random"])
@pytest.mark.parametrize("text,wtext", [  # twinning and penalty take unit weights only
    (text, wtext) for text in _NON_GRAPHICAL for wtext in ("unit", "exp1")
    if wtext == "unit" or not text.startswith(("twinning", "penalty"))])
def test_round_law_is_the_cut_point_law_of_the_sorted_loads(text, wtext, tie):
    """drift-check's law: one sort of the loads, their ``tie_cuts``, then
    ``cut_round_law``; bit for bit ``round_law`` on random, tied and
    one-heavy states."""
    spec = parse_process(text, weights=parse_weights(wtext), tie_rule=tie)
    n = 40
    rng = make_generator(13, len(text), n)
    fraction = rng.exponential(size=n) if wtext != "unit" else np.zeros(n)
    for loads in (rng.integers(0, 4, size=n) + fraction, rng.permutation(n) + fraction,
                  np.array([300.0] + [0.0] * (n - 1)), np.zeros(n)):
        state = LoadState.from_loads(loads)
        ranked = np.sort(loads)[::-1]
        ref = sorted(loads.tolist(), reverse=True)
        assert ranked.tolist() == ref
        ends = tie_cuts(spec, ranked)
        # the quantile kinds compare ranks, never loads: their rounds see no ties
        each = tie == "higher-index" or spec.kind in ("quantile", "twinning", "penalty")
        starts = [r for r in range(n) if each or r == 0 or ref[r] != ref[r - 1]]
        assert ends.tolist() == starts + [n]
        want, got = round_law(spec, state), cut_round_law(spec, n, ends)
        assert list(got) == list(want)
        assert all(got[atom].tobytes() == want[atom].tobytes() for atom in want)


def _block_fractions(state, tie, cum, denom) -> list[Fraction]:
    """Per rank, (cum(b) - cum(a)) / (denom * (b - a)) over its block [a, b):
    the tie block under random ties, else the rank alone."""
    blocks = (tie_blocks(state) if tie == "random"
              else [(r, r + 1) for r in range(state.n)])
    out = []
    for a, b in blocks:
        out += [F(cum(b) - cum(a), denom * (b - a))] * (b - a)
    return out


@pytest.mark.parametrize("tie", ["higher-index", "random"])
@pytest.mark.parametrize("text,n", [
    ("two-choice", 2048), ("d-choice:d=3", 64),      # n^d below 2^53
    ("d-choice:d=5", 999),                           # n^d below, n^(d+1) above
    ("d-choice:d=9", 64), ("d-choice:d=5", 2048),    # n^d above 2^53
    ("reset-memory", 2048)])
def test_round_law_entries_correctly_rounded(text, n, tie):
    """Choice-law entries are float(Fraction) to the bit, on tied states
    and on both sides of 2^53; reset-memory's (2, 2) atom is u / n."""
    spec = parse_process(text, tie_rule=tie)
    rng = make_generator(9, n, spec.d or 2)
    for loads in (rng.integers(0, 4, size=n), rng.permutation(n), np.zeros(n)):
        state = LoadState.from_loads(loads)
        law = round_law(spec, state)
        if spec.kind == "reset-memory":
            u = _block_fractions(state, tie, lambda k: k * (k + 1) // 2, n)
            want, got = [float(x) / n for x in u], law[(2, 2)]
        else:
            d = spec.d or 2
            want = [float(x) for x in _block_fractions(state, tie, lambda k: k ** d, n ** d)]
            got = law[(1, 1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=0)


# -- engine vs exact-path agreement -----------------------------------------------

ENGINE_CASES = [
    ("one-choice", None),
    ("two-choice", None),
    ("d-choice:d=4", None),
    ("one-plus-beta:beta=0.3", None),
    ("quantile:delta=0.5", None),
    ("twinning:delta=0.25", None),
    ("penalty:delta=0.5", None),
    ("reset-memory", None),
    ("two-choice", "exp1"),
    ("reset-memory", "geom:p=0.5"),
]


@pytest.mark.parametrize("text,wtext", ENGINE_CASES)
def test_engine_replays_exact_path(text, wtext):
    n, target = 16, 300
    weights = parse_weights(wtext) if wtext else None
    spec = parse_process(text, weights=weights)
    rng = make_generator(99, len(text) % 7, 1 if wtext else 0)
    bins = rng.integers(0, n, size=1600).tolist()
    floats = rng.random(400).tolist()
    wdraws = spec.weights.sample(rng, 800).tolist()

    state = new_state(n)
    draws = scripted(n, spec.weights, bins=bins, floats=floats, weights=wdraws)
    balls = 0
    while balls < target:
        balls += len(step(spec, state, draws=draws))

    eng = make_engine(spec, n, source=_ScriptSource(bins=bins, floats=floats,
                                                    weights=wdraws))
    eng.advance(target)
    assert eng.balls == balls
    assert list(eng.loads) == list(state.loads)


def test_graph_engine_replays_exact_path():
    g = hypercube_graph(16)
    spec = ProcessSpec(kind="graphical", graph=g)
    rng = make_generator(3, 3)
    edges = rng.integers(0, len(g.edges), size=400).tolist()
    state = new_state(16)
    draws = scripted(16, spec.weights, n_edges=len(g.edges), edges=edges)
    for _ in range(300):
        step(spec, state, draws=draws)
    eng = make_engine(spec, 16, source=_ScriptSource(edges=edges))
    eng.advance(300)
    assert list(eng.loads) == list(state.loads)


def test_one_plus_beta_one_is_two_choice():
    n = 12
    rng = make_generator(17, 0)
    bins = rng.integers(0, n, size=800).tolist()
    opb = make_engine(parse_process("one-plus-beta:beta=1"), n,
                      source=_ScriptSource(bins=bins, floats=[0.0] * 400))
    two = make_engine(parse_process("two-choice"), n,
                      source=_ScriptSource(bins=list(bins)))
    opb.advance(350)
    two.advance(350)
    assert list(opb.loads) == list(two.loads)  # kernel loads are an array


# -- full runs --------------------------------------------------------------------

def test_run_zero_balls():
    rows = run(parse_process("one-choice"), 4, 0, seed=1)
    assert len(rows) == 1
    assert rows[0].step == 0 and rows[0].gap == 0.0


def test_run_probe_cadence():
    rows = run(u(), 8, 24, seed=2)
    assert [r.step for r in rows] == [8, 16, 24]
    rows = run(u(), 8, 20, seed=2)
    assert [r.step for r in rows] == [8, 16, 20]
    explicit = run(u(), 8, 20, seed=2,
                   probe=ProbeConfig(steps=(0, 5, 99)))
    assert [r.step for r in explicit] == [0, 5, 20]


def test_run_is_deterministic():
    a = run(u(), 32, 500, seed=7, probe=ProbeConfig(gamma=0.25, thresholds=(1.0,)))
    b = run(u(), 32, 500, seed=7, probe=ProbeConfig(gamma=0.25, thresholds=(1.0,)))
    assert a == b
    c = run(u(), 32, 500, seed=8)
    assert c[-1].gap != a[-1].gap or c[-1].max_abs != a[-1].max_abs


def test_run_multi_ball_overshoot_bounded():
    spec = parse_process("twinning:delta=0.5")
    rows = run(spec, 16, 100, seed=3)
    assert 100 <= rows[-1].step <= 101
    for r in rows:
        assert r.gap >= 0 and r.max_abs >= r.gap


def test_run_probe_extras():
    rows = run(u(), 16, 64, seed=5, probe=ProbeConfig(gamma=0.5, thresholds=(0.0, 2.0)))
    for r in rows:
        assert r.gamma_value == 0.5
        assert r.gamma_total >= 2 * 16  # convexity: flat state minimizes
        assert r.bins_ge[0] >= r.bins_ge[1]
        assert r.seed == 5


def test_two_choice_median_gap_small():
    gaps = [run(u(), 1024, 1024, seed=s)[-1].gap for s in range(50)]
    assert statistics.median(gaps) <= 5.0


def test_two_choice_beats_one_choice():
    n, m = 256, 256 * 20
    two = statistics.median(run(u(), n, m, seed=s)[-1].gap for s in range(30))
    one = statistics.median(
        run(parse_process("one-choice"), n, m, seed=s)[-1].gap for s in range(30))
    assert two < one


# -- batched rounds ----------------------------------------------------------------

def test_snapshot_leaves_live_loads_untouched():
    loads = np.array([3.0, 1.0, 2.0])
    row = _snapshot(loads, 6, None, 0)
    assert loads.tolist() == [3.0, 1.0, 2.0]
    assert row.gap == 1.0 and row.max_abs == 1.0


def test_batched_round_freezes_round_start_ranking():
    loads = np.zeros(2)
    _batched_round(loads, make_generator(5, 1).multinomial(100, [0.0, 1.0]))
    # rank 1 at round start is bin 1 (ties resolve by ascending id) and the
    # ranking must not refresh mid-round
    assert loads.tolist() == [0.0, 100.0]
    assert np.count_nonzero(loads) == 1 and loads.sum() == 100.0


RANKING_LOADS = [
    [0.0],                                   # n = 1
    [3.0, 3.0, 1.0, 3.0, 1.0, 0.0, 3.0],     # ties
    [0.0, 65535.0, 7.0, 65535.0, 0.0],       # widest spread the kernel's counting sort takes
    [0.0, 65536.0, 7.0, 65536.0, 0.0, 1.0],  # spread >= 2^16: its comparison sort
    [1e6, 2e6, 1e6, 3.0, 2e6],
    [65530.0, 0.0, 65530.0, 0.0],            # rounds move the spread past 2^16
]


def _top_heavy(n):
    """A rank vector heavier on the top ranks, so rounds widen the spread."""
    pv = np.arange(n, 0, -1, dtype=float)
    return pv / pv.sum()


def _rank_counts(n, rows):
    """Counts of 50 balls per round, heavier on the top ranks."""
    return make_generator(3, 0).multinomial(50, _top_heavy(n), size=rows)


@pytest.mark.parametrize("loads", RANKING_LOADS)
def test_batched_round_ranking_matches_lexsort(loads):
    loads = np.array(loads)
    n = len(loads)
    counts = _rank_counts(n, 1)[0]
    want = loads.copy()
    want[sorted(range(n), key=lambda b: (-loads[b], b))] += counts
    got = loads.copy()
    _batched_round(got, counts)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("loads", RANKING_LOADS)
def test_kernel_batched_rounds_match_reference(loads):
    lib = kernel.load()
    if lib is None:
        pytest.skip("no C compiler: run_batched applies rounds with numpy")
    pv = _top_heavy(len(loads))
    ref, want = make_generator(3, 0), np.array(loads)
    for _ in range(4):
        _batched_round(want, ref.multinomial(50, pv))
    rng, got = make_generator(3, 0), np.array(loads)
    kernel.batched_rounds(lib, rng, kernel.multinomial_tables(pv), 50, 4, got)
    assert got.tolist() == want.tolist()
    assert rng.random() == ref.random()


def test_kernel_batched_rounds_validate_arrays():
    lib = kernel.load()
    if lib is None:
        pytest.skip("no C compiler")
    tables = kernel.multinomial_tables(_top_heavy(4))
    for loads, tabs in ((np.zeros(4, dtype=np.float32), tables),
                        (np.zeros(5), tables),
                        (np.zeros(8)[::2], tables),
                        (np.zeros(4), tables[:, :3]),
                        (np.zeros(4), tables.astype(np.float32)),
                        (np.zeros(4), np.asfortranarray(tables))):
        with pytest.raises(ValueError):
            kernel.batched_rounds(lib, make_generator(1), tabs, 5, 2, loads)
    for b, rounds in ((0, 2), (1 << 64, 2), (5, -1), (5, 1 << 63)):
        with pytest.raises(ValueError, match="int64"):
            kernel.batched_rounds(lib, make_generator(1), tables, b, rounds, np.zeros(4))


# every kind with a rank vector; quantile needs delta * n whole, so n >= 2
DRAW_CASES = [(text, n, b)
              for text in ("one-choice", "two-choice", "d-choice:d=8",
                           "one-plus-beta:beta=0.5", "quantile:delta=0.5")
              for n in (1, 2, 16, 1024) if n > 1 or not text.startswith("quantile")
              for b in (n, n + 7, 40 * n)]


@pytest.mark.parametrize("text,n,b", DRAW_CASES)
def test_kernel_batched_draws_match_numpy_multinomial(text, n, b):
    lib = kernel.load()
    if lib is None:
        pytest.skip("no C compiler: run_batched draws with numpy")
    spec = parse_process(text)
    pv = rank_vector(spec, n)
    rng, ref = make_generator(21, 0), make_generator(21, 0)
    eng, want, balls = _BatchedEngine(spec, n, b, rng), np.zeros(n), 0
    for target in (b, 3 * b + 1, 6 * b):  # one round, then three, then two
        eng.advance(target)
        while balls < target:
            _batched_round(want, ref.multinomial(b, pv))
            balls += b
        assert eng.loads.tolist() == want.tolist()
        assert eng.balls == balls
        assert rng.random() == ref.random()  # the same stream position


def test_draw_cases_reach_numpys_btpe_branch():
    # numpy draws a category by BTPE where its remaining balls dn times pp
    # pass 30, and by inversion elsewhere: d-choice d=8 at b = 40n has both
    spec, n = parse_process("d-choice:d=8"), 1024
    assert ("d-choice:d=8", n, 40 * n) in DRAW_CASES
    pc, pp = kernel.multinomial_tables(rank_vector(spec, n))[:2]
    row = make_generator(21, 0).multinomial(40 * n, rank_vector(spec, n))
    dn = 40 * n - np.concatenate(([0], np.cumsum(row)[:-1]))
    drawn = ((dn > 0) & (pc != 0))[:-1]
    assert np.any(dn[:-1][drawn] * pp[:-1][drawn] > 30)
    assert np.any(dn[:-1][drawn] * pp[:-1][drawn] <= 30)


def _bad_rank_vector(fault):
    pv = rank_vector(u(), 8).copy()
    if fault == "nan":
        pv[3] = np.nan
    elif fault == "negative":
        pv[3], pv[4] = -0.25, pv[4] + pv[3] + 0.25
    else:  # entries in [0, 1] whose first n - 1 sum past 1
        pv *= 1.5
    return pv


@pytest.mark.parametrize("fault", ["nan", "negative", "sum"])
def test_batched_rank_vector_checked_before_any_draw(batched_path, monkeypatch, fault):
    pv = _bad_rank_vector(fault)
    with pytest.raises(ValueError):
        make_generator(6, 0).multinomial(8, pv)  # numpy refuses it too
    monkeypatch.setattr(processes, "rank_vector", lambda spec, n: pv)
    rng = make_generator(6, 0)
    with pytest.raises(ValueError, match="rank vector"):
        _BatchedEngine(u(), 8, 8, rng).advance(64)
    assert rng.random() == make_generator(6, 0).random()


def test_multinomial_rows_equal_single_calls():
    # run_batched draws a probe segment's rounds with one size=k call; this
    # is the numpy behaviour that keeps its stream that of k single calls
    pv = rank_vector(u(), 37)
    for b, k in ((37, 50), (5, 9), (10_000, 7)):
        many, one = make_generator(8, 0), make_generator(8, 0)
        rows = many.multinomial(b, pv, size=k)
        assert rows.tolist() == [one.multinomial(b, pv).tolist() for _ in range(k)]
        assert many.random() == one.random()


def _batched_per_round(spec, n, m, b, seed, probe=None):
    """The batched run one round, and one multinomial call, at a time."""
    pv = np.asarray(allocation_vector(spec, n).probs, dtype=float)
    pv = pv / pv.sum()
    rng = make_generator(seed, 0)
    loads = np.zeros(n)
    rows, balls = [], 0
    for pt in _probe_points(probe, n, m):
        if rows and balls >= pt:  # one row per ball count
            continue
        while balls < pt:
            _batched_round(loads, rng.multinomial(b, pv))
            balls += b
        rows.append(_snapshot(loads, balls, probe, seed))
    return rows


@pytest.fixture(params=["kernel", "numpy"])
def batched_path(request, monkeypatch):
    if request.param == "kernel" and kernel.load() is None:
        pytest.skip("no C compiler")
    if request.param == "numpy":
        monkeypatch.setattr(kernel, "load", lambda: None)
    return request.param


@pytest.mark.parametrize("text", ["two-choice", "d-choice:d=3",
                                  "one-plus-beta:beta=0.5", "quantile:delta=0.25"])
def test_run_batched_matches_per_round_reference(batched_path, text):
    spec = parse_process(text)
    # b = 37 is no multiple of n = 24: each probe (every n balls) waits for
    # the round that crosses it, and some segments hold no round at all
    probe = ProbeConfig(gamma=0.5, thresholds=(1.0,))
    got = run_batched(spec, 24, 30 * 24, 37, seed=12, probe=probe)
    assert got == _batched_per_round(spec, 24, 30 * 24, 37, 12, probe)


def test_run_batched_segment_longer_than_one_draw(batched_path):
    # 5000 rounds in one probe segment, 2^15 // 64 = 512 rounds per draw
    spec, n, b = u(), 64, 5
    probe = ProbeConfig(steps=(5000 * b,))
    got = run_batched(spec, n, 5000 * b, b, seed=4, probe=probe)
    assert got == _batched_per_round(spec, n, 5000 * b, b, 4, probe)


def test_batched_round_validates():
    for b in (0, 1 << 63):  # ctypes would wrap 2^63 to a negative int64
        with pytest.raises(ValueError, match="batch size"):
            run_batched(u(), 4, 16, b=b, seed=5)


def test_batched_uniform_counts_chi_square():
    n, rounds = 8, 2000
    loads = np.zeros(n)
    rng = make_generator(11, 0)
    for _ in range(rounds):
        _batched_round(loads, rng.multinomial(n, np.full(n, 1 / n)))
    expect = rounds  # n*rounds balls over n bins
    chi2 = sum((v - expect) ** 2 / expect for v in loads)
    # df = 7; chi2 above 30 has probability ~ 1e-4
    assert chi2 < 30, loads


def test_run_batched_basics():
    spec = u()
    rows = run_batched(spec, 64, 640, b=128, seed=9)
    assert rows[-1].step == 640
    assert all(r.step % 128 == 0 or r.step == 0 for r in rows)
    again = run_batched(spec, 64, 640, b=128, seed=9)
    assert rows == again


def test_batched_probes_give_one_row_per_ball_count():
    # rounds of 4n balls pass four probe points at once: each ball count is
    # one row, so aggregating one repetition counts one
    table = sweep(ExperimentConfig(processes=("two-choice",), ns=(16,), m="3b",
                                   batches=("4n",), keep="trajectory"))
    assert table.column("step") == [64, 128, 192]
    assert aggregate(table).column("reps") == [1, 1, 1]
    # explicit probes inside one round, and 0 before the first
    rows = run_batched(u(), 16, 192, b=64, seed=1,
                       probe=ProbeConfig(steps=(0, 5, 10, 33, 64, 100)))
    assert [r.step for r in rows] == [0, 64, 128, 192]


def test_per_ball_probes_give_one_row_per_ball_count():
    # twinning's two-ball steps pass some consecutive probe points
    rows = run(parse_process("twinning:delta=0.5"), 16, 60, seed=3,
               probe=ProbeConfig(steps=tuple(range(61))))
    steps = [r.step for r in rows]
    assert steps == sorted(set(steps)) and steps[0] == 0 and steps[-1] >= 60
    assert len(steps) < 61  # some points were passed by a two-ball step


def test_chunk_source_stream_keeps_the_buffered_half():
    # numpy's Philox keeps the spare 32-bit half of a 64-bit draw across
    # integers calls, so 3 then 5 bins read as a chunk of 8 ...
    a, b = make_generator(5, 0), make_generator(5, 0)
    split = a.integers(0, 1000, size=3).tolist() + a.integers(0, 1000, size=5).tolist()
    assert split == b.integers(0, 1000, size=8).tolist()
    # ... and across a random() draw between them
    a, b = make_generator(5, 0), make_generator(5, 0)
    head, floats, tail = a.integers(0, 1000, size=3), a.random(2), a.integers(0, 1000, size=1)
    assert head.tolist() + tail.tolist() == b.integers(0, 1000, size=4).tolist()
    assert floats.tolist() == b.random(2).tolist()
    # the chunk size is still part of the stream: the floats drawn after a
    # chunk of bins move with its size
    unit = parse_weights("unit")
    s3, s5 = (_ChunkSource(make_generator(5, 0), 16, unit, bins_size=k) for k in (3, 5))
    assert s3.bins().tolist() == s5.bins().tolist()[:3]
    assert s3.floats().tolist() != s5.floats().tolist()


def test_run_batched_rejects_weighted_and_dynamic():
    weighted = ProcessSpec(kind="two-choice", weights=parse_weights("exp1"))
    with pytest.raises(ValueError, match="unit"):
        run_batched(weighted, 16, 64, b=16, seed=0)
    with pytest.raises(UnsupportedProcessError):
        run_batched(parse_process("twinning:delta=0.5"), 16, 64, b=16, seed=0)


def test_batched_rounds_refuse_random_ties():
    # a round ranks its bins with ties by ascending id whatever the rule says
    spec = ProcessSpec(kind="two-choice", tie_rule="random")
    with pytest.raises(ValueError, match="ascending bin id"):
        run_batched(spec, 64, 640, b=64, seed=5)
    with pytest.raises(ValueError, match="ascending bin id"):
        _BatchedEngine(spec, 64, 64, make_generator(5, 0))
    with pytest.raises(ValueError, match="ascending bin id"):
        ExperimentConfig(processes=("two-choice",), ns=(64,), batches=("0", "1n"),
                         tie_rule="random")
    ExperimentConfig(processes=("two-choice",), ns=(64,), tie_rule="random")


def test_run_batched_gap_grows_with_b():
    spec = u()
    n = 256
    small = statistics.median(
        run_batched(spec, n, 20 * n, b=n, seed=s)[-1].gap for s in range(15))
    large = statistics.median(
        run_batched(spec, n, 20 * n, b=16 * n, seed=s)[-1].gap for s in range(15))
    assert small < large


# -- outcome invariants --------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "one-choice", "two-choice", "d-choice:d=3", "one-plus-beta:beta=0.7",
    "quantile:delta=0.25", "twinning:delta=0.5", "penalty:delta=0.25",
    "reset-memory",
])
def test_round_outcome_invariants(text):
    spec = parse_process(text)
    state = new_state(8)
    draws = _Draws(8, spec.weights, _ChunkSource(make_generator(23, 1), 8, spec.weights))
    for _ in range(200):
        out = step(spec, state, draws)
        assert 1 <= len(out) <= 2
        assert all(0 <= b < 8 and w > 0 for b, w in out)
    assert state.total_weight == pytest.approx(sum(state.loads))
