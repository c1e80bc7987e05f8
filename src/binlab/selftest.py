"""Self-contained invariant suite, runnable via `binlab selftest`.

Each check is a small deterministic property of one module.  The runner
prints one `ok`/`FAIL` line per check and returns the failure count; the
CLI maps any failure to exit code 2.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import configfile, core, experiments, graphs, kernel, potentials, processes
from . import tableio, vectors, weights
from .checks import PreconditionError
from .rng import make_generator


def _assert(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


# -- core ----------------------------------------------------------------------

def check_rank_order():
    for seed in range(3):
        rng = make_generator(seed, 99)
        st = core.new_state(32)
        for _ in range(2000):
            st.apply_allocation(int(rng.integers(0, 32)), float(rng.integers(0, 3)))
        loads = st.loads.tolist()
        counted = [st.rank(b) for b in range(32)]
        order = sorted(range(32), key=lambda b: (-loads[b], b))
        _assert(st.sorted_index.tolist() == order, "heaviest first, ties by ascending id")
        _assert(st.rank_of[order].tolist() == list(range(32)), "rank_of inverts sorted_index")
        _assert(counted == st.rank_of.tolist(), "rank(b) counts agree with the sort")


def check_conservation_and_gap():
    rng = make_generator(7, 0)
    st = core.new_state(16)
    total = 0.0
    for _ in range(500):
        w = float(rng.random())
        st.apply_allocation(int(rng.integers(0, 16)), w)
        total += w
    _assert(abs(st.total_weight - total) < 1e-9, "weight conservation")
    y = st.normalized()
    _assert(abs(float(np.sum(y))) < 1e-6, "normalized loads sum to zero")
    _assert(abs(st.gap() - float(np.max(y))) < 1e-12, "gap = max normalized")


def check_rank_tie_order():
    st = core.LoadState.from_loads([3, 1, 3, 1, 3])
    _assert(list(st.sorted_index) == [0, 2, 4, 1, 3],
            f"ties ranked by ascending id, got {st.sorted_index}")


# -- vectors -------------------------------------------------------------------

def check_worst_case_majorizes():
    rng = make_generator(11, 0)
    n, delta, eps = 16, 0.25, 0.5
    r = vectors.worst_case_vector(delta, eps, n)
    for _ in range(200):
        q = rng.random(n) + 1e-3
        q = np.sort(q / q.sum())
        # project onto the C1 cap: running minimum against r's prefix
        caps = np.cumsum(r.array)
        pref = np.minimum(np.cumsum(q), caps)
        pref = np.maximum.accumulate(pref)
        p = np.diff(np.concatenate(([0.0], pref)))
        p[-1] += 1.0 - p.sum()
        pv = vectors.ProbabilityVector(probs=tuple(float(v) for v in p))
        _assert(vectors.check_c1(pv, delta, eps, tol=1e-9), "projected vector in C1")
        _assert(vectors.majorizes(r, pv, tol=1e-9), "worst-case majorizes C1 vectors")


def check_d0_d1_imply_c1():
    rng = make_generator(12, 0)
    n, delta, eps = 20, 0.25, 0.3
    t = vectors.quantile_index(delta, n)
    for _ in range(200):
        g = np.sort(rng.random(n))
        p = g / g.sum()
        cap = (1 - eps) / n
        if p[t - 1] > cap:           # force D1 by flattening the low prefix
            p[:t] = np.minimum(p[:t], cap)
            p[t:] += (1.0 - p.sum()) / (n - t)
            p = np.sort(p)
        pv = vectors.ProbabilityVector(probs=tuple(float(v) for v in p))
        if vectors.check_d0(pv) and vectors.check_d1(pv, delta, eps):
            _assert(vectors.check_c1(pv, delta, eps, tol=1e-9), "D0+D1 imply C1")


def check_quantile_conditions():
    p = processes.allocation_vector(
        processes.ProcessSpec(kind="quantile", delta=0.5), 8)
    res = vectors.check_conditions(
        p, vectors.ConditionParams(delta=0.5, epsilon=0.5, c_cap=2.0))
    _assert(all(res.values()), f"quantile(1/2) conditions: {res}")


def check_average_ties_stochastic():
    st = core.LoadState.from_loads([2, 2, 1, 1])
    p = vectors.ProbabilityVector(probs=(0.1, 0.2, 0.3, 0.4))
    ap = vectors.average_ties(p, st)
    _assert(abs(sum(ap.probs) - 1) < 1e-12, "tie averaging preserves mass")
    want = (0.15, 0.15, 0.35, 0.35)
    _assert(all(abs(a - b) < 1e-12 for a, b in zip(ap.probs, want)),
            f"blockwise means, got {ap.probs}")


# -- potentials ----------------------------------------------------------------

def check_potential_flat_and_shift():
    st = core.new_state(10)
    rep = potentials.potential(st, 0.5)
    _assert(abs(rep.gamma_total - 20.0) < 1e-12, "flat state potential = 2n")
    rng = make_generator(13, 0)
    loads = [float(rng.integers(0, 50)) for _ in range(10)]
    a = potentials.potential(core.LoadState.from_loads(loads), 0.3)
    b = potentials.potential(core.LoadState.from_loads([v + 17 for v in loads]), 0.3)
    _assert(abs(a.gamma_total - b.gamma_total) < 1e-9 * a.gamma_total,
            "potential is translation invariant")


def check_log_space_agreement():
    fib = [0, 1, 2, 3, 5, 8, 13, 21]
    # the last case has gamma*y = +-350 and runs the shifted branch
    for loads, gamma in ((fib, 0.01), (fib, 0.25), (fib, 1.0), ([0, 700], 1.0)):
        st = core.LoadState.from_loads(loads)
        y = st.sorted_normalized().tolist()
        rep = potentials.potential(st, gamma)
        want = math.fsum(math.exp(s * gamma * v) for v in y for s in (1, -1))
        _assert(abs(rep.gamma_total - want) < 1e-12 * want
                and abs(rep.log_gamma_total - math.log(want)) < 1e-12,
                f"potential matches an fsum of exp terms on {loads} at gamma={gamma}")


def check_certify_random_instances():
    rng = make_generator(14, 0)
    n, delta, eps = 16, 0.25, 0.5
    r = vectors.worst_case_vector(delta, eps, n)
    for k in range(100):
        loads = rng.integers(0, 30, size=n).tolist()
        st = core.LoadState.from_loads(loads)
        cert = potentials.certify_drift(st, r, vectors.ConditionParams(
            delta=delta, epsilon=eps), gamma=0.25)
        _assert(cert.passed, f"drift certificate #{k} failed: {cert}")
        _assert(cert.passed_theorem, "relaxed form implied by tight form")


def check_certify_rejects_bad_vector():
    st = core.new_state(8)
    bad = vectors.ProbabilityVector(probs=(0.5, 0.5, 0, 0, 0, 0, 0, 0))
    try:
        potentials.certify_drift(st, bad, vectors.ConditionParams(
            delta=0.25, epsilon=0.5), gamma=0.1)
    except PreconditionError:
        return
    raise AssertionError("C1 violation must raise PreconditionError")


# -- weights -------------------------------------------------------------------

def check_mgf_routes_agree():
    for spec in ("exp1", "geom:p=0.5", "poisson:l=1"):
        dist = weights.parse_weights(spec)
        for z in (0.05, 0.2, dist.zeta):
            closed = weights.mgf(dist, z, method="closed")
            numeric = weights.mgf(dist, z, method="numeric")
            _assert(abs(closed - numeric) <= 1e-6 * closed,
                    f"mgf routes disagree for {spec} at z={z}")


def check_moment_inequality_grid():
    for spec in ("unit", "exp1", "geom:p=0.5"):
        dist = weights.parse_weights(spec)
        s = weights.s_for_gamma(dist)
        for gamma in (dist.zeta / 8, dist.zeta / 2):
            for ell in (-1.0, -0.3, 0.4, 1.0):
                res = weights.moment_inequality_check(dist, gamma, ell, s=s)
                _assert(res.passed, f"moment bound {spec} g={gamma} l={ell}")


def check_sample_means():
    rng = make_generator(15, 0)
    for spec in ("exp1", "geom:p=0.5", "poisson:l=2"):
        dist = weights.parse_weights(spec)
        x = dist.sample(rng, 40000)
        _assert(abs(float(np.mean(x)) - 1.0) < 0.05, f"{spec} has mean ~1")


# -- processes -----------------------------------------------------------------

def check_empirical_matches_formulas():
    rng = make_generator(16, 0)
    n = 8
    loads = sorted(set(rng.integers(0, 100, size=32).tolist()))[:n]
    st = core.LoadState.from_loads(list(reversed(loads)))  # distinct loads
    for spec, exact in (
            (processes.ProcessSpec(kind="two-choice"), processes.d_choice_vector_exact(n, 2)),
            (processes.ProcessSpec(kind="one-plus-beta", beta=0.5),
             processes.one_plus_beta_vector_exact(n, Fraction(1, 2))),
            (processes.ProcessSpec(kind="quantile", delta=0.5),
             processes.quantile_vector_exact(n, 4))):
        got = processes.round_law(spec, st)[(1, 1)].tolist()
        _assert(got == [float(x) for x in exact], f"{spec.label()} round law")


def check_engine_agreement():
    # make_engine replays each script on the kernel, which loads it as
    # arrays, or on _StepEngine; both must end where step ends
    cases = [
        ("one-choice", "unit", None),
        ("two-choice", "unit", None),
        ("d-choice:d=3", "unit", None),
        ("one-plus-beta:beta=0.5", "exp1", None),
        ("quantile:delta=0.5", "exp1", None),
        ("twinning:delta=0.5", "unit", None),
        ("penalty:delta=0.5", "unit", None),
        ("reset-memory", "geom:p=0.5", None),
        ("graphical", "unit", graphs.cycle_graph(16)),
    ]
    n, rounds = 16, 400
    for idx, (text, wspec, graph) in enumerate(cases):
        wd = weights.parse_weights(wspec)
        spec = processes.parse_process(text, weights=wd, graph=graph)
        rng = make_generator(17, idx)
        bins = rng.integers(0, n, size=8 * rounds).tolist()
        floats = rng.random(2 * rounds).tolist()
        ws = wd.sample(rng, 4 * rounds).tolist() if wd.kind != "unit" else []
        edges = (rng.integers(0, len(graph.edges), size=2 * rounds).tolist()
                 if graph else [])
        streams = dict(bins=bins, floats=floats, weights=ws, edges=edges)
        st = core.new_state(n)
        dr = processes._Draws(n, wd, n_edges=len(graph.edges) if graph else 0,
                              source=processes._ScriptSource(**streams))
        balls = 0
        for _ in range(rounds):
            balls += len(processes.step(spec, st, draws=dr))
        eng = processes.make_engine(spec, n,
                                    source=processes._ScriptSource(**streams))
        eng.advance(balls)
        _assert(eng.loads.tolist() == st.loads.tolist(),
                f"engine and exact path disagree for {text}")
    if kernel.load() is None:  # make_engine runs the reference below itself
        return
    # a seeded kernel engine draws the chunks of _ChunkSource with numpy's
    # fill functions: equal to numpy's Generator draws on the same seed
    for wspec in ("unit", "exp1", "geom:p=0.5", "poisson:l=2"):
        spec = processes.parse_process("one-plus-beta:beta=0.5", tie_rule="random",
                                       weights=weights.parse_weights(wspec))
        rng, ref = make_generator(23, 0), make_generator(23, 0)
        eng = processes.make_engine(spec, n, rng)
        want = processes._StepEngine(spec, n, processes._source(spec, n, ref, None))
        eng.advance(rounds)
        want.advance(rounds)
        _assert(eng.loads.tolist() == want.loads.tolist() and rng.random() == ref.random(),
                f"kernel draws of {wspec} weights disagree with numpy's Generator")


def check_balls_per_step():
    st = core.new_state(8)
    for text in ("twinning:delta=0.5", "penalty:delta=0.5", "reset-memory"):
        spec = processes.parse_process(text)
        law = processes.round_law(spec, st)
        want = float(processes.expected_balls_per_step(spec, 8))
        landed = math.fsum(c * x for (_, c), p in law.items() for x in p.tolist())
        _assert(landed == want, f"round-law ball total for {text}")
        per_rank = sum(k * p for (k, _), p in law.items())
        _assert(per_rank.tolist() == [want] * 8, f"round-law K per rank for {text}")


def check_batched_conserves():
    loads = np.zeros(8)
    pv = processes.rank_vector(processes.ProcessSpec(kind="two-choice"), 8)
    processes._batched_round(loads, make_generator(18, 0).multinomial(40, pv))
    _assert(loads.sum() == 40.0, "batched round conserves balls")


def check_batched_kernel_agrees():
    lib = kernel.load()
    if lib is None:  # run_batched applies rounds with the reference itself
        return
    pv = processes.rank_vector(processes.ProcessSpec(kind="two-choice"), 6)[::-1]
    # ties, then a spread that the rounds push past the counting-sort bound
    for start in ([2.0, 2.0, 0.0, 2.0, 1.0, 0.0], [0.0, 65530.0] * 3):
        rng, ref = make_generator(19, 0), make_generator(19, 0)
        want = np.array(start)
        for _ in range(5):
            processes._batched_round(want, ref.multinomial(30, pv))
        got = np.array(start)
        kernel.batched_rounds(lib, rng, kernel.multinomial_tables(pv), 30, 5, got)
        _assert(got.tolist() == want.tolist() and rng.random() == ref.random(),
                f"compiled batched rounds disagree with numpy's multinomial and "
                f"the reference round from {start}")


# -- graphs --------------------------------------------------------------------

def check_known_conductances():
    _assert(abs(graphs.conductance_exact(graphs.complete_graph(4)) - 2 / 3) < 1e-12,
            "phi(K4) = 2/3")
    _assert(abs(graphs.conductance_exact(graphs.cycle_graph(4)) - 1 / 2) < 1e-12,
            "phi(C4) = 1/2")
    for n in (5, 8):
        want = math.ceil(n / 2) * math.floor(n / 2) / ((n - 1) * math.floor(n / 2))
        _assert(abs(graphs.conductance_exact(graphs.complete_graph(n)) - want) < 1e-12,
                f"phi(K{n})")


def check_bounds_sandwich():
    for g in (graphs.cycle_graph(12), graphs.hypercube_graph(16),
              graphs.torus_grid_graph(9), graphs.random_regular_graph(14, 3, seed=5)):
        lo, hi = graphs.conductance_bounds(g)
        phi = graphs.conductance_exact(g)
        _assert(lo - 1e-9 <= phi <= hi + 1e-9,
                f"bounds [{lo}, {hi}] miss phi={phi} on n={g.n},d={g.d}")
    # cycle(64): lambda_2 = 1 - cos(2 pi / n) in closed form, so the lower
    # bound must not exceed half of it, and gives away at most 2 n eps
    half_lambda2 = math.sin(math.pi / 64) ** 2
    lo, _ = graphs.conductance_bounds(graphs.cycle_graph(64))
    _assert(half_lambda2 - 2 * 64 * np.finfo(float).eps <= lo <= half_lambda2,
            f"cycle(64) lower bound {lo} vs lambda_2/2 = {half_lambda2}")


def check_expansion_conditions():
    rng = make_generator(19, 0)
    for g in (graphs.cycle_graph(8), graphs.complete_graph(6),
              graphs.hypercube_graph(8)):
        phi = graphs.conductance_exact(g)
        for _ in range(20):
            st = core.LoadState.from_loads(rng.integers(0, 40, size=g.n).tolist())
            p = processes.round_law(processes.ProcessSpec(kind="graphical", graph=g),
                                    st)[(1, 1)]
            pr = np.cumsum(p)
            n = g.n
            for k in range(1, n // 2 + 1):
                _assert(pr[k - 1] <= (1 - phi) * k / n + 1e-12, "prefix expansion")
            for k in range(n // 2 + 1, n + 1):
                suf = 1.0 - (pr[k - 2] if k >= 2 else 0.0)
                _assert(suf >= (1 + phi) * (n - k + 1) / n - 1e-12, "suffix expansion")
            _assert(p.max() <= 2 / n + 1e-12, "max entry cap")


# -- experiments / io ------------------------------------------------------------

def check_sweep_deterministic():
    cfg = experiments.ExperimentConfig(
        processes=("two-choice", "one-plus-beta:beta=0.5"), ns=(32,),
        m="10n", reps=3, seed=42, gamma="auto", thresholds=(1.0,))
    a = tableio.dumps_csv(experiments.sweep(cfg))
    b = tableio.dumps_csv(experiments.sweep(cfg))
    _assert(a == b, "sweep is deterministic")
    _assert(len(a.splitlines()) == 1 + 2 * 3, "one row per (process, rep)")


def check_aggregate_idempotent():
    cfg = experiments.ExperimentConfig(
        processes=("two-choice",), ns=(16,), m="5n", reps=5, seed=1)
    agg = experiments.aggregate(experiments.sweep(cfg))
    again = experiments.aggregate(agg)
    _assert(tableio.dumps_csv(agg) == tableio.dumps_csv(again),
            "aggregation is idempotent")


def check_gamma_rule_bit_exact():
    cfg = experiments.ExperimentConfig(
        processes=("two-choice",), ns=(64,), m="2n", reps=1, seed=3, gamma="auto")
    t = experiments.sweep(cfg)
    row = dict(zip(t.headers, t.rows[0]))
    want = row["cond_epsilon"] * row["cond_delta"] / (16 * row["cond_c"] * row["cond_s"])
    _assert(row["gamma_value"] == want, "gamma rule recomputes bit-exactly")
    _assert(row["gamma_value"] == 1 / 256, "two-choice unit gamma = 1/256")


def check_csv_roundtrip():
    import tempfile, os
    from pathlib import Path
    t = tableio.Table(headers=("a", "b", "c"))
    t.append((1, 0.125, "x,y"))
    t.append((2, None, "plain"))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        tableio.write_csv(t, path)
        first = Path(path).read_bytes()
        back = tableio.read_csv(path)
        _assert(back.headers == t.headers and back.rows == t.rows,
                f"round-trip mismatch: {back.rows}")
        tableio.write_csv(back, path)
        _assert(Path(path).read_bytes() == first, "re-write is byte-identical")


def check_svg_deterministic():
    from . import svgplot  # imported here so that binlab.cli does not load it

    t = tableio.Table(headers=("x", "y", "g"))
    for i in range(6):
        t.append((i + 1, float(2 ** i), "a" if i % 2 else "b"))
    spec = svgplot.PlotSpec(x="x", y="y", group_by="g", scale="log-y", title="t")
    s1 = svgplot.render_series(svgplot.table_series(t, spec), title="t",
                               logy=True)
    s2 = svgplot.render_series(svgplot.table_series(t, spec), title="t",
                               logy=True)
    _assert(s1 == s2 and s1.startswith("<svg"), "svg output deterministic")


def check_config_errors():
    try:
        configfile.parse_config_text("processes=two-choice\nns=8\nbogus=1\n")
    except ValueError as e:
        _assert("bogus" in str(e), "unknown key named in error")
        return
    raise AssertionError("unknown config key must raise")


GROUPS: dict[str, list] = {
    "core": [check_rank_order, check_conservation_and_gap,
             check_rank_tie_order],
    "vectors": [check_worst_case_majorizes, check_d0_d1_imply_c1,
                check_quantile_conditions, check_average_ties_stochastic],
    "potentials": [check_potential_flat_and_shift, check_log_space_agreement,
                   check_certify_random_instances, check_certify_rejects_bad_vector],
    "weights": [check_mgf_routes_agree, check_moment_inequality_grid,
                check_sample_means],
    "processes": [check_empirical_matches_formulas, check_engine_agreement,
                  check_balls_per_step, check_batched_conserves,
                  check_batched_kernel_agrees],
    "graphs": [check_known_conductances, check_bounds_sandwich,
               check_expansion_conditions],
    "experiments": [check_sweep_deterministic, check_aggregate_idempotent,
                    check_gamma_rule_bit_exact],
    "io": [check_csv_roundtrip, check_svg_deterministic, check_config_errors],
}


def run_selftest(emit=print, groups: list[str] | None = None) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for group, checks in GROUPS.items():
        if groups and group not in groups:
            continue
        for fn in checks:
            name = f"{group}.{fn.__name__.removeprefix('check_')}"
            try:
                fn()
            except Exception as e:  # noqa: BLE001 - report, don't crash the suite
                failures += 1
                emit(f"FAIL {name}: {e}")
            else:
                emit(f"ok   {name}")
    return failures
