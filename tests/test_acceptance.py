"""End-to-end acceptance checks.

Each test covers one numbered acceptance item and prints a single
``acceptance NN <slug>: PASS/FAIL - <detail>`` line (run with ``-s`` to see
them as they complete; without ``-s`` pytest shows the lines of failing
tests in its report).  Every test enforces both its correctness condition
and a wall-clock budget.

These are intentionally heavier than the unit suites: statistical
assertions run tens of seeds at realistic sizes.  The whole module takes a
few minutes.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

from binlab.core import LoadState
from binlab.experiments import (ExperimentConfig, final_gaps,
                                lower_bound_trials, run_seed, sweep)
from binlab.graphs import build_graph, conductance_exact
from binlab.potentials import certify_drift, gamma_expectation_bound, gamma_for_weighted
from binlab.processes import (ProbeConfig, ProcessSpec, canonical_conditions,
                              d_choice_vector_exact, one_plus_beta_vector_exact,
                              parse_process, quantile_vector_exact, round_law, run,
                              run_batched)
from binlab.selftest import run_selftest
from binlab.tableio import dumps_csv
from binlab.vectors import (ConditionParams, ProbabilityVector, quantile_index,
                            worst_case_vector)
from binlab.weights import parse_weights, s_for_gamma
from scripted_rounds import round_law_brute_force


def _finish(num: int, slug: str, started: float, budget: float, ok: bool,
            detail: str) -> None:
    """Print the one-line verdict, then enforce it."""
    elapsed = time.perf_counter() - started
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"acceptance {num:02d} {slug}: {status} - {detail} "
          f"[{elapsed:.1f}s/{budget:.0f}s]")
    assert ok, f"{slug}: {detail}"
    assert in_time, f"{slug}: took {elapsed:.1f}s, budget {budget:.0f}s"


# -- 1: drift certificates on randomized instances ---------------------------

_DELTAS = (0.25, 1 / 3, 0.5, 0.75)
_DENOM = {0.25: 4, 1 / 3: 3, 0.5: 2, 0.75: 4}


def _compliant_vector(rng: np.random.Generator, delta: float, eps: float,
                      n: int) -> ProbabilityVector:
    """Random vector satisfying the biased-allocation conditions.

    Capping a random vector's prefix sums at the extremal profile's and
    reading back the increments preserves nonnegativity and the total while
    enforcing every prefix (and hence every suffix) margin.
    """
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return worst_case_vector(delta, eps, n)
    raw = rng.exponential(1.0, n)
    if kind == 2:
        raw = raw ** 3  # heavily skewed mass
    r = np.asarray(worst_case_vector(delta, eps, n).probs)
    capped = np.maximum.accumulate(np.minimum(np.cumsum(raw / raw.sum()),
                                              np.cumsum(r)))
    return ProbabilityVector(probs=tuple(np.diff(np.concatenate(([0.0], capped)))))


def _random_loads(rng: np.random.Generator, n: int) -> np.ndarray:
    kind = int(rng.integers(0, 4))
    if kind == 0:  # a plausible mid-run allocation profile
        balls = int(rng.integers(1, 10)) * n
        return np.bincount(rng.integers(0, n, balls), minlength=n).astype(float)
    if kind == 1:  # skewed integer loads
        return np.round(rng.exponential(rng.uniform(0.5, 20.0), n))
    if kind == 2:  # single heavy outlier
        loads = np.zeros(n)
        loads[0] = rng.uniform(1.0, 50.0)
        return loads
    return rng.normal(0.0, rng.uniform(0.5, 30.0), n)  # real-valued loads


def _spike_state(y_target: float, n: int, overloaded: bool) -> LoadState:
    """State whose extreme normalized load is exactly +/- y_target."""
    v = y_target * n / (n - 1)
    if overloaded:
        loads = [v] + [0.0] * (n - 1)
    else:
        loads = [v] * (n - 1) + [0.0]
    return LoadState.from_loads(loads)


def test_drift_certificates_hold_on_randomized_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xD21F7)
    total = 10_000
    count = 0
    failures = 0

    # Case-boundary instances: extreme load at the threshold separating the
    # small- and large-overload regimes of the analysis, at half and double
    # it, on both the overloaded and underloaded side.
    for delta in _DELTAS:
        for gamma in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            z2 = (1 - delta) / (2 * delta) * math.log(8.0 / 3.0) / gamma
            for scale in (0.5, 1.0, 2.0):
                for overloaded in (True, False):
                    n = 48
                    eps = float(rng.uniform(0.05, 0.9))
                    state = _spike_state(z2 * scale, n, overloaded)
                    p = worst_case_vector(delta, eps, n)
                    res = certify_drift(state, p,
                                        ConditionParams(delta=delta, epsilon=eps),
                                        gamma)
                    count += 1
                    failures += not res.passed

    # Deep-overload instances that force the rescaled (log-domain) path.
    for delta in _DELTAS:
        for y in (1200.0, 2400.0):
            for overloaded in (True, False):
                state = _spike_state(y, 48, overloaded)
                eps = float(rng.uniform(0.05, 0.9))
                res = certify_drift(state, worst_case_vector(delta, eps, 48),
                                    ConditionParams(delta=delta, epsilon=eps), 1.0)
                count += 1
                failures += not res.passed

    # Randomized bulk: loads x compliant vector x (delta, eps, gamma).
    while count < total:
        delta = float(rng.choice(_DELTAS))
        pool = range(_DENOM[delta], 257, _DENOM[delta])
        n = int(rng.choice(pool))
        if n < 4:
            n += _DENOM[delta]
        eps = float(rng.uniform(0.05, 0.9))
        gamma = float(10 ** rng.uniform(-3, 0))
        state = LoadState.from_loads(_random_loads(rng, n))
        p = _compliant_vector(rng, delta, eps, n)
        res = certify_drift(state, p, ConditionParams(delta=delta, epsilon=eps),
                            gamma)
        count += 1
        failures += not res.passed

    _finish(1, "drift-certification", t0, 60.0,
            failures == 0 and count == total,
            f"{count - failures}/{count} instances within the tight bound")


# -- 2: exact allocation vectors ----------------------------------------------


def test_exact_vectors_match_closed_forms():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 33):
        two = d_choice_vector_exact(n, 2)
        assert list(two) == [Fraction(2 * i + 1, n * n) for i in range(n)]
        checked += 1
        for beta in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)):
            got = one_plus_beta_vector_exact(n, beta)
            want = [(1 - beta) * Fraction(1, n) + beta * Fraction(2 * i + 1, n * n)
                    for i in range(n)]
            assert list(got) == want
            checked += 1
        # every quantile that lands on an integral rank, plus the extremes
        deltas = [d for d in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                              Fraction(3, 4)) if (d * n).denominator == 1]
        deltas += [Fraction(1, n)]
        if n > 2:
            deltas += [Fraction(n - 1, n)]
        for delta in deltas:
            t = quantile_index(delta, n)
            got = quantile_vector_exact(n, t)
            want = [Fraction(t, n * n)] * t + [Fraction(n + t, n * n)] * (n - t)
            assert list(got) == want
            checked += 1

    # Independent dynamic route: every scripted draw of one round through the
    # sampler, from a flat state, reproduces the same rationals (flat ties
    # make rank == bin id).
    for n in range(2, 9):
        for text, exact in (
                ("two-choice", d_choice_vector_exact(n, 2)),
                ("one-plus-beta:beta=0.5",
                 one_plus_beta_vector_exact(n, Fraction(1, 2))),
                (f"quantile:delta={1 / n}",
                 quantile_vector_exact(n, 1))):
            law = round_law_brute_force(parse_process(text), LoadState(n))
            assert law[(1, 1)] == list(exact), (text, n)
            checked += 1

    _finish(2, "exact-vectors", t0, 10.0, True,
            f"{checked} closed-form identities at zero tolerance")


# -- 3: graphical vectors vs conductance margins ------------------------------

_GRAPH_CORPUS = (
    ("complete", 4, None), ("complete", 8, None), ("complete", 16, None),
    ("complete", 24, None),
    ("cycle", 4, None), ("cycle", 8, None), ("cycle", 16, None),
    ("cycle", 24, None),
    ("hypercube", 8, None), ("hypercube", 16, None),
    ("torus-grid", 9, None), ("torus-grid", 16, None),
    ("random-regular", 8, 3), ("random-regular", 12, 3),
    ("random-regular", 16, 4), ("random-regular", 24, 3),
)


def test_graphical_vectors_respect_conductance_margins():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x6E4A9)
    tol = 1e-12
    violations = 0
    checked = 0
    for kind, n, d in _GRAPH_CORPUS:
        g = build_graph(kind, n, d=d, seed=0)
        phi = conductance_exact(g)
        spec = ProcessSpec(kind="graphical", graph=g)
        for _ in range(100):
            state = LoadState.from_loads(rng.permutation(n).astype(float))
            p = round_law(spec, state)[(1, 1)]
            prefix = np.cumsum(p)
            # The halves are 1 <= k <= n/2 and n/2 + 1 <= k <= n; for odd n
            # the midpoint rank k = (n+1)/2 belongs to neither (its
            # complement-set is larger than n/2, where the conductance
            # minimum does not constrain the cut).
            for k in range(1, n // 2 + 1):
                if prefix[k - 1] > (1 - phi) * k / n + tol:
                    violations += 1
            for k in range((n + 3) // 2, n + 1):
                suffix = 1.0 - prefix[k - 2]
                if suffix < (1 + phi) * (n - k + 1) / n - tol:
                    violations += 1
            if p.max() > 2.0 / n + tol:
                violations += 1
            checked += 1
    _finish(3, "graphical-margins", t0, 60.0, violations == 0,
            f"{checked} load orders across {len(_GRAPH_CORPUS)} graphs, "
            f"{violations} violations")


# -- 4: smoothed-potential expectation stays linear in n ----------------------


def test_smoothed_potential_mean_stays_linear():
    t0 = time.perf_counter()
    n = 256
    worst = 0.0
    for text in ("one-plus-beta:beta=1", "quantile:delta=0.5"):
        spec = parse_process(text)
        pars = canonical_conditions(spec, n)
        gamma = gamma_for_weighted(pars, pars.c_cap, s_for_gamma(spec.weights))
        for m in (n, 10 * n, int(10 * n * math.log(n))):
            runs = [run(spec, n, m, run_seed(0xACC4, si),
                        probe=ProbeConfig(gamma=gamma)) for si in range(30)]
            assert len({len(r) for r in runs}) == 1  # aligned probe steps
            for j in range(len(runs[0])):
                chk = gamma_expectation_bound([r[j].gamma_total for r in runs],
                                              pars.delta, n)
                worst = max(worst, chk.value / chk.bound)
                if not chk.passed:
                    _finish(4, "potential-expectation", t0, 120.0, False,
                            f"{text} m={m} probe {j}: mean {chk.value:.3g} "
                            f"exceeds {chk.bound:.3g}")
    _finish(4, "potential-expectation", t0, 120.0, worst <= 1.0,
            f"every probe mean within bound, worst mean/bound = {worst:.3f}")


# -- 5: gap of the mixed process scales with 1/beta ---------------------------


def test_beta_mixture_gap_scales_with_inverse_beta():
    t0 = time.perf_counter()
    n = 1 << 10
    m = 200 * n
    products = {}
    for beta in (0.1, 0.2, 0.4, 0.8):
        gaps = final_gaps(parse_process(f"one-plus-beta:beta={beta}"),
                          n, m, 50, 0xACC5)
        products[beta] = beta * statistics.median(gaps)
    spread = max(products.values()) / min(products.values())
    detail = ", ".join(f"beta={b}: {v:.2f}" for b, v in products.items())
    _finish(5, "beta-scaling", t0, 180.0, spread <= 2.5,
            f"beta*median(gap) [{detail}] spread {spread:.2f} (allowed 2.5)")


# -- 6: self-stabilizing processes keep gap = Theta(log n) --------------------


def test_self_stabilizing_gaps_track_log_n():
    t0 = time.perf_counter()
    bands = {}
    for text in ("twinning:delta=0.5", "penalty:delta=0.5", "reset-memory"):
        spec = parse_process(text)
        ratios = []
        for n in (1 << 8, 1 << 10, 1 << 12):
            m = int(4 * n * math.log(n))
            gaps = final_gaps(spec, n, m, 50, 0xACC6)
            ratios.append(statistics.median(gaps) / math.log(n))
        bands[spec.kind] = max(ratios) / min(ratios)
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in bands.items())
    _finish(6, "log-n-band", t0, 300.0, max(bands.values()) <= 3.0,
            f"median(gap)/ln(n) band ratios [{detail}] (allowed 3)")


# -- 7: gap lower bounds ------------------------------------------------------


def test_log_gap_floors_hold():
    t0 = time.perf_counter()
    # (a) heavy-tailed weights force a log-size gap even at one ball per bin
    n = 1 << 12
    spec = parse_process("two-choice", weights=parse_weights("exp1"))
    gaps = final_gaps(spec, n, n, 100, 0xACC7A)
    bar = 0.5 * math.log(n)
    frac_a = sum(g >= bar for g in gaps) / len(gaps)

    # (b) a floor fitted at small scale keeps holding at 16x the bins
    fracs_b = {}
    for text in ("one-choice", "one-plus-beta:beta=0.5", "twinning:delta=0.5",
                 "penalty:delta=0.5", "reset-memory"):
        proc = parse_process(text)
        fit = final_gaps(proc, 1 << 8, math.ceil((1 << 8) * math.log(1 << 8)),
                         50, 0xACC7B)
        kappa = float(np.quantile(fit, 0.05)) / math.log(1 << 8)
        fracs_b[proc.kind] = lower_bound_trials(proc, 1 << 12, 1.0, kappa,
                                                100, 0xACC7C)
    ok = frac_a >= 0.95 and all(f >= 0.95 for f in fracs_b.values())
    detail_b = ", ".join(f"{k}: {v:.2f}" for k, v in fracs_b.items())
    _finish(7, "gap-floors", t0, 180.0, ok,
            f"exp1 m=n floor hit {frac_a:.2f}; fitted floors held at 16x "
            f"bins [{detail_b}] (all need >= 0.95)")


# -- 8: batched rounds pay linearly in the batch size -------------------------


def test_batched_gap_grows_linearly_in_batch():
    t0 = time.perf_counter()
    n = 1 << 10
    spec = parse_process("two-choice")
    medians = {}
    for k in (1, 2, 4, 8):
        b = k * n
        gaps = [run_batched(spec, n, 50 * b, b, run_seed(0xACC8, k, rep))[-1].gap
                for rep in range(30)]
        medians[k] = statistics.median(gaps)
    vals = [medians[k] for k in (1, 2, 4, 8)]
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    ratio = medians[8] / medians[1]
    detail = ", ".join(f"b={k}n: {medians[k]:.1f}" for k in (1, 2, 4, 8))
    _finish(8, "batched-scaling", t0, 180.0,
            monotone and 3.0 <= ratio <= 16.0,
            f"median gaps [{detail}], monotone={monotone}, "
            f"gap(8n)/gap(n)={ratio:.2f} (needs [3, 16])")


# -- 9: low conductance shows up as a larger gap ------------------------------


def test_low_conductance_graph_pays_in_gap():
    t0 = time.perf_counter()
    n = 1 << 10
    m = int(10 * n * math.log(n))
    w = parse_weights("exp1")
    medians = {}
    for name, kind, d in (("cycle", "cycle", None),
                          ("expander", "random-regular", 4)):
        g = build_graph(kind, n, d=d, seed=1)
        spec = parse_process("graphical", weights=w, graph=g)
        medians[name] = statistics.median(final_gaps(spec, n, m, 30, 0xACC9))
    ratio = medians["cycle"] / medians["expander"]
    _finish(9, "conductance-ordering", t0, 180.0, ratio > 3.0,
            f"median gap cycle={medians['cycle']:.1f} vs "
            f"expander={medians['expander']:.1f}, ratio {ratio:.2f} (needs > 3)")


# -- 10: property suites and byte-identical reruns ----------------------------


def test_selftest_clean_and_reruns_byte_identical(tmp_path):
    t0 = time.perf_counter()
    lines: list[str] = []
    rc = run_selftest(emit=lines.append)
    clean = rc == 0

    cfg = dict(processes=("two-choice", "one-plus-beta:beta=0.5"),
               ns=(64, 128), m="20n", reps=3, seed=11)
    first = sweep(ExperimentConfig(**cfg))
    second = sweep(ExperimentConfig(**cfg))
    identical = dumps_csv(first) == dumps_csv(second)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(dumps_csv(first))
    pb.write_text(dumps_csv(second))
    identical = identical and pa.read_bytes() == pb.read_bytes()

    _finish(10, "selftest-and-determinism", t0, 120.0, clean and identical,
            f"selftest rc={rc} over {len(lines)} checks; "
            f"rerun CSVs byte-identical={identical}")
