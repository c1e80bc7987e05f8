"""Hyperbolic-cosine potential, drift certificates, and the gamma rule.

Frozen expected values below were derived by hand from the closed forms:
for loads (2, 0) the normalized vector is (1, -1), so at gamma=1

    Gamma = e^1 + e^-1 + e^-1 + e^1 = 2e + 2/e = 6.172322539260975

and c(1/2) = 4 * max(1, 1, sqrt(8/3), sqrt(8/3)/2) = 4*sqrt(8/3).
"""
from __future__ import annotations

import decimal
import hashlib
import itertools
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binlab import kernel
from binlab.checks import PreconditionError, input_bytes, inputs_hash, inputs_prefix
from binlab.core import LoadState, new_state
from binlab.potentials import (DriftEvaluator, certify_drift, drift_constant,
                               drift_step_bound_check, drift_step_bound_exact,
                               gamma_expectation_bound, gamma_for_weighted,
                               potential, require_c1, scaled_exp)
from binlab.processes import (_Draws, _ScriptSource, canonical_conditions,
                              comparison_vector, make_engine, parse_process,
                              round_law, sample_round)
from binlab.rng import make_generator
from binlab.vectors import ConditionParams, ProbabilityVector, worst_case_vector
from binlab.weights import log_mgf, parse_weights, s_for_gamma


def test_potential_flat_state_is_2n():
    for n in (1, 2, 7, 64):
        rep = potential(new_state(n), 0.3)
        assert rep.gamma_total == pytest.approx(2.0 * n, rel=1e-15)
        assert rep.phi == pytest.approx(n) and rep.psi == pytest.approx(n)


def test_potential_frozen_two_bins():
    rep = potential(LoadState.from_loads([2, 0]), 1.0)
    assert rep.gamma_total == pytest.approx(6.172322539260975, rel=1e-14)
    assert rep.phi == pytest.approx(math.e + 1 / math.e, rel=1e-14)
    assert rep.psi == pytest.approx(rep.phi, rel=1e-14)
    assert rep.log_gamma_total == pytest.approx(math.log(6.172322539260975), rel=1e-12)
    assert not rep.used_log_space


def test_potential_per_bin_in_rank_order():
    state = LoadState.from_loads([0, 5, 1])  # ranks: bin1, bin2, bin0
    rep = potential(state, 0.5)
    y = state.sorted_normalized()
    np.testing.assert_allclose(rep.phi_per_bin, np.exp(0.5 * y))
    np.testing.assert_allclose(rep.psi_per_bin, np.exp(-0.5 * y))
    assert rep.phi_per_bin[0] == np.max(rep.phi_per_bin)


def test_potential_matches_fsum_of_exp_terms():
    drawn = make_generator(5, 0).integers(0, 40, size=12).tolist()
    # the last case has gamma*y near +-350: the shifted branch runs
    cases = ((drawn, 0.01, False), (drawn, 0.25, False), (drawn, 1.0, False),
             ([0, 5, 700], 1.0, True))
    for loads, gamma, shifted in cases:
        state = LoadState.from_loads(loads)
        y = state.sorted_normalized().tolist()
        rep = potential(state, gamma)
        phi = math.fsum(math.exp(gamma * v) for v in y)
        psi = math.fsum(math.exp(-gamma * v) for v in y)
        assert rep.phi == pytest.approx(phi, rel=1e-13)
        assert rep.psi == pytest.approx(psi, rel=1e-13)
        assert rep.log_gamma_total == pytest.approx(math.log(phi + psi), rel=1e-14)
        assert rep.used_log_space == shifted


def test_potential_log_space_guard():
    # normalized loads ~ +/-1000 overflow float64 exp; the log fields stay finite
    rep = potential(LoadState.from_loads([2000, 0]), 1.0)
    assert rep.used_log_space
    assert rep.gamma_total == math.inf
    assert rep.log_gamma_total == pytest.approx(1000.0 + math.log(2), abs=1e-6)
    assert np.all(np.isfinite(rep.phi_per_bin)) and np.max(rep.phi_per_bin) > 0


def test_potential_validates():
    with pytest.raises(ValueError):
        potential(new_state(2), 0.0)
    with pytest.raises(ValueError):
        potential(new_state(2), 1.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 30, allow_nan=False), min_size=2, max_size=10),
       st.floats(0.5, 8))
def test_property_potential_translation_invariant(loads, shift):
    a = potential(LoadState.from_loads(loads), 0.7)
    b = potential(LoadState.from_loads([v + shift for v in loads]), 0.7)
    assert b.gamma_total == pytest.approx(a.gamma_total, rel=1e-9)


def test_expected_drift_flat_is_zero():
    # certify_drift.value is the first-order drift dphi + dpsi
    p = ProbabilityVector((0.0625, 0.1875, 0.3125, 0.4375))
    res = certify_drift(new_state(4), p, ConditionParams(0.5, 0.25), 0.5)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_expected_drift_frozen_two_bins():
    # y = (1, -1), p = (1/4, 3/4), gamma = 1/2:
    # dphi = g*(e^g*(-1/4) + e^-g*(1/4)) = (e^-g - e^g)/8 = dpsi, with g = 1/2
    state = LoadState.from_loads([2, 0])
    res = certify_drift(state, ProbabilityVector((0.25, 0.75)),
                        ConditionParams(0.5, 0.5), 0.5)
    expect = 0.125 * (math.exp(-0.5) - math.exp(0.5))
    assert res.value == pytest.approx(2 * expect, rel=1e-13)
    assert res.value == pytest.approx(-0.2605476527468737, rel=1e-12)
    assert res.value < 0  # biased vector contracts a skewed state


def test_drift_constant_frozen():
    assert drift_constant(0.5) == pytest.approx(4 * math.sqrt(8 / 3), rel=1e-15)
    assert drift_constant(0.5) == pytest.approx(6.531972647421808, rel=1e-14)
    assert drift_constant(0.25) == pytest.approx(4 * (8 / 3) ** 1.5 / 3, rel=1e-14)
    # large delta: the underload term delta*(8/3)^(delta/(2(1-delta))) wins
    assert drift_constant(0.9) == pytest.approx(3.6 * (8 / 3) ** 4.5, rel=1e-13)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            drift_constant(bad)


def test_certify_drift_flat_passes():
    p = worst_case_vector(0.25, 0.5, 8)
    res = certify_drift(new_state(8), p, ConditionParams(0.25, 0.5), 1 / 256)
    assert res.passed and res.passed_theorem
    assert res.log_scale == 0.0
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.bound > 0  # flat state sits under the additive constant


def test_certify_drift_skewed_passes():
    loads = [2 ** k for k in range(16, 0, -1)]
    p = worst_case_vector(0.5, 0.5, 16)
    res = certify_drift(LoadState.from_loads(loads), p,
                        ConditionParams(0.5, 0.5), 0.5)
    assert res.passed and res.passed_theorem
    assert res.slack >= 0


def test_certify_drift_proof_case_threshold():
    """Instance with the top bin exactly at the overload threshold where the
    additive-vs-multiplicative tradeoff in the bound is tightest."""
    for gamma, delta in ((0.01, 0.25), (0.5, 0.5), (1.0, 0.75)):
        z2 = (1 - delta) / (2 * delta) * math.log(8 / 3) / gamma
        n = 4
        state = LoadState.from_loads([4 * z2 / 3, 0.0, 0.0, 0.0])
        assert state.sorted_normalized()[0] == pytest.approx(z2, rel=1e-12)
        p = worst_case_vector(delta, 0.5, n)
        res = certify_drift(state, p, ConditionParams(delta, 0.5), gamma)
        assert res.passed and res.passed_theorem, (gamma, delta)


def test_certify_drift_extreme_scaling_branch():
    state = LoadState.from_loads([2400.0, 0.0, 0.0, 0.0])  # y_max = 1800
    p = worst_case_vector(0.25, 0.5, 4)
    res = certify_drift(state, p, ConditionParams(0.25, 0.5), 1.0)
    assert res.log_scale > 0
    assert res.passed and res.passed_theorem
    assert math.isfinite(res.value) and math.isfinite(res.bound)


def test_certify_drift_preconditions():
    p2 = ProbabilityVector((0.25, 0.75))
    with pytest.raises(PreconditionError):
        certify_drift(new_state(3), p2, ConditionParams(0.5, 0.5), 0.5)
    with pytest.raises(PreconditionError):
        certify_drift(new_state(2), p2, ConditionParams(0.5, 0.5), 0.0)
    with pytest.raises(PreconditionError):
        certify_drift(new_state(2), p2, ConditionParams(0.5, 0.5), 1.5)
    with pytest.raises(PreconditionError, match="C1"):
        certify_drift(new_state(4), ProbabilityVector.uniform(4),
                      ConditionParams(0.5, 0.5), 0.5)
    with pytest.raises(PreconditionError, match="C1"):
        require_c1(ProbabilityVector.uniform(4), ConditionParams(0.5, 0.5))
    require_c1(p2, ConditionParams(0.5, 0.5))


def test_gamma_rule_frozen():
    g = gamma_for_weighted(ConditionParams(0.25, 0.5), 2.0, 1.0)
    assert g == 1 / 256  # bit-exact: every factor is a power of two
    assert gamma_for_weighted(ConditionParams(0.5, 0.5), 2.0, 2.0) == 1 / 256
    with pytest.raises(ValueError):
        gamma_for_weighted(ConditionParams(0.25, 0.5), 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_for_weighted(ConditionParams(0.25, 0.5), 2.0, -1.0)


def _two_choice_round(state, rng):
    i, j = (int(v) for v in rng.integers(0, state.n, size=2))
    li, lj = state.loads[i], state.loads[j]
    b = i if li < lj or (li == lj and i > j) else j
    return [(b, 1.0)]


@pytest.mark.parametrize("side", ["phi", "psi"])
def test_drift_step_bound_check_two_choice(side):
    rng = make_generator(77, 3)
    loads = rng.permutation(16).tolist()  # distinct loads: rank vector exact
    state = LoadState.from_loads(loads)
    n = 16
    p = ProbabilityVector(tuple((2 * i + 1) / n ** 2 for i in range(n)))
    res = drift_step_bound_check(state, p, _two_choice_round,
                                 gamma=1 / 256, k=4.0, r=1.0,
                                 trials=600, seed=11, side=side)
    assert res.passed, (res.value, res.bound)


@pytest.mark.parametrize("side", ["phi", "psi"])
def test_drift_step_bound_check_finite_past_exp_range(side):
    # gamma*y reaches 1500: a bare exp of the potentials would be inf
    state = LoadState.from_loads([2000, 0, 0, 0])
    p = ProbabilityVector(tuple((2 * i + 1) / 16 for i in range(4)))
    res = drift_step_bound_check(state, p, _two_choice_round, gamma=1.0, k=4.0,
                                 r=1.0, trials=200, seed=3, side=side)
    assert math.isfinite(res.value) and math.isfinite(res.bound)
    assert res.passed, (res.value, res.bound)


def test_drift_step_bound_validates():
    state = new_state(4)
    p = ProbabilityVector.uniform(4)
    with pytest.raises(ValueError):
        drift_step_bound_check(state, p, _two_choice_round, 0.01, 2.0, 1.0,
                               trials=1, seed=0)
    with pytest.raises(ValueError):
        drift_step_bound_check(state, p, _two_choice_round, 0.01, 2.0, 1.0,
                               trials=10, seed=0, side="both")


def test_gamma_expectation_bound():
    n, delta = 64, 0.25
    cap = 8 * drift_constant(delta) / delta * n
    ok = gamma_expectation_bound([cap * 0.5] * 30, delta, n)
    assert ok.passed and ok.bound == pytest.approx(cap)
    bad = gamma_expectation_bound([cap * 2] * 30, delta, n)
    assert not bad.passed
    with pytest.raises(ValueError):
        gamma_expectation_bound([1.0] * 29, delta, n)


# -- the exact per-round check -----------------------------------------------------

U = 2.0 ** -53
WEIGHT_LAWS = ("unit", "exp1", "geom:p=0.5", "poisson:l=2")


def _decimal_mgf(w, z: Decimal) -> Decimal:
    """The closed-form MGF in the current decimal context."""
    if w.kind == "unit":
        return z.exp()
    if w.kind == "exp1":
        return 1 / (1 - z)
    par = Decimal(w.param)
    if w.kind == "geom":
        e = (par * z).exp()
        return par * e / (1 - (1 - par) * e)
    return (par * ((z / par).exp() - 1)).exp()


def _brute_force_change(spec, state, gamma, side) -> Decimal:
    """E[change of the potential over one round] by enumerating every bins
    x floats script of ``sample_round``, with the closed-form MGF."""
    n = state.n
    s = 1 if side == "phi" else -1
    pot, _ = scaled_exp(s * gamma * state.sorted_normalized())
    pot = [Decimal(float(v)) for v in pot]
    g = Decimal(gamma)
    m_in = _decimal_mgf(spec.weights, s * g * (1 - Decimal(1) / n))
    m_out = _decimal_mgf(spec.weights, -s * g / n)
    scripts = list(itertools.product(itertools.product(range(n), repeat=2),
                                     itertools.product((0.25, 0.75), repeat=2)))
    total = Decimal(0)
    for bins, floats in scripts:
        draws = _Draws(n, parse_weights("unit"),
                       source=_ScriptSource(bins=bins, floats=floats))
        hit = [state.rank_of[b] for b, _ in sample_round(spec, state, draws=draws)]
        for r in range(n):
            c = hit.count(r)
            total += pot[r] * (m_in ** c * m_out ** (len(hit) - c) - 1)
    return total / len(scripts)


def _size(state, p, law, w, gamma, k, r, side) -> float:
    """The size sum of ``drift_step_bound_exact``'s rounding bound, as its
    docstring defines it."""
    n = state.n
    s = 1.0 if side == "phi" else -1.0
    la = log_mgf(w, s * gamma * (1 - 1 / n))
    lb = log_mgf(w, -s * gamma / n)
    pot, _ = scaled_exp(s * gamma * state.sorted_normalized())
    mag = sum((c * abs(la) + (kk - c) * abs(lb)) * math.exp(max(c * la + (kk - c) * lb, 0))
              for kk, c in law)
    probs = np.asarray(p.probs)
    return float(np.sum(pot * (mag + r * gamma * (probs + 1 / n) + k * r * gamma ** 2 / n)))


EXACT_CASES = [(text, w) for text in ("two-choice", "one-plus-beta:beta=0.5",
                                      "quantile:delta=0.5", "reset-memory")
               for w in WEIGHT_LAWS] + [("twinning:delta=0.5", "unit"),
                                        ("penalty:delta=0.5", "unit")]


@pytest.mark.parametrize("tie", ["higher-index", "random"])
@pytest.mark.parametrize("text,wtext", EXACT_CASES)
def test_exact_step_bound_matches_brute_force(text, wtext, tie):
    spec = parse_process(text, weights=parse_weights(wtext), tie_rule=tie)
    p = comparison_vector(spec, 4)
    for loads in ((2, 1, 1, 0), (0, 0, 0, 0), (5, 0, 3, 1)):
        state = LoadState.from_loads(loads)
        law = round_law(spec, state)
        for gamma, side in itertools.product((0.3, 0.05, 1e-11), ("phi", "psi")):
            res = drift_step_bound_exact(state, p, law, spec.weights, gamma,
                                         k=4.0, r=1.0, side=side)
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                want = _brute_force_change(spec, state, gamma, side)
                err = abs(Decimal(res.value) - want)
            size = _size(state, p, law, spec.weights, gamma, 4.0, 1.0, side)
            assert err <= Decimal(40 * U * size), (loads, gamma, side, res.value, want)


@pytest.mark.parametrize("text,wtext", [
    ("two-choice", "unit"), ("two-choice", "exp1"), ("two-choice", "geom:p=0.5"),
    ("two-choice", "poisson:l=2"), ("reset-memory", "exp1"),
    ("quantile:delta=0.5", "geom:p=0.5"), ("penalty:delta=0.25", "unit")])
@pytest.mark.parametrize("gamma", ["auto", 0.05])
def test_monte_carlo_step_bound_agrees_with_exact(text, wtext, gamma):
    """The Monte-Carlo mean lies within 4 standard errors of the exact
    value; its bound is the exact check's bound plus 3 SE."""
    n, trials = 64, 400
    w = parse_weights(wtext)
    spec = parse_process(text, weights=w)
    cond = canonical_conditions(spec, n)
    s = s_for_gamma(w)
    if gamma == "auto":
        gamma = gamma_for_weighted(cond, cond.c_cap, s)
    k = 2.0 * cond.c_cap * s
    eng = make_engine(spec, n, make_generator(21, len(text), len(wtext)))
    eng.advance(10 * n)
    state = LoadState.from_loads(eng.loads)
    p = comparison_vector(spec, n)
    law = round_law(spec, state)

    def sampler(st, rng):
        # one round reads at most two bins, two tie floats and two weights
        source = _ScriptSource(bins=rng.integers(0, n, size=2), floats=rng.random(2),
                               weights=w.sample(rng, 2))
        return list(sample_round(spec, st, _Draws(n, w, source)))

    for i, side in enumerate(("phi", "psi")):
        exact = drift_step_bound_exact(state, p, law, w, gamma, k=k, r=1.0, side=side)
        mc = drift_step_bound_check(state, p, sampler, gamma, k=k, r=1.0,
                                    trials=trials, seed=40 + i, side=side)
        se = (mc.bound - exact.bound) / 3
        tol = 64 * U * _size(state, p, law, w, gamma, k, 1.0, side)
        assert se > 0 and exact.passed
        assert abs(mc.value - exact.value) <= 4 * se + tol, \
            (side, mc.value, exact.value, (mc.value - exact.value) / se)


def _exact_reference(state, p, law, w, gamma, k, r, side) -> tuple[float, float, float]:
    """(value, bound, size) of ``drift_step_bound_exact`` one rank at a
    time, summed with ``math.fsum``."""
    n = state.n
    s = 1.0 if side == "phi" else -1.0
    la = log_mgf(w, s * gamma * (1.0 - 1.0 / n))
    lb = log_mgf(w, -s * gamma / n)
    pot, _ = scaled_exp(s * gamma * state.sorted_normalized())
    change, mag = np.zeros(n), 0.0
    for (balls, c), prob in law.items():
        ell = c * la + (balls - c) * lb
        change += prob * math.expm1(ell)
        mag += (c * abs(la) + (balls - c) * abs(lb)) * math.exp(max(ell, 0.0))
    probs = p.array
    coef = s * (probs - 1.0 / n) * r * gamma + k * r * gamma * gamma / n
    size = mag + r * gamma * (probs + 1.0 / n) + k * r * gamma * gamma / n
    return tuple(math.fsum((pot * v).tolist()) for v in (change, coef, size))


def _cert_reference(state, p, params, gamma) -> tuple[float, float, float, float]:
    """(value, bound, bound_theorem, log_scale) of ``certify_drift``, from
    one ``scaled_exp`` of both sides."""
    n, delta, eps = state.n, params.delta, params.epsilon
    ex = gamma * state.sorted_normalized()
    terms, shift = scaled_exp(np.concatenate((ex, -ex)))
    bias = p.array - 1.0 / n
    value = gamma * (float(np.dot(terms[:n], bias)) - float(np.dot(terms[n:], bias)))
    total = float(np.sum(terms[:n]) + np.sum(terms[n:]))
    additive = drift_constant(delta) * gamma * eps * math.exp(-shift)
    return (value, -total * gamma * eps * delta / (4 * n) + additive,
            -total * gamma * eps * delta / (8 * n) + additive, shift)


def _block_states(spec, n, seed) -> list[LoadState]:
    """Random states with ties (and fractional loads under weights), and
    two far from flat, where the certificate's log_scale is positive: one
    bin far above the rest (phi's shift) and one far below (psi's)."""
    rng = make_generator(seed, 9)
    states = []
    for _ in range(6):
        loads = rng.integers(0, 4, size=n).astype(float)
        if spec.weights.kind != "unit":
            loads += rng.exponential(size=n) * (rng.random(n) < 0.5)
        states.append(LoadState.from_loads(loads))
    states.append(LoadState.from_loads([2000.0] + [0.0] * (n - 1)))
    states.append(LoadState.from_loads([1300.0] * (n - 1) + [0.0]))
    return states


@pytest.mark.parametrize("engine", ["kernel", "fallback"])
@pytest.mark.parametrize("text,wtext,tie", [
    ("two-choice", "exp1", "random"), ("reset-memory", "geom:p=0.5", "random"),
    ("quantile:delta=0.5", "poisson:l=2", "higher-index"),
    ("twinning:delta=0.5", "unit", "random"), ("penalty:delta=0.25", "unit", "higher-index")])
def test_block_evaluator_rows_equal_one_row_calls(monkeypatch, engine, text, wtext, tie):
    if engine == "fallback":
        monkeypatch.setattr(kernel, "load", lambda: None)
    n, gamma, k = 24, 0.5, 3.0
    spec = parse_process(text, weights=parse_weights(wtext), tie_rule=tie)
    cond, p = canonical_conditions(spec, n), comparison_vector(spec, n)
    states = _block_states(spec, n, len(text))
    laws = [round_law(spec, st) for st in states]
    ys = np.array([st.sorted_normalized() for st in states])
    law = {atom: np.array([one[atom] for one in laws]) for atom in laws[0]}
    ev = DriftEvaluator(p, gamma, params=cond, weights=spec.weights, k=k)
    certs, checks = ev.evaluate(ys, law)
    assert certs == [certify_drift(st, p, cond, gamma) for st in states]
    assert certs == ev.certify(ys)
    assert {c.log_scale > 0 for c in certs} == {True, False}
    for cert, st in zip(certs, states):
        want = _cert_reference(st, p, cond, gamma)
        assert (cert.value, cert.bound, cert.bound_theorem, cert.log_scale) == want
    one_row = [drift_step_bound_exact(st, p, one, spec.weights, gamma, k, 1.0, side)
               for st, one in zip(states, laws) for side in ("phi", "psi")]
    assert checks == one_row
    assert checks[1::2] == ev.step_bounds(ys, law, "psi")
    for i, (st, one) in enumerate(zip(states, laws)):
        for j, side in enumerate(("phi", "psi")):
            res = checks[2 * i + j]
            want = _exact_reference(st, p, one, spec.weights, gamma, k, 1.0, side)
            assert (res.value, res.bound) == want[:2]
            assert res.passed == (want[0] <= want[1] + 64 * U * want[2])


_BLOCK_CASES = [("two-choice", "exp1", "random"), ("reset-memory", "geom:p=0.5", "higher-index"),
                ("quantile:delta=0.5", "poisson:l=2", "random"),
                ("twinning:delta=0.5", "unit", "higher-index")]


@pytest.mark.parametrize("engine", ["kernel", "fallback"])
@pytest.mark.parametrize("text,wtext,tie", _BLOCK_CASES)
def test_block_evaluator_one_law_row_equals_stacked_rows(monkeypatch, engine, text, wtext,
                                                         tie):
    # drift-check hands a block whose states share their law over as one row
    if engine == "fallback":
        monkeypatch.setattr(kernel, "load", lambda: None)
    n, gamma, k = 24, 0.5, 3.0
    spec = parse_process(text, weights=parse_weights(wtext), tie_rule=tie)
    cond, p = canonical_conditions(spec, n), comparison_vector(spec, n)
    states = _block_states(spec, n, len(text))
    ys = np.array([st.sorted_normalized() for st in states])
    ev = DriftEvaluator(p, gamma, params=cond, weights=spec.weights, k=k)
    for st in states[::3]:
        one = round_law(spec, st)
        stacked = {atom: np.tile(probs, (len(states), 1)) for atom, probs in one.items()}
        got = ev.evaluate(ys, {atom: probs[None] for atom, probs in one.items()})
        assert got == ev.evaluate(ys, stacked)
        assert got[1][::2] == [drift_step_bound_exact(s, p, one, spec.weights, gamma, k, 1.0)
                               for s in states]


@pytest.mark.parametrize("text,wtext,tie", _BLOCK_CASES)
def test_block_evaluator_hashes_the_documented_inputs(text, wtext, tie):
    # each row's hash input is prebuilt from parts shared by the block; the
    # hash is still that of (row, vector, delta, eps, gamma) for a
    # certificate and of (row, vector, gamma, k, r, side, weight label,
    # sorted atoms, each sorted atom's law row) for a check
    n, gamma, k, r = 24, 0.5, 3.0, 1.0
    spec = parse_process(text, weights=parse_weights(wtext), tie_rule=tie)
    cond, p = canonical_conditions(spec, n), comparison_vector(spec, n)
    states = _block_states(spec, n, len(text))
    laws = [round_law(spec, st) for st in states]
    ys = np.array([st.sorted_normalized() for st in states])
    law = {atom: np.array([one[atom] for one in laws]) for atom in laws[0]}
    ev = DriftEvaluator(p, gamma, params=cond, weights=spec.weights, k=k, r=r)
    certs, checks = ev.evaluate(ys, law)
    atoms = sorted(law)
    for i, (y, one) in enumerate(zip(ys, laws)):
        assert certs[i].inputs == inputs_hash(y, p.array, cond.delta, cond.epsilon, gamma)
        for j, side in enumerate(("phi", "psi")):
            want = inputs_hash(y, p.array, gamma, k, r, side, spec.weights.label(), atoms,
                               *(one[a] for a in atoms))
            assert checks[2 * i + j].inputs == want


def test_input_bytes_are_what_inputs_prefix_hashes():
    parts = (np.arange(5.0), 0.1, 3, "phi", [(2, 1), (1, 0)], np.array([1.5, -0.0]))
    stream = hashlib.sha256()
    for part in parts:  # each part's bytes, then a separator
        stream.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        stream.update(b"|")
    assert hashlib.sha256(input_bytes(*parts)).digest() == stream.digest()
    assert inputs_prefix(*parts).digest() == stream.digest()
    head = inputs_prefix(*parts[:2])
    assert inputs_prefix(prefix=head, encoded=input_bytes(*parts[2:])).digest() \
        == inputs_prefix(*parts[2:], prefix=head).digest() == stream.digest()
    assert inputs_hash(*parts) == stream.hexdigest()[:12]


def test_exact_step_bound_validates():
    state = new_state(4)
    law = round_law(parse_process("two-choice"), state)
    with pytest.raises(ValueError):
        drift_step_bound_exact(state, ProbabilityVector.uniform(4), law,
                               parse_weights("unit"), 0.01, 2.0, 1.0, side="both")


def test_exact_step_bound_refuses_gamma_past_one_half():
    # the rounding bound in its docstring is derived for gamma <= 1/2
    spec = parse_process("two-choice", weights=parse_weights("exp1"))
    state = LoadState.from_loads((2, 1, 1, 0))
    p, law = comparison_vector(spec, 4), round_law(spec, state)
    for side in ("phi", "psi"):
        assert drift_step_bound_exact(state, p, law, spec.weights, 0.5, 4.0, 1.0,
                                      side=side).passed
        for gamma in (math.nextafter(0.5, 1), 0.0, -0.1):
            with pytest.raises(PreconditionError, match=r"\(0, 1/2\]"):
                drift_step_bound_exact(state, p, law, spec.weights, gamma, 4.0, 1.0,
                                       side=side)


def test_drift_certification_script_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "BINLAB_OUT": str(tmp_path)}
    res = subprocess.run([sys.executable, str(root / "scripts" / "drift_certification.py"),
                          "--count", "20"], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "drift_certificates.csv").read_text().splitlines()
    assert rows[0].startswith("inputs_hash,") and len(rows) == 1 + 20
