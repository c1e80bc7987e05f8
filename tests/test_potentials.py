"""Hyperbolic-cosine potential, drift certificates, and the gamma rule.

Frozen expected values below were derived by hand from the closed forms:
for loads (2, 0) the normalized vector is (1, -1), so at gamma=1

    Gamma = e^1 + e^-1 + e^-1 + e^1 = 2e + 2/e = 6.172322539260975

and c(1/2) = 4 * max(1, 1, sqrt(8/3), sqrt(8/3)/2) = 4*sqrt(8/3).
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binlab.checks import PreconditionError
from binlab.core import LoadState, new_state
from binlab.potentials import (certify_drift, drift_constant,
                               drift_step_bound_check, gamma_expectation_bound,
                               gamma_for_weighted, potential)
from binlab.rng import make_generator
from binlab.vectors import ConditionParams, ProbabilityVector, worst_case_vector


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
