"""Rank-indexed probability vectors and the bias/cap condition checks.

The worst-case comparison vector and the prefix/suffix checks have clean
closed forms, so most expected values here are written out as exact
fractions and checked with tol=0.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binlab.core import LoadState
from binlab.vectors import (ConditionParams, ProbabilityVector, average_ties,
                            check_c1, check_c2, check_conditions, check_d0,
                            check_d1, majorizes,
                            max_entry_cap, quantile_index, worst_case_vector)

F = Fraction


def worst_case_vector_exact(delta: Fraction, epsilon: Fraction, n: int) -> list[Fraction]:
    """``worst_case_vector`` in rationals, for the tol=0 checks."""
    t = quantile_index(delta, n)
    lo = (1 - epsilon) / Fraction(n)
    hi = (1 + epsilon * delta / (1 - delta)) / Fraction(n)
    return [lo] * t + [hi] * (n - t)


def test_probability_vector_validation():
    ProbabilityVector((0.25, 0.25, 0.5))
    with pytest.raises(ValueError):
        ProbabilityVector((0.5, 0.6))
    with pytest.raises(ValueError):
        ProbabilityVector((-0.1, 1.1))
    with pytest.raises(ValueError):
        ProbabilityVector(())


def test_uniform_vector():
    u = ProbabilityVector.uniform(8)
    assert u.probs == tuple([0.125] * 8)


def test_condition_params_validation():
    ConditionParams(0.25, 0.5, c_cap=2.0)
    with pytest.raises(ValueError):
        ConditionParams(0.0, 0.5)
    with pytest.raises(ValueError):
        ConditionParams(0.5, 1.0)
    with pytest.raises(ValueError):
        ConditionParams(0.5, 0.5, c_cap=0)


@pytest.mark.parametrize("delta,n,expected", [
    (F(1, 4), 8, 2),
    (F(1, 2), 8, 4),
    (0.25, 12, 3),
    (F(3, 4), 4, 3),
])
def test_quantile_index(delta, n, expected):
    assert quantile_index(delta, n) == expected


def test_quantile_index_requires_integral_cut():
    with pytest.raises(ValueError):
        quantile_index(F(1, 3), 8)
    with pytest.raises(ValueError):
        quantile_index(0.3, 10**6 + 1)


def test_worst_case_vector_frozen_quarters():
    # delta=1/2, eps=1/2, n=4: first half (1-eps)/n = 1/8 each, second
    # half (1 + eps*delta/(1-delta))/n = (1 + 1/2)/4 = 3/8 each.
    r = worst_case_vector(0.5, 0.5, 4)
    assert r.probs == pytest.approx((0.125, 0.125, 0.375, 0.375), abs=1e-15)
    rx = worst_case_vector_exact(F(1, 2), F(1, 2), 4)
    assert rx == [F(1, 8), F(1, 8), F(3, 8), F(3, 8)]
    assert sum(rx) == 1


def test_eps_tilde_value():
    assert ConditionParams(F(1, 4), F(1, 2)).eps_tilde() == F(1, 6)
    assert ConditionParams(0.5, 0.5).eps_tilde() == pytest.approx(0.5)


def test_d0_d1_basic():
    good = (F(1, 8), F(1, 8), F(3, 8), F(3, 8))
    assert check_d0(good)
    assert check_d1(good, F(1, 2), F(1, 2), tol=0)
    assert not check_d0((F(3, 8), F(1, 8), F(1, 8), F(3, 8)))
    # entry at the quantile rank too large
    bad = (F(1, 8), F(2, 8), F(2, 8), F(3, 8))
    assert not check_d1(bad, F(1, 2), F(1, 2), tol=0)


def test_c1_exact_boundaries():
    r = worst_case_vector_exact(F(1, 2), F(1, 2), 4)
    # the worst-case vector meets C1 with equality everywhere
    assert check_c1(r, F(1, 2), F(1, 2), tol=0)
    # shift any mass toward the prefix and it fails
    bumped = (F(1, 8) + F(1, 100), F(1, 8) - F(1, 100), F(3, 8), F(3, 8))
    assert not check_c1(bumped, F(1, 2), F(1, 2), tol=0)
    # a too-light suffix fails even with a compliant prefix
    thin_tail = (F(0), F(0), F(3, 4), F(1, 4))
    assert not check_c1(thin_tail, F(1, 2), F(1, 2), tol=0)


def test_c2_cap():
    assert check_c2((F(1, 8), F(1, 8), F(3, 8), F(3, 8)), F(2), tol=0)
    assert not check_c2((0.0, 0.0, 0.2, 0.8), 2.0)


def test_check_conditions_keys():
    params = ConditionParams(F(1, 2), F(1, 2), c_cap=F(2))
    out = check_conditions((F(1, 8), F(1, 8), F(3, 8), F(3, 8)), params, tol=0)
    assert out == {"D0": True, "D1": True, "C1": True, "C2": True}
    out2 = check_conditions((0.25, 0.25, 0.25, 0.25), ConditionParams(0.5, 0.5))
    assert set(out2) == {"D0", "D1", "C1"}


def test_uniform_is_exactly_the_boundary():
    # The uniform vector sits on the eps -> 0 boundary: it keeps D0 and any
    # cap C >= 1, but fails D1/C1 for every strictly positive bias.
    for n in (2, 4, 8, 16):
        params = ConditionParams(F(1, 2), F(1, 100), c_cap=F(2))
        p = tuple(F(1, n) for _ in range(n))
        assert check_conditions(p, params, tol=0) == {
            "D0": True, "D1": False, "C1": False, "C2": True}


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 7), st.data())
def test_property_d0_d1_implies_c1(half, data):
    """A sorted vector with a small quantile entry always passes C1."""
    n = 2 * half
    # non-decreasing vector whose prefix entries are all <= (1-eps)/n
    lows = sorted(data.draw(st.lists(
        st.fractions(min_value=0, max_value=F(1, 2 * n)),
        min_size=half, max_size=half)))
    rest = 1 - sum(lows)
    raw = data.draw(st.lists(
        st.fractions(min_value=F(1, 100), max_value=1),
        min_size=half, max_size=half))
    highs = sorted(h * rest / sum(raw) for h in raw)
    p = tuple(lows) + tuple(highs)
    if not check_d0(p):
        return  # rescaling can break monotonicity at the seam; not our claim
    assert check_d1(p, F(1, 2), F(1, 2), tol=0)
    assert check_c1(p, F(1, 2), F(1, 2), tol=0)


def test_majorizes_reflexive_and_strict():
    r = worst_case_vector_exact(F(1, 2), F(1, 2), 6)
    u = [F(1, 6)] * 6
    assert majorizes(r, r, tol=0)
    # uniform front-loads more mass than the compliant extreme, not less
    assert majorizes(u, r, tol=0)
    assert not majorizes(r, u, tol=0)
    with pytest.raises(ValueError):
        majorizes(r, u[:3])


def test_c1_iff_majorized_by_worst_case():
    r = worst_case_vector_exact(F(1, 4), F(1, 2), 8)
    candidates = [
        tuple(F(1, 8) for _ in range(8)),
        tuple(worst_case_vector_exact(F(1, 4), F(1, 2), 8)),
        (F(0), F(0), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(2, 8), F(2, 8)),
        (F(1, 16), F(1, 16), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 4)),
        (F(0), F(1, 4), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 8)),
        (F(1, 4), F(0), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 8)),
    ]
    for p in candidates:
        assert sum(p) == 1
        assert check_c1(p, F(1, 4), F(1, 2), tol=0) == majorizes(r, p, tol=0), p


def test_max_entry_cap():
    assert max_entry_cap(F(1, 2), F(1, 2)) == F(3, 2)
    assert max_entry_cap(F(1, 4), F(1, 2)) == F(7, 6)
    # consistency: the worst-case vector's top entry is exactly cap/n
    rx = worst_case_vector_exact(F(1, 4), F(1, 2), 8)
    assert rx[-1] == max_entry_cap(F(1, 4), F(1, 2)) / 8


def test_average_ties_frozen():
    p = ProbabilityVector((0.1, 0.2, 0.3, 0.4))
    state = LoadState.from_loads([5, 5, 1, 1])
    # ranks 0-1 tied, ranks 2-3 tied -> block means 0.15 and 0.35
    out = average_ties(p, state)
    assert out.probs == pytest.approx((0.15, 0.15, 0.35, 0.35), abs=1e-15)


def test_average_ties_preserves_c1_and_d0():
    p = ProbabilityVector(tuple(map(float, worst_case_vector_exact(F(1, 2), F(1, 2), 8))))
    state = LoadState.from_loads([9, 9, 9, 9, 2, 2, 2, 2])
    out = average_ties(p, state)
    assert check_d0(out)
    assert check_c1(out, 0.5, 0.5)
    with pytest.raises(ValueError):
        average_ties(p, LoadState.from_loads([1, 2]))
