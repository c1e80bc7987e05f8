"""Weight distributions: mgf closed forms vs. quadrature, moment constants."""
from __future__ import annotations

import math

import numpy as np
import pytest

from binlab.checks import MgfDivergenceError
from binlab.rng import make_generator
from binlab.weights import (POISSON_LAM_MAX, WeightDistribution, log_mgf, mgf,
                            moment_inequality_check, parse_weights, s_constant,
                            s_for_gamma)


@pytest.mark.parametrize("text,kind,param", [
    ("unit", "unit", None),
    ("exp1", "exp1", None),
    ("geom:p=0.5", "geom", 0.5),
    ("poisson:l=2", "poisson", 2.0),
])
def test_parse_and_label_round_trip(text, kind, param):
    d = parse_weights(text)
    assert d.kind == kind and d.param == param
    assert parse_weights(d.label()).label() == d.label()


@pytest.mark.parametrize("bad", ["", "exp", "geom", "geom:p=1.5", "poisson:lam=2",
                                 "geom:q=0.5", "normal"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_weights(bad)


def test_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(kind="unit", param=3.0)
    with pytest.raises(ValueError):
        WeightDistribution(kind="geom", param=0.0)
    with pytest.raises(ValueError):
        WeightDistribution(kind="poisson")
    # zeta must leave the mgf finite at 2*zeta (exp1 diverges at 1)
    with pytest.raises(ValueError):
        WeightDistribution(kind="exp1", zeta=0.5)


LAW_PARAMS = {"geom": [-1.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, math.nan, math.inf],
              "poisson": [-1.0, 0.0, 5e-324, 2.0, POISSON_LAM_MAX,
                          math.nextafter(POISSON_LAM_MAX, math.inf), 1e19, math.nan,
                          math.inf]}


@pytest.mark.parametrize("kind,param", [(k, x) for k, xs in LAW_PARAMS.items() for x in xs])
def test_parameters_numpy_refuses_are_refused(kind, param):
    # the kernel draws with numpy's random_geometric and random_poisson,
    # which check nothing: a law Generator would refuse must not parse
    draw = make_generator(1).geometric if kind == "geom" else make_generator(1).poisson
    try:
        draw(param, 4)
    except ValueError:
        with pytest.raises(ValueError, match=f"{kind} weights need"):
            WeightDistribution(kind=kind, param=param)


def test_default_zetas():
    assert parse_weights("unit").zeta == 1.0
    assert parse_weights("exp1").zeta == 0.25
    geo = parse_weights("geom:p=0.5")
    assert geo.zeta > 0 and 2 * geo.zeta < geo.mgf_sup()
    assert math.log2(geo.zeta) == int(math.log2(geo.zeta))  # dyadic
    for text, zeta in (("geom:p=0.5", 0.5), ("poisson:l=0.3", 0.25), ("poisson:l=0.5", 0.5),
                       ("poisson:l=1", 1.0), ("poisson:l=2", 1.0)):
        assert parse_weights(text).zeta == zeta, text


@pytest.mark.parametrize("text,zeta", [
    ("poisson:l=0.25", 0.25), ("poisson:l=0.1", 0.125),  # mgf(2) overflowed float64
    ("geom:p=1.6e-8", 0.25), ("geom:p=1e-10", 0.25),     # 1 - (1-p)e^(pz) cancelled to 0
    ("geom:p=5.2e-15", 0.25),  # the cancelled form read mgf(1) as modest; it is about 2/p
])
def test_default_zeta_of_extreme_laws(text, zeta):
    w = parse_weights(text)
    assert w.zeta == zeta
    assert log_mgf(w, 2 * w.zeta) <= math.log(1e3) < log_mgf(w, 4 * w.zeta)


def test_law_without_a_workable_zeta_is_named():
    with pytest.raises(ValueError, match=r"poisson:l=1e-09 weights have no workable zeta"):
        parse_weights("poisson:l=1e-9")


def test_mgf_sup():
    assert parse_weights("unit").mgf_sup() == math.inf
    assert parse_weights("exp1").mgf_sup() == 1.0
    assert parse_weights("poisson:l=1").mgf_sup() == math.inf
    geo = parse_weights("geom:p=0.5")
    # finite region boundary: (1-p) e^{pz} = 1 -> z = -ln(1-p)/p = 2 ln 2
    assert geo.mgf_sup() == pytest.approx(2 * math.log(2), rel=1e-14)


def test_exp1_mgf_frozen():
    # E[e^{zW}] = 1/(1-z): at z = -1/8 this is 8/9
    d = parse_weights("exp1")
    assert mgf(d, -0.125) == pytest.approx(8 / 9, rel=1e-15)
    assert mgf(d, 0.5) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(MgfDivergenceError):
        mgf(d, 1.0)
    with pytest.raises(MgfDivergenceError):
        mgf(d, 2.0)


@pytest.mark.parametrize("text", ["unit", "exp1", "geom:p=0.5", "geom:p=0.25",
                                  "poisson:l=1", "poisson:l=2"])
def test_mgf_closed_matches_numeric(text):
    d = parse_weights(text)
    zs = [-1.0, -0.25, 0.1, d.zeta, 2 * d.zeta]
    for z in zs:
        closed = mgf(d, z, method="closed")
        numeric = mgf(d, z, method="numeric")
        assert numeric == pytest.approx(closed, rel=1e-7), (text, z)


def test_mgf_unknown_method():
    with pytest.raises(ValueError):
        mgf(parse_weights("unit"), 0.1, method="series")


def test_mean_one_by_sampling():
    rng = make_generator(42, 0)
    for text in ("unit", "exp1", "geom:p=0.5", "poisson:l=2"):
        d = parse_weights(text)
        w = d.sample(rng, 200_000)
        assert np.all(w >= 0)
        assert float(np.mean(w)) == pytest.approx(1.0, abs=0.01), text


def test_s_constant_closed_form():
    # unit: zeta=1, so the polylog term (8 ln 8)^4 dominates the mgf term
    u = parse_weights("unit")
    assert s_constant(u) == pytest.approx((8 * math.log(8)) ** 4, rel=1e-12)
    assert s_for_gamma(u) == 1.0
    e = parse_weights("exp1")
    assert s_for_gamma(e) == s_constant(e)
    assert s_constant(e) == pytest.approx((32 * math.log(32)) ** 4, rel=1e-12)
    assert s_constant(e) >= mgf(e, e.zeta) + mgf(e, 2 * e.zeta)


@pytest.mark.parametrize("text", ["unit", "exp1", "geom:p=0.5", "poisson:l=2"])
def test_moment_inequality_grid(text):
    d = parse_weights(text)
    for gamma in (d.zeta / 2, d.zeta / 4, d.zeta / 64):
        for ell in (-1.0, -0.5, -0.01, 0.01, 0.5, 1.0):
            res = moment_inequality_check(d, gamma, ell)
            assert res.passed, (text, gamma, ell, res.value, res.bound)


def test_moment_inequality_unit_small_s():
    # unit weights satisfy the inequality with S = 1 (e^x <= 1 + x + x^2)
    d = parse_weights("unit")
    for ell in (-1.0, -0.3, 0.3, 1.0):
        res = moment_inequality_check(d, 0.5, ell, s=1.0)
        assert res.passed


def test_moment_inequality_validates():
    d = parse_weights("exp1")
    with pytest.raises(ValueError):
        moment_inequality_check(d, d.zeta, 0.5)  # gamma above zeta/2
    with pytest.raises(ValueError):
        moment_inequality_check(d, d.zeta / 4, 1.5)


# variance of each mean-one law: log M(z) = z + var/2 * z^2 + O(z^3)
LOG_MGF_VAR = {"unit": 0.0, "exp1": 1.0, "geom:p=0.5": 0.5, "poisson:l=2": 0.5}


@pytest.mark.parametrize("text", sorted(LOG_MGF_VAR))
def test_log_mgf_matches_closed_form(text):
    d = parse_weights(text)
    for z in (-0.4, -0.05, 0.05, 0.2):
        assert log_mgf(d, z) == pytest.approx(math.log(mgf(d, z)), rel=1e-14)
    # at |z| = 1e-12, log(mgf) keeps about 4 digits; the series is exact here
    for z in (1e-12, -3e-12):
        want = z + LOG_MGF_VAR[text] / 2 * z * z
        assert log_mgf(d, z) == pytest.approx(want, rel=4e-16, abs=0)
    if d.mgf_sup() < math.inf:
        with pytest.raises(MgfDivergenceError):
            log_mgf(d, d.mgf_sup())
