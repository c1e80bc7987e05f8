"""Mean-one ball-weight distributions with exponential-moment certificates.

Each distribution carries a margin ``zeta`` for which the moment generating
function is finite at ``2*zeta``, and exposes the constant

    S = max{ (8/zeta * log(8/zeta))^4,  mgf(zeta) + mgf(2*zeta) }

which controls the quadratic term in the second-order moment bound

    mgf(gamma*ell) <= 1 + ell*gamma + S * ell^2 * gamma^2

valid for gamma in (0, zeta/2] and ell in [-1, 1].  Unit weights admit the
much smaller constant 1 in that inequality (e^x <= 1 + x + x^2 on |x| <= 1),
so ``s_for_gamma`` reports 1.0 for them while ``s_constant`` always reports
the general closed form.

``mgf`` evaluates closed forms; ``method="numeric"`` (an exp-sinh
quadrature for exp1, series for the discrete laws) is the selftest's
cross-check of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import CheckResult, MgfDivergenceError, inputs_hash

_MGF_CAP = 1e3  # ceiling used when auto-selecting zeta for discrete kinds

KINDS = ("unit", "exp1", "geom", "poisson")


@dataclass(frozen=True)
class WeightDistribution:
    """A named mean-one weight law: unit, exp1, geom(p), or poisson(l)."""

    kind: str
    param: float | None = None
    zeta: float = field(default=0.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "geom":
            if self.param is None or not 0 < self.param < 1:
                raise ValueError("geom requires p in (0,1)")
        elif self.kind == "poisson":
            if self.param is None or self.param <= 0:
                raise ValueError("poisson requires l > 0")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")
        if self.zeta == 0.0:
            object.__setattr__(self, "zeta", self._default_zeta())
        if not 0 < self.zeta:
            raise ValueError(f"zeta must be positive, got {self.zeta}")
        if 2 * self.zeta >= self.mgf_sup():
            raise ValueError(f"mgf diverges at 2*zeta = {2 * self.zeta}")

    def _default_zeta(self) -> float:
        if self.kind == "unit":
            return 1.0
        if self.kind == "exp1":
            return 0.25
        # discrete kinds: largest dyadic 2^-k with mgf(2*zeta) finite and modest
        z = 1.0
        while True:
            if 2 * z < self.mgf_sup() and _mgf_closed(self, 2 * z) <= _MGF_CAP:
                return z
            z /= 2
            if z < 2 ** -20:
                raise ValueError("could not find workable zeta")

    def mgf_sup(self) -> float:
        """Supremum of the finite region of the mgf (may be inf)."""
        if self.kind == "unit" or self.kind == "poisson":
            return math.inf
        if self.kind == "exp1":
            return 1.0
        # geom: finite while (1-p) * e^(p z) < 1
        p = self.param
        return -math.log1p(-p) / p

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "unit":
            return np.ones(size)
        if self.kind == "exp1":
            return rng.standard_exponential(size)
        if self.kind == "geom":
            return rng.geometric(self.param, size) * self.param
        return rng.poisson(self.param, size) / self.param

    def label(self) -> str:
        if self.kind == "geom":
            return f"geom:p={self.param:g}"
        if self.kind == "poisson":
            return f"poisson:l={self.param:g}"
        return self.kind


def parse_weights(spec: str) -> WeightDistribution:
    """Parse 'unit' | 'exp1' | 'geom:p=0.5' | 'poisson:l=2'."""
    s = spec.strip()
    if s in ("unit", "exp1"):
        return WeightDistribution(kind=s)
    if ":" in s:
        kind, _, arg = s.partition(":")
        key, _, val = arg.partition("=")
        if kind == "geom" and key == "p":
            return WeightDistribution(kind="geom", param=float(val))
        if kind == "poisson" and key == "l":
            return WeightDistribution(kind="poisson", param=float(val))
    raise ValueError(f"cannot parse weight distribution {spec!r}")


def _mgf_closed(dist: WeightDistribution, z: float) -> float:
    if dist.kind == "unit":
        return math.exp(z)
    if dist.kind == "exp1":
        return 1.0 / (1.0 - z)
    if dist.kind == "geom":
        p = dist.param
        e = math.exp(p * z)
        return p * e / (1.0 - (1.0 - p) * e)
    lam = dist.param
    return math.exp(lam * math.expm1(z / lam))


def log_mgf(dist: WeightDistribution, z: float) -> float:
    """log E[e^{zW}] without the cancellation of ``math.log(mgf(...))``,
    which loses about 1e-4 relative at z = 1e-12.  Each form is a few
    correctly rounded steps, well conditioned for |z| <= 1/2."""
    if z >= dist.mgf_sup():
        raise MgfDivergenceError(
            f"mgf of {dist.label()} diverges at z={z} (finite for z < {dist.mgf_sup():g})")
    if dist.kind == "unit":
        return z
    if dist.kind == "exp1":
        return -math.log1p(-z)
    if dist.kind == "geom":
        p = dist.param
        return p * z - math.log1p(-(1.0 - p) * math.expm1(p * z) / p)
    lam = dist.param
    return lam * math.expm1(z / lam)


def _mgf_numeric(dist: WeightDistribution, z: float) -> float:
    """Quadrature / series reference for the closed forms.

    exp1 integrates e^{(z-1)w} over (0, inf) by the exp-sinh rule of
    Takahasi & Mori (1974): w = e^{(pi/2) sinh t} at t = k/16 for
    k = -96..96, each node weighted (pi/2) cosh(t) w / 16.  Against
    1/(1 - z) its relative error is at most 2e-15 for -20 <= z <= 1/2
    (measured on a grid of 4002 points), about 5e-12 at z = 0.9 and 1e-8
    at z = 0.99.  The discrete series stop once a term falls below 1e-12
    of the sum.
    """
    if dist.kind == "exp1":
        t = np.arange(-96, 97) / 16
        w = np.exp(np.pi / 2 * np.sinh(t))
        return math.fsum(np.exp((z - 1.0) * w) * (np.pi / 2 / 16) * np.cosh(t) * w)
    if dist.kind == "unit":
        return math.exp(z)
    # discrete: sum the series until the tail is negligible
    total = 0.0
    k = 0 if dist.kind == "poisson" else 1
    while True:
        if dist.kind == "geom":
            p = dist.param
            term = p * (1 - p) ** (k - 1) * math.exp(z * p * k)
        else:
            lam = dist.param
            term = math.exp(k * math.log(lam) - math.lgamma(k + 1) - lam + z * k / lam)
        total += term
        if k > 8 and term < 1e-12 * max(total, 1.0):
            return total
        k += 1
        if k > 10 ** 7:
            raise RuntimeError("mgf series failed to converge")


def mgf(dist: WeightDistribution, z: float, method: str = "closed") -> float:
    """Exponential moment E[e^{zW}]; raises MgfDivergenceError outside the
    finite region."""
    if z >= dist.mgf_sup():
        raise MgfDivergenceError(
            f"mgf of {dist.label()} diverges at z={z} (finite for z < {dist.mgf_sup():g})")
    if method == "closed":
        return _mgf_closed(dist, z)
    if method == "numeric":
        return _mgf_numeric(dist, z)
    raise ValueError(f"unknown mgf method {method!r}")


def s_constant(dist: WeightDistribution) -> float:
    """The closed-form quadratic-term constant for this distribution."""
    z = dist.zeta
    base = (8.0 / z * math.log(8.0 / z)) ** 4
    return max(base, mgf(dist, z) + mgf(dist, 2 * z))


def s_for_gamma(dist: WeightDistribution) -> float:
    """Constant used by the smoothing-parameter rule: minimal for unit
    weights, the general closed form otherwise."""
    return 1.0 if dist.kind == "unit" else s_constant(dist)


def moment_inequality_check(dist: WeightDistribution, gamma: float, ell: float,
                            s: float | None = None) -> CheckResult:
    """Check mgf(gamma*ell) <= 1 + ell*gamma + S*ell^2*gamma^2."""
    if not 0 < gamma <= dist.zeta / 2:
        raise ValueError(f"gamma={gamma} outside (0, zeta/2] with zeta={dist.zeta}")
    if not -1 <= ell <= 1:
        raise ValueError(f"ell={ell} outside [-1, 1]")
    if s is None:
        s = s_constant(dist)
    value = mgf(dist, gamma * ell)
    bound = 1.0 + ell * gamma + s * ell * ell * gamma * gamma
    return CheckResult(
        name="moment_inequality",
        value=value,
        bound=bound,
        passed=value <= bound,
        inputs=inputs_hash(dist.label(), gamma, ell, s),
    )
