"""Exponential (hyperbolic-cosine) potentials and one-step drift bounds.

For a normalized load vector y (loads minus their mean) and smoothing
gamma, the potential splits into an overload and an underload part:

    phi = sum_i exp(+gamma * y_i)      psi = sum_i exp(-gamma * y_i)

and their sum Gamma = phi + psi contracts in expectation whenever the
allocation vector is biased away from heavy ranks.  ``certify_drift``
verifies the deterministic one-step inequality

    dphi_bar + dpsi_bar <= -Gamma * gamma*eps*delta/(4n) + c(delta)*gamma*eps

on a concrete (state, vector) instance, where dphi_bar/dpsi_bar are the
first-order expected changes and c(delta) is the closed-form constant from
``drift_constant``.  The relaxed 8n variant used by the expectation bound
is certified alongside.

Overflow rule.  Every e^{+-gamma*y} is evaluated by ``scaled_exp``: the
exponents share one shift s = max(0, max(x) - 300), so no term exceeds
e^300.  float64 exp overflows past e^709.78, and 300 leaves room for the
squares the step-bound check's standard error forms (e^600; e^800 is inf).
Certificates report s as ``log_scale``, ``potential`` adds it to its log
fields, and a sweep's ``gamma_total`` multiplies e^s back in, stopping
with an error when Gamma itself leaves the float64 range.

Per-round precondition.  ``drift_step_bound_exact`` computes E[change of
phi or psi over one round] exactly from the round's law
(``processes.round_law``) and the weight law's log-MGF, with no random
draws.  Its rounding error is below 40u * size, for u = 2^-53 and size
the sum of the absolute sizes of the terms it adds (defined in its
docstring); it passes when value <= bound + 64u * size.  ``drift_step_bound_check`` is
the Monte-Carlo estimate of the same expectation, kept as its cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import CertResult, CheckResult, PreconditionError, inputs_hash
from .core import LoadState
from .rng import make_generator
from .vectors import ConditionParams, ProbabilityVector, check_c1, quantile_index
from .weights import WeightDistribution, log_mgf

# log of the largest term scaled_exp returns (see the module docstring)
_EXP_MAX = 300.0


def scaled_exp(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``(exp(x - s), s)`` with ``s = max(0, max(x) - _EXP_MAX)``; for
    s = 0 the terms are exactly ``np.exp(x)``."""
    s = max(0.0, float(np.max(x)) - _EXP_MAX)
    return np.exp(x - s), s


def unscaled(total: float, s: float) -> float:
    """``total * e^s``, or inf when its log reaches 709 (float64 overflows
    past e^709.78)."""
    if not s:
        return total
    return total * math.exp(s) if s + math.log(total) < 709 else math.inf


@dataclass(frozen=True)
class PotentialReport:
    """Potential values for one state at one smoothing gamma.

    Per-bin arrays are in rank order, as ``scaled_exp`` returns them (times
    e^{log(sum) - log_phi}, or log_psi, when ``used_log_space`` is set).
    Scalar fields are inf only when their log is 709 or more; log fields
    are always finite.
    """

    gamma: float
    phi_per_bin: np.ndarray
    psi_per_bin: np.ndarray
    phi: float
    psi: float
    gamma_total: float
    log_phi: float
    log_psi: float
    log_gamma_total: float
    used_log_space: bool


def potential(state: LoadState, gamma: float) -> PotentialReport:
    """Evaluate the potential, each side through ``scaled_exp``."""
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    ex = gamma * state.sorted_normalized()
    phi_per_bin, s_phi = scaled_exp(ex)
    psi_per_bin, s_psi = scaled_exp(-ex)
    phi = float(np.sum(phi_per_bin))
    psi = float(np.sum(psi_per_bin))
    log_phi = s_phi + math.log(phi)
    log_psi = s_psi + math.log(psi)
    phi, psi = unscaled(phi, s_phi), unscaled(psi, s_psi)
    return PotentialReport(
        gamma=gamma,
        phi_per_bin=phi_per_bin,
        psi_per_bin=psi_per_bin,
        phi=phi,
        psi=psi,
        gamma_total=phi + psi,
        log_phi=log_phi,
        log_psi=log_psi,
        log_gamma_total=np.logaddexp(log_phi, log_psi),
        used_log_space=bool(s_phi or s_psi),
    )


def drift_constant(delta: float) -> float:
    """Closed-form additive constant c(delta) of the one-step drift bound."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    ratio = delta / (1 - delta)
    log83 = math.log(8.0 / 3.0)
    return 4.0 * max(
        1.0,
        ratio,
        math.exp((1 - delta) / (2 * delta) * log83) * ratio,
        delta * math.exp(delta / (2 * (1 - delta)) * log83),
    )


def require_c1(p: ProbabilityVector, params: ConditionParams) -> None:
    """Raise PreconditionError unless ``p`` satisfies C1(delta, eps), the
    precondition of ``certify_drift``; it depends on the vector and the
    conditions only, not on the load state."""
    delta, eps = params.delta, params.epsilon
    quantile_index(delta, p.n)
    if not check_c1(p, delta, eps):
        raise PreconditionError(
            f"vector fails C1(delta={delta}, eps={eps}); cannot certify")


def certify_drift(state: LoadState, p: ProbabilityVector, params: ConditionParams,
                  gamma: float, *, c1_checked: bool = False) -> CertResult:
    """Certify the one-step drift inequality on a concrete instance.

    The vector must satisfy C1(delta, eps) — violations raise
    PreconditionError rather than producing a failed certificate.  A caller
    that certifies many states against one vector runs ``require_c1`` once
    and passes ``c1_checked=True``.  Both the tight (4n) and relaxed (8n)
    additive forms are evaluated.  Everything is computed under the common
    factor exp(-shift) of ``scaled_exp``, recorded as log_scale; the
    inequality is scale-invariant.
    """
    if p.n != state.n:
        raise PreconditionError(f"vector has {p.n} entries but state has {state.n} bins")
    if not 0 < gamma <= 1:
        raise PreconditionError(f"gamma must lie in (0, 1], got {gamma}")
    if not c1_checked:
        require_c1(p, params)
    delta, eps = params.delta, params.epsilon
    n = state.n
    y = state.sorted_normalized()
    ex = gamma * y
    terms, shift = scaled_exp(np.concatenate((ex, -ex)))
    phi_i, psi_i = terms[:n], terms[n:]
    scale = math.exp(-shift)
    bias = p.array - 1.0 / n
    value = gamma * (float(np.dot(phi_i, bias)) - float(np.dot(psi_i, bias)))
    total = float(np.sum(phi_i) + np.sum(psi_i))
    additive = drift_constant(delta) * gamma * eps * scale
    bound4 = -total * gamma * eps * delta / (4 * n) + additive
    bound8 = -total * gamma * eps * delta / (8 * n) + additive
    tol = 1e-9 * max(abs(value), abs(bound4))
    return CertResult(
        inputs=inputs_hash(y, p.array, delta, eps, gamma),
        value=value,
        bound=bound4,
        bound_theorem=bound8,
        log_scale=shift,
        passed=value <= bound4 + tol,
        passed_theorem=value <= bound8 + max(tol, 1e-9 * abs(bound8)),
    )


def gamma_for_weighted(params: ConditionParams, c_cap: float, s: float) -> float:
    """Smoothing parameter for weighted runs: eps*delta/(16*C*S)."""
    if c_cap <= 0 or s <= 0:
        raise ValueError("c_cap and s must be positive")
    return params.epsilon * params.delta / (16.0 * c_cap * s)


# tolerance of drift_step_bound_exact in units of its size sum (derivation
# in its docstring: the rounding error is below 40u * size)
_EXACT_TOL = 64 * 2.0 ** -53


def drift_step_bound_exact(state: LoadState, p: ProbabilityVector,
                           law: dict[tuple[int, int], np.ndarray],
                           weights: WeightDistribution, gamma: float, k: float,
                           r: float, side: str = "phi") -> CheckResult:
    """Exact check of the per-round expectation precondition.

    ``law`` maps (K, c) to the rank-indexed P(the round allocates K balls
    and c of them land in rank r), as ``processes.round_law`` gives it.
    With s = +1 for phi and -1 for psi, M the weight law's MGF and
    la = log M(s*gamma*(1-1/n)), lb = log M(-s*gamma/n), the expected
    change of the potential over one round is

        value = sum_r pot_r * sum_{K,c} P_r(K,c) * expm1(L),
        L = c*la + (K-c)*lb,

    exact because weights are i.i.d. and independent of the sampled bins.
    It is compared against the nominal bound of ``drift_step_bound_check``,

        bound = sum_r pot_r * (s*(p_r - 1/n)*r*gamma + k*r*gamma^2/n).

    Rounding.  With u = 2^-53 and m = (c|la| + (K-c)|lb|) * e^max(L, 0),
    which bounds |expm1(L)|: for gamma <= 1/2, la and lb (``weights.log_mgf``)
    are within 8u relative, so fl(L) is within 9u (c|la| + (K-c)|lb|) and
    fl(expm1(L)) within 11u * m; every law entry is within 8u absolute
    (correctly rounded integer ratios, or a few sums and complements of
    them); the at most four products and sums per rank add 8u * sum m; the
    product with pot and ``math.fsum`` add 2u.  The bound's coefficients
    are within 4u * (r*gamma*(p_r + 1/n) + k*r*gamma^2/n), and its product
    and sum add 2u.  So value - bound is off by less than 40u * size, with

        size = sum_r pot_r * (sum_{K,c} m + r*gamma*(p_r + 1/n) + k*r*gamma^2/n),

    and the check passes when value <= bound + 64u * size.  The tolerance is
    not added to ``bound``.  pot comes from ``scaled_exp``, so value and
    bound share its factor e^{-shift} and stay finite.
    """
    if side not in ("phi", "psi"):
        raise ValueError(f"side must be 'phi' or 'psi', got {side!r}")
    n = state.n
    sign = 1.0 if side == "phi" else -1.0
    la = log_mgf(weights, sign * gamma * (1.0 - 1.0 / n))
    lb = log_mgf(weights, -sign * gamma / n)
    y = state.sorted_normalized()
    pot, _ = scaled_exp(sign * gamma * y)
    change = np.zeros(n)
    mag = 0.0
    for (balls, c), prob in law.items():
        ell = c * la + (balls - c) * lb
        change += prob * math.expm1(ell)
        mag += (c * abs(la) + (balls - c) * abs(lb)) * math.exp(max(ell, 0.0))
    probs = p.array
    coef = sign * (probs - 1.0 / n) * r * gamma + k * r * gamma * gamma / n
    value = math.fsum((pot * change).tolist())
    bound = math.fsum((pot * coef).tolist())
    size = math.fsum((pot * (mag + r * gamma * (probs + 1.0 / n)
                             + k * r * gamma * gamma / n)).tolist())
    atoms = sorted(law)
    return CheckResult(
        name=f"drift_step_bound({side})",
        value=value,
        bound=bound,
        passed=value <= bound + _EXACT_TOL * size,
        inputs=inputs_hash(y, probs, gamma, k, r, side, weights.label(), atoms,
                           *(law[a] for a in atoms)),
    )


RoundSampler = Callable[[LoadState, np.random.Generator], list]


def drift_step_bound_check(state: LoadState, p: ProbabilityVector,
                           sampler: RoundSampler, gamma: float, k: float, r: float,
                           trials: int, seed: int, side: str = "phi") -> CheckResult:
    """Monte-Carlo check of the per-round expectation precondition; the
    cross-check of ``drift_step_bound_exact`` in the tests.

    ``sampler(state, rng)`` must return the balls of one round as
    (bin, weight) pairs without mutating the state.  The empirical mean of
    the potential change is compared against

        sum_i pot_i * ((+/-)(p_i - 1/n) * r * gamma  +  k * r * gamma^2 / n)

    with a three-standard-error allowance folded into the bound.  Value
    and bound share the factor e^{-s} of ``scaled_exp``, so they stay finite.
    """
    if side not in ("phi", "psi"):
        raise ValueError(f"side must be 'phi' or 'psi', got {side!r}")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    n = state.n
    sign = 1.0 if side == "phi" else -1.0
    y_bin = state.normalized()
    pot_bin, _ = scaled_exp(sign * gamma * y_bin)
    rank = state.sorted_index
    bias = p.array - 1.0 / n
    bound = float(np.dot(pot_bin[rank], sign * bias * r * gamma + k * r * gamma * gamma / n))
    pot_total = float(np.sum(pot_bin))
    samples = np.empty(trials)
    for t in range(trials):
        rng = make_generator(seed, t)
        hits: dict[int, float] = {}
        added = 0.0
        for b, w in sampler(state, rng):
            hits[b] = hits.get(b, 0.0) + w
            added += w
        # all bins shift by -added/n; hit bins additionally gain their
        # weight.  Kept as expm1 terms: at gamma ~ 1e-11 the difference of
        # the new and old totals would be rounding noise.
        shift = -sign * gamma * added / n
        gained = sum(pot_bin[b] * math.expm1(sign * gamma * w)
                     for b, w in hits.items())
        samples[t] = pot_total * math.expm1(shift) + math.exp(shift) * gained
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / math.sqrt(trials)
    return CheckResult(
        name=f"drift_step_bound({side})",
        value=mean,
        bound=bound + 3 * se,
        passed=mean <= bound + 3 * se,
        inputs=inputs_hash(y_bin[rank], p.array, gamma, k, r, trials, seed),
    )


def gamma_expectation_bound(gamma_totals: Sequence[float], delta: float, n: int) -> CheckResult:
    """Check mean Gamma over independent runs against (8*c(delta)/delta)*n."""
    if len(gamma_totals) < 30:
        raise ValueError(f"need at least 30 runs, got {len(gamma_totals)}")
    mean = float(np.mean(np.asarray(gamma_totals, dtype=float)))
    bound = 8.0 * drift_constant(delta) / delta * n
    return CheckResult(
        name="gamma_expectation_bound",
        value=mean,
        bound=bound,
        passed=mean <= bound,
        inputs=inputs_hash(np.asarray(gamma_totals, dtype=float), delta, n),
    )
