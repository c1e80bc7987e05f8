"""Small result records shared by the certification and check routines."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass


class PreconditionError(ValueError):
    """Inputs violate a check's hypotheses (distinct from the check failing)."""


class MgfDivergenceError(ValueError):
    """Exponential moment requested outside the distribution's finite region."""


def input_bytes(*parts) -> bytes:
    """The bytes an inputs hash takes in for ``parts``: each array's raw
    bytes, or any other part's repr, then b"|".  Callers that hash the
    same parts for many rows build them once."""
    return b"".join((part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
                    + b"|" for part in parts)


def inputs_prefix(*parts, prefix=None, encoded: bytes = b""):
    """The sha256 state after hashing ``parts`` (after ``prefix``'s parts,
    if given), then ``encoded``, bytes from ``input_bytes``; rows whose
    inputs begin alike hash the common parts once."""
    h = hashlib.sha256() if prefix is None else prefix.copy()
    h.update(input_bytes(*parts))
    h.update(encoded)
    return h


def inputs_hash(*parts, prefix=None, encoded: bytes = b"") -> str:
    """Stable short hash of heterogeneous check inputs, for report rows;
    with ``prefix`` from ``inputs_prefix(*head)``, the hash of head + parts."""
    return inputs_prefix(*parts, prefix=prefix, encoded=encoded).hexdigest()[:12]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single inequality check: value <= bound."""

    COLUMNS = ("name", "inputs_hash", "value", "bound", "slack", "passed")

    name: str
    value: float
    bound: float
    passed: bool
    inputs: str = ""  # inputs_hash of whatever was checked

    @property
    def slack(self) -> float:
        return self.bound - self.value

    def row(self) -> tuple:
        """The cells under ``COLUMNS``, for ``tableio``."""
        return (self.name, self.inputs, self.value, self.bound, self.slack, int(self.passed))


@dataclass(frozen=True)
class CertResult:
    """Outcome of a drift certification on one (state, vector) instance.

    ``value`` and the bounds share a common scaling of exp(-log_scale),
    applied when the raw potentials would overflow; log_scale is 0.0 in the
    ordinary regime.
    """

    COLUMNS = ("inputs_hash", "value", "bound", "bound_theorem", "slack", "log_scale",
               "passed", "passed_theorem")

    inputs: str
    value: float
    bound: float           # tight (4n) form
    bound_theorem: float   # relaxed (8n) form
    log_scale: float
    passed: bool
    passed_theorem: bool

    @property
    def slack(self) -> float:
        return self.bound - self.value

    def row(self) -> tuple:
        """The cells under ``COLUMNS``, for ``tableio``."""
        return (self.inputs, self.value, self.bound, self.bound_theorem, self.slack,
                self.log_scale, int(self.passed), int(self.passed_theorem))
