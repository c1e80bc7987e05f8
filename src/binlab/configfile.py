"""Flat key=value config files for sweeps and drift checks.

One `key = value` per line; `#` starts a comment; lists are
comma-separated.  Unknown keys are errors, so typos fail loudly instead of
silently running a default.

Schema (defaults in parentheses):

    processes    comma list of process specs, e.g. two-choice,one-plus-beta:beta=0.5
    ns           comma list of bin counts, e.g. 256,1024
    m            ball budget: absolute, <k>n, <k>nlogn, or <k>b ("100n")
    reps         repetitions per point (1)
    seed         master seed (0)
    weights      unit | exp1 | geom:p=<p> | poisson:l=<l> ("unit")
    batches      comma list of batch sizes, 0 = sequential; scaled forms
                 like 2n allowed ("0")
    gamma        "", "auto" (= eps*delta/(16*C*S)), or a finite number > 0 ("")
    thresholds   comma list of finite overload thresholds z ("")
    probe_steps  explicit probe ball counts >= 0; default every n plus final
    tie_rule     higher-index | random ("higher-index")
    graph        for graphical processes: complete | cycle | hypercube |
                 torus-grid | random-regular:d=<d> ("")
    keep         final | trajectory ("final")
"""
from __future__ import annotations

import dataclasses
import typing

from .experiments import ExperimentConfig


def _parser(hint):
    """The function that turns a value's text into a field of type ``hint``:
    ``X | None`` parses as X, and ``tuple[X, ...]`` as a comma list of X."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return lambda text: tuple(args[0](v.strip()) for v in text.split(",") if v.strip())
    return _parser(args[0]) if args else hint


# ExperimentConfig owns the schema: its fields are the keys, the fields
# without a default the required ones, and their types the value parsers
_PARSERS = {key: _parser(hint)
            for key, hint in typing.get_type_hints(ExperimentConfig).items()}
_REQUIRED = tuple(f.name for f in dataclasses.fields(ExperimentConfig)
                  if f.default is dataclasses.MISSING)


def parse_config_text(text: str) -> ExperimentConfig:
    kw: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in kw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kw[key] = _PARSERS[key](value.strip())
    for key in _REQUIRED:
        if key not in kw:
            raise ValueError(f"config lacks required key {key!r}")
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
