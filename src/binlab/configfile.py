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

from .experiments import ExperimentConfig

_LIST_KEYS = {"processes", "ns", "batches", "thresholds", "probe_steps"}
_INT_KEYS = {"reps", "seed"}
_STR_KEYS = {"m", "weights", "gamma", "tie_rule", "graph", "keep"}


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
        value = value.strip()
        if key in kw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "ns":
                kw[key] = tuple(int(v) for v in items)
            elif key == "thresholds":
                kw[key] = tuple(float(v) for v in items)
            elif key == "probe_steps":
                kw[key] = tuple(int(v) for v in items)
            else:
                kw[key] = tuple(items)
        elif key in _INT_KEYS:
            kw[key] = int(value)
        elif key in _STR_KEYS:
            kw[key] = value
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if "processes" not in kw:
        raise ValueError("config needs a processes= line")
    if "ns" not in kw:
        raise ValueError("config needs an ns= line")
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
