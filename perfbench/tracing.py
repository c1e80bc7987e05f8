"""Spans for the traced benchmark run.

The child side (``install``) wraps binlab's public functions at every
module binding that refers to them, because most call sites use names bound
by ``from .x import y`` and wrapping only the defining module would miss
them.  Engine ``advance`` is wrapped on each object ``make_engine`` returns.
Spans (name, start, end, parent, count) are kept in flat arrays in memory
and written out once, when the command ends.

The run.py side (``span_totals``) turns a span file into per-name call
counts, total time and self time: a span's duration minus the time its
direct children cover.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array

# (span name, defining module, attribute, work count taken from the call)
# A count function gets (result, bound arguments) and returns a number.
TRACED = (
    ("configfile.load_config", "binlab.configfile", "load_config", None),
    ("experiments.sweep", "binlab.experiments", "sweep", lambda res, a: len(res)),
    ("experiments.aggregate", "binlab.experiments", "aggregate", None),
    ("processes.run", "binlab.processes", "run", lambda res, a: len(res)),
    ("processes.run_batched", "binlab.processes", "run_batched",
     lambda res, a: res[-1].step if res else 0),
    ("processes.snapshot", "binlab.processes", "_snapshot", None),
    ("processes.step", "binlab.processes", "step", None),
    ("processes.sample_round", "binlab.processes", "sample_round", None),
    ("rng.make_generator", "binlab.rng", "make_generator", None),
    ("potentials.certify_drift", "binlab.potentials", "certify_drift", None),
    ("potentials.drift_step_bound_check", "binlab.potentials",
     "drift_step_bound_check", lambda res, a: a["trials"]),
    ("graphs.build_graph", "binlab.graphs", "build_graph", None),
    ("graphs.conductance_bounds", "binlab.graphs", "conductance_bounds", None),
    ("graphs.conductance_exact", "binlab.graphs", "conductance_exact", None),
    ("tableio.write_csv", "binlab.tableio", "write_csv",
     lambda res, a: os.path.getsize(a["path"])),
)


class SpanRecorder:
    """Nested spans of one single-threaded process, in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.count.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, count: float = 0.0) -> None:
        self.end[i] = time.perf_counter()
        self.count[i] = count
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)
        self.count.append(0.0)

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "n": len(self.name)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.count):
                arr.tofile(fh)


def _span(rec: SpanRecorder, name: str, fn, count_fn):
    nid = rec.name_id(name)
    sig = inspect.signature(fn) if count_fn else None

    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        count = 0.0
        try:
            res = fn(*args, **kwargs)
            if count_fn:
                count = count_fn(res, sig.bind(*args, **kwargs).arguments)
            return res
        finally:
            rec.close(i, count)

    return wrapper


def _rebind_everywhere(orig, replacement) -> int:
    """Point every binlab module global that names ``orig`` at ``replacement``."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "binlab" or modname.startswith("binlab.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
                hits += 1
    return hits


def _traced_engines(rec: SpanRecorder, make_engine):
    def wrapper(*args, **kwargs):
        eng = make_engine(*args, **kwargs)
        nid = rec.name_id(f"processes.engine_advance.{eng.spec.kind}")
        advance = eng.advance

        def traced_advance(target):
            before = eng.balls
            i = rec.open(nid)
            try:
                return advance(target)
            finally:
                rec.close(i, eng.balls - before)

        eng.advance = traced_advance
        return eng

    return wrapper


def install(rec: SpanRecorder) -> None:
    """Wrap the traced functions; binlab.cli must already be imported."""
    for name, modname, attr, count_fn in TRACED:
        orig = getattr(sys.modules[modname], attr)
        if _rebind_everywhere(orig, _span(rec, name, orig, count_fn)) == 0:
            raise RuntimeError(f"no binding of {modname}.{attr} to trace")
    make_engine = sys.modules["binlab.processes"].make_engine
    _rebind_everywhere(make_engine, _traced_engines(rec, make_engine))
    load_state = sys.modules["binlab.core"].LoadState
    load_state.apply_allocation = _span(
        rec, "core.apply_allocation", load_state.apply_allocation, None)


def span_totals(path) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s and the summed work count."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        cols = []
        for code in ("i", "i", "d", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    name, parent, start, end, count = cols
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += dur[i]
    totals: dict[str, dict[str, float]] = {}
    for i in range(n):
        t = totals.setdefault(header["names"][name[i]],
                              {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})
        t["calls"] += 1
        t["total_s"] += dur[i]
        t["self_s"] += dur[i] - covered[i]
        t["count"] += count[i]
    return totals
