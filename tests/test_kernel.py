"""The compiled decision kernel against the exact path.

``step`` is the oracle.  ``_StepEngine``, the engine ``make_engine`` falls
back to without a compiler, runs it ball by ball on the draw chunks the
kernel reads, under the same rule: a decision needing k bins discards a
chunk holding fewer.  A seeded kernel engine draws its chunks itself, with
numpy's fill functions; it is compared with ``_StepEngine`` on the
``_ChunkSource`` of the same seed: loads with ``==``, the ball counts, and
the generator's state.  The full matrix of kinds, weight laws, tie rules
and sizes runs on chunks of 7 draws, so refills and discards come every
few balls; the same matrix checks the engine interface on both engines,
and on ``_BatchedEngine`` where a case can be batched.  One run per kind
on the real 16 384-draw chunks crosses a chunk boundary on each stream it
reads, save reset-memory's rare tie coins.  Chunks of 61 draws check every
weight law.  A scripted engine, which the kernel reads from arrays, replays
the exact path and fails where it fails: a first decision too short for
its script, a stream that runs dry.  The
threshold kinds' top set is stressed at both ends of t, on draws that
spread the loads wide, and at n = 1024.  Two engines of each family
advanced at once on two threads end as serial runs do, and so do three
batched engines on three threads.  A batched sweep is compared, byte for
byte, with the same sweep on the numpy rounds.  The library's name covers
numpy's archive, without which the kernel falls back.  The exact row sums are
compared with ``math.fsum`` bit for bit, with and without the kernel.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from binlab import kernel, processes
from binlab.cli import main
from binlab.core import new_state
from binlab.experiments import ExperimentConfig, sweep
from binlab.graphs import cycle_graph
from binlab.processes import (_CHUNK, _BatchedEngine, _ChunkSource, _Draws,
                              _n_edges, _ScriptSource, _source, _StepEngine,
                              make_engine, parse_process, sample_round, step)
from binlab.rng import make_generator
from binlab.tableio import dumps_csv
from binlab.weights import parse_weights


@pytest.fixture
def compiled():
    if kernel.load() is None:
        pytest.skip("no C compiler: make_engine runs the step fallback")


KINDS = ("one-choice", "two-choice", "d-choice:d=3", "one-plus-beta:beta=0.5",
         "quantile:delta=0.5", "twinning:delta=0.5", "penalty:delta=0.25",
         "reset-memory", "graphical")
UNIT_ONLY = ("twinning", "penalty")
BATCHED_KINDS = ("one-choice", "two-choice", "d-choice", "one-plus-beta", "quantile")
TARGETS = (1, 100, 600)

CASES = [(k, w, tie, n)
         for k, w, tie, n in itertools.product(
             KINDS, ("unit", "exp1", "geom:p=0.5"), ("higher-index", "random"),
             (4, 16, 1024))
         if w == "unit" or k.partition(":")[0] not in UNIT_ONLY]


def _spec(text, wtext="unit", tie="higher-index", n=16):
    graph = cycle_graph(n) if text == "graphical" else None
    return parse_process(text, weights=parse_weights(wtext), graph=graph,
                         tie_rule=tie)


def _fallback(spec, n, rng=None, source=None):
    return _StepEngine(spec, n, _source(spec, n, rng, source))


def _same(eng, ref):
    return list(eng.loads) == list(ref.loads) and eng.balls == ref.balls


# balls an advance may run past its target: the most one round allocates
OVERSHOOT = {"twinning": 2, "penalty": 2, "reset-memory": 2}
BATCH = 7


def _advance_checked(eng, target, overshoot, unit):
    """``eng.advance(target)``, checking the engine interface on the way."""
    before = (eng.balls, list(eng.loads))
    eng.advance(eng.balls)  # a target at or below balls is a no-op
    eng.advance(0)
    assert (eng.balls, list(eng.loads)) == before
    eng.advance(target)
    assert target <= eng.balls < target + overshoot
    if unit:
        assert eng.loads.sum() == eng.balls


def _plain(state):
    """A bit generator's state with its arrays as lists, for ``==``."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


# chunks of 7 draws: decisions needing two or three bins often find fewer
# left and must discard them
SHORT_CHUNK = 7


@pytest.mark.parametrize("text,wtext,tie,n", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_kernel_matches_reference(compiled, monkeypatch, text, wtext, tie, n):
    monkeypatch.setattr(processes, "_CHUNK", SHORT_CHUNK)
    spec = _spec(text, wtext, tie, n)
    rng, ref_rng = make_generator(41, n), make_generator(41, n)
    eng, ref = make_engine(spec, n, rng), _fallback(spec, n, ref_rng)
    assert isinstance(eng, kernel.KernelEngine)
    unit, over = wtext == "unit", OVERSHOOT.get(spec.kind, 1)
    batched = None
    if unit and tie == "higher-index" and spec.kind in BATCHED_KINDS:
        batched = _BatchedEngine(spec, n, BATCH, make_generator(41, n))
    for target in TARGETS:
        _advance_checked(eng, target, over, unit)
        _advance_checked(ref, target, over, unit)
        assert _same(eng, ref), (text, wtext, tie, n, target)
        assert _plain(rng.bit_generator.state) == _plain(ref_rng.bit_generator.state)
        if batched is not None:
            _advance_checked(batched, target, BATCH, unit)
            assert batched.balls % BATCH == 0


class _CountingChunks(_ChunkSource):
    """The seeded chunks of a run, counting the fetches of each stream."""

    def __init__(self, *args):
        super().__init__(*args)
        self.fetches = dict.fromkeys(("bins", "edges", "floats", "weights"), 0)

    def _count(self, stream, chunk):
        self.fetches[stream] += 1
        return chunk

    def bins(self):
        return self._count("bins", super().bins())

    def edges(self):
        return self._count("edges", super().edges())

    def floats(self):
        return self._count("floats", super().floats())

    def weights(self):
        return self._count("weights", super().weights())


# kind, weights, n, balls, and the streams whose reads cross a _CHUNK
# boundary; random ties throughout.  poisson:l=0.5 weights are whole, so
# ties, and with them tie coins, stay common.  reset-memory reads a tie
# coin only about every 20 balls, so its floats would need ~360 000 balls.
ACROSS_CHUNKS = [
    ("one-choice", "poisson:l=0.5", 4, 40000, {"bins", "weights"}),
    ("two-choice", "poisson:l=0.5", 8, 84000, {"bins", "floats", "weights"}),
    ("d-choice:d=3", "poisson:l=0.5", 8, 44000, {"bins", "floats", "weights"}),
    ("one-plus-beta:beta=0.5", "poisson:l=0.5", 4, 40000,
     {"bins", "floats", "weights"}),
    ("quantile:delta=0.5", "poisson:l=0.5", 4, 40000, {"bins", "weights"}),
    ("twinning:delta=0.5", "unit", 4, 40000, {"bins"}),
    ("penalty:delta=0.25", "unit", 4, 40000, {"bins"}),
    ("reset-memory", "poisson:l=0.5", 4, 40000, {"bins", "weights"}),
    ("graphical", "poisson:l=0.5", 3, 52000, {"edges", "floats", "weights"}),
]


@pytest.mark.parametrize("text,wtext,n,target,streams", ACROSS_CHUNKS,
                         ids=[c[0] for c in ACROSS_CHUNKS])
def test_kernel_matches_step_across_chunks(compiled, text, wtext, n, target, streams):
    spec = _spec(text, wtext, "random", n)
    src = _CountingChunks(make_generator(5, n), n, spec.weights, _n_edges(spec))
    eng = make_engine(spec, n, make_generator(5, n))
    ref = _StepEngine(spec, n, src)
    eng.advance(target)
    ref.advance(target)
    assert _same(eng, ref)
    assert {s for s, k in src.fetches.items() if k > 1} == streams


# seeded engines draw their chunks in the kernel, with numpy's own fill
# functions; _StepEngine on a _ChunkSource of the same seed draws them
# through Generator.  Chunks of 61 draws put many boundaries within a few
# hundred balls, and leave an odd count of the 32-bit halves that Philox
# buffers for small bounds.
LAWS = ("unit", "exp1", "geom:p=0.5", "poisson:l=2")
NATIVE_CASES = [(k, w, tie) for k, w, tie in itertools.product(
                    KINDS, LAWS, ("higher-index", "random"))
                if w == "unit" or k.partition(":")[0] not in UNIT_ONLY]


def _draws_match(spec, n, seed, targets):
    """A seeded kernel engine and ``_StepEngine`` on the ``_ChunkSource`` of
    the same seed: equal loads, and equal generator states, at each target."""
    rng, ref_rng = make_generator(seed, n), make_generator(seed, n)
    eng, ref = make_engine(spec, n, rng), _fallback(spec, n, ref_rng)
    assert isinstance(eng, kernel.KernelEngine)
    for target in targets:
        eng.advance(target)
        ref.advance(target)
        assert _same(eng, ref), target
        assert _plain(rng.bit_generator.state) == _plain(ref_rng.bit_generator.state)


@pytest.mark.parametrize("text,wtext,tie", NATIVE_CASES,
                         ids=["-".join(c) for c in NATIVE_CASES])
def test_kernel_draws_match_chunk_source(compiled, monkeypatch, text, wtext, tie):
    monkeypatch.setattr(processes, "_CHUNK", 61)
    n = 12  # bins and the 12-cycle's edges: a bound that is not a power of two
    # each advance reads more than three chunks of bins, and of weights
    _draws_match(_spec(text, wtext, tie, n), n, 23, (200, 500, 1000))


@pytest.mark.parametrize("text,n,targets,chunk", [
    ("d-choice:d=100", 12, (3, 10, 40), 61),  # every ball takes a fresh chunk of d bins
    (f"d-choice:d={_CHUNK + 5}", 12, (2, 5), _CHUNK),
    ("one-choice", 1, (200, 500), 61),  # bound 1: numpy draws no bins at all
    ("two-choice", 1, (200, 500), 61),
    ("reset-memory", 1, (200, 500), 61),
])
def test_kernel_draws_match_chunk_source_at_the_edges(compiled, monkeypatch, text, n,
                                                      targets, chunk):
    monkeypatch.setattr(processes, "_CHUNK", chunk)
    for wtext, tie in (("unit", "random"), ("poisson:l=2", "higher-index")):
        _draws_match(_spec(text, wtext, tie, n), n, 29, targets)


def test_long_seeded_advance_stops_on_ctrl_c(compiled):
    # a seeded engine runs no Python inside binlab_advance, so advance
    # slices a long run into calls, and Ctrl-C lands between two of them
    code = ("from binlab.processes import make_engine, parse_process\n"
            "from binlab.rng import make_generator\n"
            "eng = make_engine(parse_process('two-choice'), 64, make_generator(1))\n"
            "eng.advance(1)\n"
            "print('ready', flush=True)\n"
            "try:\n"
            "    eng.advance(1 << 40)\n"  # hours of balls
            "except KeyboardInterrupt:\n"
            "    print('interrupted at', eng.balls, flush=True)\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert out.startswith("interrupted at ") and int(out.split()[-1]) < 1 << 40


RANDOM_TIE_CASES = [("two-choice", "unit"), ("d-choice:d=3", "unit"),
                    ("one-plus-beta:beta=0.5", "exp1"), ("reset-memory", "unit"),
                    ("reset-memory", "geom:p=0.5"), ("graphical", "unit"),
                    ("graphical", "exp1")]


@pytest.mark.parametrize("text,wtext", RANDOM_TIE_CASES)
def test_kernel_replays_exact_path_with_random_ties(compiled, text, wtext):
    n, target = 4, 300  # few bins: ties and tie coins on most steps
    spec = _spec(text, wtext, "random", n)
    rng = make_generator(7, len(text), len(wtext))
    bins = rng.integers(0, n, size=1600).tolist()
    floats = rng.random(800).tolist()
    ws = spec.weights.sample(rng, 800).tolist()
    edges = rng.integers(0, n, size=400).tolist()  # a 4-cycle has 4 edges

    state = new_state(n)
    draws = _Draws(n, spec.weights, n_edges=_n_edges(spec), source=_ScriptSource(
        bins=bins, floats=floats, weights=ws, edges=edges))
    balls = 0
    while balls < target:
        balls += len(step(spec, state, draws=draws))
    eng = make_engine(spec, n, source=_ScriptSource(bins=bins, floats=floats,
                                                    weights=ws, edges=edges))
    eng.advance(target)
    assert eng.balls == balls
    assert list(eng.loads) == list(state.loads)


@pytest.mark.parametrize("text", KINDS)
def test_short_chunks_discard_like_reference(compiled, monkeypatch, text):
    # step itself, not through _StepEngine, over the kernel's chunks
    monkeypatch.setattr(processes, "_CHUNK", SHORT_CHUNK)
    n = 16
    wtext = "unit" if text.partition(":")[0] in UNIT_ONLY else "exp1"
    spec = _spec(text, wtext, "random", n)
    eng = make_engine(spec, n, make_generator(2))
    eng.advance(500)
    state = new_state(n)
    draws = _Draws(n, spec.weights, n_edges=_n_edges(spec),
                   source=_source(spec, n, make_generator(2), None))
    balls = 0
    while balls < 500:
        balls += len(step(spec, state, draws=draws))
    assert eng.balls == balls
    assert list(eng.loads) == list(state.loads)


def test_script_exhaustion_raises_through_kernel(compiled):
    eng = make_engine(_spec("two-choice"), 16, source=_ScriptSource(bins=[0, 1, 2, 3]))
    assert isinstance(eng, kernel.KernelEngine)
    with pytest.raises(ValueError, match="scripted bins exhausted"):
        eng.advance(10)


# scripts the exact path refuses part-way: (kind, weights, script, the
# error, the balls allocated before it)
FAILING_SCRIPTS = [
    ("two-choice", "unit", dict(bins=[3]), IndexError, "shorter", 0),
    ("d-choice:d=3", "unit", dict(bins=[0, 1, 2, 3, 1]), ValueError,
     "scripted bins exhausted", 1),
    ("one-choice", "unit", dict(), ValueError, "scripted bins exhausted", 0),
    ("reset-memory", "unit", dict(bins=[2]), IndexError, "shorter", 0),
    # one-plus-beta reads a float first, and it decides one bin or two
    ("one-plus-beta:beta=0.5", "unit", dict(bins=[1], floats=[0.25]), IndexError,
     "shorter", 0),
    ("one-plus-beta:beta=0.5", "unit", dict(bins=[1, 2], floats=[0.75, 0.25]),
     ValueError, "scripted bins exhausted", 1),
    ("one-plus-beta:beta=0.5", "unit", dict(bins=[1, 2, 3], floats=[0.75, 0.75]),
     ValueError, "scripted floats exhausted", 2),
    ("two-choice", "exp1", dict(bins=[0, 1, 2, 3], weights=[0.5]), ValueError,
     "scripted weights exhausted", 1),
    # the second ball's weight is missing: neither ball of the round lands
    ("reset-memory", "exp1", dict(bins=[0, 1, 2, 3], weights=[0.5, 0.25, 0.125]),
     ValueError, "scripted weights exhausted", 2),
    ("graphical", "unit", dict(edges=[0, 1, 2], bins=[0] * 9), ValueError,
     "scripted edges exhausted", 3),
]


@pytest.mark.parametrize("text,wtext,script,error,match,balls", FAILING_SCRIPTS,
                         ids=[f"{c[0]}-{c[4].replace(' ', '-')}" for c in FAILING_SCRIPTS])
def test_script_fails_alike_on_kernel_and_step(compiled, text, wtext, script, error,
                                               match, balls):
    n = 4
    spec = _spec(text, wtext, n=n)
    engines = (make_engine(spec, n, source=_ScriptSource(**script)),
               _fallback(spec, n, source=_ScriptSource(**script)))
    assert isinstance(engines[0], kernel.KernelEngine)
    for eng in engines:
        with pytest.raises(error, match=match):
            eng.advance(10)
    assert _same(*engines) and engines[0].balls == balls


@pytest.mark.parametrize("m", [1 << 63, (1 << 64) + 16])
def test_ball_target_outside_int64_is_an_error(compiled, tmp_path, capsys, m):
    # ctypes would wrap these to int64: 2^63 to a negative target (a row at
    # step 0), 2^64 + 16 to 16 balls
    eng = make_engine(_spec("two-choice"), 16, make_generator(1))
    with pytest.raises(ValueError, match="outside"):
        eng.advance(m)
    assert eng.balls == 0
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"processes = two-choice\nns = 8\nm = {m}\n")
    out = tmp_path / "runs.csv"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 1
    assert "outside [0, 2^63)" in capsys.readouterr().err
    assert not out.exists()


def test_ball_target_check_runs_before_any_engine(tmp_path):
    # without the kernel, _StepEngine and _BatchedEngine would count towards
    # 2^63 for ever: every path must refuse the target first
    code = ("import sys\n"
            "from binlab import kernel\n"
            "from binlab.cli import main\n"
            "from binlab.processes import parse_process, run, run_batched\n"
            "kernel.load = lambda: None\n"
            "spec, m = parse_process('two-choice'), 1 << 63\n"
            "for go in (lambda: run(spec, 8, m, 1), lambda: run_batched(spec, 8, m, 8, 1)):\n"
            "    try:\n"
            "        go()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "print([main(args.split()) for args in sys.argv[1:]])\n")
    common = f"ns = 8\nm = {1 << 63}\n"
    per_ball, batched = tmp_path / "per-ball.cfg", tmp_path / "batched.cfg"
    per_ball.write_text("processes = two-choice,twinning:delta=0.5\n" + common)
    batched.write_text("processes = two-choice\nbatches = 1n\n" + common)
    out = tmp_path / "out.csv"
    commands = (f"simulate {per_ball} --out {out}", f"simulate {batched} --out {out}",
                f"drift-check {per_ball} --out {out} --checks-out {out}")
    proc = subprocess.run([sys.executable, "-c", code, *commands], timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[-2] == "[1, 1, 1]"
    assert proc.stdout.count("outside [0, 2^63)") == 2  # run, run_batched
    assert proc.stderr.count("outside [0, 2^63)") == 3
    assert not out.exists()


def test_engine_struct_matches_kernel(compiled):
    # a field added on one side only would shift every field after it
    assert kernel.load().binlab_engine_size() == ctypes.sizeof(kernel._Engine)


def _skewed_bins(seed, n, count):
    """Bins of which nine in ten hit ids 0-2: their loads run far ahead, the
    spread grows wide, and the top set's weakest member often has to jump
    over loads no bin holds."""
    rng = make_generator(seed, n)
    bins = rng.integers(0, n, size=count)
    hot = rng.random(count) < 0.9
    bins[hot] = rng.integers(0, 3, size=int(hot.sum()))
    return bins.tolist()


POINTER_CASES = [(k, w, t, skewed)
                 for k, w in (("quantile", "unit"), ("twinning", "unit"),
                              ("penalty", "unit"), ("quantile", "poisson:l=0.3"))
                 for t in (1, 2, 8, 15) for skewed in (True, False)]


@pytest.mark.parametrize("kind,wtext,t,skewed", POINTER_CASES,
                         ids=["-".join(map(str, c)) for c in POINTER_CASES])
def test_top_set_matches_step(compiled, kind, wtext, t, skewed):
    # t = 1 and t = n - 1 are the ends of the top set's range; poisson
    # weights are 0 on three balls in four, so a ball often leaves a load,
    # the weakest member's included, where it was
    n, count = 16, 4000
    spec = _spec(f"{kind}:delta={t / n}", wtext, n=n)
    rng = make_generator(11, t, skewed)
    bins = _skewed_bins(t, n, count) if skewed else rng.integers(0, n, count).tolist()
    script = dict(bins=bins, weights=spec.weights.sample(rng, count).tolist())
    eng = make_engine(spec, n, source=_ScriptSource(**script))
    ref = _fallback(spec, n, source=_ScriptSource(**script))
    eng.advance(count // 2 - 1)  # a decision reads at most two bins
    ref.advance(count // 2 - 1)
    assert _same(eng, ref)
    if skewed:
        assert eng.loads.max() - eng.loads.min() > 100


@pytest.mark.parametrize("text", ["quantile:delta=0.5", "twinning:delta=0.5",
                                  "penalty:delta=0.25"])
def test_threshold_kinds_match_step_at_scale(compiled, text):
    n = 1024
    spec = _spec(text, n=n)
    eng = make_engine(spec, n, make_generator(9, n))
    ref = _fallback(spec, n, make_generator(9, n))
    eng.advance(20 * n)
    ref.advance(20 * n)
    assert _same(eng, ref)


REENTRANT = [("two-choice", "unit"), ("one-plus-beta:beta=0.5", "unit"),
             ("quantile:delta=0.5", "unit"), ("quantile:delta=0.5", "exp1"),
             ("twinning:delta=0.5", "unit"), ("penalty:delta=0.25", "unit"),
             ("reset-memory", "unit"), ("reset-memory", "geom:p=0.5"),
             ("graphical", "unit"), ("graphical", "poisson:l=2")]


def _advance_on_threads(build, seeds, m, parts=8):
    """Engines built by ``build(seed)``, advanced to m in ``parts`` steps on
    one thread each, all at once, against serial runs of theirs."""
    serial = []
    for seed in seeds:
        serial.append(build(seed))
        serial[-1].advance(m)
    engines = [build(seed) for seed in seeds]
    gate, errors = threading.Barrier(len(seeds)), []

    def go(eng):
        try:
            gate.wait()
            for target in range(m // parts, m + 1, m // parts):
                eng.advance(target)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=go, args=(eng,)) for eng in engines]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert all(_same(eng, ref) for eng, ref in zip(engines, serial))


@pytest.mark.parametrize("text,wtext", REENTRANT, ids=[f"{t}-{w}" for t, w in REENTRANT])
def test_engines_advance_on_two_threads_at_once(compiled, text, wtext):
    # the kernel keeps no global state and releases the GIL inside
    # binlab_advance, so two engines advanced at once, on two threads, end
    # where serial runs of theirs end
    n = 256
    spec = _spec(text, wtext, n=n)
    _advance_on_threads(lambda seed: make_engine(spec, n, make_generator(seed, n)),
                        (1, 2), 400 * n)


def test_batched_engines_advance_on_threads_at_once(compiled):
    # binlab_batched_rounds draws under each generator's lock with the GIL
    # released, and every engine of a cell reads one cached table: three
    # engines on three threads, switching often, end as serial runs do
    n, interval = 256, sys.getswitchinterval()
    spec = _spec("two-choice", n=n)
    sys.setswitchinterval(1e-5)
    try:
        _advance_on_threads(lambda seed: _BatchedEngine(spec, n, 4 * n, make_generator(seed, n)),
                            (1, 2, 3), 400 * n, parts=50)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("d,tie", [(300, "higher-index"), (300, "random"),
                                   (_CHUNK + 5, "higher-index")])
def test_d_choice_beyond_any_fixed_buffer(compiled, d, tie):
    # d above the chunk size: each ball takes a fresh chunk of d bins
    spec = parse_process(f"d-choice:d={d}", tie_rule=tie)
    n, target = 16, 40 if d > _CHUNK else 400
    eng = make_engine(spec, n, make_generator(3, d))
    ref = _fallback(spec, n, make_generator(3, d))
    eng.advance(target)
    ref.advance(target)
    assert _same(eng, ref)


def test_d_choice_compares_all_d_candidates(monkeypatch):
    d = _CHUNK + 5
    seen = []
    lightest = processes._lightest

    def spy(loads, cands):
        seen.append(len(cands))
        return lightest(loads, cands)

    monkeypatch.setattr(processes, "_lightest", spy)
    _fallback(parse_process(f"d-choice:d={d}"), 16, make_generator(3, d)).advance(3)
    assert seen == [d] * 3


# one to three balls on a scripted source, through each per-ball path

def _run_make_engine(spec, n, source):
    make_engine(spec, n, source=source).advance(3)


def _run_kernel(spec, n, source):
    if kernel.load() is None:
        pytest.skip("no C compiler")
    _run_make_engine(spec, n, source)


def _run_fallback(spec, n, source):
    _fallback(spec, n, source=source).advance(3)


def _run_sample_round(spec, n, source):
    sample_round(spec, new_state(n), draws=_Draws(
        n, spec.weights, n_edges=_n_edges(spec), source=source))


@pytest.mark.parametrize("run", [_run_make_engine, _run_fallback, _run_sample_round],
                         ids=["make_engine", "fallback", "sample_round"])
def test_chunk_shorter_than_a_decision_raises(run):
    for text, bins in (("d-choice:d=3", [0, 1]), ("two-choice", [0])):
        with pytest.raises(IndexError, match="shorter"):
            run(parse_process(text), 4, _ScriptSource(bins=bins))


@pytest.mark.parametrize("run", [_run_kernel, _run_fallback, _run_sample_round],
                         ids=["kernel", "fallback", "sample_round"])
def test_draw_out_of_range_raises(run):
    for text, script in (("two-choice", dict(bins=[0, 9])),
                         ("two-choice", dict(bins=[-1, 0])),
                         ("one-choice", dict(bins=[-1, -1, -2])),
                         ("graphical", dict(edges=[4, 0]))):  # a 4-cycle has 4 edges
        with pytest.raises(IndexError, match="draw out of range"):
            run(_spec(text, n=4), 4, _ScriptSource(**script))


@pytest.fixture
def no_compiler(monkeypatch):
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    kernel.load.cache_clear()
    yield
    kernel.load.cache_clear()


def _small_sweep() -> str:
    # every decision family of the kernel: choice, threshold, reset, graph
    common = dict(ns=(16, 64), m="20n", reps=2, seed=5, gamma="0.1", thresholds=(1.0,))
    cfgs = (ExperimentConfig(processes=("twinning:delta=0.5", "one-plus-beta:beta=0.5",
                                        "reset-memory"), **common),
            ExperimentConfig(processes=("d-choice:d=3",), weights="exp1", **common),
            ExperimentConfig(processes=("graphical",), graph="cycle", **common),
            # random ties, and the rank threshold tests that read state.rank(b)
            ExperimentConfig(processes=("two-choice", "quantile:delta=0.5",
                                        "penalty:delta=0.25"), tie_rule="random", **common))
    return "".join(dumps_csv(sweep(cfg)) for cfg in cfgs)


def test_fallback_without_compiler(compiled, request):
    expect = _small_sweep()
    request.getfixturevalue("no_compiler")
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        eng = make_engine(_spec("two-choice"), 16, make_generator(1))
    assert isinstance(eng, _StepEngine)
    assert _small_sweep() == expect


def test_batched_simulate_without_kernel_is_byte_equal(compiled, tmp_path, monkeypatch):
    cfg = tmp_path / "batched.cfg"
    cfg.write_text("processes = two-choice,quantile:delta=0.25\nns = 16,40\n"
                   "m = 30b\nreps = 3\nseed = 7\nbatches = 1n,3n\n"
                   "gamma = 0.5\nthresholds = 1,2\nkeep = trajectory\n")
    applied = []
    batched_rounds = kernel.batched_rounds
    monkeypatch.setattr(kernel, "batched_rounds",
                        lambda *a: applied.append(1) or batched_rounds(*a))
    out, calls = [], []
    for name in ("kernel.csv", "numpy.csv"):
        assert main(["simulate", str(cfg), "--out", str(tmp_path / name)]) == 0
        out.append((tmp_path / name).read_bytes())
        calls.append(len(applied))
        monkeypatch.setattr(kernel, "load", lambda: None)
    assert calls[0] > 0 and calls[1] == calls[0]  # only the first pass ran the kernel
    assert out[0] == out[1]


def test_build_digest_covers_numpys_archive(tmp_path):
    one, two = tmp_path / "a.a", tmp_path / "b.a"
    one.write_bytes(b"archive")
    two.write_bytes(b"archive")
    digest = kernel._digest(str(one))
    assert kernel._digest(str(one)) == digest
    assert kernel._digest(str(two)) != digest  # another path
    one.write_bytes(b"archive, upgraded")
    assert kernel._digest(str(one)) != digest  # other bytes


def test_missing_numpy_archive_falls_back(compiled, monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "_archive", lambda: str(tmp_path / "libnpyrandom.a"))
    kernel.load.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="libnpyrandom.a is missing"):
            assert kernel.load() is None
    finally:
        kernel.load.cache_clear()


def test_kernel_built_on_first_engine_not_at_import(tmp_path):
    code = ("import os, sys\n"
            "import binlab.cli\n"
            "from binlab.processes import make_engine, parse_process\n"
            "from binlab.rng import make_generator\n"
            "cache = os.path.join(sys.argv[1], 'binlab')\n"
            "print(os.path.exists(cache))\n"
            "make_engine(parse_process('two-choice'), 8, make_generator(1))\n"
            "print(sorted(f.endswith('.so') for f in os.listdir(cache)))\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert out[0] == "False"
    if kernel._compiler() is not None:
        assert out[1] == "[True]"  # one library, no temp file left behind


# -- exact row sums ----------------------------------------------------------------

def _fsum_corpus() -> list[list[float]]:
    rng = make_generator(17, 3)
    tiny = 5e-324
    rows = [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [tiny], [-tiny, tiny, tiny],
        [2.2250738585072014e-308, -tiny, 1e-310],          # subnormals
        [1e16, 1.0, -1e16], [1e100, 1.0, -1e100, 1e-100],   # cancellation
        [1e308, -1e308, 1e-308], [1.7976931348623157e308, -1.7976931348623157e308, 3.0],
        [1.0, 2.0 ** -53], [1.0, -(2.0 ** -54)], [1.0, 2.0 ** -53, 2.0 ** -106],  # ties
        [1e-16, 1.0, 1e16], [-1e-16, -1.0, -1e16], [2.0 ** 53, 1.0, -(2.0 ** -60)],
        [2.0 ** 53, 1.0, 2.0 ** -60], [3.0, 2.0 ** 53, -(2.0 ** -60), 1.0],
        [2.0 ** (20 * k) for k in range(-50, 51)],          # more partials than C keeps
    ]
    for length in (1, 2, 7, 33, 255):
        mags = 10.0 ** rng.integers(-300, 301, size=length)
        rows.append((rng.normal(size=length) * mags).tolist())
        half = rng.normal(size=length) * 1e16
        rows.append(np.concatenate([half, -half[::-1], rng.normal(size=3)]).tolist())
        rows.append(np.ldexp(rng.choice([-1.0, 1.0], size=length),
                             rng.integers(-1074, 1000, size=length)).tolist())
    return rows


@pytest.fixture(params=["kernel", "fallback"])
def fsum_engine(request, monkeypatch):
    if request.param == "kernel" and kernel.load() is None:
        pytest.skip("no C compiler: fsum_rows runs math.fsum")
    if request.param == "fallback":
        monkeypatch.setattr(kernel, "load", lambda: None)
    return request.param


def test_fsum_rows_is_math_fsum_bit_for_bit(fsum_engine):
    for row in _fsum_corpus():
        got = kernel.fsum_rows(np.array([row], dtype=float).reshape(1, len(row)))
        assert got.shape == (1,)
        assert float(got[0]).hex() == math.fsum(row).hex(), row
    # one matrix of equal-length rows: lengths 0, 1 and odd
    rng = make_generator(17, 4)
    for length in (0, 1, 5, 1001):
        a = rng.normal(size=(9, length)) * 10.0 ** rng.integers(-300, 301, size=(9, length))
        a[1] = -a[0]
        want = [math.fsum(r) for r in a.tolist()]
        assert [x.hex() for x in kernel.fsum_rows(a).tolist()] == [x.hex() for x in want]


@pytest.mark.parametrize("row", [
    [math.inf, 1.0], [1.0, -math.inf, 2.0], [math.inf, math.inf], [math.nan, 1.0],
    [1.0, math.inf, math.nan], [math.inf, -math.inf], [1e308, 1e308],
    [-1e308, 1.0, -1e308, 1e308], [math.inf, 1e308, 1e308]])
def test_fsum_rows_special_rows_are_math_fsum(fsum_engine, row):
    try:
        want = math.fsum(row)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            kernel.fsum_rows(np.array([row]))
        return
    # a finite row beside a special one keeps the kernel's value
    got = kernel.fsum_rows(np.array([row, [0.5] * len(row)]))
    assert float(got[0]).hex() == want.hex()
    assert got[1] == math.fsum([0.5] * len(row))
