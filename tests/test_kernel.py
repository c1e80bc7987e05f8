"""The compiled decision kernel against the Python reference engines.

Every kernel run is compared with the Python engine built on the same seed:
loads with ``==``, and the ball and step counts.  The advance targets cross
the 16 384-draw chunk boundary, so refills and the rule that a decision
discards a chunk too short for it are exercised on both paths.  A batched
sweep is compared, byte for byte, with the same sweep on the numpy rounds.
"""
from __future__ import annotations

import itertools
import os
import subprocess
import sys

import pytest

from binlab import kernel, processes
from binlab.cli import main
from binlab.core import new_state
from binlab.experiments import ExperimentConfig, sweep
from binlab.graphs import cycle_graph
from binlab.processes import (_CHUNK, _Draws, _ScriptSource, make_engine,
                              parse_process, reference_engine, step)
from binlab.rng import make_generator
from binlab.tableio import dumps_csv
from binlab.weights import parse_weights


@pytest.fixture
def compiled():
    if kernel.load() is None:
        pytest.skip("no C compiler: make_engine runs the Python engines")


KINDS = ("one-choice", "two-choice", "d-choice:d=3", "one-plus-beta:beta=0.5",
         "quantile:delta=0.5", "twinning:delta=0.5", "penalty:delta=0.25",
         "reset-memory", "graphical")
UNIT_ONLY = ("twinning", "penalty")
TARGETS = (1, 100, 20000, 40000)  # the last crosses a chunk boundary on every kind

CASES = [(k, w, tie, n)
         for k, w, tie, n in itertools.product(
             KINDS, ("unit", "exp1", "geom:p=0.5"), ("higher-index", "random"),
             (4, 16, 1024))
         if w == "unit" or k.partition(":")[0] not in UNIT_ONLY]


def _spec(text, wtext="unit", tie="higher-index", n=16):
    graph = cycle_graph(n) if text == "graphical" else None
    return parse_process(text, weights=parse_weights(wtext), graph=graph,
                         tie_rule=tie)


def _same(eng, ref):
    return (list(eng.loads) == ref.loads and eng.balls == ref.balls
            and eng.steps == ref.steps)


@pytest.mark.parametrize("text,wtext,tie,n", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_kernel_matches_reference(compiled, text, wtext, tie, n):
    spec = _spec(text, wtext, tie, n)
    eng = make_engine(spec, n, make_generator(41, n))
    ref = reference_engine(spec, n, make_generator(41, n))
    assert isinstance(eng, kernel.KernelEngine)
    assert _CHUNK < TARGETS[-1]
    for target in TARGETS:
        eng.advance(target)
        ref.advance(target)
        assert _same(eng, ref), (text, wtext, tie, n, target)


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
    draws = _Draws(n, spec.weights, source=_ScriptSource(
        bins=bins, floats=floats, weights=ws, edges=edges))
    balls = 0
    while balls < target:
        balls += step(spec, state, draws=draws).balls()
    eng = make_engine(spec, n, source=_ScriptSource(bins=bins, floats=floats,
                                                    weights=ws, edges=edges))
    eng.advance(target)
    assert eng.balls == balls
    assert list(eng.loads) == state.loads


class _ShortChunks:
    """Seeded chunks of odd, small lengths: decisions needing two or three
    bins often find fewer left and must discard them, as the Python engines
    do."""

    def __init__(self, seed, n, n_edges, wdist):
        self.rng = make_generator(seed)
        self.n, self.n_edges, self.wdist = n, n_edges, wdist

    def bins(self):
        return self.rng.integers(0, self.n, size=7)

    def edges(self):
        return self.rng.integers(0, self.n_edges, size=7)

    def floats(self):
        return self.rng.random(5)

    def weights(self):
        return self.wdist.sample(self.rng, 3)


@pytest.mark.parametrize("text", KINDS)
def test_short_chunks_discard_like_reference(compiled, text):
    n = 16
    wtext = "unit" if text.partition(":")[0] in UNIT_ONLY else "exp1"
    spec = _spec(text, wtext, "random", n)
    n_edges = len(spec.graph.edges) if spec.graph else 0
    eng = make_engine(spec, n, source=_ShortChunks(2, n, n_edges, spec.weights))
    ref = reference_engine(spec, n, source=_ShortChunks(2, n, n_edges, spec.weights))
    eng.advance(500)
    ref.advance(500)
    assert _same(eng, ref)


def test_script_exhaustion_raises_through_kernel(compiled):
    eng = make_engine(_spec("two-choice"), 16, source=_ScriptSource(bins=[0, 1, 2, 3]))
    assert isinstance(eng, kernel.KernelEngine)
    with pytest.raises(ValueError, match="scripted bins exhausted"):
        eng.advance(10)


@pytest.mark.parametrize("d,tie", [(300, "higher-index"), (300, "random"),
                                   (_CHUNK + 5, "higher-index")])
def test_d_choice_beyond_any_fixed_buffer(compiled, d, tie):
    # d above the chunk size: each ball takes a fresh chunk of d bins
    spec = parse_process(f"d-choice:d={d}", tie_rule=tie)
    n, target = 16, 40 if d > _CHUNK else 400
    eng = make_engine(spec, n, make_generator(3, d))
    ref = reference_engine(spec, n, make_generator(3, d))
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
    eng = reference_engine(parse_process(f"d-choice:d={d}"), 16, make_generator(3, d))
    eng.advance(3)
    assert seen == [d] * 3


@pytest.mark.parametrize("build", [make_engine, reference_engine])
def test_chunk_shorter_than_a_decision_raises(build):
    eng = build(parse_process("d-choice:d=3"), 4, source=_ScriptSource(bins=[0, 1]))
    with pytest.raises(IndexError, match="shorter"):
        eng.advance(1)


def test_draw_out_of_range_raises(compiled):
    eng = make_engine(_spec("two-choice"), 4, source=_ScriptSource(bins=[0, 9]))
    with pytest.raises(IndexError):
        eng.advance(1)


@pytest.fixture
def no_compiler(monkeypatch):
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    kernel.load.cache_clear()
    yield
    kernel.load.cache_clear()


def _small_sweep() -> str:
    cfg = ExperimentConfig(processes=("twinning:delta=0.5", "one-plus-beta:beta=0.5",
                                      "reset-memory"),
                           ns=(16, 64), m="20n", reps=2, seed=5, gamma="0.1",
                           thresholds=(1.0,))
    return dumps_csv(sweep(cfg))


def test_fallback_without_compiler(compiled, request):
    expect = _small_sweep()
    request.getfixturevalue("no_compiler")
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        eng = make_engine(_spec("two-choice"), 16, make_generator(1))
    assert isinstance(eng, processes._ChoiceEngine)
    assert _small_sweep() == expect


def test_batched_simulate_without_kernel_is_byte_equal(compiled, tmp_path, monkeypatch):
    cfg = tmp_path / "batched.cfg"
    cfg.write_text("processes = two-choice,quantile:delta=0.25\nns = 16,40\n"
                   "m = 30b\nreps = 3\nseed = 7\nbatches = 1n,3n\n"
                   "gamma = 0.5\nthresholds = 1,2\nkeep = trajectory\n")
    applied = []
    apply_rounds = kernel.apply_rounds
    monkeypatch.setattr(kernel, "apply_rounds",
                        lambda *a: applied.append(1) or apply_rounds(*a))
    out, calls = [], []
    for name in ("kernel.csv", "numpy.csv"):
        assert main(["simulate", str(cfg), "--out", str(tmp_path / name)]) == 0
        out.append((tmp_path / name).read_bytes())
        calls.append(len(applied))
        monkeypatch.setattr(kernel, "load", lambda: None)
    assert calls[0] > 0 and calls[1] == calls[0]  # only the first pass ran the kernel
    assert out[0] == out[1]


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
