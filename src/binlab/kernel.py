"""The compiled kernel behind ``processes.make_engine``,
``processes._BatchedEngine`` and the exact row sums of ``potentials``.

``_kernel.c`` holds the per-ball decision loops of all engine families
(``binlab_advance``, which draws a seeded engine's chunks itself, bit for
bit as ``processes._ChunkSource`` draws them through ``Generator``, and
reads a scripted engine's streams from arrays; it never calls Python), whole
batched rounds (``binlab_batched_rounds``: each round's rank counts drawn
as numpy's ``Generator.multinomial`` draws them, bit for bit, then a
counting sort of the round's loads, heaviest first, with the counts added
in the same pass) and ``math.fsum`` over the rows of a matrix
(``binlab_fsum_rows``, behind ``fsum_rows``).  It is compiled with the
local C compiler on the first ``load()`` call (never at import) and linked
with numpy's own ``numpy/random/lib/libnpyrandom.a``, whose
``random_binomial_btpe`` the batched draw calls and whose fill functions
and geometric and Poisson samplers the per-ball draws call.  The library is
cached under ``$XDG_CACHE_HOME/binlab`` (default ``~/.cache/binlab``),
named by the sha256 of the source, the flags, and the path and sha256 of
that archive, so a numpy upgrade builds a new one; it is loaded with ctypes.
``-ffp-contract=off`` and the absence of ``-ffast-math``/``-march=native``
keep every float sum rounding exactly as Python's does, so kernel runs are
byte-identical to the exact path ``processes.step`` and to the numpy
reference round (``Generator.multinomial`` and ``processes._batched_round``).
When no compiler is found, numpy's archive is missing or the build fails,
``load()`` warns once and returns None, and the callers fall back to those
references: ``make_engine`` to a ``step`` loop (``processes._StepEngine``),
``_BatchedEngine`` to the numpy round, ``fsum_rows`` to ``math.fsum``.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shutil
import tempfile
import warnings

import numpy as np

from .vectors import quantile_index
from .weights import KINDS

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_FAMILY = {"one-choice": 0, "two-choice": 0, "d-choice": 0, "one-plus-beta": 0,
           "quantile": 1, "twinning": 2, "penalty": 3, "reset-memory": 4,
           "graphical": 5}
_SHORT_CHUNK, _NO_MEMORY, _EXHAUSTED = 1, 2, 3  # _EXHAUSTED + the stream
# the most balls one binlab_advance call runs (a few tenths of a second): no
# Python runs inside the call, so Python handles a signal such as Ctrl-C
# only between calls
_SLICE = 1 << 24


class _Stream(ctypes.Structure):
    _fields_ = [("buf", ctypes.c_void_p), ("len", ctypes.c_int64),
                ("pos", ctypes.c_int64)]


class _Engine(ctypes.Structure):
    """Mirror of ``engine_t`` in _kernel.c."""

    _fields_ = [("s", _Stream * 3), ("bitgen", ctypes.c_void_p),
                ("bound", ctypes.c_int64), ("param", ctypes.c_double),
                ("loads", ctypes.c_void_p), ("n", ctypes.c_int64),
                ("balls", ctypes.c_int64), ("family", ctypes.c_int64),
                ("random_ties", ctypes.c_int64), ("law", ctypes.c_int64),
                ("d", ctypes.c_int64), ("beta", ctypes.c_double),
                ("t", ctypes.c_int64), ("wl", ctypes.c_double),
                ("wc", ctypes.c_int64), ("heap", ctypes.c_void_p),
                ("slot", ctypes.c_void_p), ("eu", ctypes.c_void_p),
                ("ev", ctypes.c_void_p)]


def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "binlab")


def _archive() -> str:
    """numpy's static library of its random distributions."""
    return os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")


def _digest(archive: str) -> str:
    """Names the library: the source, the flags, and numpy's archive, by
    path and by content."""
    h = hashlib.sha256()
    for part in (SOURCE, archive):
        with open(part, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\0".join((*FLAGS, archive)).encode())
    return h.hexdigest()


def _build() -> str:
    """Path of the compiled library, compiling it if it is not cached."""
    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    archive = _archive()
    if not os.path.isfile(archive):
        raise OSError(f"numpy's random library {archive} is missing")
    digest = _digest(archive)
    cache = _cache_dir()
    path = os.path.join(cache, f"kernel-{digest}.so")
    if os.path.exists(path):
        return path
    import subprocess  # here, so that a command that finds the library does not load it

    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE, archive, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} exited with {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.lru_cache(maxsize=None)
def load():
    """The kernel library, built on first use, with ``binlab_advance``,
    ``binlab_batched_rounds`` and ``binlab_fsum_rows`` typed; None (with a
    warning) when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError as exc:
        warnings.warn(f"compiled kernel unavailable, using the Python references: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None
    lib.binlab_advance.argtypes = [ctypes.POINTER(_Engine), ctypes.c_int64]
    lib.binlab_advance.restype = ctypes.c_int
    lib.binlab_batched_rounds.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                                          ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    lib.binlab_batched_rounds.restype = ctypes.c_int
    lib.binlab_engine_size.restype = ctypes.c_int64
    lib.binlab_fsum_rows.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                                     ctypes.c_void_p]
    lib.binlab_fsum_rows.restype = ctypes.c_int64
    return lib


def fsum_rows(a: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit, as float64.

    The kernel sums the rows in C.  Rows it declines (a non-finite value,
    an intermediate overflow, or more partials than it holds) and, when the
    kernel cannot be built, all rows go to ``math.fsum``, which gives them
    its special value or raises its exception."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"fsum_rows needs a 2-D array, got {a.ndim} dimensions")
    out = np.empty(len(a))
    lib = load()
    if lib is None:
        declined = range(len(a))
    elif lib.binlab_fsum_rows(a.ctypes.data, a.shape[0], a.shape[1], out.ctypes.data):
        declined = np.flatnonzero(np.isnan(out)).tolist()
    else:
        declined = ()
    for i in declined:
        out[i] = math.fsum(a[i].tolist())
    return out


def multinomial_tables(pv: np.ndarray) -> np.ndarray:
    """What numpy's ``random_multinomial`` recomputes per category on every
    ``Generator.multinomial(b, pv)`` call that depends on ``pv`` alone, as
    the rows of one read-only (4, n) array, which ``batched_rounds`` takes:

    - ``pc[j] = pv[j] / remaining``, where ``remaining`` is 1.0 less
      ``pv[0]``, ..., ``pv[j-1]``, subtracted in that order;
    - ``pp[j]``: ``pc`` if ``pc <= 0.5``, else ``1 - pc``, the side that
      ``random_binomial`` draws (a nan pc takes the second);
    - ``qq[j] = 1 - pp``;
    - ``lq[j] = log1p(-pp)`` by libm through ``math.log1p``: numpy's
      inversion sampler takes P(X = 0) as ``exp(n * log1p(-p))``.
    """
    pv = np.asarray(pv, dtype=np.float64)
    remaining = np.subtract.accumulate(np.concatenate(([1.0], pv[:-1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        pc = pv / remaining
    pp = np.where(pc <= 0.5, pc, 1.0 - pc)
    lq = [math.log1p(-p) for p in pp.tolist()]
    tables = np.array([pc, pp, 1.0 - pp, lq])
    tables.flags.writeable = False
    return tables


def batched_rounds(lib, rng: np.random.Generator, tables: np.ndarray, b: int,
                   rounds: int, loads: np.ndarray) -> None:
    """Run ``rounds`` batched rounds of b unit balls on ``loads``, in place.
    Each round's rank counts are ``rng.multinomial(b, pv)`` for the ``pv``
    of ``tables = multinomial_tables(pv)``, drawn from ``rng``'s bit
    generator under its lock, exactly as numpy draws them; count k goes to
    the bin of rank k in the round's starting loads (heaviest first, ties
    by ascending id).  ``loads`` must hold whole numbers.  ctypes releases
    the GIL for the call."""
    if not (loads.dtype == np.float64 and loads.ndim == 1
            and loads.flags.c_contiguous and loads.flags.writeable and len(loads)):
        raise ValueError("loads must be a non-empty, writeable, contiguous float64 vector")
    if not (tables.dtype == np.float64 and tables.shape == (4, len(loads))
            and tables.flags.c_contiguous):
        raise ValueError("tables must be multinomial_tables of a vector as long as loads")
    if not (1 <= b < 1 << 63 and 0 <= rounds < 1 << 63):  # ctypes would wrap them
        raise ValueError(f"b = {b} or rounds = {rounds} is outside int64's range")
    bits = rng.bit_generator
    with bits.lock:
        rc = lib.binlab_batched_rounds(bits.ctypes.bit_generator, tables.ctypes.data, b,
                                       rounds, loads.ctypes.data, len(loads))
    if rc == _NO_MEMORY:
        raise MemoryError("no memory for a batched round")


def check_ball_target(target: int) -> None:
    """Refuse a ball target outside [0, 2^63).  The kernel counts balls in
    an int64, to which ctypes would wrap a larger target, and the Python
    engines would never reach one: every run checks its target here before
    its engine advances."""
    if not 0 <= target < 1 << 63:
        raise ValueError(f"ball target {target} is outside [0, 2^63)")


class KernelEngine:
    """A per-ball engine run by the compiled kernel: ``advance(target)``,
    ``balls``, ``spec`` and ``loads`` (a float64 array the kernel updates
    in place), the interface ``processes._StepEngine`` and
    ``processes._BatchedEngine`` share.

    A seeded engine (``rng``) draws its chunks in the kernel, into buffers
    it owns, on ``rng``'s bit generator under the generator's lock:
    ``chunk`` draws a chunk (bins ``max(chunk, d)``), by the numpy functions
    behind ``Generator``, so they are the chunks of
    ``processes._ChunkSource`` bit for bit.

    A scripted engine (``script``, a ``processes._ScriptSource``) loads
    each stream once, as one array: bins (``edges`` for graphical), floats
    and weights.  A bin or edge outside its range raises ``IndexError``
    here.  ``advance`` then fails where ``processes._Draws`` fails on the
    same script: ``IndexError`` when a stream's first decision needs more
    draws than the script holds, ``ValueError`` when a stream runs dry.

    No Python runs inside an ``advance``, so engines on several threads
    advance at once.
    """

    def __init__(self, lib, spec, n: int, rng=None, chunk: int = 0, script=None):
        self.spec = spec
        self.loads = np.zeros(n)
        self._advance = lib.binlab_advance
        st = self._st = _Engine()
        st.loads, st.n = self.loads.ctypes.data, n
        st.family = _FAMILY[spec.kind]
        st.random_ties = spec.tie_rule == "random"
        st.law = KINDS.index(spec.weights.kind)
        st.d = {"one-choice": 1, "d-choice": spec.d}.get(spec.kind, 2)
        st.beta = spec.beta if spec.kind == "one-plus-beta" else -1.0
        self._arrays = [self.loads]  # everything the kernel points into
        if spec.kind in ("quantile", "twinning", "penalty"):
            # top-t members 0..t-1 at equal load: the highest id is weakest
            st.t = t = quantile_index(spec.delta, n)
            st.wc = t - 1  # at wl = 0
            if spec.weights.kind != "unit":  # weighted quantile keeps its members in a heap
                heap = np.arange(t - 1, -1, -1, dtype=np.int64)
                slot = np.full(n, -1, dtype=np.int64)
                slot[heap] = np.arange(t)
                st.heap, st.slot = heap.ctypes.data, slot.ctypes.data
                self._arrays += [heap, slot]
        st.bound = n  # of the indices on the BINS stream
        if spec.kind == "graphical":
            ends = spec.graph.endpoints
            st.eu, st.ev, st.bound = ends[0].ctypes.data, ends[1].ctypes.data, ends.shape[1]
            self._arrays.append(ends)
        self._streams = ("edges" if spec.kind == "graphical" else "bins", "floats", "weights")
        dtypes = (np.int64, np.float64, np.float64)
        if script is None:
            bits = self._bits = rng.bit_generator
            self._lock = bits.lock
            st.bitgen = bits.ctypes.bit_generator.value
            st.param = spec.weights.param or 0.0
            bufs = [np.empty(size, dtype)
                    for size, dtype in zip((max(chunk, st.d), chunk, chunk), dtypes)]
        else:
            self._lock = contextlib.nullcontext()
            lists = script.lists()
            bufs = [np.ascontiguousarray(lists[name], dtype)
                    for name, dtype in zip(self._streams, dtypes)]
            if bufs[0].size and not (bufs[0].min() >= 0 and bufs[0].max() < st.bound):
                raise IndexError("draw out of range")
        for w, buf in enumerate(bufs):
            # a seeded buffer starts spent, so that the first read fills it
            st.s[w].buf, st.s[w].len = buf.ctypes.data, len(buf)
            st.s[w].pos = 0 if script is not None else len(buf)
        self._arrays += bufs

    @property
    def balls(self) -> int:
        return self._st.balls

    def advance(self, target: int) -> None:
        check_ball_target(target)
        while self._st.balls < target:
            with self._lock:  # nothing else draws from a seeded engine's generator meanwhile
                rc = self._advance(ctypes.byref(self._st), min(target, self._st.balls + _SLICE))
            if rc == _SHORT_CHUNK:
                raise IndexError("draw chunk shorter than one decision needs")
            if rc >= _EXHAUSTED:
                raise ValueError(f"scripted {self._streams[rc - _EXHAUSTED]} exhausted")
