"""The compiled kernel behind ``processes.make_engine``,
``processes._BatchedEngine`` and the exact row sums of ``potentials``.

``_kernel.c`` holds the per-ball decision loops of all engine families
(``binlab_advance``), the ranking of batched rounds (``binlab_batched``:
a counting sort of each round's loads, heaviest first, then the round's
rank counts added in the same pass) and ``math.fsum`` over the rows of a
matrix (``binlab_fsum_rows``, behind ``fsum_rows``).  It is compiled with
the local C compiler on the first ``load()`` call (never at import), cached
as a shared library under ``$XDG_CACHE_HOME/binlab`` (default
``~/.cache/binlab``) named by the sha256 of the source and the flags, and
loaded with ctypes.
``-ffp-contract=off`` and the absence of ``-ffast-math``/``-march=native``
keep every float sum rounding exactly as Python's does, so kernel runs are
byte-identical to the exact path ``processes.step`` and to the numpy
reference round ``processes._batched_round``.  When no compiler is found or
the build fails, ``load()`` warns once and returns None, and the callers
fall back to those references: ``make_engine`` to a ``step`` loop
(``processes._StepEngine``), ``_BatchedEngine`` to the numpy round,
``fsum_rows`` to ``math.fsum``.
"""
from __future__ import annotations

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

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_FAMILY = {"one-choice": 0, "two-choice": 0, "d-choice": 0, "one-plus-beta": 0,
           "quantile": 1, "twinning": 2, "penalty": 3, "reset-memory": 4,
           "graphical": 5}
_REFILL_FAILED, _SHORT_CHUNK, _NO_MEMORY = 1, 2, 3

_Refill = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)


class _Stream(ctypes.Structure):
    _fields_ = [("buf", ctypes.c_void_p), ("len", ctypes.c_int64),
                ("pos", ctypes.c_int64)]


class _Engine(ctypes.Structure):
    """Mirror of ``engine_t`` in _kernel.c."""

    _fields_ = [("s", _Stream * 3), ("refill", _Refill),
                ("loads", ctypes.c_void_p), ("n", ctypes.c_int64),
                ("balls", ctypes.c_int64), ("family", ctypes.c_int64),
                ("random_ties", ctypes.c_int64), ("unit", ctypes.c_int64),
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


def _build() -> str:
    """Path of the compiled library, compiling it if it is not cached."""
    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read() + " ".join(FLAGS).encode()).hexdigest()
    cache = _cache_dir()
    path = os.path.join(cache, f"kernel-{digest}.so")
    if os.path.exists(path):
        return path
    import subprocess  # here, so that a command that finds the library does not load it

    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE],
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
    ``binlab_batched`` and ``binlab_fsum_rows`` typed; None (with a warning)
    when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build())
    except OSError as exc:
        warnings.warn(f"compiled kernel unavailable, using the Python references: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None
    lib.binlab_advance.argtypes = [ctypes.POINTER(_Engine), ctypes.c_int64]
    lib.binlab_advance.restype = ctypes.c_int
    lib.binlab_batched.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                                   ctypes.c_void_p, ctypes.c_int64]
    lib.binlab_batched.restype = ctypes.c_int
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


def apply_rounds(lib, loads: np.ndarray, counts: np.ndarray) -> None:
    """Apply each row of ``counts`` to ``loads`` as one batched round: row r
    adds ``counts[r, k]`` balls to the bin of rank k in that round's
    starting loads (heaviest first, ties by ascending id).  ``loads`` must
    hold whole numbers; it is updated in place."""
    if not (loads.dtype == np.float64 and loads.ndim == 1
            and loads.flags.c_contiguous and loads.flags.writeable and len(loads)):
        raise ValueError("loads must be a non-empty, writeable, contiguous float64 vector")
    if not (counts.dtype == np.int64 and counts.ndim == 2
            and counts.flags.c_contiguous and counts.shape[1] == len(loads)):
        raise ValueError("counts must be a contiguous int64 array of one row per round")
    if lib.binlab_batched(loads.ctypes.data, len(loads), counts.ctypes.data,
                          len(counts)) == _NO_MEMORY:
        raise MemoryError("no memory to rank a batched round")


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

    Draws come from ``source`` exactly as ``processes._Draws`` takes them
    for ``step``: ``bins()`` (``edges()`` for graphical), ``floats()`` and
    ``weights()``, one chunk per call, with a chunk too short for a
    decision's k bins discarded.  An exception raised by the source
    propagates out of ``advance``.
    """

    def __init__(self, lib, spec, n: int, source):
        self.spec = spec
        self.loads = np.zeros(n)
        self._advance = lib.binlab_advance
        st = self._st = _Engine()
        st.loads, st.n = self.loads.ctypes.data, n
        st.family = _FAMILY[spec.kind]
        st.random_ties = spec.tie_rule == "random"
        st.unit = spec.weights.kind == "unit"
        st.d = {"one-choice": 1, "d-choice": spec.d}.get(spec.kind, 2)
        st.beta = spec.beta if spec.kind == "one-plus-beta" else -1.0
        self._arrays = [self.loads]  # everything the kernel points into
        if spec.kind in ("quantile", "twinning", "penalty"):
            # top-t members 0..t-1 at equal load: the highest id is weakest
            st.t = t = quantile_index(spec.delta, n)
            st.wc = t - 1  # at wl = 0
            if not st.unit:  # weighted quantile keeps its members in a heap
                heap = np.arange(t - 1, -1, -1, dtype=np.int64)
                slot = np.full(n, -1, dtype=np.int64)
                slot[heap] = np.arange(t)
                st.heap, st.slot = heap.ctypes.data, slot.ctypes.data
                self._arrays += [heap, slot]
        bound = n  # of the indices on the BINS stream
        if spec.kind == "graphical":
            ends = np.array(spec.graph.edges, dtype=np.int64).reshape(-1, 2)
            eu, ev = np.ascontiguousarray(ends[:, 0]), np.ascontiguousarray(ends[:, 1])
            st.eu, st.ev, bound = eu.ctypes.data, ev.ctypes.data, len(ends)
            self._arrays += [eu, ev]

        fetch = (source.edges if spec.kind == "graphical" else source.bins,
                 source.floats, source.weights)
        dtypes = (np.int64, np.float64, np.float64)
        chunks: list = [None] * 3
        errors = self._errors = []
        # the callback must not refer to st or self: a reference cycle would
        # keep every finished engine and its chunks alive until a collection
        streams = _Engine.from_address(ctypes.addressof(st)).s

        def refill(stream: int) -> int:
            try:
                chunk = np.ascontiguousarray(fetch[stream](), dtype=dtypes[stream])
                if stream == 0 and chunk.size and not (
                        chunk.min() >= 0 and chunk.max() < bound):
                    raise IndexError("draw out of range")
            except BaseException as exc:  # re-raised by advance
                errors.append(exc)
                return 1
            chunks[stream] = chunk
            streams[stream].buf = chunk.ctypes.data
            streams[stream].len = len(chunk)
            return 0

        self._refill = st.refill = _Refill(refill)

    @property
    def balls(self) -> int:
        return self._st.balls

    def advance(self, target: int) -> None:
        check_ball_target(target)
        rc = self._advance(ctypes.byref(self._st), target)
        if rc == _REFILL_FAILED:
            raise self._errors.pop()
        if rc == _SHORT_CHUNK:
            raise IndexError("draw chunk shorter than one decision needs")
