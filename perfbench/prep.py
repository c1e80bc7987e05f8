"""Untimed preparation before a benchmark run.

Usage: python3 perfbench/prep.py <graph dir> <graph seed>

Imports binlab.cli once (so that bytecode caches exist before anything is
timed), writes the graph files the conductance workload reads, and prints
the numeric-library half of the host block as one JSON line.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
from importlib import metadata


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main(argv: list[str]) -> int:
    graph_dir, seed = argv[0], int(argv[1])
    import binlab.cli  # noqa: F401  (warms the bytecode cache)
    import numpy as np
    from binlab.graphs import build_graph, write_graph_file

    os.makedirs(graph_dir, exist_ok=True)
    write_graph_file(build_graph("cycle", 24),
                     os.path.join(graph_dir, "cycle24.graph"))
    write_graph_file(build_graph("random-regular", 24, d=3, seed=seed),
                     os.path.join(graph_dir, "rr3-24.graph"))
    print(json.dumps({
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "binlab_file": binlab.cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
