"""Scripted draws for the exact path, and the brute-force law of one round.

``round_law_brute_force`` runs ``sample_round`` on every script of one
round and weighs each by its probability, in rational arithmetic, so it
gives the law of a round without calling ``processes.round_law``.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from binlab.processes import _Draws, _n_edges, _ScriptSource, sample_round
from binlab.weights import parse_weights

# midpoints of sixths: int(u * k) is uniform for k = 1, 2, 3 tied candidates,
# and u < 1/2 for half of them
LAW_FLOATS = [(2 * j + 1) / 12 for j in range(6)]


def scripted(n, wdist=None, n_edges=0, **streams) -> _Draws:
    """Exact-path draws read from a script, as the kernel reads one."""
    return _Draws(n, wdist or parse_weights("unit"), n_edges=n_edges,
                  source=_ScriptSource(**streams))


def round_law_brute_force(spec, state) -> dict:
    """P_r(K, c) over every bins (or edges) x floats script of one round, as
    ``Fraction`` rows keyed by (K, c)."""
    n = state.n
    if spec.graph is None:
        edge_scripts = [()]
        bin_scripts = list(itertools.product(range(n), repeat=spec.d or 2))
    else:  # a graphical round reads an edge and no bin
        edge_scripts = [(e,) for e in range(len(spec.graph.edges))]
        bin_scripts = [()]
    float_scripts = list(itertools.product(LAW_FLOATS, repeat=2))
    share = Fraction(1, len(edge_scripts) * len(bin_scripts) * len(float_scripts))
    law: dict = {}
    for edges, bins, floats in itertools.product(edge_scripts, bin_scripts,
                                                 float_scripts):
        draws = scripted(n, n_edges=_n_edges(spec), bins=bins, floats=floats,
                         edges=edges)
        hit = [state.rank_of[b] for b, _ in sample_round(spec, state, draws=draws)]
        for r in range(n):
            row = law.setdefault((len(hit), hit.count(r)), [Fraction(0)] * n)
            row[r] += share
    return law
