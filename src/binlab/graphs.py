"""Regular graphs for edge-sampled allocation, and their conductance.

Conductance here is edge expansion normalized by degree:

    phi(G) = min over 1 <= |S| <= n/2 of  |E(S, V\\S)| / (d * |S|)

``conductance_exact`` enumerates all vertex subsets (feasible to n = 24):
one numpy table of 2^16 subsets sorted by size, walked over the remaining
vertices in Gray-code order, keeps the most internal edges of each size,
and compares the candidate minima in integers.
``conductance_lower_bound`` is the Cheeger bound lambda_2 / 2 <= phi of
the normalized Laplacian; ``conductance_bounds`` adds the upper bound
phi <= sqrt(2 lambda_2) and the best sweep cut along a second eigenvector.
lambda_2 comes from numpy's LAPACK (``numpy.linalg.eigvalsh``, all
eigenvalues) on the integer matrix dI - A; the lower bound subtracts a
backward-error margin of n * eps * 2d from the computed eigenvalue, so it
is a bound and not an estimate.  The sweep vector comes from one shifted
solve (``numpy.linalg.solve``, one step of inverse iteration from a fixed
start vector), so the upper bound is the same under any BLAS thread count.
The solve holds at most two n x n float64 matrices, 16 n^2 bytes (16 MiB
at n = 1024); above ``DENSE_LIMIT`` vertices both bound functions raise
``ValueError`` before allocating.
Graphical sweeps with ``gamma = auto`` take their epsilon from
``conductance_lower_bound``, which needs the eigenvalues and no solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_generator

EXACT_LIMIT = 24
DENSE_LIMIT = 8192  # the dense bounds hold 16 n^2 bytes: 1 GiB at the limit


@dataclass(frozen=True)
class RegularGraph:
    """Simple connected d-regular graph on vertices 0..n-1."""

    n: int
    d: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, d = self.n, self.d
        if n < 2 or d < 1:
            raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if len(self.edges) * 2 != n * d:
            raise ValueError(f"{len(self.edges)} edges inconsistent with n*d/2 = {n * d / 2}")
        seen = set()
        deg = [0] * n
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            deg[u] += 1
            deg[v] += 1
        if any(x != d for x in deg):
            raise ValueError("graph is not d-regular")
        if not _connected(n, self.edges):
            raise ValueError("graph is not connected")

    def neighbor_masks(self) -> list[int]:
        """Adjacency as bitmasks, for subset enumeration."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


# -- builders ---------------------------------------------------------------

def complete_graph(n: int) -> RegularGraph:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return RegularGraph(n=n, d=n - 1, edges=edges)


def cycle_graph(n: int) -> RegularGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return RegularGraph(n=n, d=2, edges=edges)


def hypercube_graph(n: int) -> RegularGraph:
    k = n.bit_length() - 1
    if n != 1 << k or k < 1:
        raise ValueError(f"hypercube needs n a power of two >= 2, got {n}")
    edges = tuple((u, u ^ (1 << b)) for u in range(n) for b in range(k) if u < u ^ (1 << b))
    return RegularGraph(n=n, d=k, edges=edges)


def torus_grid_graph(n: int) -> RegularGraph:
    k = math.isqrt(n)
    if k * k != n or k < 3:
        raise ValueError(f"torus grid needs n = k^2 with k >= 3, got {n}")
    edges = []
    for r in range(k):
        for c in range(k):
            u = r * k + c
            edges.append((u, r * k + (c + 1) % k))
            edges.append((u, ((r + 1) % k) * k + c))
    return RegularGraph(n=n, d=4, edges=tuple(edges))


class GraphSamplingError(ValueError):
    """Raised when the random-regular sampler exhausts its retry budget."""


def random_regular_graph(n: int, d: int, seed: int, retries: int = 20000) -> RegularGraph:
    """Pairing-model sampler; retries until the pairing is simple and the
    graph connected.  A pairing is simple with probability about
    exp(-(d^2 - 1)/4), 0.25 % at d = 5, hence the large budget."""
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise ValueError(f"need d < n, got d={d}, n={n}")
    rng = make_generator(seed, n, d)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(retries):
        perm = rng.permutation(stubs).reshape(-1, 2)
        lo, hi = perm.min(axis=1), perm.max(axis=1)
        if (lo == hi).any() or (np.diff(np.sort(lo * n + hi)) == 0).any():
            continue  # a self-loop or a repeated edge
        pairs = tuple(map(tuple, perm.tolist()))
        if _connected(n, pairs):
            return RegularGraph(n=n, d=d, edges=pairs)
    raise GraphSamplingError(
        f"no simple connected {d}-regular pairing on {n} vertices found in "
        f"{retries} tries (seed {seed})")


_BUILDERS = {
    "complete": complete_graph,
    "cycle": cycle_graph,
    "hypercube": hypercube_graph,
    "torus-grid": torus_grid_graph,
}


def build_graph(kind: str, n: int, d: int | None = None, seed: int = 0) -> RegularGraph:
    """Dispatch on kind: complete | cycle | hypercube | torus-grid |
    random-regular (the last needs d; the others fix their own degree and
    take none)."""
    if kind == "random-regular":
        if d is None:
            raise ValueError("random-regular needs d")
        return random_regular_graph(n, d, seed)
    if kind not in _BUILDERS:
        raise ValueError(f"unknown graph kind {kind!r}")
    if d is not None:
        raise ValueError(f"graph kind {kind!r} fixes its own degree; d= is for "
                         "random-regular only")
    return _BUILDERS[kind](n)


# -- conductance -------------------------------------------------------------

_LOW_BITS = 16  # vertices 1..16 span one table of 2^16 subsets in conductance_exact


def _count_table(mask: int, bits: int) -> np.ndarray:
    """popcount(mask & U) for every U < 2^bits, built by doubling."""
    t = np.zeros(1, dtype=np.int32)
    for j in range(bits):
        t = np.concatenate((t, t + ((mask >> j) & 1)))
    return t


def conductance_exact(g: RegularGraph) -> float:
    """Exhaustive minimum over all subsets, with vertex 0 pinned into S (a
    cut and its complement are the same cut).

    S = {0} + U + T, where U ranges over subsets of the low vertices 1..16
    as one numpy table and T over the at most 7 remaining high vertices in
    Gray-code order.  cut(S) = d * |S| - 2 * internal(S), so among the sets
    of one size the smallest cut is the one with the most internal edges.
    The table of internal edges is sorted by |U| once; each Gray-code step
    adds or subtracts one high vertex's edge counts into U in place, keeps
    the edges among {0} + T as a Python int, and takes the most internal
    edges of each |U| with one ``np.maximum.reduceat``.  The at most
    17 * 128 candidates cut / side, side = min(|S|, n - |S|) <= 12, are
    compared as the integers cut * (lcm(1..n/2) / side), so the result is
    the correctly rounded cut / (d * side) of an exact minimum.
    """
    n, d = g.n, g.d
    if n > EXACT_LIMIT:
        raise ValueError(f"exact conductance limited to n <= {EXACT_LIMIT}, got {n}")
    masks = g.neighbor_masks()
    low = min(n - 1, _LOW_BITS)
    high = list(range(low + 1, n))
    # internal edges of {0} + U, for every subset U of the low vertices
    internal = np.zeros(1, dtype=np.int32)
    for j in range(low):
        v = j + 1
        internal = np.concatenate(
            (internal, internal + (masks[v] & 1) + _count_table(masks[v] >> 1, j)))
    # U in order of size, the U with |U| = k from starts[k] on (uint8 keys
    # take numpy's radix sort)
    by_size = np.argsort(_count_table((1 << low) - 1, low).astype(np.uint8), kind="stable")
    starts = np.cumsum([0] + [math.comb(low, k) for k in range(low)])
    internal = internal[by_size]
    # edges from each high vertex into U, in the same order
    into_low = [_count_table(masks[h] >> 1, low)[by_size] for h in high]

    steps = 1 << len(high)
    most = np.empty((steps, low + 1), dtype=np.int64)  # most internal edges per |U|
    t_mask = 0  # T as a bitmask over vertex ids
    base = 0    # edges inside {0} + T
    for step in range(steps):
        if step:
            i = (step & -step).bit_length() - 1
            h = high[i]
            t_mask ^= 1 << h
            scalar = (masks[h] & 1) + (masks[h] & t_mask).bit_count()  # edges to 0 and T
            if t_mask >> h & 1:
                internal += into_low[i]
                base += scalar
            else:
                internal -= into_low[i]
                base -= scalar
        most[step] = np.maximum.reduceat(internal, starts)
        most[step] += base
    gray = np.arange(steps) ^ (np.arange(steps) >> 1)
    size = 1 + np.arange(low + 1) + _count_table(steps - 1, len(high))[gray, None]
    cut = d * size - 2 * most
    side = np.minimum(size, n - size)
    ok = side > 0  # S = V is no cut
    cut, side = cut[ok], side[ok]
    k = int(np.argmin(cut * (math.lcm(*range(1, n // 2 + 1)) // side)))
    return int(cut[k]) / (d * int(side[k]))


def _laplacian_lambda2(g: RegularGraph) -> tuple[np.ndarray, float, float]:
    """(M, lambda2_hat, margin) for M = dI - A, lambda2_hat from LAPACK's
    ``?syevd`` (``numpy.linalg.eigvalsh``).

    M has integer entries, so it is exact in float64, and ||M||_2 <= 2d.
    Every LAPACK symmetric eigensolver returns the exact eigenvalues of
    M + E with ||E||_2 <= p(n) * eps * ||M||_2, p(n) a modestly growing
    function of n (LAPACK Users' Guide, section 4.7).  margin = n * eps * 2d
    takes p(n) = n, a factor n above the p(n) = 1 of the guide's own
    error-bound code; by Weyl's inequality the true lambda_2(M) lies within
    margin of the computed one.  M is returned for the caller to reuse;
    ``eigvalsh`` has freed its copy by then.
    """
    n, d = g.n, g.d
    if n > DENSE_LIMIT:
        raise ValueError(
            f"conductance bounds need a dense solve on n = {n} vertices, which holds "
            f"{16 * n * n / 2**20:.0f} MiB (two n x n float64 matrices); "
            f"the limit is n <= {DENSE_LIMIT}")
    e = np.asarray(g.edges)
    m = np.zeros((n, n))
    m[e[:, 0], e[:, 1]] = -1.0
    m[e[:, 1], e[:, 0]] = -1.0
    np.fill_diagonal(m, float(d))
    lam = float(np.linalg.eigvalsh(m)[1])
    return m, lam, n * np.finfo(float).eps * 2 * d


def _inverse_iteration(m: np.ndarray, lam: float, margin: float) -> np.ndarray:
    """A vector in lambda_2's eigenspace of M, from one step of inverse
    iteration; M is shifted in place.

    v solves (M - sigma I) v = b, with sigma = lambda2_hat - 2^10 * margin
    and b a fixed pseudo-random vector, centred so that it has no component
    along the all-ones eigenvector (eigenvalue 0).  This one step scales b's
    component in the lambda_2 eigenspace by 1 / (lambda_2 - sigma) and
    every other component by at most one over the gap to the next
    eigenvalue, so v is b's projection on that eigenspace.  Backward error
    of at most margin moves those factors by at most 2^-10 relative, so v,
    and with it the sweep order, does not depend on the BLAS thread count,
    even when lambda_2 is repeated.  At most two n x n float64 matrices are
    held at once (M and the solver's copy): 16 n^2 bytes, 256 MiB at
    n = 4096.
    """
    n = len(m)
    m.flat[::n + 1] -= lam - 2**10 * margin
    b = make_generator(n).standard_normal(n)
    return np.linalg.solve(m, b - b.mean())


def _best_prefix_cut(g: RegularGraph, v: np.ndarray) -> float:
    """Best conductance among the n - 1 prefix cuts of the order of v.

    An edge is cut by the prefix of size k exactly when k lies in
    (min, max] of its endpoints' positions, so the cut sizes are a cumsum.
    """
    n = g.n
    pos = np.empty(n, dtype=np.int64)
    pos[np.argsort(v, kind="stable")] = np.arange(n)
    ends = np.sort(pos[np.asarray(g.edges)], axis=1)
    enter = np.bincount(ends[:, 0] + 1, minlength=n + 1)
    leave = np.bincount(ends[:, 1] + 1, minlength=n + 1)
    cut = np.cumsum(enter - leave)[1:n]
    k = np.arange(1, n)
    return float(np.min(cut / (g.d * np.minimum(k, n - k))))


def _cheeger_lower(g: RegularGraph, lam: float, margin: float) -> float:
    return max(lam - margin, 0.0) / (2 * g.d)


def conductance_lower_bound(g: RegularGraph) -> float:
    """(lambda2_hat(M) - margin) / (2d) <= phi(G): the Cheeger bound
    lambda_2 / 2 on the normalized Laplacian with the eigensolver's backward
    error subtracted.  Needs one ``eigvalsh`` and no solve."""
    _, lam, margin = _laplacian_lambda2(g)
    return _cheeger_lower(g, lam, margin)


def conductance_bounds(g: RegularGraph) -> tuple[float, float]:
    """(lower, upper) with lower <= phi(G) <= upper.

    lower is ``conductance_lower_bound``; upper = min(sqrt(2 lambda_2), the
    sweep cut along a lambda_2 eigenvector), with the margin added under the
    square root.
    """
    m, lam, margin = _laplacian_lambda2(g)
    upper = math.sqrt(2 * (lam + margin) / g.d)
    return (_cheeger_lower(g, lam, margin),
            min(upper, _best_prefix_cut(g, _inverse_iteration(m, lam, margin))))


# -- file format --------------------------------------------------------------

def write_graph_file(g: RegularGraph, path: str) -> None:
    """Text format: first line 'n d', then one 'u v' edge per line, 1-indexed."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{g.n} {g.d}\n")
        for u, v in g.edges:
            fh.write(f"{u + 1} {v + 1}\n")


def read_graph_file(path: str) -> RegularGraph:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'n d' header")
    n, d = int(tokens[0]), int(tokens[1])
    rest = tokens[2:]
    if len(rest) % 2 != 0:
        raise ValueError(f"{path}: odd number of endpoint tokens")
    edges = []
    for i in range(0, len(rest), 2):
        u, v = int(rest[i]), int(rest[i + 1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"{path}: endpoint out of range in edge {u} {v}")
        edges.append((u - 1, v - 1))
    return RegularGraph(n=n, d=d, edges=tuple(edges))  # validates regular+connected
