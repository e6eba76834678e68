"""Independent reference implementations used to check the real ones.

These deliberately share no code with the package internals they verify:
the slab and hyperplane oracles are a dense Bellman-Ford relaxation on an
explicit truncated graph, the search oracle is one textbook lazy Dijkstra
with no pruning and no lockstep, the quantile oracle reconstructs the
forward CDF from tabulated inverse pairs on a dense grid and scans for the
infimum, the cheap-detour oracles are a best-first search over the probe's
path states (whose answer the probe's capped level sweep must give) and a
layered count of those states, with one scalar ``edge_weight`` call per
edge, the draw-source oracle turns each whole block of variates into a
list at once, and the edge-weight oracle folds the whole edge key from the
seed on every call, with no cached state. ``unmix64`` inverts the hash's finalizer, so a
test can build an edge whose key hashes to chosen bits.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from heapq import heappop, heappush
from math import inf

import numpy as np

from fppslab.lattice import EdgeId, step
from fppslab.weights import U64, bits_to_unit, fold64


def hyperplane_value_bruteforce(model, d: int, n: int, radius: int) -> float:
    """Min-cost passage from the origin to the plane x_1 = n with every
    vertex before the last in the box 0 <= x_1 <= n - 1, |x_j| <= radius
    (j >= 2), by repeated relaxation to a fixed point."""
    box = [range(n)] + [range(-radius, radius + 1)] * (d - 1)
    verts = list(itertools.product(*box))
    idx = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for axis in range(d):
            w = step(v, axis, 1)
            if w in idx:
                weight = model.edge_weight(EdgeId(v, axis))
                edges.append((idx[v], idx[w], weight))
                edges.append((idx[w], idx[v], weight))
    dist = [inf] * len(verts)
    dist[idx[(0,) * d]] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, w in edges:
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                changed = True
    return min(dist[i] + model.edge_weight(EdgeId(v, 0))
               for i, v in enumerate(verts) if v[0] == n - 1)


def slab_value_bruteforce(model, d: int, radius: int) -> float:
    """Min-cost crossing with intermediate vertices in the in-plane box
    [-radius, radius]^(d-1): the passage to x_1 = 1 above."""
    return hyperplane_value_bruteforce(model, d, 1, radius)


def search_reference(model, start, span: int) -> tuple[float, tuple, int]:
    """(value, exit vertex, settled count) of the exact search from
    ``start`` to the plane x_1 = start[0] + span through start[0] <= x_1 <=
    start[0] + span, by a textbook lazy Dijkstra: one search, a settled
    set, every improving entry pushed, targets popped before other entries
    of equal value and then by vertex order, and every weight folded from
    the whole edge key (``edge_weight_reference``)."""
    lo, hi = start[0], start[0] + span
    dist = {start: 0.0}
    settled: set = set()
    heap = [(0.0, 1, start)]
    while heap:
        val, kind, v = heappop(heap)
        if kind == 0:
            return val, v, len(settled)
        if v in settled:
            continue
        settled.add(v)
        for axis in range(len(start)):
            for delta in (1, -1):
                q = step(v, axis, delta)
                if not lo <= q[0] <= hi or q in settled:
                    continue
                nd = val + edge_weight_reference(model, EdgeId(min(v, q), axis))
                if nd < dist.get(q, inf):
                    dist[q] = nd
                    heappush(heap, (nd, 0 if q[0] == hi else 1, q))
    raise ValueError("the search ran out of vertices")


def unmix64(z: int) -> int:
    """Inverse of ``mix64``: each xorshift and odd multiply undone in reverse."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s):  # each pass recovers s more top bits
            x = y ^ (x >> s)
        return x

    z = unshift(z & U64, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & U64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & U64
    return unshift(z, 30)


def edge_weight_reference(model, e: EdgeId) -> float:
    """The v1 oracle's weight of e: the key (d, axis, *base) folded in one go."""
    h = fold64(model.seed, (len(e.base), e.axis, *e.base))
    return model.quantile(bits_to_unit(h))


def quantile_formula(model, y: float) -> float:
    """Each family's quantile formula at a unit y, written out on its own:
    -log1p(-y)/a, y/a, or the table's interpolation on the piece holding y
    (a node's y gives its x; past the last node, the last x)."""
    if model.family == "exp":
        return -math.log1p(-y) / model.a
    if model.family == "uniform":
        return y / model.a
    ys = [p[0] for p in model.points]
    xs = [p[1] for p in model.points]
    if y >= ys[-1]:
        return xs[-1]
    j = bisect_left(ys, y)
    if ys[j] == y:
        return xs[j]
    return xs[j - 1] + (y - ys[j - 1]) * (xs[j] - xs[j - 1]) / (ys[j] - ys[j - 1])


def table_quantile_bruteforce(points, y: float, n: int = 400_001) -> float:
    """inf{x : F(x) >= y} for the distribution behind a quantile table.

    Samples the piecewise-linear quantile on a dense y-grid, recovers
    F(x) = sup{y' : quantile(y') <= x} on a dense x-grid, and scans for the
    infimum; accurate to the grid resolution.
    """
    ys = np.array([p[0] for p in points])
    xs = np.array([p[1] for p in points])
    yfine = np.linspace(0.0, float(ys[-1]), n)
    qfine = np.interp(yfine, ys, xs)
    xgrid = np.linspace(float(xs[0]), float(xs[-1]), n)
    count_le = np.searchsorted(qfine, xgrid, side="right")
    cdf = yfine[np.clip(count_le - 1, 0, n - 1)]
    hit = np.nonzero(cdf >= y - 1e-12)[0]
    if len(hit) == 0:
        raise ValueError(f"no grid point reaches CDF level {y}")
    return float(xgrid[hit[0]])


def fast_path_exists_scalar(model, d: int, p: int, n_steps: int, x: float,
                            node_cap: int) -> tuple[bool, bool]:
    """(found, capped) of the cheap-detour path search, edge by edge.

    Best-first over (steps taken, vertex) with the first n-1 steps inside
    axes 1..p and the forward edge last, pruning partial costs above x;
    every weight comes from a memoized scalar ``edge_weight`` call.
    """
    start = (0,) * d
    if n_steps == 1:
        return model.edge_weight(EdgeId(start, 0)) <= x, False
    memo: dict[EdgeId, float] = {}

    def weight(e: EdgeId) -> float:
        w = memo.get(e)
        if w is None:
            w = memo[e] = model.edge_weight(e)
        return w

    best = {(0, start): 0.0}
    heap = [(0.0, 0, start)]
    settled = set()
    nodes = 0
    while heap:
        cost, t, v = heappop(heap)
        if (t, v) in settled:
            continue
        settled.add((t, v))
        nodes += 1
        if nodes > node_cap:
            return False, True
        if t == n_steps - 1:
            if cost + weight(EdgeId(v, 0)) <= x:
                return True, False
            continue
        for axis in range(1, p + 1):
            for delta in (1, -1):
                q = step(v, axis, delta)
                nc = cost + weight(EdgeId(v, axis) if delta > 0 else EdgeId(q, axis))
                key = (t + 1, q)
                if nc <= x and nc < best.get(key, inf):
                    best[key] = nc
                    heappush(heap, (nc, t + 1, q))
    return False, False


def cheap_state_count(model, d: int, p: int, n_steps: int, x: float) -> int:
    """How many states (t, v) with t < n_steps the cheap-detour search can
    settle: those reached by a t-step path inside axes 1..p whose partial
    costs are all at most x. A layered relaxation, one scalar
    ``edge_weight`` call per edge; the search is capped on a seed iff this
    count exceeds its node cap and no path is found first."""
    level = {(0,) * d: 0.0}
    total = len(level)
    for _ in range(n_steps - 1):
        nxt: dict = {}
        for v, cost in level.items():
            for axis in range(1, p + 1):
                for delta in (1, -1):
                    q = step(v, axis, delta)
                    nc = cost + model.edge_weight(EdgeId(v, axis) if delta > 0
                                                  else EdgeId(q, axis))
                    if nc <= x and nc < nxt.get(q, inf):
                        nxt[q] = nc
        level = nxt
        total += len(level)
    return total


class DrawSourceReference:
    """Uniform and exponential draws from one generator, each stream pulled
    in whole blocks of 4096 variates that are turned into lists at once."""

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._uni: list[float] = []
        self._ui = 0
        self._exp: list[float] = []
        self._ei = 0

    def uniform(self) -> float:
        if self._ui == len(self._uni):
            self._uni = self._rng.random(self.BLOCK).tolist()
            self._ui = 0
        u = self._uni[self._ui]
        self._ui += 1
        return u

    def exponential(self) -> float:
        if self._ei == len(self._exp):
            self._exp = self._rng.standard_exponential(self.BLOCK).tolist()
            self._ei = 0
        e = self._exp[self._ei]
        self._ei += 1
        return e
