"""Independent reference implementations used to check the real ones.

These deliberately share no code with the package internals they verify:
the slab oracle is a dense Bellman-Ford relaxation on an explicit truncated
graph, the quantile oracle reconstructs the forward CDF from tabulated
inverse pairs on a dense grid and scans for the infimum, the
cheap-detour oracle is the probe's search with one scalar ``edge_weight``
call per edge, and the draw-source oracle turns each whole block of
variates into a list at once.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import inf

import numpy as np

from fppslab.lattice import EdgeId, step


def slab_value_bruteforce(model, d: int, radius: int) -> float:
    """Min-cost crossing with intermediate vertices in the in-plane box
    [-radius, radius]^(d-1), by repeated relaxation to a fixed point."""
    verts = list(itertools.product(range(-radius, radius + 1), repeat=d - 1))
    idx = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        full = (0,) + v
        for axis in range(1, d):
            w = list(v)
            w[axis - 1] += 1
            wt = tuple(w)
            if wt in idx:
                weight = model.edge_weight(EdgeId(full, axis))
                edges.append((idx[v], idx[wt], weight))
                edges.append((idx[wt], idx[v], weight))
    dist = [inf] * len(verts)
    dist[idx[(0,) * (d - 1)]] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, w in edges:
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                changed = True
    return min(
        dist[i] + model.edge_weight(EdgeId((0,) + verts[i], 0))
        for i in range(len(verts))
    )


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
