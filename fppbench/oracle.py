"""Reference computations written apart from the fppslab package.

Nothing here imports fppslab. The edge weights follow the determinism
contract in the package README: the key (dimension, axis, coordinates) is
folded through the SplitMix64 finalizer together with the seed, the top
53 bits become a uniform in (0, 1), and the quantile function maps it to a
weight. On top of that sit the two exact references the workloads are
checked against: a Bellman-Ford relaxation for the slab crossing on an
in-plane box, and an exhaustive pruned walk enumeration for the
cheap-detour probe's fast-path event.
"""

from __future__ import annotations

import itertools
import math

MASK = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15


def splitmix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def absorb(seed: int, words) -> int:
    state = splitmix((seed & MASK) ^ PHI)
    for w in words:
        state = splitmix(((state + PHI) & MASK) ^ (w & MASK))
    return state


def replicate_seed(root: int, d: int, rep: int) -> int:
    return absorb(root, (d, rep))


class Weights:
    """Edge weights of one realization: exp(a) or a (y, x) quantile table."""

    def __init__(self, seed: int, a: float = 1.0, table=None):
        self.seed = seed
        self.a = a
        self.table = None if table is None else [(float(y), float(x)) for y, x in table]

    def quantile(self, u: float) -> float:
        if self.table is None:
            return -math.log1p(-u) / self.a
        nodes = self.table
        if u >= nodes[-1][0]:
            return nodes[-1][1]  # the atom past the last node
        for (y0, x0), (y1, x1) in zip(nodes, nodes[1:]):
            if u <= y1:
                if u == y1:
                    return x1
                return x0 + (u - y0) * (x1 - x0) / (y1 - y0)
        raise ValueError(f"quantile argument {u} outside the table")

    def edge(self, base, axis: int) -> float:
        """Weight of the edge from ``base`` to ``base + e_axis``."""
        h = absorb(self.seed, (len(base), axis, *base))
        return self.quantile(((h >> 11) + 0.5) / 2.0**53)


def slab_box_value(weights: Weights, d: int, radius: int) -> float:
    """Cheapest crossing from the origin to {x_1 = 1} whose in-plane part
    stays in [-radius, radius]^(d-1), by Bellman-Ford relaxation.

    Exact whenever the optimal path fits in the box, and an upper bound on
    the unrestricted crossing time always.
    """
    cells = list(itertools.product(range(-radius, radius + 1), repeat=d - 1))
    index = {c: i for i, c in enumerate(cells)}
    arcs = []
    for c in cells:
        for j in range(d - 1):
            up = c[:j] + (c[j] + 1,) + c[j + 1:]
            if up in index:
                w = weights.edge((0,) + c, j + 1)
                arcs.append((index[c], index[up], w))
                arcs.append((index[up], index[c], w))
    dist = [math.inf] * len(cells)
    dist[index[(0,) * (d - 1)]] = 0.0
    for _ in range(len(cells)):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return min(dist[index[c]] + weights.edge((0,) + c, 0) for c in cells)


def probe_thresholds(d: int, a: float) -> tuple[int, int, float, float]:
    """(subspace dimension, path steps, path budget x, first-step budget y)."""
    log_d = math.log(d)
    return d // 2, int(0.75 * log_d), 9.0 * log_d / (4.0 * a * d), 32.0 * log_d / (a * d)


def probe_events(weights: Weights, d: int) -> tuple[bool, bool]:
    """(cheap orthogonal step, fast path) for one realization.

    The fast path is any walk of n - 1 steps along axes 2..p+1 (either
    direction, revisits allowed) followed by the forward edge, with total
    weight at most x. Every walk is enumerated; a prefix already above x
    is cut, which loses nothing because weights are positive.
    """
    p, n_steps, x, y = probe_thresholds(d, weights.a)
    origin = (0,) * d
    tau_ok = weights.edge(origin, p + 1) <= y

    def extend(v, cost: float, left: int) -> bool:
        if left == 0:
            return cost + weights.edge(v, 0) <= x
        for axis in range(1, p + 1):
            for delta in (1, -1):
                q = v[:axis] + (v[axis] + delta,) + v[axis + 1:]
                c = cost + weights.edge(v if delta > 0 else q, axis)
                if c <= x and extend(q, c, left - 1):
                    return True
        return False

    return tau_ok, extend(origin, 0.0, n_steps - 1)
