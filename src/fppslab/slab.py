"""Exact passage times on implicit regions of Z^d.

Every search is one lazy best-first (Dijkstra) kernel over the implicit
lattice: edge weights are generated on first touch through the seeded
oracle, so no realization is ever materialized and only O(settled * d)
edges are drawn. The kernel takes a start vertex and an allowed range
lo <= x_1 <= hi; its targets are the vertices on the plane x_1 = hi. The
other coordinates are unbounded, so there is no box and no truncation
error.

A target vertex enters the heap as a terminal entry and is never
expanded. The search stops the moment the cheapest heap entry is a target,
i.e. when the best tentative target value is <= every other tentative
value; that value is then exact. Ties (measure zero under continuous
weights, possible under table atoms) break deterministically: targets
before other entries, then lexicographic vertex order.

The slab crossing from a start on plane k = start[0] is the search over
k <= x_1 <= k + 1, so its target is x_1 = k + 1; the point-to-hyperplane
time is the search over 0 <= x_1 <= n.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf

from .errors import BudgetExceeded, DomainError
from .lattice import EdgeId, Point, check_dimension, step

# the default of every work cap: vertices settled by these searches, vertices
# infected by the cluster race, path states kept per replicate by the probe
DEFAULT_SETTLED_CAP = 1_000_000

_TARGET, _INNER = 0, 1  # heap kinds; targets win ties


@dataclass(frozen=True)
class PassageSample:
    """One realization of a slab crossing."""

    value: float
    exit_vertex: Point
    settled_count: int


def _lazy_search(model, start: Point, lo: int, hi: int,
                 settled_cap: int) -> tuple[float, Point, int]:
    """Dijkstra from ``start`` over the vertices with lo <= x_1 <= hi.

    The targets are the vertices on the plane x_1 = hi. Returns (value,
    target vertex, settled count) for the first target to pop. A target
    enters the heap as a terminal entry that is never expanded; on equal
    values it pops before any other entry, then in lexicographic vertex
    order. Settling more than ``settled_cap`` vertices raises
    BudgetExceeded.
    """
    moves = [(axis, delta) for axis in range(len(start)) for delta in (1, -1)]
    edge_weight = model.edge_weight
    dist: dict[Point, float] = {start: 0.0}
    settled: set[Point] = set()
    heap: list[tuple[float, int, Point]] = [(0.0, _INNER, start)]
    while heap:
        val, kind, v = heapq.heappop(heap)
        if kind == _TARGET:
            return val, v, len(settled)
        if v in settled:
            continue
        settled.add(v)
        if len(settled) > settled_cap:
            raise BudgetExceeded(f"search exceeded settled cap {settled_cap}")
        for axis, delta in moves:
            if axis == 0 and not lo <= v[0] + delta <= hi:
                continue
            q = step(v, axis, delta)
            if q in settled:
                continue
            # the edge's base is its endpoint with the smaller x_axis
            nd = val + edge_weight(EdgeId(v if delta > 0 else q, axis))
            if nd < dist.get(q, inf):
                dist[q] = nd
                heapq.heappush(heap, (nd, _TARGET if q[0] == hi else _INNER, q))
    raise BudgetExceeded("search exhausted without reaching a target")


def slab_crossing_time(model, start: Point, *,
                       settled_cap: int = DEFAULT_SETTLED_CAP) -> PassageSample:
    """Cheapest crossing from ``start`` into the next hyperplane.

    With k = start[0], minimizes total weight over finite paths whose
    non-terminal vertices all lie in the hyperplane {x_1 = k} and whose
    final edge steps forward to {x_1 = k + 1}; backward edges are not
    available at all. The optimum is found exactly; ``settled_cap`` is only
    a safety valve against weight models with mass far from zero.
    """
    check_dimension(len(start))
    k = start[0]
    return PassageSample(*_lazy_search(model, start, k, k + 1, settled_cap))


def point_to_hyperplane_time(model, d: int, n: int, *,
                             settled_cap: int = DEFAULT_SETTLED_CAP) -> float:
    """Exact passage time from the origin to the hyperplane {x_1 = n}.

    Minimizes over paths whose vertices all satisfy 0 <= x_1 <= n (the
    first vertex on x_1 = n ends the path); the other coordinates are
    unbounded.
    """
    if n < 1:
        raise DomainError(f"hyperplane index must be >= 1, got {n}")
    check_dimension(d)
    return _lazy_search(model, (0,) * d, 0, n, settled_cap)[0]


def greedy_concatenation(model, d: int, n: int, *,
                         settled_cap: int = DEFAULT_SETTLED_CAP) -> list[PassageSample]:
    """Chain of n slab crossings, each restarting from the previous exit.

    All crossings run on the same weight realization; crossing k uses only
    edges inside hyperplane k plus one forward edge, so the crossings touch
    pairwise disjoint edge sets and their sum dominates the unconstrained
    passage time to hyperplane n.
    """
    if n < 1:
        raise DomainError(f"need at least one crossing, got {n}")
    out: list[PassageSample] = []
    v: Point = (0,) * d
    for _ in range(n):
        sample = slab_crossing_time(model, v, settled_cap=settled_cap)
        out.append(sample)
        v = sample.exit_vertex
    return out
