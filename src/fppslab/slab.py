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
before other entries, then lexicographic vertex order. No entry is pushed
that could not pop before the best target found so far: an inner entry at
or above its value, or a target entry above it.

The slab crossing from a start on plane k = start[0] is the search over
k <= x_1 <= k + 1, so its target is x_1 = k + 1; the point-to-hyperplane
time is the search over 0 <= x_1 <= n.

The kernel runs many independent searches in lockstep, as the Monte Carlo
harness needs: each has its own start and, given seeds, its own
realization ``model.with_seed(seed)``. At each step every live search
pops and settles its next vertex, and then the stars of all the vertices
settled in that step are weighed at once. The weights come from one of
two sources:

* ``weights.edge_units``, for a WeightModel with seeds and enough live
  searches: one vectorized hash pass over all those stars, each edge under
  its own search's seed, then the scalar ``quantile`` of each unit needed.
  One ``weight_floor`` call then bounds every unit's weight from below
  in numpy, and the per-edge loop drops a move whose floor already puts
  its endpoint above its search's best target (``_reach``) at one float
  comparison, before it builds the endpoint, looks it up or calls
  ``quantile``. It is exact because the floor is at most the weight, and
  a move with val + weight > best reaches ``continue`` in the loop
  without writing a distance or pushing an entry, whatever it meets
  there. So every push, settle order, value, exit and settled count is
  the one the unfiltered loop gives;
* ``edge_weight``, edge by edge, for a single search, a step with few
  live searches, or any other model (``CoupledWeights``, test doubles),
  since a numpy pass over a few stars costs more than the scalar oracle.

Both give each edge the weight ``edge_weight`` gives it, bit for bit (the
``weights`` module docstring says why). The searches share nothing else:
each has its own heap, distances, best target and settled count, and the
step order within one search is the serial one. So every value, exit
vertex and settled count equals that of the search run alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice, repeat
from math import inf

from .errors import BudgetExceeded, DomainError
from .lattice import EdgeId, Point, check_dimension
from .weights import WeightModel, edge_units

# the default of every work cap: vertices settled by these searches, vertices
# infected by the cluster race, path states kept per replicate by the probe
DEFAULT_SETTLED_CAP = 1_000_000

_TARGET, _INNER = 0, 1  # heap kinds; targets win ties

# Searches live at once in _lazy_search: slab crossings, and searches over
# more than one plane (span > 1). One that finishes hands its place to the
# next. In process (exp(1), 1000 replicates), ms per crossing at d = 3 / 5
# read 0.057 / 0.162 with 16 live, 0.042 / 0.121 with 32, 0.036 / 0.105
# with 64 and 0.032 / 0.099 with 128, with peak RSS 0.1 MB higher at 128. A
# search to the plane n = 3 at d = 4 holds 14 times the vertices of a
# crossing (142 against 10 on average), and there the number live sets
# the peak: over three rounds of the benchmark's slab jobs in one
# interpreter, peak RSS was 1.2-1.3 MB above the serial kernel's with 8
# live, 1.4 with 16, 1.6 with 32 and 1.9 with 64. The 80 searches of one
# such job took 129 ms with 8 live, 99 with 16 and 81 with 64, against
# 145 ms one at a time. One block of 128 for every span was tried too:
# subadd --d 5 --n 8 --reps 200 then peaked at 568 MB against 89 MB with
# these blocks, and took 118 s against 84 s.
_SEARCH_BLOCK = 64
_WIDE_BLOCK = 8
# The fewest live searches whose stars one edge_units pass weighs; with
# fewer, each edge comes from edge_weight. A pass over 1-6 stars costs
# 38-41 us at d = 3 and 53-56 us at d = 5, tolist included, 41-44 and
# 56-59 us with the weight_floor rows, and a star through edge_weight
# 11-29 us. In the kernel with n searches live throughout (exp(1)), us
# per settled vertex with the pass / without it, the least of 14 runs,
# read at n = 4: 17.3 / 15.0 (d = 3, crossings), 28.2 / 31.8 (d = 5,
# crossings), 20.0 / 22.0 (d = 4, span 3); at n = 5: 15.9 / 14.9,
# 26.2 / 31.8, 18.1 / 21.2; at n = 6: 15.0 / 15.1, 25.5 / 31.9,
# 15.6 / 23.2. From 5 on the pass is within 7% of edge_weight at d = 3
# and 15-33% ahead of it at d = 4-5; at 4 it is 15% behind at d = 3.
_BATCH_MIN = 5


@dataclass(frozen=True)
class PassageSample:
    """One realization of a slab crossing."""

    value: float
    exit_vertex: Point
    settled_count: int


def _reach(best: float, val: float) -> float:
    """The prune threshold of a move from a vertex settled at ``val`` in a
    search whose best target is ``best``: a move whose weight w has
    ``weight_floor`` above it has val + w > best as the loop computes it.

    The threshold is best - val + best * 2^-50 as computed. For a normal
    best and 0 <= val < best, the subtraction and the sum each round by at
    most an ulp of best, and best * 2^-50 is at least three ulps of best
    after rounding. So the threshold lies an ulp of best or more above
    best - val, a weight w above it has val + w > best + ulp(best)
    exactly, and val + w rounds to a double above best. For a subnormal
    best the subtraction and the sum are exact, and val + w > best rounds
    above best, as it is exact too or at least the least normal double.
    An infinite best gives an infinite threshold, which prunes nothing.
    """
    return best - val + best * 2.0**-50


def _lazy_search(model, starts: list[Point], span: int, settled_cap: int,
                 seeds: list[int] | None = None) -> Iterator[tuple[int, float, Point, int]]:
    """Dijkstra from each of ``starts``, all searches in lockstep.

    Search r runs on ``model``, or on ``model.with_seed(seeds[r])`` if
    ``seeds`` is given, over the vertices with lo <= x_1 <= hi, where lo =
    starts[r][0] and hi = lo + span; its targets are the vertices on the
    plane x_1 = hi. Yields (r, value, target vertex, settled count) for
    the first target of search r to pop, as the searches finish. A target
    enters the heap as a terminal entry that is never expanded; on equal
    values it pops before any other entry, then in lexicographic vertex
    order. Settling more than ``settled_cap`` vertices in one search
    raises BudgetExceeded.

    Up to ``_SEARCH_BLOCK`` searches (``_WIDE_BLOCK`` if span > 1) are
    live at once, and one that finishes hands its place to the next; a
    finished search's dict and heap go with it. At each step every live
    search pops its next unsettled vertex, and the step then weighs all
    their stars: through one ``edge_units`` pass, each under its own seed,
    when ``seeds`` are given to a WeightModel and at least ``_BATCH_MIN``
    searches are live, and through ``edge_weight`` otherwise. No entry is
    pushed that could not pop before the best target found so far
    (``best``): an inner entry at or above it, as targets win ties, or a
    target entry above it. A settled vertex keeps None as its distance.
    After an ``edge_units`` pass, one ``weight_floor`` call bounds every
    unit's weight from below, and the loop skips, before any other work,
    each move whose floor exceeds ``_reach(best, val)``: its endpoint value
    val + weight must exceed best, where the loop would push nothing.
    The threshold takes best as it stood when the vertex's moves began;
    best only falls while they run, so it stays conservative.
    """
    d = len(starts[0])
    moves = [(axis, delta) for axis in range(d) for delta in (1, -1)]
    if span == 1:
        moves.remove((0, -1))  # every expanded vertex lies on x_1 = lo
    hashed = seeds is not None and type(model) is WeightModel
    weigh = model.unit_weight if hashed else None  # the quantile, for units in [0, 1)
    block = _SEARCH_BLOCK if span == 1 else _WIDE_BLOCK
    waiting = iter(range(len(starts)))
    # per live search: [r, hi, dist, heap, best, its model, settled count]
    live: list[list] = []
    while True:
        for r in islice(waiting, block - len(live)):
            start = starts[r]
            live.append([r, start[0] + span, {start: 0.0}, [(0.0, _INNER, start)], inf,
                         model if seeds is None else model.with_seed(seeds[r]), 0])
        if not live:
            return
        # every live search settles its next vertex, or pops its target and
        # drops out, and with it its dict and heap
        popped = []
        for search in live:
            dist, heap = search[2], search[3]
            while heap:
                val, kind, v = heappop(heap)
                if kind == _TARGET:
                    yield search[0], val, v, search[6]
                    break
                if dist[v] is not None:
                    dist[v] = None
                    search[6] += 1
                    if search[6] > settled_cap:
                        raise BudgetExceeded(f"search exceeded settled cap {settled_cap}")
                    popped.append((search, val, v))
                    break
            else:
                raise BudgetExceeded("search exhausted without reaching a target")
        live = [search for search, _, _ in popped]
        rows = None
        if hashed and len(live) >= _BATCH_MIN:
            # the popped vertices are the rows of edge_units' coordinate matrix
            units = edge_units([search[5].seed for search in live], d,
                               [v for _, _, v in popped], moves)
            rows = zip(units.tolist(), model.weight_floor(units).tolist())
        for search, val, v in popped:
            _, hi, dist, heap, best, source, _ = search
            lo = hi - span
            if rows is None:
                reach, star = inf, zip(moves, repeat(None), repeat(0.0))
            else:
                reach, star = _reach(best, val), zip(moves, *next(rows))
            for (axis, delta), unit, floor in star:
                if floor > reach:  # val + weight > best: it would push nothing
                    continue
                if axis == 0 and not lo <= v[0] + delta <= hi:
                    continue
                q = v[:axis] + (v[axis] + delta,) + v[axis + 1:]
                known = dist.get(q, inf)
                if known is None:
                    continue
                # the edge's base is its endpoint with the smaller x_axis
                nd = val + (source.edge_weight(EdgeId(v if delta > 0 else q, axis))
                            if unit is None else weigh(unit))
                if nd >= known:
                    continue
                if q[0] == hi:
                    if nd > best:
                        continue
                    best = nd
                    heappush(heap, (nd, _TARGET, q))
                elif nd < best:
                    heappush(heap, (nd, _INNER, q))
                else:
                    continue
                dist[q] = nd
            search[4] = best


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
    _, *found = next(_lazy_search(model, [start], 1, settled_cap))
    return PassageSample(*found)


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
    return next(_lazy_search(model, [(0,) * d], n, settled_cap))[1]


def _concatenations(model, d: int, n: int, settled_cap: int,
                    seeds: list[int] | None = None) -> list[list[PassageSample]]:
    """``greedy_concatenation`` on ``model``, or on ``model.with_seed(seed)``
    for each of ``seeds``; crossing k of every chain is one
    ``_lazy_search`` call."""
    chains: list[list[PassageSample]] = [[] for _ in range(1 if seeds is None else len(seeds))]
    starts: list[Point] = [(0,) * d] * len(chains)
    for _ in range(n):
        for r, *found in _lazy_search(model, starts, 1, settled_cap, seeds):
            chains[r].append(PassageSample(*found))
        starts = [samples[-1].exit_vertex for samples in chains]
    return chains


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
    check_dimension(d)
    return _concatenations(model, d, n, settled_cap)[0]
