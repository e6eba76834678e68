"""Memoryless cluster-growth sampler for the slab crossing time.

Under Exponential(a) edge weights the growth of the infected cluster is
Markovian: given a cluster with i vertices and S in-plane perimeter edges,
the i + S candidate edges (one forward edge per infected vertex plus the S
perimeter edges) race with i.i.d. Exponential(a) clocks. The waiting time
to the next infection is Exponential(a * (i + S)) and the crossed edge is
uniform over the candidates. Crossing a forward edge ends the run; crossing
a perimeter edge infects one new vertex. The time at which the first
forward edge is crossed has exactly the law of the slab crossing time, so
sampling costs O(cluster size) instead of a full shortest-path search.

One race is one ``_Cluster``, and a step is its ``pick`` then its
``grow``. Per-step bookkeeping is kept O(d) with small constants:

* vertices carry 64-bit keys under a random linear hash, so all 2(d-1)
  in-plane neighbor keys of a vertex are one vectorized add away;
* ``pick`` takes the step's draws: the exponential holding time, the
  crossed edge, then, for a perimeter edge, rejection over (vertex,
  direction) pairs. A pair maps to a perimeter edge exactly when its head
  is healthy, and each perimeter edge has exactly one infected endpoint, so
  accepted pairs are uniform over perimeter edges. Acceptance probability
  is S / (2(d-1) i) >= i^(-1/(d-1)), close to 1 in high dimension;
* ``grow`` adds the new vertex given the count k of its infected
  neighbors, S' = S + 2(d-1) - 2k, and checks S against the bounds every
  connected cluster obeys and the cluster size against its cap. The lower
  bound is ``bounds._perimeter_floor``, the series' floor, at every d >= 2.

Only the count k differs between the two races:

* ``sample_slab_crossing`` is the reference. It steps one cluster, counts
  k exactly, as the size of the intersection of the 2(d-1) neighbor keys
  with the cluster's key set, and keeps coordinates for the exit vertex
  and for ``validate=True``, which recomputes S from them after every
  step. Distinct vertices collide under the linear hash with probability
  ~2^-64 per pair; validation would surface such an event (and any
  bookkeeping bug) immediately.
* ``race_values`` steps up to ``_RACE_SLOTS`` clusters in lockstep and
  returns exactly the values the reference gives, bit for bit. Each
  cluster draws from its own ``DrawSource``, seeded as the reference seeds
  it, through the same ``pick``, so every variate it sees is the one the
  reference sees. Only the neighbor scan is shared, and it is the one place
  in this module that uses a presence filter: per lockstep step, one add of
  the 2(d-1) direction deltas to every stepping cluster's new key, one mask
  and one gather from a filter that holds the keys of all live clusters,
  each offset by a salt of its own. A hit counts only once the cluster's
  own key set holds the unsalted neighbor key, so the filter, its salts and
  its stale entries (keys of finished clusters, dropped at the next
  rebuild) change how many lookups are made, never a count. The one
  neighbor known to be infected, the vertex the new one was reached from,
  is counted without a lookup, as the reference's exact count includes it.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .bounds import _perimeter_floor
from .errors import BudgetExceeded, InvariantViolation
from .lattice import Point, check_dimension, step
from .slab import DEFAULT_SETTLED_CAP, PassageSample
from .weights import U64, check_rate, fold64

_KEY_SALT = 0x1B87_3F5C_9D2E_A641  # fixed: cluster keys must not depend on run seeds


@functools.cache
def _dir_deltas(d: int) -> tuple[list[int], np.ndarray]:
    """Key delta per direction, as python ints mod 2^64 and as a uint64
    vector: direction 2j steps +1 along in-plane axis j, direction 2j + 1
    steps -1. Callers share the result and must not change it."""
    coef = [fold64(_KEY_SALT, (d, j)) or 1 for j in range(d - 1)]
    c_step = [delta for c in coef for delta in (c, (-c) & U64)]
    return c_step, np.array(c_step, dtype=np.uint64)


class DrawSource:
    """Buffered uniform/exponential draws from one seeded generator.

    Each stream pulls ``BLOCK`` variates from the shared numpy generator at
    the draw that first needs a new block, so the interleaving of those
    pulls, and with it every variate, depends on ``BLOCK``: its value 4096
    is part of the determinism contract (with 1024, every one of 40 d = 50
    samples changes). A block is turned into Python floats ``_CHUNK`` at a
    time, which avoids converting variates a short race never uses.
    ``uniform`` and ``exponential`` are the ``__next__`` of an
    ``itertools.chain`` over those lists, so a draw runs no Python frame.
    Every draw goes through ``_Cluster.pick``, in the reference race and
    in the lockstep race alike, so no presence filter can touch the stream.
    """

    BLOCK = 4096
    _CHUNK = 256  # divides BLOCK, so blocks are pulled at the same draws

    def __init__(self, rng: np.random.Generator):
        self.uniform = itertools.chain.from_iterable(self._chunks(rng.random)).__next__
        self.exponential = itertools.chain.from_iterable(
            self._chunks(rng.standard_exponential)).__next__

    @classmethod
    def from_seed(cls, seed: int) -> "DrawSource":
        return cls(np.random.default_rng(seed))

    # a classmethod: a generator holding the instance would form a cycle, and
    # finished sources and their blocks would wait for the cyclic collector
    @classmethod
    def _chunks(cls, pull):
        while True:
            block = pull(cls.BLOCK)
            for pos in range(0, cls.BLOCK, cls._CHUNK):
                yield block[pos:pos + cls._CHUNK].tolist()


def _check_perimeter_bounds(d: int, i: int, S: int) -> None:
    # a connected cluster of i vertices has at least i - 1 internal edges,
    # and each takes two of the 2(d-1)i in-plane edge ends off the perimeter
    s_max = 2 * (d - 1) * i - 2 * (i - 1)
    if S > s_max:
        raise InvariantViolation(f"perimeter {S} above 2(d-1)i - 2(i-1) = {s_max}")
    s_i = _perimeter_floor(d, i)
    if S + 1e-6 < s_i:  # slack absorbs float pow rounding at exact powers
        raise InvariantViolation(f"perimeter {S} below isoperimetric floor {s_i} at d={d}, i={i}")


_SALT_STEP = 0x9E37_79B9_7F4A_7C15  # Weyl step: replicate r's keys are offset by (r + 1) * step


class _Cluster:
    """One race: its draw streams, its vertex keys in infection order and
    the same keys as a set, S, the elapsed time, the salt that offsets its
    keys in the lockstep filter, and the vertex its last ``pick`` chose.
    The origin's key is 0."""

    __slots__ = ("d", "rate", "cap", "c_step", "uniform", "exponential", "keys",
                 "keyset", "perimeter", "elapsed", "rep", "salt",
                 "new_key", "new_dir", "parent")

    def __init__(self, d: int, a: float, seed: int, cluster_cap: int, rep: int = 0):
        source = DrawSource.from_seed(seed)
        self.d = d
        self.rate = a
        self.cap = cluster_cap
        self.c_step = _dir_deltas(d)[0]
        self.uniform = source.uniform
        self.exponential = source.exponential
        self.keys = [0]
        self.keyset = {0}
        self.perimeter = 2 * (d - 1)
        self.elapsed = 0.0
        self.rep = rep
        self.salt = ((rep + 1) * _SALT_STEP) & U64
        self.new_key = self.new_dir = self.parent = 0

    def pick(self) -> int | None:
        """Draw one step: the holding time, the crossed edge, then the
        rejection draws for a perimeter edge. Returns the index of the
        vertex whose forward edge was crossed, which ends the race, or None
        after recording the new vertex's key, its direction and the index
        of the vertex it was reached from."""
        keys = self.keys
        i = len(keys)
        total = i + self.perimeter
        self.elapsed += self.exponential() / (self.rate * total)
        j = int(self.uniform() * total)
        if j >= total:
            j = total - 1
        if j < i:
            return j

        c_step = self.c_step
        m = len(c_step)
        pairs = i * m
        keyset = self.keyset
        uniform = self.uniform
        while True:
            t = int(uniform() * pairs)
            if t >= pairs:
                t = pairs - 1
            u_idx, dirn = divmod(t, m)
            wk = (keys[u_idx] + c_step[dirn]) & U64
            if wk not in keyset:
                break
        self.new_key = wk
        self.new_dir = dirn
        self.parent = u_idx
        return None

    def grow(self, k: int) -> None:
        """Infect the picked vertex, which has k infected neighbors."""
        self.perimeter += len(self.c_step) - 2 * k
        self.keys.append(self.new_key)
        self.keyset.add(self.new_key)
        i = len(self.keys)
        _check_perimeter_bounds(self.d, i, self.perimeter)
        if i >= self.cap:
            raise BudgetExceeded(f"cluster grew past cap {self.cap} without exiting")


def _check_against_coords(cluster: _Cluster, coords: list[Point]) -> None:
    """Recompute the key count and S from exact coordinates (O(i * d^2))."""
    cells = set(coords)
    if len(cluster.keyset) != len(coords) or len(cells) != len(coords):
        raise InvariantViolation("vertex key collision in cluster bookkeeping")
    # each perimeter edge has exactly one infected end, so it is counted once
    exact = sum(u[:j] + (u[j] + delta,) + u[j + 1:] not in cells
                for u in coords for j in range(len(u)) for delta in (1, -1))
    if exact != cluster.perimeter:
        raise InvariantViolation(
            f"incremental perimeter {cluster.perimeter} != recomputed {exact}")


def sample_slab_crossing(d: int, a: float = 1.0, seed: int = 0, *,
                         cluster_cap: int = DEFAULT_SETTLED_CAP,
                         validate: bool = False) -> PassageSample:
    """Sample one slab crossing time by running the race to its first exit.

    Distributionally equal to ``slab_crossing_time`` under Exponential(a)
    weights. The draws come from ``DrawSource.from_seed(seed)``. Raises
    ``BudgetExceeded`` once a step grows the cluster to ``cluster_cap``
    vertices.
    """
    check_dimension(d)
    check_rate(a)
    c_signed = _dir_deltas(d)[1]
    cluster = _Cluster(d, a, seed, cluster_cap)
    keyset = cluster.keyset
    coords = [(0,) * (d - 1)]  # in-plane coordinates, in infection order
    while (exit_idx := cluster.pick()) is None:
        # k: the infected neighbors of the new vertex, the one it was reached from included
        k = len(keyset.intersection((np.uint64(cluster.new_key) + c_signed).tolist()))
        dirn = cluster.new_dir
        coords.append(step(coords[cluster.parent], dirn >> 1, 1 - 2 * (dirn & 1)))
        cluster.grow(k)
        if validate:
            _check_against_coords(cluster, coords)
    return PassageSample(cluster.elapsed, (1,) + coords[exit_idx], len(coords))


_RACE_SLOTS = 32          # replicates advanced in lockstep
_RACE_MIN_BITS = 16       # shared filter size floor: 65536 entries
_RACE_LOAD_SHIFT = 6      # rebuild once the keys added since the last build exceed size / 64


class _SaltedFilter:
    """Presence filter over salted keys that may answer yes for an absent
    key but never no for a present one.

    A key sets two entries, one indexed by its low bits and one by its high
    bits, and is reported present only when both are set. The race rebuilds
    the table once more than size / 64 keys were added, so about 1/32 of
    the entries at most are set, and an absent key passes with probability
    about 1/1000 or less.
    """

    def __init__(self, live: list[_Cluster]):
        n = sum(len(cl.keys) for cl in live)
        bits = max(_RACE_MIN_BITS, ((2 * n) << _RACE_LOAD_SHIFT).bit_length())
        self.table = np.zeros(1 << bits, dtype=bool)
        self.mask = np.uint64((1 << bits) - 1)
        self.high = np.uint64(64 - bits)
        self.added = 0
        if live:
            self.add(np.concatenate(
                [np.array(cl.keys, dtype=np.uint64) + np.uint64(cl.salt) for cl in live]))

    def add(self, salted: np.ndarray) -> None:
        # masked or shifted keys fit in int64, and an int64 index spares numpy a cast
        self.table[(salted & self.mask).view(np.int64)] = True
        self.table[(salted >> self.high).view(np.int64)] = True
        self.added += len(salted)

    def full(self) -> bool:
        return (self.added << _RACE_LOAD_SHIFT) > len(self.table)

    def hits(self, salted: np.ndarray, skip: list[int]) -> list[int]:
        """Indices into ``salted``, other than ``skip``, of the keys that may be present."""
        low = self.table[(salted & self.mask).view(np.int64)]
        low[skip] = False
        maybe = np.flatnonzero(low)
        return maybe[self.table[(salted[maybe] >> self.high).view(np.int64)]].tolist()


def race_values(d: int, a: float, seeds, *,
                cluster_cap: int = DEFAULT_SETTLED_CAP) -> np.ndarray:
    """``[sample_slab_crossing(d, a, s, cluster_cap=cluster_cap).value for s in seeds]``,
    bit for bit, as a float64 array.

    Up to ``_RACE_SLOTS`` races advance in lockstep, and a finished slot
    takes the next seed. See the module docstring for why every value is
    the serial one. Raises ``BudgetExceeded`` when some replicate's cluster
    reaches ``cluster_cap`` without exiting, as the serial loop does.
    """
    check_dimension(d)
    check_rate(a)
    c_step, c_signed = _dir_deltas(d)
    m = len(c_step)
    seeds = list(seeds)
    out = np.empty(len(seeds), dtype=np.float64)
    queue = iter(enumerate(seeds))
    live: list[_Cluster | None] = [
        _Cluster(d, a, seed, cluster_cap, rep)
        for rep, seed in itertools.islice(queue, _RACE_SLOTS)]
    filt = _SaltedFilter(live)

    while live:
        # each cluster picks its new vertex; one that exits hands its slot on
        for slot, cl in enumerate(live):
            while cl.pick() is not None:
                out[cl.rep] = cl.elapsed
                nxt = next(queue, None)
                if nxt is None:
                    live[slot] = None
                    break
                rep, seed = nxt
                cl = live[slot] = _Cluster(d, a, seed, cluster_cap, rep)
                filt.add(np.array([cl.salt], dtype=np.uint64))
        live = [cl for cl in live if cl is not None]
        if not live:
            break

        # shared: one gather for the neighbor keys of every new vertex. The
        # neighbor back across the chosen direction is the infected vertex
        # the new one was reached from (direction pairs sit at 2j, 2j + 1),
        # so it is counted without a lookup.
        salted = np.array([(cl.new_key + cl.salt) & U64 for cl in live], dtype=np.uint64)
        came_from = [r * m + (cl.new_dir ^ 1) for r, cl in enumerate(live)]
        infected_nbrs = [1] * len(live)
        for hit in filt.hits((salted[:, None] + c_signed).ravel(), came_from):
            r, c = divmod(hit, m)
            cl = live[r]
            if (cl.new_key + c_step[c]) & U64 in cl.keyset:
                infected_nbrs[r] += 1
        filt.add(salted)

        for cl, k in zip(live, infected_nbrs):
            cl.grow(k)
        if filt.full():
            filt = None  # drop the old table before the new one is built
            filt = _SaltedFilter(live)
    return out
