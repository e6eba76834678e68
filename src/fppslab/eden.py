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

Per-step bookkeeping is kept O(d) with small constants:

* vertices carry 64-bit keys under a random linear hash, so all 2(d-1)
  in-plane neighbor keys of a vertex are one vectorized add away;
* the uniform perimeter-edge choice uses rejection over (vertex, direction)
  pairs: a pair maps to a perimeter edge exactly when its head is healthy,
  and each perimeter edge has exactly one infected endpoint, so accepted
  pairs are uniform over perimeter edges. Acceptance probability is
  S / (2(d-1) i) >= i^(-1/(d-1)), close to 1 in high dimension;
* S is updated from the count k of already-infected neighbors of the new
  vertex: S' = S + 2(d-1) - 2k. The reference counts k by definition, as
  the size of the intersection of the 2(d-1) neighbor keys with the exact
  key set.

Distinct vertices collide under the linear hash with probability ~2^-64
per pair; ``validate=True`` recomputes everything from exact coordinates
and would surface such an event (and any bookkeeping bug) immediately.

``sample_slab_crossing``, ``dhar_step`` and ``ClusterState`` are the
reference: one replicate, stepped in public, with coordinates kept for
``validate=True``. ``race_values`` computes many replicates' values in a
lockstep race whose numpy work per step is shared, and returns exactly
the values the reference gives, bit for bit:

* each replicate draws from its own ``DrawSource``, seeded as the
  reference seeds it, and takes its draws in ``dhar_step``'s order (the
  exponential, the edge choice, then the rejection draws), so every
  variate it sees is the one the reference sees;
* each replicate keeps its own key list, exact key set and S, and runs the
  same perimeter-bound check and cluster-cap check after every step;
* only the neighbor scan is shared, and it is the one place in this
  module that uses a presence filter: per lockstep step, one add of the
  2(d-1) direction deltas to every stepping replicate's new key, one mask
  and one gather from a filter that holds the keys of all live
  replicates, each offset by a salt of its own. A hit counts only once the
  replicate's own key set holds the unsalted neighbor key, so the filter,
  its salts and its stale entries (keys of finished replicates, dropped at
  the next rebuild) change how many lookups are made, never a count. The
  one neighbor known to be infected, the vertex the new one was reached
  from, is counted without a lookup, as the reference's exact count
  includes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, DomainError, InvariantViolation
from .lattice import EdgeId, Point, step
from .slab import PassageSample
from .weights import U64, fold64

DEFAULT_CLUSTER_CAP = 1_000_000

_KEY_SALT = 0x1B87_3F5C_9D2E_A641  # fixed: cluster keys must not depend on run seeds


class _DirTables(NamedTuple):
    """Key deltas per direction: direction 2j steps +1 along in-plane axis
    j, direction 2j + 1 steps -1."""

    n_dirs: int            # 2(d-1)
    c_step: list[int]      # key delta per direction, python ints mod 2^64
    c_signed: np.ndarray   # same deltas as uint64 vector


_TABLES: dict[int, _DirTables] = {}


def _dir_tables(d: int) -> _DirTables:
    tables = _TABLES.get(d)
    if tables is None:
        coef = []
        for j in range(d - 1):
            c = fold64(_KEY_SALT, (d, j))
            coef.append(c if c else 1)
        c_step = [delta for c in coef for delta in (c, (-c) & U64)]
        tables = _DirTables(
            n_dirs=2 * (d - 1),
            c_step=c_step,
            c_signed=np.array(c_step, dtype=np.uint64),
        )
        _TABLES[d] = tables
    return tables


class DrawSource:
    """Buffered uniform/exponential draws from one seeded generator.

    Each stream is a generator that pulls ``BLOCK`` variates from the shared
    numpy generator at the draw that first needs a new block, so the
    interleaving of those pulls, and with it every variate, depends on
    ``BLOCK``: its value 4096 is part of the determinism contract (with
    1024, every one of 40 d = 50 samples changes). A block is turned into
    Python floats ``_CHUNK`` at a time, which keeps the per-draw cost one
    generator step without converting variates a short race never uses.
    The reference race, which counts neighbors by exact key-set lookup, and
    the lockstep race, the only one with a presence filter, take their
    draws from it in the same order, so no filter can touch the stream.
    """

    BLOCK = 4096
    _CHUNK = 256  # divides BLOCK, so blocks are pulled at the same draws

    def __init__(self, rng: np.random.Generator):
        self._uni = self._stream(rng.random)
        self._exp = self._stream(rng.standard_exponential)

    @classmethod
    def from_seed(cls, seed: int) -> "DrawSource":
        return cls(np.random.default_rng(seed))

    # a classmethod: a generator holding the instance would form a cycle, and
    # finished sources and their blocks would wait for the cyclic collector
    @classmethod
    def _stream(cls, pull):
        while True:
            block = pull(cls.BLOCK)
            for pos in range(0, cls.BLOCK, cls._CHUNK):
                yield from block[pos:pos + cls._CHUNK].tolist()

    def uniform(self) -> float:
        return next(self._uni)

    def exponential(self) -> float:
        return next(self._exp)


@dataclass
class ClusterState:
    """Mutable state of one exploration run.

    ``coords`` holds the in-plane coordinates (axes 2..d of the lattice) of
    infected vertices in infection order; the start hyperplane coordinate is
    implicitly 0. ``perimeter_count`` is S, maintained incrementally and
    recomputable from scratch via ``perimeter_size_recomputed``. ``keys``
    lists the vertex keys in infection order, and ``keyset`` holds the same
    keys for exact membership.
    """

    dimension: int
    rate: float
    coords: list[Point] = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    keyset: set[int] = field(default_factory=set)
    perimeter_count: int = 0
    elapsed: float = 0.0
    exited: bool = False
    exit_vertex: Point | None = None

    @property
    def infected_count(self) -> int:
        return len(self.coords)

    def perimeter_edges(self) -> set[EdgeId]:
        """Perimeter edge set rebuilt from scratch (exact, O(i * d))."""
        cells = set(self.coords)
        edges: set[EdgeId] = set()
        for u in self.coords:
            for j in range(self.dimension - 1):
                for delta in (1, -1):
                    w = u[:j] + (u[j] + delta,) + u[j + 1 :]
                    if w in cells:
                        continue
                    base = u if delta > 0 else w
                    edges.add(EdgeId((0,) + base, j + 1))
        return edges

    def perimeter_size_recomputed(self) -> int:
        return len(self.perimeter_edges())

    def exit_candidate_count(self) -> int:
        """One forward edge per infected vertex."""
        return len(self.coords)


def _check_domain(d: int, a: float) -> None:
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if not a > 0:
        raise DomainError(f"rate must be positive, got {a}")


def initial_cluster(d: int, a: float = 1.0) -> ClusterState:
    """Singleton cluster at the origin: i = 1, S = 2(d-1)."""
    _check_domain(d, a)
    return ClusterState(
        dimension=d,
        rate=a,
        coords=[(0,) * (d - 1)],
        keys=[0],
        keyset={0},
        perimeter_count=2 * (d - 1),
    )


def _check_perimeter_bounds(d: int, i: int, S: int) -> None:
    if S > (2 * d - 1) * i:
        raise InvariantViolation(f"perimeter {S} above (2d-1)i = {(2 * d - 1) * i}")
    if d >= 4:
        s_i = 2.0 * (d - 1) * i ** ((d - 2) / (d - 1))
        if S + 1e-6 < s_i:  # slack absorbs float pow rounding at exact powers
            raise InvariantViolation(
                f"perimeter {S} below isoperimetric floor {s_i} at d={d}, i={i}"
            )


def dhar_step(state: ClusterState, source: DrawSource, *,
              validate: bool = False) -> tuple[ClusterState, bool]:
    """Advance the race by one crossed edge; returns (state, exited).

    The state is updated in place. After an exit the state is frozen and
    further steps raise.
    """
    if state.exited:
        raise DomainError("cluster already exited; state is frozen")
    tables = _dir_tables(state.dimension)
    i = len(state.coords)
    total = i + state.perimeter_count
    state.elapsed += source.exponential() / (state.rate * total)

    j = int(source.uniform() * total)
    if j >= total:
        j = total - 1
    if j < i:
        state.exited = True
        state.exit_vertex = (1,) + state.coords[j]
        return state, True

    m = tables.n_dirs
    c_step = tables.c_step
    keys = state.keys
    keyset = state.keyset
    pairs = i * m
    while True:
        t = int(source.uniform() * pairs)
        if t >= pairs:
            t = pairs - 1
        u_idx, dirn = divmod(t, m)
        wk = (keys[u_idx] + c_step[dirn]) & U64
        if wk not in keyset:
            break

    # k: the infected neighbors of the new vertex, the one it was reached from included
    k = len(keyset.intersection((np.uint64(wk) + tables.c_signed).tolist()))
    state.perimeter_count += m - 2 * k
    state.coords.append(step(state.coords[u_idx], dirn >> 1, 1 - 2 * (dirn & 1)))
    keys.append(wk)
    keyset.add(wk)

    if validate:
        if len(keyset) != len(state.coords) or len(set(state.coords)) != len(state.coords):
            raise InvariantViolation("vertex key collision in cluster bookkeeping")
        exact = state.perimeter_size_recomputed()
        if exact != state.perimeter_count:
            raise InvariantViolation(
                f"incremental perimeter {state.perimeter_count} != recomputed {exact}"
            )
    _check_perimeter_bounds(state.dimension, len(keys), state.perimeter_count)
    return state, False


def sample_slab_crossing(d: int, a: float = 1.0, seed: int = 0, *,
                         cluster_cap: int = DEFAULT_CLUSTER_CAP,
                         validate: bool = False) -> PassageSample:
    """Sample one slab crossing time by running the race to its first exit.

    Distributionally equal to ``slab_crossing_time`` under Exponential(a)
    weights. The draws come from ``DrawSource.from_seed(seed)``.
    """
    state = initial_cluster(d, a)
    source = DrawSource.from_seed(seed)
    while True:
        _, exited = dhar_step(state, source, validate=validate)
        if exited:
            return PassageSample(
                value=state.elapsed,
                exit_vertex=state.exit_vertex,
                settled_count=state.infected_count,
                dimension=d,
                seed_used=seed,
            )
        if state.infected_count >= cluster_cap:
            raise BudgetExceeded(f"cluster grew past cap {cluster_cap} without exiting")


_RACE_SLOTS = 32          # replicates advanced in lockstep
_RACE_MIN_BITS = 16       # shared filter size floor: 65536 entries
_RACE_LOAD_SHIFT = 6      # rebuild once the keys added since the last build exceed size / 64
_SALT_STEP = 0x9E37_79B9_7F4A_7C15  # Weyl step: replicate r's keys are offset by (r + 1) * step


class _Replicate:
    """One replicate of the lockstep race: what ``dhar_step`` keeps of a
    cluster except its coordinates, plus the replicate's filter salt."""

    __slots__ = ("rep", "uniform", "exponential", "keys", "keyset", "perimeter",
                 "elapsed", "salt", "new_key", "new_dir")

    def __init__(self, rep: int, seed: int, n_dirs: int):
        source = DrawSource.from_seed(seed)
        self.rep = rep
        self.uniform = source.uniform
        self.exponential = source.exponential
        self.keys = [0]
        self.keyset = {0}
        self.perimeter = n_dirs
        self.elapsed = 0.0
        self.salt = ((rep + 1) * _SALT_STEP) & U64
        self.new_key = 0
        self.new_dir = 0


class _SaltedFilter:
    """Presence filter over salted keys that may answer yes for an absent
    key but never no for a present one.

    A key sets two entries, one indexed by its low bits and one by its high
    bits, and is reported present only when both are set. The race rebuilds
    the table once more than size / 64 keys were added, so about 1/32 of
    the entries at most are set, and an absent key passes with probability
    about 1/1000 or less.
    """

    def __init__(self, live: list[_Replicate]):
        n = sum(len(rp.keys) for rp in live)
        bits = max(_RACE_MIN_BITS, ((2 * n) << _RACE_LOAD_SHIFT).bit_length())
        self.table = np.zeros(1 << bits, dtype=bool)
        self.mask = np.uint64((1 << bits) - 1)
        self.high = np.uint64(64 - bits)
        self.added = 0
        if live:
            self.add(np.concatenate(
                [np.array(rp.keys, dtype=np.uint64) + np.uint64(rp.salt) for rp in live]))

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
                cluster_cap: int = DEFAULT_CLUSTER_CAP) -> np.ndarray:
    """``[sample_slab_crossing(d, a, s, cluster_cap=cluster_cap).value for s in seeds]``,
    bit for bit, as a float64 array.

    Up to ``_RACE_SLOTS`` races advance in lockstep, and a finished slot
    takes the next seed. See the module docstring for why every value is
    the serial one. Raises ``BudgetExceeded`` when some replicate's cluster
    reaches ``cluster_cap`` without exiting, as the serial loop does.
    """
    _check_domain(d, a)
    tables = _dir_tables(d)
    m = tables.n_dirs
    c_step = tables.c_step
    c_signed = tables.c_signed
    seeds = list(seeds)
    out = np.empty(len(seeds), dtype=np.float64)
    queue = iter(enumerate(seeds))
    live: list[_Replicate | None] = [
        _Replicate(rep, seed, m) for rep, seed in itertools.islice(queue, _RACE_SLOTS)]
    filt = _SaltedFilter(live)

    while live:
        # per replicate, in dhar_step's draw order: exit, or pick the new vertex
        for slot, rp in enumerate(live):
            while True:
                keys = rp.keys
                i = len(keys)
                total = i + rp.perimeter
                rp.elapsed += rp.exponential() / (a * total)
                j = int(rp.uniform() * total)
                if j >= total:
                    j = total - 1
                if j < i:
                    out[rp.rep] = rp.elapsed
                    nxt = next(queue, None)
                    rp = live[slot] = None if nxt is None else _Replicate(*nxt, m)
                    if rp is None:
                        break
                    filt.add(np.array([rp.salt], dtype=np.uint64))
                    continue
                pairs = i * m
                keyset = rp.keyset
                uniform = rp.uniform
                while True:
                    t = int(uniform() * pairs)
                    if t >= pairs:
                        t = pairs - 1
                    u_idx, dirn = divmod(t, m)
                    wk = (keys[u_idx] + c_step[dirn]) & U64
                    if wk not in keyset:
                        break
                rp.new_key = wk
                rp.new_dir = dirn
                break
        live = [rp for rp in live if rp is not None]
        if not live:
            break

        # shared: one gather for the neighbor keys of every new vertex. The
        # neighbor back across the chosen direction is the infected vertex
        # the new one was reached from (direction pairs sit at 2j, 2j + 1),
        # so it is counted without a lookup.
        salted = np.array([(rp.new_key + rp.salt) & U64 for rp in live], dtype=np.uint64)
        came_from = [r * m + (rp.new_dir ^ 1) for r, rp in enumerate(live)]
        infected_nbrs = [1] * len(live)
        for hit in filt.hits((salted[:, None] + c_signed).ravel(), came_from):
            r, c = divmod(hit, m)
            rp = live[r]
            if (rp.new_key + c_step[c]) & U64 in rp.keyset:
                infected_nbrs[r] += 1
        filt.add(salted)

        for rp, k in zip(live, infected_nbrs):
            rp.perimeter += m - 2 * k
            rp.keys.append(rp.new_key)
            rp.keyset.add(rp.new_key)
            i = len(rp.keys)
            _check_perimeter_bounds(d, i, rp.perimeter)
            if i >= cluster_cap:
                raise BudgetExceeded(f"cluster grew past cap {cluster_cap} without exiting")
        if filt.full():
            filt = None  # drop the old table before the new one is built
            filt = _SaltedFilter(live)
    return out
