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
  vertex: S' = S + 2(d-1) - 2k. The neighbor scan gathers a boolean
  presence filter (indexed by the low key bits) for all neighbor keys in
  one vectorized load and verifies the few hits against the exact key set,
  so false positives in the filter cost a lookup but never an error.

Distinct vertices collide under the linear hash with probability ~2^-64
per pair; ``validate=True`` recomputes everything from exact coordinates
and would surface such an event (and any bookkeeping bug) immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, DomainError, InvariantViolation
from .lattice import EdgeId, Point
from .slab import PassageSample
from .weights import U64, fold64

DEFAULT_CLUSTER_CAP = 1_000_000

_KEY_SALT = 0x1B87_3F5C_9D2E_A641  # fixed: cluster keys must not depend on run seeds


class _DirTables(NamedTuple):
    n_dirs: int                     # 2(d-1)
    c_step: list[int]               # key delta per direction, python ints mod 2^64
    c_signed: np.ndarray            # same deltas as uint64 vector
    offsets: list[tuple[int, int]]  # (in-plane axis, +-1) per direction


_TABLES: dict[int, _DirTables] = {}


def _dir_tables(d: int) -> _DirTables:
    tables = _TABLES.get(d)
    if tables is None:
        coef = []
        for j in range(d - 1):
            c = fold64(_KEY_SALT, (d, j))
            coef.append(c if c else 1)
        c_step: list[int] = []
        offsets: list[tuple[int, int]] = []
        for j, c in enumerate(coef):
            c_step.append(c)
            offsets.append((j, 1))
            c_step.append((-c) & U64)
            offsets.append((j, -1))
        tables = _DirTables(
            n_dirs=2 * (d - 1),
            c_step=c_step,
            c_signed=np.array(c_step, dtype=np.uint64),
            offsets=offsets,
        )
        _TABLES[d] = tables
    return tables


class DrawSource:
    """Buffered uniform/exponential draws from one seeded generator.

    Block-refilled so the per-draw cost is a list index; the stream of
    variates is a pure function of the seed, independent of block size.
    """

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._uni: list[float] = []
        self._ui = 0
        self._exp: list[float] = []
        self._ei = 0

    @classmethod
    def from_seed(cls, seed: int) -> "DrawSource":
        return cls(np.random.default_rng(seed))

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


_FILTER_MIN_BITS = 13   # 8192 slots
_FILTER_LOAD_SHIFT = 8  # grow once occupancy exceeds size / 256


@dataclass
class ClusterState:
    """Mutable state of one exploration run.

    ``coords`` holds the in-plane coordinates (axes 2..d of the lattice) of
    infected vertices in infection order; the start hyperplane coordinate is
    implicitly 0. ``perimeter_count`` is S, maintained incrementally and
    recomputable from scratch via ``perimeter_size_recomputed``. ``filter_``
    is the presence prefilter over low key bits; membership is always
    confirmed against ``keyset``.
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
    filter_: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    filter_mask: np.uint64 = np.uint64(0)

    def _grow_filter(self) -> None:
        bits = max(_FILTER_MIN_BITS, (len(self.coords) << _FILTER_LOAD_SHIFT).bit_length())
        self.filter_ = np.zeros(1 << bits, dtype=bool)
        self.filter_mask = np.uint64((1 << bits) - 1)
        if self.keys:
            idx = np.array(self.keys, dtype=np.uint64) & self.filter_mask
            self.filter_[idx] = True

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


def initial_cluster(d: int, a: float = 1.0) -> ClusterState:
    """Singleton cluster at the origin: i = 1, S = 2(d-1)."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if not a > 0:
        raise DomainError(f"rate must be positive, got {a}")
    state = ClusterState(
        dimension=d,
        rate=a,
        coords=[(0,) * (d - 1)],
        keys=[0],
        keyset={0},
        perimeter_count=2 * (d - 1),
    )
    state._grow_filter()
    return state


def _check_perimeter_bounds(state: ClusterState) -> None:
    d, i, S = state.dimension, len(state.coords), state.perimeter_count
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

    axis, delta = tables.offsets[dirn]
    cu = state.coords[u_idx]
    w = cu[:axis] + (cu[axis] + delta,) + cu[axis + 1 :]
    nbr_keys = np.uint64(wk) + tables.c_signed
    maybe = state.filter_[nbr_keys & state.filter_mask]
    k = 0
    for cand in nbr_keys[maybe].tolist():
        if cand in keyset:
            k += 1

    state.perimeter_count += m - 2 * k
    state.coords.append(w)
    keys.append(wk)
    keyset.add(wk)
    state.filter_[int(wk) & int(state.filter_mask)] = True
    if (len(keys) << _FILTER_LOAD_SHIFT) > len(state.filter_):
        state._grow_filter()

    if validate:
        if len(keyset) != len(state.coords) or len(set(state.coords)) != len(state.coords):
            raise InvariantViolation("vertex key collision in cluster bookkeeping")
        exact = state.perimeter_size_recomputed()
        if exact != state.perimeter_count:
            raise InvariantViolation(
                f"incremental perimeter {state.perimeter_count} != recomputed {exact}"
            )
    _check_perimeter_bounds(state)
    return state, False


def sample_slab_crossing(d: int, a: float = 1.0,
                         rng: int | np.random.Generator | DrawSource = 0, *,
                         cluster_cap: int = DEFAULT_CLUSTER_CAP,
                         validate: bool = False) -> PassageSample:
    """Sample one slab crossing time by running the race to its first exit.

    Distributionally equal to ``slab_crossing_time`` under Exponential(a)
    weights. ``rng`` may be a seed, a numpy Generator, or a DrawSource;
    the reported ``seed_used`` is only known when a seed is given.
    """
    seed_used: int | None = None
    if isinstance(rng, DrawSource):
        source = rng
    elif isinstance(rng, np.random.Generator):
        source = DrawSource(rng)
    else:
        seed_used = int(rng)
        source = DrawSource.from_seed(seed_used)

    state = initial_cluster(d, a)
    while True:
        _, exited = dhar_step(state, source, validate=validate)
        if exited:
            return PassageSample(
                value=state.elapsed,
                exit_vertex=state.exit_vertex,
                settled_count=state.infected_count,
                dimension=d,
                seed_used=seed_used,
            )
        if state.infected_count >= cluster_cap:
            raise BudgetExceeded(f"cluster grew past cap {cluster_cap} without exiting")
