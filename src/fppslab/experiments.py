"""Monte Carlo harness over the samplers, with reproducible statistics.

A run's root seed is its weight model's seed: ``replicate_seeds(model, d, n)``
derives the seeds of replicates 0..n-1 at dimension d from it, and every
sampler, check and probe here takes its seeds from there, as does the CLI's
``seed`` column. Seeds derive by hashing, never by splitting a sequential
stream, so results are independent of execution order. Aggregation is
plain numpy reductions over arrays indexed by replicate, which makes every
reported number a pure function of the configuration.

The normalized statistic throughout is X = value * 2ad / log(d), whose
distribution concentrates at 1 as the dimension grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import inf

import numpy as np

from .eden import race_values
from .errors import DomainError, SamplerMismatch
from .lattice import check_dimension
from .slab import DEFAULT_SETTLED_CAP, _concatenations, _lazy_search
from .weights import WeightModel, derive_seed, edge_units

SAMPLERS = ("eden", "slab")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of a Monte Carlo run; the root seed is ``model.seed``."""

    d_grid: tuple[int, ...]
    model: WeightModel
    replicates: int
    budget_cap: int = DEFAULT_SETTLED_CAP

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates}")
        if not self.d_grid:
            raise DomainError("d_grid must not be empty")
        if len(set(self.d_grid)) < len(self.d_grid):
            raise DomainError(f"d_grid must not repeat a dimension, got {self.d_grid}")
        for d in self.d_grid:
            check_dimension(d)
        if self.budget_cap < 1:
            raise DomainError(f"budget_cap must be >= 1, got {self.budget_cap}")
        object.__setattr__(self, "d_grid", tuple(int(d) for d in self.d_grid))


@dataclass(frozen=True)
class SummaryStats:
    """Moments and intervals of one cell of the experiment grid.

    ``variance`` and the dependent fields are None for a single replicate.
    ``normalized_*`` fields are None when the model declares no density a.
    """

    n: int
    mean: float
    variance: float | None
    ci95: tuple[float, float] | None
    normalized_mean: float | None
    normalized_var: float | None


def replicate_seeds(model: WeightModel, d: int, n: int) -> list[int]:
    """Seeds of replicates 0..n-1 at dimension d: ``derive_seed(model.seed, d, rep)``."""
    return [derive_seed(model.seed, d, rep) for rep in range(n)]


def sample_crossing_values(config: ExperimentConfig, sampler: str, d: int, *,
                           seeds: list[int] | None = None) -> np.ndarray:
    """Independent slab-crossing samples at dimension d, one per replicate.

    Replicate ``rep`` uses seed ``rep`` of ``replicate_seeds``; a caller
    that already holds those seeds passes them as ``seeds``. The eden
    sampler runs all replicates through the lockstep race ``race_values``,
    whose values equal ``sample_slab_crossing``'s bit for bit.
    """
    if sampler not in SAMPLERS:
        raise DomainError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    model = config.model
    if seeds is None:
        seeds = replicate_seeds(model, d, config.replicates)
    if sampler == "eden":
        if model.family != "exp":
            raise SamplerMismatch(
                "the cluster-race sampler is exact only for exponential weights; "
                f"got family {model.family!r}"
            )
        return race_values(d, model.a, seeds, cluster_cap=config.budget_cap)

    return _search_values(model, seeds, d, 1, config.budget_cap)


def _search_values(model: WeightModel, seeds: list[int], d: int, span: int,
                   settled_cap: int) -> np.ndarray:
    """The exact passage time from the origin to the plane x_1 = span
    through 0 <= x_1 <= span, on ``model.with_seed(seed)`` for each seed."""
    values = np.empty(len(seeds))
    for r, value, _, _ in _lazy_search(model, [(0,) * d] * len(seeds), span,
                                       settled_cap, seeds):
        values[r] = value
    return values


def _scale(d: int, a: float) -> float:
    """2ad / log(d), the factor that turns a crossing time into X."""
    return 2.0 * a * d / math.log(d)


def _standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of ``x``; 0 for a single value."""
    return float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0


def summarize(values: np.ndarray, d: int, a: float | None) -> SummaryStats:
    n = len(values)
    mean = float(np.mean(values))
    scale = None if a is None else _scale(d, a)
    if n < 2:
        return SummaryStats(n=n, mean=mean, variance=None, ci95=None,
                            normalized_mean=None if scale is None else mean * scale,
                            normalized_var=None)
    var = float(np.var(values, ddof=1))
    half = 1.96 * math.sqrt(var / n)
    return SummaryStats(
        n=n,
        mean=mean,
        variance=var,
        ci95=(mean - half, mean + half),
        normalized_mean=None if scale is None else mean * scale,
        normalized_var=None if scale is None else var * scale**2,
    )


def run_slab_mc(config: ExperimentConfig, sampler: str = "eden") -> dict[int, SummaryStats]:
    """Summary statistics of the slab crossing time over the dimension grid."""
    out: dict[int, SummaryStats] = {}
    for d in config.d_grid:
        values = sample_crossing_values(config, sampler, d)
        out[d] = summarize(values, d, config.model.a)
    return out


# -- statistics helpers ------------------------------------------------------


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.96
    if n < 1:
        raise DomainError("need at least one trial")
    if not 0 <= successes <= n:
        raise DomainError(f"successes {successes} outside [0, {n}]")
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_x(t) - F_y(t)|."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if len(x) == 0 or len(y) == 0:
        raise DomainError("both samples must be nonempty")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


# -- concentration and uniform integrability ---------------------------------


@dataclass(frozen=True)
class ExceedanceEstimate:
    n: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float


def normalized_values(values: np.ndarray, d: int, a: float) -> np.ndarray:
    return np.asarray(values) * _scale(d, a)


def concentration_curve(config: ExperimentConfig, eta: float, *,
                        sampler: str = "eden") -> dict[int, ExceedanceEstimate]:
    """Empirical P(|X - 1| > eta) per dimension, with Wilson intervals."""
    if not eta > 0:
        raise DomainError(f"eta must be positive, got {eta}")
    if config.model.a is None:
        raise DomainError("concentration needs a declared density a")
    out: dict[int, ExceedanceEstimate] = {}
    for d in config.d_grid:
        values = sample_crossing_values(config, sampler, d)
        x = normalized_values(values, d, config.model.a)
        hits = int(np.count_nonzero(np.abs(x - 1.0) > eta))
        lo, hi = wilson_interval(hits, len(x))
        out[d] = ExceedanceEstimate(n=len(x), p_hat=hits / len(x),
                                    wilson_lo=lo, wilson_hi=hi)
    return out


def ui_tail(config: ExperimentConfig, m_cut: float, *,
            sampler: str = "eden") -> dict[int, float]:
    """Truncated mean E[X 1{X >= M}] of the normalized statistic, per d."""
    if not m_cut > 0:
        raise DomainError(f"M must be positive, got {m_cut}")
    if config.model.a is None:
        raise DomainError("the normalized tail needs a declared density a")
    out: dict[int, float] = {}
    for d in config.d_grid:
        values = sample_crossing_values(config, sampler, d)
        x = normalized_values(values, d, config.model.a)
        out[d] = float(np.sum(x[x >= m_cut]) / len(x))
    return out


# -- subadditivity ------------------------------------------------------------


@dataclass(frozen=True)
class SubadditivityReport:
    """Pathwise and mean comparison of direct vs concatenated crossings.

    ``pathwise_violations`` counts replicates where the direct passage time
    to hyperplane n exceeded the summed crossings on the same realization;
    it must be zero, since every concatenation is itself a feasible path.
    """

    d: int
    n: int
    replicates: int
    lhs_mean: float           # mean T(0, H_n) / n
    lhs_se: float
    rhs_mean: float           # mean single-slab crossing time
    rhs_se: float
    combined_se: float
    pathwise_violations: int


def subadditivity_check(config: ExperimentConfig, n: int) -> dict[int, SubadditivityReport]:
    """Compare direct hyperplane passage against greedy slab crossings."""
    if n < 1:
        raise DomainError(f"need n >= 1 hyperplanes, got {n}")
    out: dict[int, SubadditivityReport] = {}
    for d in config.d_grid:
        seeds = replicate_seeds(config.model, d, config.replicates)
        chains = [[s.value for s in chain] for chain in
                  _concatenations(config.model, d, n, config.budget_cap, seeds)]
        direct = _search_values(config.model, seeds, d, n, config.budget_cap)
        sums = np.array([sum(values) for values in chains])
        singles = np.array([v for values in chains for v in values])
        violations = int(np.count_nonzero(direct > sums + 1e-9))
        lhs = direct / n
        lhs_se = _standard_error(lhs)
        rhs_se = _standard_error(singles)
        out[d] = SubadditivityReport(
            d=d,
            n=n,
            replicates=config.replicates,
            lhs_mean=float(np.mean(lhs)),
            lhs_se=lhs_se,
            rhs_mean=float(np.mean(singles)),
            rhs_se=rhs_se,
            combined_se=math.hypot(lhs_se, rhs_se),
            pathwise_violations=violations,
        )
    return out


# -- search-and-cross probe ----------------------------------------------------


@dataclass(frozen=True)
class SearchCrossReport:
    """Empirical frequency of the cheap-detour event.

    The event asks for a short fast path to the next hyperplane inside a
    half-dimensional subspace, together with one cheap orthogonal first
    step whose weight is independent of the searched edges. ``target_rate``
    is the asymptotic floor 4 log(d)/d the frequency is compared against;
    the comparison is reported, not asserted, since the floor only binds
    for large d.
    """

    d: int
    subspace_dim: int          # p
    path_steps: int            # n, total steps including the final forward edge
    x_threshold: float         # cap on the path passage time
    y_threshold: float         # cap on the orthogonal first step
    replicates: int
    p_hat_fj: float            # both conditions
    p_hat_path: float          # fast path exists
    p_hat_tau: float           # orthogonal step cheap
    fj_wilson: tuple[float, float]
    target_rate: float
    capped_replicates: int


# The most keys one edge_units pass hashes, so its arrays stay in cache.
# The probe cuts its seeds to fill passes, not into blocks of a fixed
# count: a block holds all its members' levels at once, and blocks of 64
# raised peak RSS at d = 256 (60 replicates) from 37.8 MB (blocks of 16) to
# 53.2 MB. Blocks whose level-1 stars fill one pass hold about 30 seeds at
# d = 64 and 5 at d = 256. In a fresh interpreter (exp(1), seed 1012) the
# probe's peak RSS read 31.5 MB against 31.1 with the blocks of 16 at d = 64
# (2,000 replicates), 34.1 against 37.8 at d = 256 and 35.2 against 47.8 at
# d = 512 (20 replicates).
_PASS_KEYS = 1 << 14

# a vertex as its nonzero coordinates, flat and by index: (i, x_i, j, x_j, ...)
Sparse = tuple[int, ...]


def _shifted(nz: Sparse, axis: int, delta: int) -> Sparse:
    """The nonzero coordinates of v + delta * e_axis, for those ``nz`` of v."""
    for k in range(0, len(nz), 2):
        if nz[k] == axis:
            c = nz[k + 1] + delta
            return nz[:k] + (axis, c) + nz[k + 2:] if c else nz[:k] + nz[k + 2:]
        if nz[k] > axis:
            return nz[:k] + (axis, delta) + nz[k:]
    return nz + (axis, delta)


def _dense(verts: list[Sparse]) -> np.ndarray:
    """``verts`` as the rows of an int64 coordinate matrix for ``edge_units``,
    only as wide as their largest nonzero index + 1: the columns past it
    would be all zero, and each would cost memory and a pass over it."""
    flat = list(chain.from_iterable(verts))
    index = flat[::2]
    block = np.zeros((len(verts), max(index, default=-1) + 1), dtype=np.int64)
    block[np.repeat(np.arange(len(verts)), [len(v) // 2 for v in verts]), index] = flat[1::2]
    return block


def _cheap_entries(model: WeightModel, units: np.ndarray,
                   x: float) -> tuple[list[int], list[int], list[float]]:
    """The entries of the unit matrix ``units`` whose ``weight_floor`` is
    at most x, row by row, as flat lists (bounds, cols, weights): row r's
    are those at bounds[r]:bounds[r + 1], in column order. The weights
    come from the scalar ``unit_weight``, so each is its edge's
    ``edge_weight`` bit for bit; a few exp ones exceed x."""
    weigh = model.unit_weight
    rows, cols = np.nonzero(model.weight_floor(units) <= x)
    bounds = [0, *np.cumsum(np.bincount(rows, minlength=len(units))).tolist()]
    return bounds, cols.tolist(), [weigh(u) for u in units[rows, cols].tolist()]


def _rows(entries: tuple[list[int], list[int], list[float]]):
    """``_cheap_entries``' lists row by row, as (cols, weights) pairs."""
    bounds, cols, ws = entries
    for a, b in zip(bounds, bounds[1:]):
        yield cols[a:b], ws[a:b]


def _cheap_moves(model: WeightModel, d: int, seeds: list[int], verts: list[Sparse],
                 moves, x: float):
    """For each (seed, vertex) pair in turn, the indices and weights of the
    ``moves`` whose oracle unit has ``weight_floor`` at most x, in move
    order (``_cheap_entries``). The units come from ``edge_units`` passes
    of at most ``_PASS_KEYS`` keys, made as the pairs are consumed."""
    size = max(1, _PASS_KEYS // len(moves))
    for lo in range(0, len(verts), size):
        units = edge_units(seeds[lo:lo + size], d, _dense(verts[lo:lo + size]), moves)
        entries = _cheap_entries(model, units, x)
        del units  # free the pass before its rows are used
        yield from _rows(entries)


def _reached(level: list[dict[Sparse, float]], todo_r: list[int], todo_v: list[Sparse],
             moves, cheap, x: float) -> list[dict[Sparse, float]]:
    """Each vertex one of ``moves`` reaches within x from a state v of
    ``level[r]`` (v -> least cost), mapped to its least ``cost + w``; the
    states come as the pairs (todo_r, todo_v), and ``cheap`` yields each
    pair's cheap moves and weights in turn."""
    nxt: list[dict[Sparse, float]] = [{} for _ in level]
    for r, v, (ms, ws) in zip(todo_r, todo_v, cheap):
        cost, reach = level[r][v], nxt[r]
        for m, w in zip(ms, ws):
            nc = cost + w
            if nc <= x:
                q = _shifted(v, *moves[m])
                if nc < reach.get(q, inf):
                    reach[q] = nc
    return nxt


def _next_level(model: WeightModel, d: int, seeds: list[int],
                level: list[dict[Sparse, float]], moves, x: float) -> list[dict[Sparse, float]]:
    """One step of the sweep for every seed at once: from ``level[r]``
    (v -> least cost), each vertex one of ``moves`` reaches within x,
    mapped to its least ``cost + w``. All seeds' moves share the
    ``edge_units`` passes, and only units whose ``weight_floor`` is at
    most x are weighed: any other edge weighs more than x."""
    todo_r: list[int] = []
    todo_v: list[Sparse] = []
    for r, states in enumerate(level):
        todo_v += states
        todo_r += [r] * len(states)
    cheap = _cheap_moves(model, d, [seeds[r] for r in todo_r], todo_v, moves, x)
    return _reached(level, todo_r, todo_v, moves, cheap, x)


def _keep_cheapest(levels: list[dict[Sparse, float]], k: int, d: int) -> None:
    """Cut one seed's levels (level t maps v to its least cost) down to the
    states with the k smallest keys (cost, t, dense v), best-first's order."""
    keys = []
    for t, states in enumerate(levels):
        for v, cost in states.items():
            dense = [0] * d
            for i in range(0, len(v), 2):
                dense[v[i]] = v[i + 1]
            keys.append((cost, t, dense, v))
        states.clear()
    keys.sort()
    for cost, t, _, v in keys[:k]:
        levels[t][v] = cost


def _filled_blocks(sizes: list[int], per_state: int):
    """Cut seeds 0..len(sizes)-1 into runs (lo, hi) whose states, ``sizes[r]``
    for seed r with ``per_state`` keys each, fill at most one pass of
    ``_PASS_KEYS`` keys; a seed that alone overfills one is a run of its own."""
    lo = keys = 0
    for r, n in enumerate(sizes):
        if r > lo and keys + n * per_state > _PASS_KEYS:
            yield lo, r
            lo, keys = r, 0
        keys += n * per_state
    yield lo, len(sizes)


def _fast_paths_exist(model: WeightModel, seeds: list[int], d: int, p: int, n_steps: int,
                      x: float, node_cap: int) -> list[tuple[bool, bool, float]]:
    """Whether an n-step path with total weight <= x exists, per seed, and
    the weight of its orthogonal first step, the edge from the origin
    along axis p + 1.

    The first n-1 steps move inside the subspace of axes 1..p; the last
    step is the forward edge. Returns (found, capped, tau) for each seed:
    found and capped are those of a best-first search over the states
    (t, v), keyed (cost, t, dense v), that prunes partial costs above x
    and gives up, capped, once it has settled more than ``node_cap``
    states. When the cap bites, ``found`` is False.

    The search is a level sweep (``_next_level``): level t maps each
    vertex v to the least cost of a t-step path to it whose partial costs
    are all at most x, many seeds' at once. The levels run the search's
    own tests (``nc <= x`` and ``nc < best``) on the same float sums,
    added in path order; weights are >= 0 and float addition is monotone,
    so both find each state's least cost. A level weighs only the edges
    whose ``weight_floor`` is at most x, as any other weighs more than x;
    an exp edge that passes yet weighs more fails ``nc <= x``, as nc >= w.
    The passes are filled, not cut to a fixed count of seeds. The origin's
    first moves and each seed's orthogonal edge are weighed for as many
    seeds as one ``edge_units`` pass of ``_PASS_KEYS`` keys holds, in that
    one pass. Those seeds then run the deeper levels in blocks cut so that
    each block's level-1 states, with one key per next move, fill about
    one pass (``_filled_blocks``). Every edge's unit is that of its own
    (seed, edge) key, so how the seeds are grouped changes no level.

    After each subspace level, a seed that has seen more than ``node_cap``
    states keeps only the states with its ``node_cap`` smallest keys, and
    it counts as capped unless one of its kept terminal states (t = n-1)
    has a forward edge within x. That is the search's answer exactly.
    Each key the search pushes is larger than the key it popped, so it
    settles states in key order: it finds a path iff such a terminal state
    is among the ``node_cap`` smallest keys, and is capped iff there are
    more states and none is. A dropped state, and every state it leads to,
    has ``node_cap`` kept keys below it, so none of them is among those;
    a kept state's least-cost path runs through states with smaller keys,
    all kept, so its cost is exact. A seed within the cap keeps every
    state, and its path exists iff the level past the forward edge is not
    empty.
    """
    star = [(axis, delta) for axis in range(1, p + 1) for delta in (1, -1)]
    forward = [(0, 1)]
    first = star if n_steps > 1 else forward

    def block_paths(block: list[int], reached) -> list[tuple[bool, bool]]:
        """(found, capped) for each seed of ``block``, from its level 1."""
        if n_steps == 1:  # level 1 is past the forward edge
            return [(bool(e), False) for e in reached]
        levels = [[{(): 0.0}] for _ in block]  # per seed, its levels 0..t
        capped = [False] * len(block)
        for t in range(1, n_steps):
            if t > 1:
                reached = _next_level(model, d, block, [past[-1] for past in levels], star, x)
            for r, (past, states) in enumerate(zip(levels, reached)):
                past.append(states)
                if sum(map(len, past)) > node_cap:
                    capped[r] = True
                    _keep_cheapest(past, node_cap, d)
        terminal = [past[-1] for past in levels]
        del levels, reached  # no rank step is left: free the earlier levels
        ends = _next_level(model, d, block, terminal, forward, x)
        return [(bool(e), over and not e) for e, over in zip(ends, capped)]

    weigh = model.unit_weight
    out: list[tuple[bool, bool, float]] = []
    group = max(1, _PASS_KEYS // (len(first) + 1))
    for g in range(0, len(seeds), group):
        part = seeds[g:g + group]
        units = edge_units(part, d, np.zeros((len(part), 0), dtype=np.int64),
                           first + [(p + 1, 1)])
        taus = [weigh(u) for u in units[:, -1].tolist()]
        entries = _cheap_entries(model, units[:, :-1], x)
        del units  # the group's blocks hold only its cheap entries
        bounds, rows = entries[0], _rows(entries)
        after = star if n_steps > 2 else forward
        for lo, hi in _filled_blocks([b - a for a, b in zip(bounds, bounds[1:])], len(after)):
            # the blocks take the group's origin rows in turn
            reached = _reached([{(): 0.0}] * (hi - lo), range(hi - lo), [()] * (hi - lo),
                               first, rows, x)
            paths = block_paths(part[lo:hi], reached)
            out += [(found, over, tau) for (found, over), tau in zip(paths, taus[lo:hi])]
    return out


def search_cross_probe(d: int, model: WeightModel, replicates: int, *,
                       node_cap: int = DEFAULT_SETTLED_CAP) -> SearchCrossReport:
    """Estimate the cheap-detour probability at dimension d.

    Parameter choices follow the classical construction: subspace dimension
    p = floor(d/2), path length n = floor(0.75 log d), path budget
    x = 9 log(d)/(4ad), first-step budget y = 32 log(d)/(ad). A replicate
    counts as capped when a best-first search over its path states (t, v),
    keyed (cost, t, dense v), would settle more than ``node_cap`` of them
    without finding a path. The probe gets that answer from a level sweep
    that keeps each replicate's ``node_cap`` cheapest states: the search
    settles states in key order, a dropped state and every state it leads
    to rank past the cap, and each kept state's cost is exact
    (``_fast_paths_exist``). The orthogonal first step, the edge from the
    origin along axis p + 1, is weighed in the sweep's first pass.
    """
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    if node_cap < 1:
        raise DomainError(f"node_cap must be >= 1, got {node_cap}")
    if d < 8:
        raise DomainError(f"the probe needs d >= 8 so the path has a step, got {d}")
    if model.a is None:
        raise DomainError("the probe thresholds need a declared density a")
    a = model.a
    p = d // 2
    n_steps = int(math.floor(0.75 * math.log(d)))
    x = 9.0 * math.log(d) / (4.0 * a * d)
    y = 32.0 * math.log(d) / (a * d)

    paths = _fast_paths_exist(model, replicate_seeds(model, d, replicates), d, p,
                              n_steps, x, node_cap)
    tau_ok = np.array([tau <= y for _, _, tau in paths])
    path_ok = np.array([found for found, _, _ in paths])
    capped = sum(1 for _, c, _ in paths if c)
    both = int(np.count_nonzero(tau_ok & path_ok))
    return SearchCrossReport(
        d=d,
        subspace_dim=p,
        path_steps=n_steps,
        x_threshold=x,
        y_threshold=y,
        replicates=replicates,
        p_hat_fj=both / replicates,
        p_hat_path=float(np.mean(path_ok)),
        p_hat_tau=float(np.mean(tau_ok)),
        fj_wilson=wilson_interval(both, replicates),
        target_rate=4.0 * math.log(d) / d,
        capped_replicates=capped,
    )
