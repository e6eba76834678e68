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


def sample_crossing_values(config: ExperimentConfig, sampler: str, d: int) -> np.ndarray:
    """Independent slab-crossing samples at dimension d, one per replicate.

    Replicate ``rep`` uses seed ``rep`` of ``replicate_seeds``. The eden
    sampler runs all replicates through the lockstep race ``race_values``,
    whose values equal ``sample_slab_crossing``'s bit for bit.
    """
    if sampler not in SAMPLERS:
        raise DomainError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    model = config.model
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


# Replicates whose searches share one hash pass per level. A larger block
# spreads numpy's per-call cost over more keys but holds all its members'
# levels at once. In a fresh interpreter the probe's peak RSS at d = 256
# (60 replicates) read 31.8-31.9 MB with blocks of 8, 32.0 with 12,
# 32.8 with 16, 32.9-33.0 with 17-18 and 33.3-33.4 with 20, against
# 32.4-32.6 with the blocks of 4 and per-seed tables this sweep replaced;
# at d = 64 (2,000 replicates) it read 31.1-31.4 MB for all of them,
# against 31.8-31.9. 16 is the largest block within 0.5 MB of the old
# peak at d = 256.
_PROBE_BLOCK = 16
# the most keys one edge_units pass hashes, so its arrays stay in cache
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


def _cheap_moves(model: WeightModel, d: int, seeds: list[int], verts: list[Sparse],
                 moves, cut: float):
    """For each (seed, vertex) pair in turn, the indices and weights of the
    ``moves`` whose oracle unit is at most ``cut``, in move order. The
    units come from ``edge_units`` passes of at most ``_PASS_KEYS`` keys,
    made as the pairs are consumed, and the weights from the scalar
    ``quantile``, so each weight is its edge's ``edge_weight`` bit for bit."""
    quantile = model.quantile
    size = max(1, _PASS_KEYS // len(moves))
    for lo in range(0, len(verts), size):
        units = edge_units(seeds[lo:lo + size], d, _dense(verts[lo:lo + size]), moves)
        rows, cols = np.nonzero(units <= cut)
        ends = np.cumsum(np.bincount(rows, minlength=len(units))).tolist()
        cols, us = cols.tolist(), units[rows, cols].tolist()
        for a, b in zip([0] + ends, ends):
            yield cols[a:b], [quantile(u) for u in us[a:b]]


def _next_level(model: WeightModel, d: int, seeds: list[int],
                level: list[dict[Sparse, float]], moves, cut: float,
                x: float) -> list[dict[Sparse, float]]:
    """One step of the sweep for every seed at once: from ``level[r]``
    (v -> least cost), each vertex one of ``moves`` reaches within x,
    mapped to its least ``cost + w``. All seeds' moves share the
    ``edge_units`` passes, and only units at or below ``cut`` go through the
    scalar ``quantile``: any other edge weighs more than x."""
    todo_r: list[int] = []
    todo_v: list[Sparse] = []
    for r, states in enumerate(level):
        todo_v += states
        todo_r += [r] * len(states)
    nxt: list[dict[Sparse, float]] = [{} for _ in level]
    got = _cheap_moves(model, d, [seeds[r] for r in todo_r], todo_v, moves, cut)
    for r, v, (ms, ws) in zip(todo_r, todo_v, got):
        cost, reach = level[r][v], nxt[r]
        for m, w in zip(ms, ws):
            nc = cost + w
            if nc <= x:
                q = _shifted(v, *moves[m])
                if nc < reach.get(q, inf):
                    reach[q] = nc
    return nxt


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


def _fast_paths_exist(model: WeightModel, seeds: list[int], d: int, p: int, n_steps: int,
                      x: float, node_cap: int) -> list[tuple[bool, bool]]:
    """Whether an n-step path with total weight <= x exists, per seed.

    The first n-1 steps move inside the subspace of axes 1..p; the last
    step is the forward edge. Returns (found, capped) for each seed: those
    of a best-first search over the states (t, v), keyed (cost, t, dense
    v), that prunes partial costs above x and gives up, capped, once it
    has settled more than ``node_cap`` states. When the cap bites,
    ``found`` is False.

    The seeds run in blocks of ``_PROBE_BLOCK``, and each block is swept
    level by level (``_next_level``): level t maps each vertex v to the
    least cost of a t-step path to it whose partial costs are all at most
    x, every block member's at once. The levels run the search's own tests
    (``nc <= x`` and ``nc < best``) on the same float sums, added in path
    order; weights are >= 0 and float addition is monotone, so both find
    each state's least cost.

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
    cut = model.quantile_cut(x)
    star = [(axis, delta) for axis in range(1, p + 1) for delta in (1, -1)]

    def block_paths(block: list[int]) -> list[tuple[bool, bool]]:
        levels = [[{(): 0.0}] for _ in block]  # per seed, its levels 0..t
        capped = [False] * len(block)
        for _ in range(n_steps - 1):
            reached = _next_level(model, d, block, [past[-1] for past in levels],
                                  star, cut, x)
            for r, states in enumerate(reached):
                levels[r].append(states)
                if sum(map(len, levels[r])) > node_cap:
                    capped[r] = True
                    _keep_cheapest(levels[r], node_cap, d)
        terminal = [past[-1] for past in levels]
        del levels  # no rank step is left: free the earlier levels
        ends = _next_level(model, d, block, terminal, [(0, 1)], cut, x)
        return [(bool(e), over and not e) for e, over in zip(ends, capped)]

    return [path for i in range(0, len(seeds), _PROBE_BLOCK)
            for path in block_paths(seeds[i:i + _PROBE_BLOCK])]


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
    (``_fast_paths_exist``).
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
    ortho_axis = p + 1  # first axis outside both the subspace and the forward axis

    seeds = replicate_seeds(model, d, replicates)
    taus = edge_units(seeds, d, np.zeros((replicates, 0), dtype=np.int64),
                      [(ortho_axis, 1)])
    tau_ok = np.array([model.quantile(u) <= y for u in taus[:, 0].tolist()])
    paths = _fast_paths_exist(model, seeds, d, p, n_steps, x, node_cap)
    path_ok = np.array([found for found, _ in paths])
    capped = sum(1 for _, c in paths if c)
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
