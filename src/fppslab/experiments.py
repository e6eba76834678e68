"""Monte Carlo harness over the samplers, with reproducible statistics.

Replicate seeds derive from the root seed by hashing (root, d, replicate),
never by splitting a sequential stream, so results are independent of
execution order. Aggregation is plain numpy reductions
over arrays indexed by replicate, which makes every reported number a pure
function of the configuration.

The normalized statistic throughout is X = value * 2ad / log(d), whose
distribution concentrates at 1 as the dimension grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf

import numpy as np

from .eden import DEFAULT_CLUSTER_CAP, race_values
from .errors import DomainError, SamplerMismatch
from .lattice import EdgeId, Point, step
from .slab import greedy_concatenation, point_to_hyperplane_time, slab_crossing_time
from .weights import WeightModel, derive_seed

SAMPLERS = ("eden", "slab")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of a Monte Carlo run."""

    d_grid: tuple[int, ...]
    model: WeightModel
    replicates: int
    root_seed: int
    budget_cap: int = DEFAULT_CLUSTER_CAP

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates}")
        if not self.d_grid:
            raise DomainError("d_grid must not be empty")
        if any(d < 2 for d in self.d_grid):
            raise DomainError(f"all dimensions must be >= 2, got {self.d_grid}")
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


def sample_crossing_values(config: ExperimentConfig, sampler: str, d: int) -> np.ndarray:
    """Independent slab-crossing samples at dimension d, one per replicate.

    Replicate ``rep`` uses the seed ``derive_seed(root_seed, d, rep)``. The
    eden sampler runs all replicates through the lockstep race
    ``race_values``, whose values equal ``sample_slab_crossing``'s bit for bit.
    """
    if sampler not in SAMPLERS:
        raise DomainError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    model = config.model
    if sampler == "eden":
        if model.family != "exp":
            raise SamplerMismatch(
                "the cluster-race sampler is exact only for exponential weights; "
                f"got family {model.family!r}"
            )
        seeds = [derive_seed(config.root_seed, d, rep) for rep in range(config.replicates)]
        return race_values(d, model.a, seeds, cluster_cap=config.budget_cap)

    origin = (0,) * d

    def one(rep: int) -> float:
        seeded = model.with_seed(derive_seed(config.root_seed, d, rep))
        return slab_crossing_time(seeded, origin, 0,
                                  settled_cap=config.budget_cap).value

    return np.array([one(rep) for rep in range(config.replicates)], dtype=np.float64)


def summarize(values: np.ndarray, d: int, a: float | None) -> SummaryStats:
    n = len(values)
    mean = float(np.mean(values))
    scale = None if a is None else 2.0 * a * d / math.log(d)
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


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
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
    return np.asarray(values) * (2.0 * a * d / math.log(d))


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

        def one(rep: int) -> tuple[float, list[float]]:
            seeded = config.model.with_seed(derive_seed(config.root_seed, d, rep))
            crossings = greedy_concatenation(seeded, d, n,
                                             settled_cap=config.budget_cap)
            direct = point_to_hyperplane_time(seeded, d, n,
                                              settled_cap=config.budget_cap)
            return direct, [s.value for s in crossings]

        rows = [one(rep) for rep in range(config.replicates)]
        direct = np.array([r[0] for r in rows])
        sums = np.array([sum(r[1]) for r in rows])
        singles = np.array([v for r in rows for v in r[1]])
        violations = int(np.count_nonzero(direct > sums + 1e-9))
        lhs = direct / n
        lhs_se = float(np.std(lhs, ddof=1) / math.sqrt(len(lhs))) if len(lhs) > 1 else 0.0
        rhs_se = (float(np.std(singles, ddof=1) / math.sqrt(len(singles)))
                  if len(singles) > 1 else 0.0)
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


def _fast_path_exists(model: WeightModel, d: int, p: int, n_steps: int, x: float,
                      node_cap: int) -> tuple[bool, bool]:
    """Best-first search for an n-step path with total weight <= x.

    The first n-1 steps move inside the subspace of axes 2..p+1; the last
    step is the forward edge. Partial costs above x are pruned, so only
    the cheap subtree is ever explored. Each expansion takes the weights of
    all 2p subspace edges at its vertex from one ``star_weights`` batch.
    Returns (found, capped); when the node cap bites, ``found`` is still a
    valid one-sided hit.
    """
    start = (0,) * d
    if n_steps == 1:
        return model.edge_weight(EdgeId(start, 0)) <= x, False
    axes = range(1, p + 1)
    moves = [(axis, delta) for axis in axes for delta in (1, -1)]  # star_weights order
    best: dict[tuple[int, Point], float] = {(0, start): 0.0}
    heap: list[tuple[float, int, Point]] = [(0.0, 0, start)]
    settled: set[tuple[int, Point]] = set()
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
            if cost + model.edge_weight(EdgeId(v, 0)) <= x:
                return True, False
            continue
        for (axis, delta), w in zip(moves, model.star_weights(v, axes)):
            nc = cost + w
            if nc <= x:
                q = step(v, axis, delta)
                key = (t + 1, q)
                if nc < best.get(key, inf):
                    best[key] = nc
                    heappush(heap, (nc, t + 1, q))
    return False, False


def search_cross_probe(d: int, model: WeightModel, replicates: int, *,
                       node_cap: int = 1_000_000) -> SearchCrossReport:
    """Estimate the cheap-detour probability at dimension d.

    Parameter choices follow the classical construction: subspace dimension
    p = floor(d/2), path length n = floor(0.75 log d), path budget
    x = 9 log(d)/(4ad), first-step budget y = 32 log(d)/(ad).
    """
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
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
    origin = (0,) * d

    def one(rep: int) -> tuple[bool, bool, bool]:
        seeded = model.with_seed(derive_seed(model.seed, d, rep))
        tau = seeded.edge_weight(EdgeId(origin, ortho_axis))
        found, capped = _fast_path_exists(seeded, d, p, n_steps, x, node_cap)
        return tau <= y, found, capped

    rows = [one(rep) for rep in range(replicates)]
    tau_ok = np.array([r[0] for r in rows])
    path_ok = np.array([r[1] for r in rows])
    capped = sum(1 for r in rows if r[2])
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
