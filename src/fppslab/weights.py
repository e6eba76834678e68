"""Edge-weight distributions, quantile functions, and the seeded weight oracle.

A WeightModel bundles a distribution family with a 64-bit root seed. The
weight of any edge is a pure function of (seed, edge identity): the edge key
is serialized (dimension, axis, coordinates in order), folded through a
SplitMix64 avalanche chain together with the seed, and the resulting 64 bits
are mapped to a uniform in the open interval (0, 1), which is then pushed
through the quantile function. This gives bit-exact reproducibility across
runs, platforms, and any parallel schedule, with no stored realization.

``WeightModel.edge_weight`` reuses the fold's state after the first three
key words, (d, axis, x_1): each model keeps those states in its own dict,
keyed by the three words, and folds only the remaining d - 1 coordinates
per call. The fold is a chain, so resuming from the state it reached
after a prefix and absorbing the rest gives the same 64 bits as folding
the whole key; the cache stores exact integers, never rounded values.
The states depend on the seed, so the cache belongs to one instance:
``with_seed`` builds a new model with an empty one, and the cache takes
no part in equality, hashing or ``repr``.

``edge_units(seeds, d, coords, moves)`` is the batch form of the oracle,
for many (seed, vertex) pairs at once: it returns the units of the edges
that each of ``moves`` crosses from each vertex, each under its vertex's
own seed, and hashes all their keys in lockstep as numpy ``uint64``
arrays, one vectorized SplitMix64 round per key word. Each key starts
from its seed's state after the dimension word, ``fold64(seed, (d,))``,
which a small cache keeps per (seed, d) across calls. The vertices come
as a dense coordinate matrix, one row per vertex, which may leave out
trailing columns that are zero in every row: each coordinate word of
every key comes from its column, XORed in by one broadcast per round, so
no key matrix is ever built. uint64 arithmetic wraps mod 2^64 exactly
like the scalar fold, and the bits-to-unit map rounds the same in numpy
as in Python (its + 0.5 rounds to even above 2^52 in both, and both
clamp 1.0 to ``_Y_MAX``), so the units are the scalar ones bit for bit.
The quantile step stays with the caller and stays scalar: ``np.log1p``
differs from ``math.log1p`` in the last ulp on about 10% of inputs, so a
vectorized quantile would change the weights. The one exception decides
a prune, never a weight: ``WeightModel.weight_floor(units)`` is a
vectorized lower bound on each unit's weight, and the one vectorized
prune. The exact kernel skips each move whose floor exceeds ``_reach``,
the cheap-detour probe each unit whose floor exceeds its budget x, and
only the rest go through ``quantile``. The scalar step
itself is ``WeightModel.unit_weight``, the quantile without its argument
check, set once per model: ``quantile`` calls it after the check, and
``edge_weight`` and the batched callers, whose units lie in [2^-54,
``_Y_MAX``], call it directly.

Supported families:

* ``exp``     -- Exponential(a): F(x) = 1 - exp(-a x)
* ``uniform`` -- Uniform on [0, 1/a]: F(x) = a x on [0, 1/a]
* ``table``   -- quantile table: a monotone piecewise-linear quantile
                 function given as sorted (y, x) node pairs; beyond the last
                 node the quantile is held constant (an atom at the largest
                 tabulated x carrying the remaining mass).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import DomainError, UnsupportedModel
from .lattice import EdgeId

U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

FAMILIES = ("exp", "uniform", "table")

# largest argument quantile() accepts; bits_to_unit clamps 1.0 here, and
# CouplingMap.__call__ clamps here for huge t
_Y_MAX = 1.0 - 2.0**-53

# mix64's constants as numpy scalars, for the batch oracle
_GOLDEN_U = np.uint64(_GOLDEN)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_ONE_U = np.uint64(1)
_ALL_ONES_U = np.uint64(U64)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a published 64-bit avalanche permutation."""
    z &= U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 applied elementwise to a uint64 array, in place; ``tmp`` is
    scratch space of z's shape."""
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _MUL1
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _MUL2
    np.right_shift(z, 31, out=tmp)
    z ^= tmp


def fold64(seed: int, words) -> int:
    """Absorb a sequence of integer words into a 64-bit hash state.

    Each word is reduced to 64 bits (two's complement for negatives) and
    avalanched before absorbing the next, so nearby keys decorrelate.
    """
    h = mix64((seed & U64) ^ _GOLDEN)
    for w in words:
        h = mix64((h + _GOLDEN) ^ (w & U64))
    return h


# A search block asks for the same seeds on every step; with the fold
# redone per call, it took 8% of a lockstep sample's time at d = 5 (0.037 of
# 0.456 s in cProfile, 2000 replicates) and 3% with this cache.
@lru_cache(maxsize=256)
def _dimension_state(seed: int, d: int) -> int:
    """``fold64(seed, (d,))``, the state every key of Z^d starts from."""
    return fold64(seed, (d,))


def edge_units(seeds, d: int, coords, moves) -> np.ndarray:
    """Oracle units of the edges that ``moves`` cross from S vertices of Z^d.

    ``coords`` is an (S, k) integer array, or a sequence of S equal-length
    integer sequences, with k <= d: row s holds the first k coordinates of
    vertex s, and its coordinates past those are 0. ``seeds[s]`` is the seed
    of its realization. ``moves`` lists (axis, delta) pairs, with
    delta = +1 or -1. Entry (s, m) of the (S, len(moves)) float64 result is
    ``bits_to_unit(fold64(seeds[s], (d, axis, *base)))`` for the edge
    between vertex s and vertex s + delta e_axis: the unit whose
    ``quantile`` is that edge's ``edge_weight``. All S x len(moves) keys
    are hashed in one pass of d + 1 vectorized rounds; coordinate round i
    XORs column i into every key at once, skipped for an all-zero column,
    and then swaps in c - 1 for the moves that lower axis i.
    """
    states = {s: _dimension_state(s, d) for s in set(seeds)}
    try:  # values inside int64 convert without making a Python int each
        if isinstance(coords, np.ndarray):
            block = coords.astype(np.int64, copy=False).view(np.uint64)
        else:
            k = len(coords[0]) if len(coords) else 0
            block = np.fromiter(chain.from_iterable(coords), dtype=np.int64,
                                count=len(coords) * k).reshape(len(coords), k).view(np.uint64)
    except OverflowError:
        block = np.array([[c & U64 for c in v] for v in coords], dtype=np.uint64)
    h = np.empty((len(block), len(moves)), dtype=np.uint64)
    tmp = np.empty_like(h)
    h[:] = np.array([states[s] for s in seeds], dtype=np.uint64)[:, None]
    h += _GOLDEN_U
    h ^= np.array([axis for axis, _ in moves], dtype=np.uint64)
    _mix64_inplace(h, tmp)
    # the moves whose edge has its base one below the vertex on their axis
    lowered: dict[int, list[int]] = {}
    for m, (axis, delta) in enumerate(moves):
        if delta < 0:
            lowered.setdefault(axis, []).append(m)
    nonzero = block.any(axis=0).tolist() + [False] * (d - block.shape[1])
    for i in range(d):
        h += _GOLDEN_U
        if nonzero[i]:
            col = block[:, i]
            h ^= col[:, None]
            if i in lowered:
                col = col ^ (col - _ONE_U)  # turns c into c - 1 in the keys
                for m in lowered[i]:
                    h[:, m] ^= col
        else:
            for m in lowered.get(i, ()):
                h[:, m] ^= _ALL_ONES_U  # c ^ (c - 1) at c = 0
        _mix64_inplace(h, tmp)
    h >>= 11
    units = tmp.view(np.float64)
    units[:] = h
    units += 0.5
    units *= 2.0**-53
    return np.minimum(units, _Y_MAX, out=units)


def derive_seed(root_seed: int, *indices: int) -> int:
    """Derived seed for a replicate or sub-stream.

    Mixes the indices into the root seed; independent of the order in which
    replicates are actually executed, so schedules cannot affect results.
    """
    return fold64(root_seed, indices)


# the rates a accepted anywhere. Inside this range 1/a and a^2 are normal
# doubles, every exp or uniform weight (in [2^-54/a, 38/a]) is finite and
# > 0, every race step time is finite, and so are the squares of passage
# times and bounds, which the variance and second-moment outputs take.
# Far outside it a^2 under- or overflows and weights reach 0 or inf.
RATE_MIN, RATE_MAX = 1e-100, 1e100


def check_rate(a: float, name: str = "rate") -> None:
    """Raise DomainError unless RATE_MIN <= ``a`` <= RATE_MAX."""
    if not RATE_MIN <= a <= RATE_MAX:
        raise DomainError(f"{name} must lie in [{RATE_MIN:g}, {RATE_MAX:g}], got {a}")


def bits_to_unit(h: int) -> float:
    """Map 64 hashed bits to a double in [2^-54, 1 - 2^-53].

    Uses the top 53 bits n offset by half: (n + 0.5) * 2^-53. Above 2^52
    the sum is rounded to even, so n = 2^53 - 1 would give 1.0; that unit
    is clamped to ``_Y_MAX``. 0.0 is unreachable, so every exp or uniform
    weight is strictly positive.
    """
    u = ((h >> 11) + 0.5) * 2.0**-53
    return u if u < 1.0 else _Y_MAX


def _unit_weight(family: str, a: float | None, ys: tuple[float, ...],
                 xs: tuple[float, ...]) -> Callable[[float], float]:
    """The quantile of one family as a function of a unit y in [0, 1),
    unchecked: the one home of each family's formula."""
    if family == "exp":
        log1p = math.log1p
        return lambda y: -log1p(-y) / a
    if family == "uniform":
        return lambda y: y / a
    y_last, x_last = ys[-1], xs[-1]

    def table(y: float) -> float:
        if y >= y_last:
            return x_last
        # leftmost node with node_y >= y keeps the inverse left-continuous
        j = bisect_left(ys, y)
        if ys[j] == y:
            return xs[j]
        y0, x0 = ys[j - 1], xs[j - 1]
        return x0 + (y - y0) * (xs[j] - x0) / (ys[j] - y0)

    return table


@dataclass(frozen=True)
class WeightModel:
    """An i.i.d. edge-weight distribution plus the seed of its realization.

    ``a`` is the density of the distribution at 0+ (required for ``exp`` and
    ``uniform``; optional for ``table``, where it is only needed by the
    density-condition check and by normalized statistics). ``c`` and ``eps0``
    are the user-declared constants of the near-zero density condition; the
    check treats them as inputs rather than inferring them.
    """

    family: str
    a: float | None = None
    points: tuple[tuple[float, float], ...] | None = None
    seed: int = 0
    c: float | None = None
    eps0: float | None = None
    # quantile-table nodes split by coordinate, built once for quantile/cdf
    _ys: tuple[float, ...] = field(init=False, repr=False, compare=False, hash=False,
                                   default=())
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False, hash=False,
                                   default=())
    # quantile without its argument check, for units already in [0, 1): one
    # closure per family over its constants, so hot loops bind it once
    unit_weight: Callable[[float], float] = field(
        init=False, repr=False, compare=False, hash=False, default=None)
    # weight_floor's table pieces: the node ys past the first, and per piece
    # (y0, x0, x1 - x0, y1 - y0), the last one flat at the last node
    _pieces: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False,
                                            hash=False, default=())
    # fold64 state after the key words (d, axis, x_1), per realization
    _prefix: dict[tuple[int, int, int], int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family in ("exp", "uniform"):
            if self.a is None:
                raise DomainError(f"family {self.family!r} needs a rate a")
            if self.points is not None:
                raise DomainError(f"family {self.family!r} takes no table points")
        if self.family == "table":
            pts = self.points
            if not pts or len(pts) < 2:
                raise DomainError("table family needs at least two (y, x) points")
            if not all(math.isfinite(v) for p in pts for v in p):
                raise DomainError(f"table nodes must be finite, got {pts}")
            ys = [p[0] for p in pts]
            xs = [p[1] for p in pts]
            if ys[0] != 0.0:
                raise DomainError("quantile table must start at y = 0")
            if any(y2 <= y1 for y1, y2 in zip(ys, ys[1:])):
                raise DomainError("table y-values must be strictly increasing")
            if ys[-1] > 1.0:
                raise DomainError("table y-values must not exceed 1")
            if any(x2 < x1 for x1, x2 in zip(xs, xs[1:])):
                raise DomainError("table x-values must be nondecreasing in y")
            if xs[0] < 0.0:
                raise DomainError("weights must be nonnegative")
            pts = tuple((float(y), float(x)) for y, x in pts)
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "_ys", tuple(p[0] for p in pts))
            object.__setattr__(self, "_xs", tuple(p[1] for p in pts))
            pieces = [(y0, x0, x1 - x0, y1 - y0) for (y0, x0), (y1, x1) in zip(pts, pts[1:])]
            pieces.append((*pts[-1], 0.0, 1.0))
            object.__setattr__(self, "_pieces", (np.array(self._ys[1:]),
                                                 *np.array(pieces).T.copy()))
        if self.a is not None:
            check_rate(self.a, "rate a")
        object.__setattr__(self, "unit_weight", _unit_weight(self.family, self.a,
                                                             self._ys, self._xs))

    # -- distribution ------------------------------------------------------

    def quantile(self, y: float) -> float:
        """Left-continuous generalized inverse of F at y, for 0 <= y < 1.

        On a flat stretch of F the infimum of the matching x-values is
        returned, so atoms and gaps behave exactly like inf{x : F(x) >= y}.
        """
        if not 0.0 <= y < 1.0:
            raise DomainError(f"quantile argument must lie in [0, 1), got {y}")
        return self.unit_weight(y)

    def cdf(self, x: float) -> float:
        """Forward distribution function F(x).

        For the table family F is recovered by binary search plus linear
        interpolation on the inverse pairs; flat stretches of the quantile
        (atoms of F) resolve to the upper y value.
        """
        if self.family == "exp":
            return -math.expm1(-self.a * x) if x > 0 else 0.0
        if self.family == "uniform":
            return min(max(self.a * x, 0.0), 1.0)
        ys, xs = self._ys, self._xs
        if x < xs[0]:
            return 0.0
        if x >= xs[-1]:
            return 1.0
        j = bisect_right(xs, x)  # first node with node_x > x
        y0, x0 = ys[j - 1], xs[j - 1]
        y1, x1 = ys[j], xs[j]
        if x1 == x0:
            return y1
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    # -- seeded oracle -----------------------------------------------------

    def edge_weight(self, e: EdgeId) -> float:
        """Deterministic weight of edge e under this realization.

        Equal to ``quantile(bits_to_unit(fold64(seed, (d, axis, *base))))``;
        the state after the first three key words comes from ``_prefix``.
        """
        base = e.base
        prefix = (len(base), e.axis, base[0])
        h = self._prefix.get(prefix)
        if h is None:
            h = self._prefix[prefix] = fold64(self.seed, prefix)
        for w in base[1:]:  # fold64's remaining rounds, mix64 inlined
            z = ((h + _GOLDEN) & U64) ^ (w & U64)
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
            h = z ^ (z >> 31)
        return self.unit_weight(bits_to_unit(h))

    def weight_floor(self, units: np.ndarray) -> np.ndarray:
        """A lower bound on ``quantile(u)`` for each u of the float64 array
        ``units``, all in [2^-54, ``_Y_MAX``] as ``bits_to_unit`` gives
        them, vectorized. It may decide a prune, never a weight.

        For the uniform and table families it is ``quantile(u)`` bit for
        bit: ``units / a``, and for the table the same correctly rounded
        operations in the same order as ``quantile``, x0 + (u - y0) *
        (x1 - x0) / (y1 - y0), on the piece with y0 <= u < y1. Inside a
        piece that is the piece ``quantile`` takes; at a node's y, u - y0
        is 0 and the result the node's x; past the last node the piece is
        flat at the last x.

        For exp it is 2u / (2 - u) / a, scaled down by 2^-48. The series
        2u / (2 - u) = sum of u^n / 2^(n-1) lies below -log1p(-u) = sum of
        u^n / n term by term, as 2^(n-1) >= n. The floor's four roundings
        (2 - u, the quotient, 2(1 - 2^-48)/a and the product) each add at
        most 2^-53 relative, and ``quantile``'s -``math.log1p(-y)`` / a
        loses at most 2^-53 in its division and 2^-49 (8 ulps or more) in
        ``math.log1p``, far beyond its error. The margin covers them all,
        since every value involved is a normal double: exp weights lie in
        [2^-54/a, 38/a].
        """
        if self.family == "uniform":
            return units / self.a
        if self.family == "exp":
            floor = 2.0 - units
            np.divide(units, floor, out=floor)
            floor *= 2.0 * (1.0 - 2.0**-48) / self.a
            return floor
        node_y, y0, x0, dx, dy = self._pieces
        j = np.searchsorted(node_y, units, side="right")  # the piece with y0 <= u
        floor = units - y0[j]
        floor *= dx[j]
        floor /= dy[j]
        floor += x0[j]
        return floor

    def with_seed(self, seed: int) -> "WeightModel":
        """``dataclasses.replace(self, seed=seed)`` without re-running the
        validation: the new model shares this one's checked fields and
        starts an empty ``_prefix``."""
        twin = object.__new__(WeightModel)
        twin.__dict__.update(self.__dict__, seed=seed, _prefix={})
        return twin


@dataclass(frozen=True)
class CouplingMap:
    """Monotone map sending Exponential(rate) weights to target-F weights.

    h(t) = quantile_target(1 - exp(-rate * t)). h is nondecreasing with
    h(0) = 0, and h(t)/t -> 1 near 0 whenever the target has density
    ``rate`` at 0, which is what makes the shared-randomness comparison of
    passage times meaningful.
    """

    target: WeightModel
    rate: float

    def __post_init__(self) -> None:
        check_rate(self.rate, "coupling rate")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"coupling argument must be nonnegative, got {t}")
        z = self.rate * t
        if self.target.family == "exp":
            # the composed map collapses to z / a in closed form; evaluating
            # it through 1 - e^-z would lose ~e^z ulps to cancellation
            return z / self.target.a
        y = -math.expm1(-z)
        if y > _Y_MAX:  # z beyond ~36 rounds y to 1.0 in doubles
            y = _Y_MAX
        return self.target.quantile(y)


@dataclass(frozen=True)
class CoupledWeights:
    """Edge weights h(tau_e) built on a shared exponential realization.

    Exposes the same ``edge_weight`` surface as WeightModel, so the slab
    searches run unchanged on the transformed field. Because the underlying
    exponentials are shared, pathwise comparisons between the source and the
    transformed passage times are meaningful realization by realization.
    """

    source: WeightModel
    map: CouplingMap

    def __post_init__(self) -> None:
        if self.source.family != "exp":
            raise DomainError("coupled weights must transform an exponential source")
        if self.map.rate != self.source.a:
            raise DomainError("coupling rate must match the source exponential rate")

    def edge_weight(self, e: EdgeId) -> float:
        return self.map(self.source.edge_weight(e))


# -- diagnostics ------------------------------------------------------------


@dataclass(frozen=True)
class DensityCheck:
    """Result of the near-zero density condition check."""

    max_deviation: float
    passed: bool
    a: float
    c: float
    eps0: float
    grid_size: int


def verify_density_condition(model: WeightModel, grid_size: int = 200) -> DensityCheck:
    """Check |F(x)/x - a| * |log x| <= c on a log-spaced grid in (0, eps0].

    The model must declare (a, c, eps0); the constant c is treated as user
    input, never inferred. Reports the maximum of the weighted deviation
    over the grid and whether it stays within c.
    """
    if model.a is None or model.c is None or model.eps0 is None:
        raise UnsupportedModel("density check needs declared a, c and eps0 on the model")
    if not 0.0 < model.eps0 < math.inf:  # nan fails too
        raise DomainError(f"eps0 must be finite and > 0, got {model.eps0}")
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    xs = np.geomspace(model.eps0 * 1e-9, model.eps0, grid_size)
    dev = 0.0
    for x in xs:
        d = abs(model.cdf(float(x)) / float(x) - model.a) * abs(math.log(x))
        dev = max(dev, d)
    return DensityCheck(
        max_deviation=dev,
        passed=dev <= model.c,
        a=model.a,
        c=model.c,
        eps0=model.eps0,
        grid_size=grid_size,
    )


@dataclass(frozen=True)
class CoupleCheck:
    """Tabulated behavior of a coupling map near 0."""

    rows: tuple[tuple[float, float, float], ...]  # (t, h(t), h(t)/t)
    sup_ratio_deviation: float
    monotonicity_violations: int


def couple_check(map_: CouplingMap, grid_size: int = 200) -> CoupleCheck:
    """Tabulate h(t)/t on a log grid from 1e-8 to 1.

    Reports the sup of |h(t)/t - 1| over the grid and the number of
    monotonicity violations (adjacent grid points where h decreases),
    which must be zero for any valid coupling.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    ts = np.geomspace(1e-8, 1.0, grid_size)
    rows = []
    sup_dev = 0.0
    violations = 0
    prev_h = 0.0
    for t in ts:
        t = float(t)
        h = map_(t)
        ratio = h / t
        rows.append((t, h, ratio))
        sup_dev = max(sup_dev, abs(ratio - 1.0))
        if h < prev_h:
            violations += 1
        prev_h = h
    return CoupleCheck(tuple(rows), sup_dev, violations)
