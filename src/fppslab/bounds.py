"""Rigorous numerical upper bounds for slab-crossing moments.

The growth recursion bounds the mean crossing time by the series

    (1/a) * [ 1/(1 + s_1) + sum_{n>=2} A^(n-1) / s_n ],

and the second moment by

    (1/a^2) * 2 * sum_{n>=1} (A^(n-1) / (n + s_n)) * sum_{k<=n} 1/(k + s_k),

where s_n = 2(d-1) n^((d-2)/(d-1)) is the isoperimetric floor on the
perimeter of an n-vertex cluster (Loomis-Whitney) and A = 1 - 1/(2d) caps
the probability that a growth step stays in plane. The floor's one home is
``_perimeter_floor``, and the race checks every step against it at every d.
Everything here evaluates those series and their integral companions
numerically, with conservative closed-form tail majorants so the reported
numbers remain genuine upper bounds at any truncation. The 1/a powers
rescale from the unit-rate race to rate a.

Series are accumulated in chunks with compensated (Kahan) carry across
chunks; once a chunk's last term drops below 1e-30 of the running sum the
remainder is folded into the rigorous tail instead of being summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy.integrate loads on first use, so importing the CLI does not pay for
# it; fppbench reads scipy's version from sys.modules
import scipy

from .errors import DomainError, QuadratureFailure
from .lattice import check_dimension
from .weights import check_rate

_CHUNK = 1 << 18
_NEGLIGIBLE = 1e-30


@dataclass(frozen=True)
class BoundReport:
    """Truncated-series bounds with tails folded in, plus normalized ratios.

    ``ub1`` and ``ub2`` include their tail terms, so each is a valid bound
    on the full series; ``ratio1 = ub1 / asymptote`` and
    ``ratio2 = ub2 / asymptote**2`` measure the slack against the
    high-dimensional limit log(d)/(2ad).
    """

    d: int
    a: float
    truncation_n: int
    ub1: float
    ub1_tail: float
    ub2: float
    ub2_tail: float
    ratio1: float
    ratio2: float
    asymptote: float


def _perimeter_floor(d: int, n):
    """s(n) = 2(d-1) n^((d-2)/(d-1)), unchecked. ``n`` may be an int, a
    float or an ndarray, and each is evaluated in its own arithmetic."""
    return 2.0 * (d - 1) * n ** ((d - 2) / (d - 1))


def _log_decay(d: int) -> float:
    """log A = log(1 - 1/(2d)), exact near 1."""
    return math.log1p(-1.0 / (2.0 * d))


def perimeter_lower_bound(d: int, i: int) -> float:
    """Isoperimetric floor 2(d-1) i^((d-2)/(d-1)) on the perimeter count."""
    check_dimension(d)
    if i < 1:
        raise DomainError(f"cluster size must be >= 1, got {i}")
    return _perimeter_floor(d, float(i))


def asymptote(d: float, a: float) -> float:
    """High-dimensional limit log(d)/(2ad) of the mean crossing time."""
    check_dimension(d)
    check_rate(a)
    return math.log(d) / (2.0 * a * d)


def default_truncation(d: int) -> int:
    """ceil(40 d): the geometric factor has decayed by e^-20 there."""
    return int(math.ceil(40.0 * d))


def _truncation(d: int, a: float, truncation_n: int | None) -> int:
    """Check a series' arguments and return its truncation, by default
    ``default_truncation(d)``."""
    check_dimension(d)
    check_rate(a)
    if truncation_n is None:
        truncation_n = default_truncation(d)
    if truncation_n < 2:
        raise DomainError(f"truncation must be >= 2, got {truncation_n}")
    return truncation_n


def _series_scan(d: int, truncation_n: int,
                 second: bool) -> tuple[float, float, float, float]:
    """Shared chunked scan over the series terms.

    The scan may stop early, at M <= truncation_n, once terms are
    negligible. Returns (sum, the prefix P_M if second else 0, A^M,
    s_{M+1}), the last two being what the tail majorants need.
    """
    log_decay = _log_decay(d)

    total = 0.0
    comp = 0.0  # Kahan carry across chunks
    prefix = 0.0
    start = 1 if second else 2
    m_last = start - 1
    n0 = start
    while n0 <= truncation_n:
        n1 = min(n0 + _CHUNK - 1, truncation_n)
        n = np.arange(n0, n1 + 1, dtype=np.float64)
        s_n = _perimeter_floor(d, n)
        decay_pow = np.exp((n - 1.0) * log_decay)
        if second:
            inv = 1.0 / (n + s_n)
            p = np.cumsum(inv) + prefix
            terms = 2.0 * decay_pow * inv * p
            prefix = float(p[-1])
        else:
            terms = decay_pow / s_n
        chunk_sum = float(np.sum(terms))
        y = chunk_sum - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m_last = n1
        if terms[-1] < _NEGLIGIBLE * max(total, 1e-300):
            break
        n0 = n1 + 1
    return total, prefix, math.exp(m_last * log_decay), _perimeter_floor(d, m_last + 1)


def first_moment_ub(d: int, a: float, truncation_n: int | None = None) -> tuple[float, float]:
    """Upper bound on the mean crossing time, with its rigorous tail.

    Returns (ub1, ub1_tail); ub1 already includes the tail, so it bounds
    the untruncated series. The tail majorant A^M / (s_{M+1} (1 - A)) uses
    only that s_n is nondecreasing, so it is a valid inequality at every M.
    """
    truncation_n = _truncation(d, a, truncation_n)
    head = 1.0 / (1.0 + _perimeter_floor(d, 1))
    body, _, decay_m, s_next = _series_scan(d, truncation_n, second=False)
    tail = decay_m * (2.0 * d) / s_next

    ub1 = (head + body + tail) / a
    return ub1, tail / a


def second_moment_ub(d: int, a: float, truncation_n: int | None = None) -> tuple[float, float]:
    """Upper bound on the second moment of the crossing time, with tail.

    The double sum is evaluated with running prefix sums in one pass. For
    the remainder past M, the prefix is majorized by P_M + (n - M)/s_{M+1}
    and the outer weight by A^(n-1)/s_{M+1}, which sums in closed geometric
    form; the result stays a genuine upper bound.
    """
    truncation_n = _truncation(d, a, truncation_n)
    body, p_m, decay_m, s_next = _series_scan(d, truncation_n, second=True)
    one_minus = 1.0 / (2.0 * d)  # 1 - A
    tail = (2.0 / s_next) * decay_m * (p_m / one_minus + 1.0 / (one_minus**2 * s_next))

    ub2 = (body + tail) / a**2
    return ub2, tail / a**2


def bound_report(d: int, a: float, truncation_n: int | None = None) -> BoundReport:
    truncation_n = _truncation(d, a, truncation_n)
    ub1, ub1_tail = first_moment_ub(d, a, truncation_n)
    ub2, ub2_tail = second_moment_ub(d, a, truncation_n)
    asym = asymptote(d, a)
    return BoundReport(
        d=d,
        a=a,
        truncation_n=truncation_n,
        ub1=ub1,
        ub1_tail=ub1_tail,
        ub2=ub2,
        ub2_tail=ub2_tail,
        ratio1=ub1 / asym,
        ratio2=ub2 / asym**2,
        asymptote=asym,
    )


@dataclass(frozen=True)
class IntegralParts:
    """The double-integral majorant of the second-moment series, split by
    whether the inner (y) and outer (x) variables run past 2d.

    ``both_below`` carries the full weight (it behaves like the squared
    asymptote); the two beyond-2d pieces are geometrically suppressed.
    """

    d: int
    both_below: float
    inner_beyond: float
    outer_beyond: float


def integral_decomposition(d: int) -> IntegralParts:
    """Adaptive quadrature of the three pieces of the double integral

        2 * Int_2^inf (1/s_x) Int_{x-1}^inf A^(y-1)/s_y dy dx

    split at x, y = 2d. Raises QuadratureFailure if the reported error
    estimates exceed ten times the relative tolerance 1e-8.
    """
    if d < 3:
        raise DomainError(f"dimension must be >= 3, got {d}")
    rtol = 1e-8
    log_decay = _log_decay(d)

    def inv_s(x: float) -> float:
        return 1.0 / _perimeter_floor(d, x)

    def g(y: float) -> float:
        return math.exp((y - 1.0) * log_decay) * inv_s(y)

    def inner(lo: float, hi: float) -> tuple[float, float]:
        val, err = scipy.integrate.quad(g, lo, hi, epsabs=0.0, epsrel=rtol * 1e-2,
                                        limit=200)
        return val, err

    failures: list[str] = []

    def checked(val: float, err: float, label: str) -> float:
        if err > rtol * max(abs(val), 1e-300) * 10.0:
            failures.append(f"{label}: value {val:.3e}, error estimate {err:.3e}")
        return val

    cut = 2.0 * d

    inner_tail, inner_tail_err = inner(cut, math.inf)
    checked(inner_tail, inner_tail_err, "inner tail")

    def outer_below_integrand(x: float) -> float:
        val, _ = inner(x - 1.0, cut)
        return inv_s(x) * val

    def outer_beyond_integrand(x: float) -> float:
        val, _ = inner(x - 1.0, math.inf)
        return inv_s(x) * val

    v1, e1 = scipy.integrate.quad(outer_below_integrand, 2.0, cut + 1.0,
                                  epsabs=0.0, epsrel=rtol, limit=200)
    both_below = 2.0 * checked(v1, e1, "both below")

    v2, e2 = scipy.integrate.quad(inv_s, 2.0, cut + 1.0,
                                  epsabs=0.0, epsrel=rtol, limit=200)
    inner_beyond = 2.0 * checked(v2, e2, "outer factor") * inner_tail

    v3, e3 = scipy.integrate.quad(outer_beyond_integrand, cut + 1.0, math.inf,
                                  epsabs=0.0, epsrel=rtol, limit=200)
    outer_beyond = 2.0 * checked(v3, e3, "outer beyond")

    if failures:
        raise QuadratureFailure("; ".join(failures))
    return IntegralParts(d=d, both_below=both_below,
                         inner_beyond=inner_beyond, outer_beyond=outer_beyond)
