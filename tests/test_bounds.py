from __future__ import annotations

import math

import pytest
from scipy import integrate

from fppslab.bounds import (
    asymptote,
    bound_report,
    default_truncation,
    first_moment_ub,
    integral_decomposition,
    perimeter_lower_bound,
    second_moment_ub,
)
from fppslab.errors import DomainError


def test_perimeter_lower_bound_examples():
    for d in (3, 5, 10, 100):
        assert perimeter_lower_bound(d, 1) == pytest.approx(2 * (d - 1), rel=1e-15)
    assert perimeter_lower_bound(3, 4) == pytest.approx(8.0, rel=1e-15)
    for i in (1, 5, 1000):
        assert perimeter_lower_bound(2, i) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        perimeter_lower_bound(3, 0)


def test_first_moment_closed_form_flat_dimension():
    # at d = 2 the floor is constant 2 and the series telescopes to 11/6
    ub1, tail = first_moment_ub(2, 1.0, 200)
    assert tail < 1e-10
    assert ub1 >= 11.0 / 6.0 - 1e-12
    assert ub1 - 11.0 / 6.0 <= tail + 1e-12


def test_first_moment_rate_scaling_exact():
    for d in (2, 17, 400):
        u1, t1 = first_moment_ub(d, 1.0, 1000)
        u2, t2 = first_moment_ub(d, 2.0, 1000)
        assert u2 == u1 / 2.0
        assert t2 == t1 / 2.0


def test_second_moment_rate_scaling_exact():
    for d in (2, 17, 400):
        u1, t1 = second_moment_ub(d, 1.0, 1000)
        u2, t2 = second_moment_ub(d, 2.0, 1000)
        assert u2 == u1 / 4.0
        assert t2 == t1 / 4.0


def test_second_moment_positive_and_finite():
    for d in (2, 10, 1000):
        ub2, tail = second_moment_ub(d, 1.0)
        assert 0.0 < ub2 < math.inf
        assert 0.0 <= tail <= ub2


def test_bounds_tighten_as_truncation_grows():
    prev1 = prev2 = math.inf
    for n in (100, 1000, 10_000):
        u1, _ = first_moment_ub(100, 1.0, n)
        u2, _ = second_moment_ub(100, 1.0, n)
        assert u1 <= prev1 + 1e-18
        assert u2 <= prev2 + 1e-18
        prev1, prev2 = u1, u2


def test_normalized_ratios_decreasing_above_one():
    reports = [bound_report(d, 1.0) for d in (100, 1000, 10_000, 100_000)]
    r1 = [r.ratio1 for r in reports]
    r2 = [r.ratio2 for r in reports]
    assert all(x > 1.0 for x in r1)
    assert all(x > 1.0 for x in r2)
    assert all(b < a for a, b in zip(r1, r1[1:]))
    assert all(b < a for a, b in zip(r2, r2[1:]))


def test_ratio_window_at_large_dimension():
    r = bound_report(10_000, 1.0)
    assert 1.0 < r.ratio1 < 2.0
    assert 1.0 < r.ratio2 < 4.0


def test_series_bounded_by_companion_integral():
    # sum_{n>=2} A^(n-1) n^-beta <= integral_1^inf A^(x-1) x^-beta dx,
    # since the summand decreases in its argument
    for d in (10, 100):
        beta = (d - 2.0) / (d - 1.0)
        log_decay = math.log1p(-1.0 / (2.0 * d))

        def f(x):
            return math.exp((x - 1.0) * log_decay) * x**-beta

        integral, err = integrate.quad(f, 1.0, math.inf, epsrel=1e-10, limit=200)
        ub1, _ = first_moment_ub(d, 1.0)
        cap = 1.0 / (2 * d - 1) + integral / (2.0 * (d - 1.0))
        assert ub1 <= cap + err + 1e-12


def test_asymptote_examples():
    assert asymptote(10, 1.0) == pytest.approx(math.log(10) / 20.0, rel=1e-15)
    assert asymptote(math.e**2, 0.5) == pytest.approx(2.0 / math.e**2, rel=1e-12)
    assert asymptote(50, 2.0) == pytest.approx(asymptote(50, 1.0) / 2.0, rel=1e-15)
    with pytest.raises(DomainError):
        asymptote(50, 0.0)


def test_default_truncation_scale():
    assert default_truncation(100) == 4000
    assert default_truncation(3) == 120


def test_integral_decomposition_smoke():
    p = integral_decomposition(100)
    assert p.both_below > 0 and p.inner_beyond > 0 and p.outer_beyond > 0
    # the near part carries the weight and stays under the squared asymptote
    assert p.both_below < asymptote(100, 1.0) ** 2
    assert p.inner_beyond < p.both_below
    assert p.outer_beyond < p.inner_beyond
    with pytest.raises(DomainError):
        integral_decomposition(2)


# .hex() of (ub1, ub1_tail, ub2, ub2_tail) at a = 1, keyed by (d, N); N = None is
# the default 40d. d = 2 gives c03's 11/6. (5, 100000) stops the scan early.
GOLDEN_SERIES = {
    (2, None): ("0x1.d555555555554p+0", "0x1.bccbc7be2c647p-33",
                "0x1.1d1f6a655e623p+0", "0x1.313e0cccd2bcdp-29"),
    (3, None): ("0x1.897178ffaf665p-1", "0x1.79c7a85944e94p-35",
                "0x1.ed8faa1243d30p-2", "0x1.cce6e90a29c82p-33"),
    (4, None): ("0x1.07d5e2d12ce99p-1", "0x1.a12fa105b2a25p-36",
                "0x1.0e5bd238822b9p-2", "0x1.4d0d99df298cep-34"),
    (50, None): ("0x1.93b6fd7a61fe5p-5", "0x1.386990a4a1f6ep-40",
                 "0x1.646d8426fddcfp-9", "0x1.beda4411ca37cp-43"),
    (1000, None): ("0x1.f485968a75d8cp-9", "0x1.d331f1dfcfde0p-45",
                   "0x1.0231828c8e74ep-16", "0x1.5177bbc94c6fep-51"),
    (70001, None): ("0x1.6307b4295b8f7p-14", "0x1.a8684ecc5ed14p-51",
                    "0x1.f7e4f4cf96609p-28", "0x1.80468f30b05c2p-63"),
    (5, 100000): ("0x1.962d57e06827cp-2", "0x0.0p+0",
                  "0x1.5850a0b35a46dp-3", "0x0.0p+0"),
}

# .hex() of integral_decomposition(100)'s (both_below, inner_beyond, outer_beyond)
GOLDEN_INTEGRAL = ("0x1.db4b17a750f60p-12", "0x1.d935450d4afefp-15", "0x1.7761133efc62ep-18")


def test_golden_values_fix_the_series():
    for (d, n), want in GOLDEN_SERIES.items():
        got = first_moment_ub(d, 1.0, n) + second_moment_ub(d, 1.0, n)
        assert tuple(v.hex() for v in got) == want, (d, n)
    p = integral_decomposition(100)
    got = (p.both_below, p.inner_beyond, p.outer_beyond)
    assert tuple(v.hex() for v in got) == GOLDEN_INTEGRAL
