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
