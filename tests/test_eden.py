from __future__ import annotations

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fppslab.bounds import first_moment_ub
from fppslab.eden import DrawSource, _check_perimeter_bounds, race_values, sample_slab_crossing
from fppslab.errors import BudgetExceeded, DomainError, InvariantViolation
from fppslab.weights import derive_seed
from oracles import DrawSourceReference


def test_d2_singleton_exit_probability_one_third():
    # at d = 2 the singleton has one forward edge and two perimeter edges
    n = 4000
    exits = sum(sample_slab_crossing(2, 1.0, derive_seed(31, i)).settled_count == 1
                for i in range(n))
    p = exits / n
    se = math.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(p - 1 / 3) < 3 * se


def test_first_increment_mean_matches_race_rate():
    # a race's first clock is independent of the edge it picks, so the
    # samples that exit at the first step have the law of that clock
    d, a, n = 6, 2.0, 4000
    rate = a * (2 * d - 1)
    samples = (sample_slab_crossing(d, a, derive_seed(32, i)) for i in range(n))
    incs = [s.value for s in samples if s.settled_count == 1]
    assert len(incs) > 200
    mean = float(np.mean(incs))
    se = (1.0 / rate) / math.sqrt(len(incs))  # exponential: sd == mean
    assert abs(mean - 1.0 / rate) < 3 * se


def test_non_exit_step_grows_cluster_and_time():
    # the cap fires once the cluster holds cap vertices, so a race that
    # exits with n vertices grew one vertex per step up to n and none on exit
    grown = 0
    for seed in range(20):
        s = sample_slab_crossing(5, 1.0, seed)
        assert 0 < s.value < math.inf
        assert sample_slab_crossing(5, 1.0, seed, cluster_cap=s.settled_count + 1) == s
        if s.settled_count > 1:
            grown += 1
            with pytest.raises(BudgetExceeded):
                sample_slab_crossing(5, 1.0, seed, cluster_cap=s.settled_count)
    assert grown > 5


def test_bookkeeping_matches_recomputation_along_trajectory():
    # validate=True recomputes S from coordinates after every step, and
    # every step checks S against the connected-cluster bounds. The check
    # costs O(i * d^2) per step, so d = 50 runs one trajectory.
    for d in (2, 3, 4, 6, 20, 50):
        seeds = [derive_seed(33, d)] + ([derive_seed(33, d, 1)] if d < 50 else [])
        for seed in seeds:
            checked = sample_slab_crossing(d, 1.0, seed, validate=True)
            assert checked == sample_slab_crossing(d, 1.0, seed)


@pytest.mark.parametrize("d", [2, 5, 50])
def test_perimeter_upper_bound_is_the_connected_cluster_bound(d):
    for i in (1, 2, 7, 1000):
        s_max = 2 * (d - 1) * i - 2 * (i - 1)
        _check_perimeter_bounds(d, i, s_max)
        with pytest.raises(InvariantViolation):
            _check_perimeter_bounds(d, i, s_max + 1)


@pytest.mark.parametrize("d, i, floor", [(2, 3, 2), (3, 4, 8), (5, 1, 8), (50, 1, 98)],
                         ids=["2", "3", "5", "50"])
def test_perimeter_floor_is_checked_at_every_dimension(d, i, floor):
    # each perimeter sits exactly at the isoperimetric floor 2(d-1) i^((d-2)/(d-1))
    _check_perimeter_bounds(d, i, floor)
    with pytest.raises(InvariantViolation, match="below isoperimetric floor"):
        _check_perimeter_bounds(d, i, floor - 1)


def test_rate_scaling_is_pathwise():
    for seed in range(40):
        s1 = sample_slab_crossing(6, 1.0, seed)
        s2 = sample_slab_crossing(6, 2.0, seed)
        assert s2.value == pytest.approx(s1.value / 2.0, rel=1e-12)
        assert s2.exit_vertex == s1.exit_vertex
        assert s2.settled_count == s1.settled_count


def test_sample_reports_exit_in_first_hyperplane():
    s = sample_slab_crossing(4, 1.0, 12345)
    assert s.exit_vertex[0] == 1
    assert len(s.exit_vertex) == 4
    assert s.value > 0


def test_sample_deterministic_given_seed():
    a = sample_slab_crossing(7, 1.0, 99)
    b = sample_slab_crossing(7, 1.0, 99)
    assert a == b


def test_budget_cap_raises():
    # seed chosen so the cluster does not exit within its first two steps
    for seed in range(50):
        first = sample_slab_crossing(5, 1.0, seed)
        if first.settled_count > 3:
            with pytest.raises(BudgetExceeded):
                sample_slab_crossing(5, 1.0, seed, cluster_cap=2)
            return
    pytest.fail("no seed grew past three vertices")


def test_step_count_grows_at_most_linearly_in_d():
    # race heuristics: exit odds per step are ~1/(2d), so steps ~ 2d
    for d in (10, 40):
        n = 200
        steps = [
            sample_slab_crossing(d, 1.0, derive_seed(34, d, i)).settled_count
            for i in range(n)
        ]
        assert float(np.mean(steps)) < 3.0 * d


def test_mean_respects_series_bound_smoke():
    # full-scale version is an acceptance criterion at d = 50, N = 10^4
    d, n = 100, 400
    vals = [sample_slab_crossing(d, 1.0, derive_seed(35, i)).value for i in range(n)]
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    ub1, _ = first_moment_ub(d, 1.0)
    assert mean <= ub1 + 3 * se


def test_normalized_variance_shrinks_with_dimension():
    # variance of the normalized statistic decays; endpoints gated in acceptance
    out = {}
    for d in (20, 100):
        n = 800
        vals = np.array(
            [sample_slab_crossing(d, 1.0, derive_seed(36, d, i)).value for i in range(n)]
        )
        scale = 2.0 * d / math.log(d)
        out[d] = float(np.var(vals * scale, ddof=1))
    assert out[100] < out[20]


# (d, a, seed) -> value.hex(), recorded from the list-based DrawSource with
# BLOCK = 4096; (200, 1.0, 56) draws past one uniform block, (1000, 1.0, 30)
# past one block of each stream
GOLDEN = {
    (2, 1.0, 1): "0x1.bd397e0645816p-2",
    (3, 0.5, 2): "0x1.4b55f5db6eb51p-1",
    (5, 1.0, 12345): "0x1.1d55de3ced1b2p-2",
    (12, 3.0, 4): "0x1.bed222c9fdba2p-4",
    (50, 1.0, 7): "0x1.691dfb61a2aa7p-5",
    (200, 1.0, 11): "0x1.94bb46395d398p-7",
    (200, 1.0, 56): "0x1.a04222fed0b1fp-6",
    (1000, 1.0, 3): "0x1.c3245472e7bafp-9",
    (1000, 1.0, 30): "0x1.23250ba3e998ep-8",
}


def test_golden_values_fix_the_draw_stream():
    for (d, a, seed), want in GOLDEN.items():
        assert sample_slab_crossing(d, a, seed).value.hex() == want, (d, a, seed)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       runs=st.lists(st.tuples(st.booleans(), st.integers(1, 5000)), max_size=12))
def test_draw_source_matches_reference_stream(seed, runs):
    fast = DrawSource.from_seed(seed)
    ref = DrawSourceReference(np.random.default_rng(seed))
    block = DrawSource.BLOCK
    # end with runs that take each stream past its third block
    runs = runs + [(True, 3 * block + 1), (False, 3 * block + 7), (True, 2)]
    for is_uniform, count in runs:
        for _ in range(count):
            if is_uniform:
                got, want = fast.uniform(), ref.uniform()
            else:
                got, want = fast.exponential(), ref.exponential()
            assert got.hex() == want.hex()


def test_draw_source_is_freed_by_reference_counting():
    # a reference cycle through the stream generators would keep every
    # finished source and its blocks alive until the cyclic collector runs
    src = DrawSource.from_seed(5)
    src.uniform()
    src.exponential()
    ref = weakref.ref(src)
    del src
    assert ref() is None


def _serial_values(d, a, seeds, cluster_cap):
    return [sample_slab_crossing(d, a, s, cluster_cap=cluster_cap).value for s in seeds]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=st.integers(2, 60), a=st.sampled_from([0.5, 1.0, 3.0]),
       root=st.integers(0, 2**31), n=st.integers(0, 100))
@example(d=200, a=1.0, root=7, n=70)
def test_race_values_match_serial_sampler(d, a, root, n):
    seeds = [derive_seed(root, d, rep) for rep in range(n)]
    got = race_values(d, a, seeds, cluster_cap=10**6)
    assert got.dtype == np.float64 and got.shape == (n,)
    want = _serial_values(d, a, seeds, 10**6)
    assert [float(v).hex() for v in got] == [v.hex() for v in want]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(2, 12), a=st.sampled_from([0.5, 1.0, 3.0]),
       root=st.integers(0, 2**31), n=st.integers(1, 40), cap=st.integers(1, 30))
def test_race_cap_raises_exactly_when_a_serial_replicate_does(d, a, root, n, cap):
    seeds = [derive_seed(root, d, rep) for rep in range(n)]
    try:
        want = _serial_values(d, a, seeds, cap)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            race_values(d, a, seeds, cluster_cap=cap)
    else:
        got = race_values(d, a, seeds, cluster_cap=cap)
        assert [float(v).hex() for v in got] == [v.hex() for v in want]


def test_race_rejects_bad_domain():
    for d, a in ((1, 1.0), (0, 1.0), (5, 0.0), (5, -1.0), (5, math.nan)):
        with pytest.raises(DomainError):
            race_values(d, a, [1, 2, 3])
        with pytest.raises(DomainError):
            sample_slab_crossing(d, a, 1)
