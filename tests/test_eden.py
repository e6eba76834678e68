from __future__ import annotations

import math

import numpy as np
import pytest

from fppslab.bounds import first_moment_ub, perimeter_lower_bound
from fppslab.eden import (
    DrawSource,
    dhar_step,
    initial_cluster,
    sample_slab_crossing,
)
from fppslab.errors import BudgetExceeded, DomainError
from fppslab.lattice import hyperplane_index
from fppslab.weights import derive_seed


def test_initial_singleton_counts():
    for d in (2, 3, 5, 12):
        state = initial_cluster(d)
        assert state.infected_count == 1
        assert state.perimeter_count == 2 * (d - 1)
        assert state.exit_candidate_count() == 1
        assert {(0,) + c for c in state.coords} == {(0,) * d}
        assert state.perimeter_size_recomputed() == 2 * (d - 1)


def test_d2_singleton_exit_probability_one_third():
    n = 4000
    exits = 0
    for i in range(n):
        state = initial_cluster(2)
        _, exited = dhar_step(state, DrawSource.from_seed(derive_seed(31, i)))
        exits += exited
    p = exits / n
    se = math.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(p - 1 / 3) < 3 * se


def test_first_increment_mean_matches_race_rate():
    d, a, n = 6, 2.0, 4000
    rate = a * (2 * d - 1)
    incs = []
    for i in range(n):
        state = initial_cluster(d, a)
        dhar_step(state, DrawSource.from_seed(derive_seed(32, i)))
        incs.append(state.elapsed)
    mean = float(np.mean(incs))
    se = (1.0 / rate) / math.sqrt(n)  # exponential: sd == mean
    assert abs(mean - 1.0 / rate) < 3 * se


def test_non_exit_step_grows_cluster_and_time():
    state = initial_cluster(5)
    src = DrawSource.from_seed(7)
    while True:
        i0, t0 = state.infected_count, state.elapsed
        _, exited = dhar_step(state, src)
        assert state.elapsed > t0
        if exited:
            assert state.infected_count == i0
            break
        assert state.infected_count == i0 + 1


def test_frozen_state_rejects_more_steps():
    state = initial_cluster(2)
    src = DrawSource.from_seed(3)
    while not dhar_step(state, src)[1]:
        pass
    with pytest.raises(DomainError):
        dhar_step(state, src)


def test_bookkeeping_matches_recomputation_along_trajectory():
    for d in (2, 3, 4, 6):
        state = initial_cluster(d)
        src = DrawSource.from_seed(derive_seed(33, d))
        for _ in range(200):
            _, exited = dhar_step(state, src, validate=True)
            if exited:
                break
            assert state.perimeter_count == state.perimeter_size_recomputed()
            assert state.exit_candidate_count() == state.infected_count
            if d >= 4:
                assert state.perimeter_count + 1e-6 >= perimeter_lower_bound(
                    d, state.infected_count
                )


def test_rate_scaling_is_pathwise():
    for seed in range(40):
        s1 = sample_slab_crossing(6, 1.0, seed)
        s2 = sample_slab_crossing(6, 2.0, seed)
        assert s2.value == pytest.approx(s1.value / 2.0, rel=1e-12)
        assert s2.exit_vertex == s1.exit_vertex
        assert s2.settled_count == s1.settled_count


def test_sample_reports_exit_in_first_hyperplane():
    s = sample_slab_crossing(4, 1.0, 12345)
    assert hyperplane_index(s.exit_vertex) == 1
    assert s.dimension == 4
    assert s.seed_used == 12345
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
