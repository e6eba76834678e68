from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppslab.errors import DomainError, SamplerMismatch
from fppslab.experiments import (
    ExperimentConfig,
    _fast_path_exists,
    concentration_curve,
    ks_statistic,
    normalized_values,
    run_slab_mc,
    sample_crossing_values,
    search_cross_probe,
    subadditivity_check,
    summarize,
    ui_tail,
    wilson_interval,
)
from fppslab.slab import point_to_hyperplane_time, slab_crossing_time
from fppslab.weights import WeightModel, derive_seed

from helpers import bootstrap_ci
from oracles import fast_path_exists_scalar


def cfg(d=(5,), reps=200, seed=7, family="exp", a=1.0, **kw):
    return ExperimentConfig(
        d_grid=tuple(d),
        model=WeightModel(family=family, a=a, seed=seed),
        replicates=reps,
        root_seed=seed,
        **kw,
    )


def test_config_validation():
    with pytest.raises(DomainError):
        cfg(reps=0)
    with pytest.raises(DomainError):
        cfg(d=(1,))
    with pytest.raises(DomainError):
        cfg(d=())
    with pytest.raises(DomainError):
        cfg(budget_cap=0)


def test_run_is_deterministic_and_thread_invariant():
    c = cfg(reps=300)
    v1 = sample_crossing_values(c, "eden", 5)
    v2 = sample_crossing_values(c, "eden", 5)
    assert np.array_equal(v1, v2)
    s1 = run_slab_mc(c)
    s2 = run_slab_mc(c)
    assert s1 == s2


def test_eden_sampler_requires_exponential():
    with pytest.raises(SamplerMismatch):
        run_slab_mc(cfg(family="uniform"))
    # the slab sampler accepts any family
    run_slab_mc(cfg(family="uniform", reps=5), sampler="slab")


def test_single_replicate_has_no_variance():
    s = run_slab_mc(cfg(reps=1))[5]
    assert s.n == 1
    assert s.variance is None
    assert s.ci95 is None
    assert s.normalized_var is None
    assert s.normalized_mean is not None


def test_summary_consistency():
    c = cfg(reps=500)
    values = sample_crossing_values(c, "eden", 5)
    s = summarize(values, 5, 1.0)
    scale = 2.0 * 5 / math.log(5)
    assert s.mean == pytest.approx(float(np.mean(values)), rel=1e-15)
    assert s.normalized_mean == pytest.approx(s.mean * scale, rel=1e-15)
    assert s.ci95[0] < s.mean < s.ci95[1]


def test_samplers_agree_in_mean():
    c_eden = cfg(reps=4000, seed=101)
    c_slab = cfg(reps=4000, seed=202)
    se = run_slab_mc(c_eden, "eden")[5]
    ss = run_slab_mc(c_slab, "slab")[5]
    gap = abs(se.mean - ss.mean)
    combined = math.sqrt(se.variance / se.n + ss.variance / ss.n)
    assert gap <= 3.0 * combined


def test_wilson_interval_shapes():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.15
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.8 < lo < 1.0
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(5, 4)


def test_ks_statistic_known_values():
    x = np.array([0.0, 1.0])
    y = np.array([0.5, 1.5])
    assert ks_statistic(x, y) == pytest.approx(0.5)
    z = np.arange(100.0)
    assert ks_statistic(z, z) == 0.0
    assert ks_statistic(z, z + 1000.0) == 1.0


def test_bootstrap_ci_deterministic_and_covering():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=400)
    ci1 = bootstrap_ci(values, np.mean, seed=5)
    ci2 = bootstrap_ci(values, np.mean, seed=5)
    assert ci1 == ci2
    assert ci1[0] < float(np.mean(values)) < ci1[1]


def test_concentration_basics():
    c = cfg(d=(8,), reps=400)
    est = concentration_curve(c, eta=0.5)[8]
    assert 0.0 <= est.wilson_lo <= est.p_hat <= est.wilson_hi <= 1.0
    far = concentration_curve(c, eta=1e9)[8]
    assert far.p_hat == 0.0
    with pytest.raises(DomainError):
        concentration_curve(c, eta=0.0)


def test_ui_tail_limits():
    c = cfg(d=(10,), reps=500)
    values = sample_crossing_values(c, "eden", 10)
    x = normalized_values(values, 10, 1.0)
    tiny = ui_tail(c, 1e-12)[10]
    assert tiny == pytest.approx(float(np.mean(x)), rel=1e-12)
    t1 = ui_tail(c, 1.0)[10]
    t2 = ui_tail(c, 2.0)[10]
    assert 0.0 <= t2 <= t1 <= tiny
    with pytest.raises(DomainError):
        ui_tail(c, 0.0)


def test_subadditivity_small_run():
    c = cfg(d=(3,), reps=20, seed=17)
    rep = subadditivity_check(c, 2)[3]
    assert rep.pathwise_violations == 0
    assert rep.lhs_mean <= rep.rhs_mean + 3.0 * rep.combined_se


def test_single_hyperplane_inclusion():
    # crossing paths confined to the start hyperplane are a subset of all
    # paths reaching the next hyperplane, so the direct time can only be
    # smaller, realization by realization
    for seed in range(20):
        m = WeightModel(family="exp", a=1.0, seed=derive_seed(55, seed))
        direct = point_to_hyperplane_time(m, 3, 1)
        confined = slab_crossing_time(m, (0, 0, 0), 0).value
        assert direct <= confined + 1e-12


def test_search_cross_probe_reports():
    model = WeightModel(family="exp", a=1.0, seed=31337)
    rep = search_cross_probe(16, model, 400)
    assert rep.subspace_dim == 8
    assert rep.path_steps == int(0.75 * math.log(16))
    assert 0.0 <= rep.p_hat_fj <= min(rep.p_hat_path, rep.p_hat_tau)
    # the orthogonal first step is an honest draw from F
    f_y = 1.0 - math.exp(-rep.y_threshold)
    se = math.sqrt(f_y * (1 - f_y) / rep.replicates)
    assert abs(rep.p_hat_tau - f_y) <= 3.0 * se + 1e-9
    assert rep.capped_replicates == 0
    with pytest.raises(DomainError):
        search_cross_probe(16, model, 0)
    with pytest.raises(DomainError):
        search_cross_probe(7, model, 10)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(d=st.sampled_from((8, 16, 32)), seed=st.integers(0, 2**64 - 1),
       n_steps=st.integers(1, 3), budget=st.floats(0.1, 2.5),
       node_cap=st.sampled_from((1, 2, 3, 8, 40, 1_000_000)))
def test_fast_path_search_matches_scalar_oracle(d, seed, n_steps, budget, node_cap):
    # budget scales the probe's x = 9 log(d) / (4 d); small caps hit the capped exit
    m = WeightModel(family="exp", a=1.0, seed=seed)
    x = budget * 9.0 * math.log(d) / (4.0 * d)
    args = (m, d, d // 2, n_steps, x, node_cap)
    assert _fast_path_exists(*args) == fast_path_exists_scalar(*args)


def test_normalized_mean_drifts_toward_one():
    # the (0.8, 1.6) window and the shrinking gap are checked at reduced
    # replication; the stated grid runs in the acceptance suite
    out = {}
    for d, n in ((100, 1200), (1000, 1200)):
        c = cfg(d=(d,), reps=n, seed=61)
        values = sample_crossing_values(c, "eden", d)
        out[d] = summarize(values, d, 1.0)
    assert 0.8 < out[1000].normalized_mean < 1.6
    assert abs(out[1000].normalized_mean - 1.0) < abs(out[100].normalized_mean - 1.0)
