from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppslab import experiments
from fppslab.errors import DomainError, SamplerMismatch
from fppslab.experiments import (
    ExperimentConfig,
    _dense,
    _fast_paths_exist,
    _filled_blocks,
    _next_level,
    concentration_curve,
    ks_statistic,
    normalized_values,
    replicate_seeds,
    run_slab_mc,
    sample_crossing_values,
    search_cross_probe,
    subadditivity_check,
    summarize,
    ui_tail,
    wilson_interval,
)
from fppslab.lattice import EdgeId
from fppslab.slab import point_to_hyperplane_time, slab_crossing_time
from fppslab.weights import WeightModel, derive_seed, edge_units

from helpers import BUMP_TABLE, bootstrap_ci
from oracles import cheap_state_count, fast_path_exists_scalar


def cfg(d=(5,), reps=200, seed=7, family="exp", a=1.0, **kw):
    return ExperimentConfig(
        d_grid=tuple(d),
        model=WeightModel(family=family, a=a, seed=seed),
        replicates=reps,
        **kw,
    )


def test_config_validation():
    with pytest.raises(DomainError):
        cfg(reps=0)
    with pytest.raises(DomainError):
        cfg(d=(1,))
    with pytest.raises(DomainError):
        cfg(d=())
    # run_slab_mc keys its result by d, so a repeated d would be sampled twice
    # and reported once
    with pytest.raises(DomainError):
        cfg(d=(5, 5))
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
        confined = slab_crossing_time(m, (0, 0, 0)).value
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


# a quantile table with atoms at 0.3 (mass 0.3) and 1.0 (mass 0.1); density 1 at 0+
ATOM_TABLE = ((0.0, 0.0), (0.3, 0.3), (0.6, 0.3), (0.9, 1.0))
FAMILIES = {"exp": dict(family="exp", a=1.0), "uniform": dict(family="uniform", a=1.0),
            "table": dict(family="table", a=1.0, points=ATOM_TABLE)}
CAPS = (1, 2, 3, 8, 40, 1_000_000)


def assert_batched_search_matches_scalar(model, seeds, d, n_steps, x, node_cap):
    got = [(found, capped) for found, capped, _ in
           _fast_paths_exist(model, seeds, d, d // 2, n_steps, x, node_cap)]
    want = [fast_path_exists_scalar(model.with_seed(s), d, d // 2, n_steps, x, node_cap)
            for s in seeds]
    assert got == want


@settings(derandomize=True, max_examples=180, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), d=st.sampled_from((8, 16, 32, 64)),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
       n_steps=st.integers(1, 4), budget=st.floats(0.1, 2.5),
       node_cap=st.sampled_from(CAPS))
def test_fast_path_search_matches_scalar_oracle(family, d, seeds, n_steps, budget, node_cap):
    # budget scales the probe's x = 9 log(d) / (4 d); small caps hit the capped
    # exit, and a block of seeds shares its hash passes
    x = budget * 9.0 * math.log(d) / (4.0 * d)
    assert_batched_search_matches_scalar(WeightModel(**FAMILIES[family]), seeds, d, n_steps,
                                         x, node_cap)


@pytest.mark.parametrize("node_cap", CAPS)
@pytest.mark.parametrize("d, n_steps", [(8, 1), (8, 2), (16, 3), (32, 2)])
def test_fast_path_search_with_ties_on_the_cut(d, n_steps, node_cap):
    # x sits exactly on the table's atom at 0.3, so 30% of all edges weigh
    # exactly x: ties on the unit cut, and partial costs equal to x
    model = WeightModel(**FAMILIES["table"], seed=11)
    seeds = replicate_seeds(model, d, 9)
    assert_batched_search_matches_scalar(model, seeds, d, n_steps, 0.3, node_cap)


@st.composite
def quantile_tables(draw):
    """2-6 nodes (y, x): y from 0 strictly up to at most 1, x >= 0 and
    nondecreasing, with repeated xs (flat pieces) drawn often."""
    n = draw(st.integers(2, 6))
    ys = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n - 1,
                       max_size=n - 1, unique=True))
    xs = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from((0.0, 1.0))),
                       min_size=n, max_size=n))
    return tuple(zip([0.0, *sorted(ys)], sorted(xs)))


@pytest.mark.parametrize("d", (16, 64))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(points=st.one_of(st.just(BUMP_TABLE), quantile_tables()), data=st.data())
def test_fast_path_search_on_tables_that_dip_at_a_node(d, points, data):
    # x on a node's x: just below a node the table quantile can round one
    # ulp above it, and on a flat piece many edges weigh exactly x; the
    # probe's floor prune must keep every edge within x and no other
    model = WeightModel(family="table", points=points)
    x = data.draw(st.sampled_from([x for _, x in points]))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    n_steps = data.draw(st.integers(1, 3))
    # past level 1 at d = 64, an uncapped scalar search can settle thousands
    node_cap = data.draw(st.sampled_from(CAPS if d == 16 else CAPS[:-1]))
    assert_batched_search_matches_scalar(model, seeds, d, n_steps, x, node_cap)


def test_exp_edges_that_pass_the_floor_above_x_change_no_answer(monkeypatch):
    # the exp floor lies a little below the weight, so a few weighed edges
    # weigh more than x; the sweep's own test against x drops them
    over = []
    cheap_entries = experiments._cheap_entries

    def recorded(model, units, x):
        entries = cheap_entries(model, units, x)
        over.extend(w for w in entries[2] if w > x)
        return entries

    monkeypatch.setattr(experiments, "_cheap_entries", recorded)
    model = WeightModel(family="exp", a=1.0, seed=31)
    d = 64
    seeds = replicate_seeds(model, d, 40)  # 6 such edges among 3,730 weighed
    assert_batched_search_matches_scalar(model, seeds, d, 3, 9.0 * math.log(d) / (4.0 * d), 40)
    assert over


@pytest.mark.parametrize("family, budget", [("exp", 2.0), ("table", None)])
@pytest.mark.parametrize("d", (8, 16, 64))
def test_fast_path_search_across_blocks(family, d, budget):
    # 35 seeds, cut into blocks by their level-1 sizes; each cap lies
    # between the state counts of the first 16 seeds, so a block holds seeds
    # whose levels outgrow the cap and seeds whose levels fit. On the table,
    # x sits on the atom at 0.3.
    model = WeightModel(**FAMILIES[family], seed=23)
    n_steps, p = 3, d // 2
    x = 0.3 if budget is None else budget * 9.0 * math.log(d) / (4.0 * d)
    seeds = replicate_seeds(model, d, 35)
    first = sorted(cheap_state_count(model.with_seed(s), d, p, n_steps, x)
                   for s in seeds[:16])
    assert first[0] < first[-1]
    for node_cap in (first[0], first[len(first) // 2], first[-1] - 1):
        assert first[0] <= node_cap < first[-1]
        assert_batched_search_matches_scalar(model, seeds, d, n_steps, x, node_cap)


# half of all edges weigh exactly 0
ZERO_ATOM_TABLE = ((0.0, 0.0), (0.5, 0.0), (0.9, 1.0))


@pytest.mark.parametrize("d", (16, 64))
def test_capped_search_keeps_the_tie_order_and_bounds_its_work(monkeypatch, d):
    # With x = 0 every state that counts costs exactly 0, so only the (t, v)
    # order decides which of them a capped seed keeps; at d = 16 a cap of 12
    # cuts into the terminal level, where that choice decides the answer.
    hashed = Counter()

    def counted_units(seeds, d, verts, moves):
        for s in seeds:
            hashed[s] += len(moves)
        return edge_units(seeds, d, verts, moves)

    monkeypatch.setattr(experiments, "edge_units", counted_units)
    model = WeightModel(family="table", points=ZERO_ATOM_TABLE, seed=5)
    n_steps, p, x = 3, d // 2, 0.0
    seeds = replicate_seeds(model, d, 17)
    most = max(cheap_state_count(model.with_seed(s), d, p, n_steps, x) for s in seeds)
    for node_cap in (1, 12, 40, most + 1):
        hashed.clear()
        assert_batched_search_matches_scalar(model, seeds, d, n_steps, x, node_cap)
        assert max(hashed.values()) <= n_steps * (node_cap + 1) * 2 * p


def count_passes(monkeypatch) -> list[int]:
    """The key count of every edge_units pass the probe makes from here on."""
    keys = []

    def counted_units(seeds, d, coords, moves):
        keys.append(len(seeds) * len(moves))
        return edge_units(seeds, d, coords, moves)

    monkeypatch.setattr(experiments, "edge_units", counted_units)
    return keys


def test_search_cross_probe_work_count(monkeypatch):
    # One pass weighs all 50 origins' stars and orthogonal steps at d = 64;
    # then blocks whose level-1 stars fill about one pass take one level-1
    # pass and one forward pass each: 5 passes (13 with the blocks of 16
    # and the orthogonal steps' own pass), also when the node cap cuts
    # some seeds off. A single replicate at d = 192 takes 3.
    keys = count_passes(monkeypatch)
    model = WeightModel(family="exp", a=1.0, seed=9)
    d, reps = 64, 50
    search_cross_probe(d, model, reps)
    assert len(keys) <= 5
    assert keys[0] == reps * (d + 1)

    keys.clear()
    node_cap = 40
    rep = search_cross_probe(d, model, reps, node_cap=node_cap)
    assert len(keys) <= 5
    x = 9.0 * math.log(d) / (4.0 * d)
    over = [cheap_state_count(model.with_seed(s), d, d // 2, rep.path_steps, x) > node_cap
            for s in replicate_seeds(model, d, reps)]
    assert 0 < rep.capped_replicates <= sum(over) < reps

    keys.clear()
    search_cross_probe(192, model, 1)
    assert len(keys) <= 3


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("d", (8, 16, 64, 192))
def test_orthogonal_steps_from_the_origin_pass_are_their_edge_weights(family, d):
    # the origin pass carries each seed's edge from the origin along axis
    # p + 1; at d = 8 the path has one step, so that pass holds the forward
    # edge and no star
    model = WeightModel(**FAMILIES[family], seed=41)
    p, n_steps = d // 2, int(math.floor(0.75 * math.log(d)))
    seeds = replicate_seeds(model, d, 300 if d <= 16 else 12)
    got = [tau for _, _, tau in _fast_paths_exist(model, seeds, d, p, n_steps,
                                                  9.0 * math.log(d) / (4.0 * d), 100)]
    origin = (0,) * d
    assert [w.hex() for w in got] == [
        model.with_seed(s).edge_weight(EdgeId(origin, p + 1)).hex() for s in seeds]


def test_filled_blocks_fill_one_pass():
    keys = experiments._PASS_KEYS
    assert list(_filled_blocks([], 64)) == [(0, 0)]
    assert list(_filled_blocks([keys // 64 + 1, 1, 0], 64)) == [(0, 1), (1, 3)]
    assert list(_filled_blocks([1] * 10, keys // 4)) == [(0, 4), (4, 8), (8, 10)]
    assert list(_filled_blocks([0] * 5, 64)) == [(0, 5)]


def test_fast_path_search_in_lone_and_shared_blocks(monkeypatch):
    # With passes of 128 keys at d = 16 (16 moves in a star), a block's
    # level-1 states number at most 8, and the origin pass holds 7 seeds
    # (17 keys each). At half the probe's x, seeds with many level-1 states
    # form blocks of their own and seeds with few share one; both kinds
    # occur, and every answer stays the scalar search's.
    blocks = []

    def recorded(sizes, per_state):
        cuts = list(_filled_blocks(sizes, per_state))
        blocks.extend(hi - lo for lo, hi in cuts)
        return cuts

    monkeypatch.setattr(experiments, "_PASS_KEYS", 128)
    monkeypatch.setattr(experiments, "_filled_blocks", recorded)
    model = WeightModel(family="exp", a=1.0, seed=57)
    d, n_steps = 16, 3
    seeds = replicate_seeds(model, d, 40)
    x = 0.5 * 9.0 * math.log(d) / (4.0 * d)
    for node_cap in (3, 8, 1_000_000):  # 35, 15 and 0 of the 40 capped
        blocks.clear()
        assert_batched_search_matches_scalar(model, seeds, d, n_steps, x, node_cap)
        assert 1 in blocks and max(blocks) >= 3


def test_probe_block_scatter_matches_dense_tuples():
    # the probe's levels scattered into blocks cut at their largest nonzero
    # index + 1 give the units of the full dense vertices; level 0 holds
    # only the origin (a block of no columns), and level 2 holds it again
    model = WeightModel(family="exp", a=1.0, seed=3)
    d, p = 16, 4
    star = [(axis, delta) for axis in range(1, p + 1) for delta in (1, -1)]
    seeds = replicate_seeds(model, d, 3)
    level = [{(): 0.0} for _ in seeds]
    for t in range(4):
        verts = [v for states in level for v in states]
        owners = [s for s, states in zip(seeds, level) for _ in states]
        dense = []
        for v in verts:
            row = [0] * d
            for i in range(0, len(v), 2):
                row[v[i]] = v[i + 1]
            dense.append(tuple(row))
        block = _dense(verts)
        assert block.shape == (len(verts), max((v[-2] + 1 for v in verts if v), default=0))
        assert (t % 2 == 0) == (() in verts)
        for moves in (star, [(0, 1)], [(p + 1, 1), (p, -1)]):
            assert (edge_units(owners, d, block, moves).tobytes()
                    == edge_units(owners, d, dense, moves).tobytes())
        level = _next_level(model, d, seeds, level, star, math.inf)


def test_search_cross_probe_makes_no_scalar_oracle_call(monkeypatch):
    # the first steps and the forward edges go through the batch oracle too
    calls = []
    scalar = WeightModel.edge_weight

    def counted(self, e):
        calls.append(e)
        return scalar(self, e)

    monkeypatch.setattr(WeightModel, "edge_weight", counted)
    rep = search_cross_probe(64, WeightModel(family="exp", a=1.0, seed=9), 12)
    assert rep.p_hat_path > 0.0
    assert calls == []


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
