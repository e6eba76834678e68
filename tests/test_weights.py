from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppslab.errors import DomainError, UnsupportedModel
from fppslab.lattice import EdgeId
from fppslab.weights import (
    _GOLDEN,
    _Y_MAX,
    RATE_MAX,
    RATE_MIN,
    U64,
    CoupledWeights,
    CouplingMap,
    WeightModel,
    bits_to_unit,
    couple_check,
    derive_seed,
    edge_units,
    fold64,
    verify_density_condition,
)

from helpers import BUMP_TABLE
from oracles import edge_weight_reference, quantile_formula, table_quantile_bruteforce, unmix64


# table for F with an atom at x = 1.0 of mass 0.4 (quantile flat on (0.3, 0.7])
JUMP_TABLE = ((0.0, 0.0), (0.3, 1.0), (0.7, 1.0), (1.0, 2.0))
# two atoms: x = 0.3 carries mass 0.3 and x = 1.0 the mass 0.1
ATOM_TABLE = ((0.0, 0.0), (0.3, 0.3), (0.6, 0.3), (0.9, 1.0))


def test_quantile_uniform_is_identity_at_rate_one():
    m = WeightModel(family="uniform", a=1.0)
    assert m.quantile(0.37) == 0.37


def test_quantile_exponential_closed_form():
    m = WeightModel(family="exp", a=2.0)
    assert m.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)


def test_quantile_table_jump_returns_atom():
    m = WeightModel(family="table", points=JUMP_TABLE)
    for y in (0.35, 0.5, 0.7):
        assert m.quantile(y) == 1.0
        assert m.quantile(y) == pytest.approx(
            table_quantile_bruteforce(JUMP_TABLE, y), abs=1e-3
        )


def test_quantile_domain_errors():
    m = WeightModel(family="exp", a=1.0)
    for y in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            m.quantile(y)


@pytest.mark.parametrize(
    "model",
    [
        WeightModel(family="exp", a=0.7),
        WeightModel(family="uniform", a=2.5),
        WeightModel(family="table", points=JUMP_TABLE),
    ],
)
def test_quantile_nondecreasing(model):
    rng = np.random.default_rng(5)
    for _ in range(500):
        y1, y2 = sorted(rng.random(2))
        assert model.quantile(y1) <= model.quantile(y2)


@pytest.mark.parametrize(
    "model", [WeightModel(family="exp", a=1.7), WeightModel(family="uniform", a=0.8)]
)
def test_cdf_quantile_round_trip(model):
    for y in np.linspace(0.001, 0.999, 200):
        assert model.cdf(model.quantile(float(y))) == pytest.approx(float(y), rel=1e-12)


def test_couple_exponential_target_is_identity():
    cm = CouplingMap(target=WeightModel(family="exp", a=1.3), rate=1.3)
    for t in np.linspace(0.0, 10.0, 500):
        assert cm(float(t)) == pytest.approx(float(t), rel=1e-12, abs=1e-12)


def test_couple_uniform_closed_form_and_domination():
    a = 2.0
    cm = CouplingMap(target=WeightModel(family="uniform", a=a), rate=a)
    assert cm(0.0) == 0.0
    for t in np.geomspace(1e-6, 5.0, 100):
        t = float(t)
        expected = -math.expm1(-a * t) / a
        assert cm(t) == pytest.approx(expected, rel=1e-12)
        assert cm(t) < t


def test_couple_rejects_negative_time():
    cm = CouplingMap(target=WeightModel(family="exp", a=1.0), rate=1.0)
    with pytest.raises(DomainError):
        cm(-1e-9)


def test_edge_weight_is_deterministic(exp_model):
    e = EdgeId((0, 3, -2), 1)
    assert exp_model.edge_weight(e) == exp_model.edge_weight(e)
    assert exp_model.edge_weight(e) != exp_model.with_seed(7).edge_weight(e)


def test_edge_weight_exponential_mean():
    m = WeightModel(family="exp", a=1.0, seed=90125)
    vals = [m.edge_weight(EdgeId((0, i), 1)) for i in range(100_000)]
    assert abs(float(np.mean(vals)) - 1.0) < 0.01


def test_edge_weight_pairs_uncorrelated_across_seeds():
    e1 = EdgeId((0, 0), 0)
    e2 = EdgeId((0, 1), 1)
    w1, w2 = [], []
    for s in range(100_000):
        m = WeightModel(family="uniform", a=1.0, seed=s)
        w1.append(m.edge_weight(e1))
        w2.append(m.edge_weight(e2))
    r = float(np.corrcoef(w1, w2)[0, 1])
    assert abs(r) < 3.0 / math.sqrt(100_000)


def test_edge_weights_strictly_positive(exp_model):
    for i in range(1000):
        assert exp_model.edge_weight(EdgeId((0, i, -i), 2)) > 0.0


def test_all_ones_hash_gives_a_finite_weight():
    # an edge whose key hashes to 2^64 - 1: its top 53 bits plus one half
    # round to 2^53, so the unmapped unit would be exactly 1.0
    model = WeightModel(family="exp", a=1.0, seed=5)
    w = unmix64(U64) ^ ((fold64(5, (3, 1, 0, 0)) + _GOLDEN) & U64)
    e = EdgeId((0, 0, w), 1)
    assert fold64(5, (3, 1, *e.base)) == U64
    scalar = model.edge_weight(e)
    assert 0.0 < scalar < math.inf
    batch = model.quantile(edge_units([5], 3, [e.base], [(1, 1)])[0, 0])
    reference = edge_weight_reference(model, e)
    assert scalar.hex() == batch.hex() == reference.hex()


def test_density_condition_exponential_passes():
    m = WeightModel(family="exp", a=1.0, c=1.0, eps0=0.1)
    rep = verify_density_condition(m, 300)
    assert rep.passed
    # taylor: |F(x)/x - a| <= a^2 x / 2, so the weighted deviation is tiny
    assert rep.max_deviation < 0.2


def test_density_condition_uniform_is_exact():
    m = WeightModel(family="uniform", a=2.0, c=0.5, eps0=0.4)
    rep = verify_density_condition(m, 200)
    assert rep.passed
    assert rep.max_deviation == pytest.approx(0.0, abs=1e-12)


def test_density_condition_wrong_a_fails():
    # true density is 1 (uniform table on [0,1]) but a is declared as 2:
    # the weighted deviation |F(x)/x - a| |log x| blows up near 0
    honest = WeightModel(family="uniform", a=1.0, c=5.0, eps0=0.5)
    declared_wrong = WeightModel(family="table", a=2.0, c=5.0, eps0=0.5,
                                 points=((0.0, 0.0), (1.0, 1.0)))
    assert verify_density_condition(honest, 200).passed
    assert not verify_density_condition(declared_wrong, 200).passed


def test_density_condition_requires_declared_constants(exp_model):
    with pytest.raises(UnsupportedModel):
        verify_density_condition(exp_model, 100)


@pytest.mark.parametrize("eps0", [0.0, -0.1, math.nan, math.inf])
def test_density_condition_rejects_an_eps0_that_is_not_finite_and_positive(eps0):
    # nan left the grid without a valid point, so nothing was checked and the
    # check passed; 0 and -0.1 raised numpy's and math's bare ValueError
    m = WeightModel(family="exp", a=1.0, c=1.0, eps0=eps0)
    with pytest.raises(DomainError, match="eps0"):
        verify_density_condition(m, 50)


def test_derive_seed_distinct_and_stable():
    s = derive_seed(12345, 3, 7)
    assert s == derive_seed(12345, 3, 7)
    assert len({derive_seed(1, 0, r) for r in range(1000)}) == 1000
    assert derive_seed(1, 0, 2) != derive_seed(1, 2, 0)


def test_coupled_weights_transform_pathwise(exp_model):
    cm = CouplingMap(target=WeightModel(family="uniform", a=1.0), rate=1.0)
    cw = CoupledWeights(source=exp_model, map=cm)
    for i in range(200):
        e = EdgeId((0, i), 1)
        assert cw.edge_weight(e) == pytest.approx(cm(exp_model.edge_weight(e)), rel=1e-15)
        assert cw.edge_weight(e) <= exp_model.edge_weight(e)


def test_couple_check_exponential_identity():
    cm = CouplingMap(target=WeightModel(family="exp", a=1.0), rate=1.0)
    rep = couple_check(cm, 100)
    assert rep.monotonicity_violations == 0
    assert rep.sup_ratio_deviation < 1e-12


def test_couple_check_uniform_ratio_shape():
    cm = CouplingMap(target=WeightModel(family="uniform", a=1.0), rate=1.0)
    rep = couple_check(cm, 100)
    assert rep.monotonicity_violations == 0
    ratios = [r[2] for r in rep.rows]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert ratios[0] == pytest.approx(1.0, abs=1e-6)  # h(t)/t -> 1 at 0


def test_model_validation():
    with pytest.raises(DomainError):
        WeightModel(family="exp", a=0.0)
    with pytest.raises(DomainError):
        WeightModel(family="nope", a=1.0)
    with pytest.raises(DomainError):
        WeightModel(family="table", points=((0.1, 0.0), (1.0, 1.0)))  # must start at y=0
    with pytest.raises(DomainError):
        WeightModel(family="table", points=((0.0, 1.0), (0.5, 0.5)))  # x decreasing
    with pytest.raises(DomainError):
        WeightModel(family="exp", a=1.0, points=((0.0, 0.0), (1.0, 1.0)))  # not a table
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            WeightModel(family="uniform", a=bad)
        with pytest.raises(DomainError):
            WeightModel(family="table", points=((0.0, 0.0), (0.5, bad)))
        with pytest.raises(DomainError):
            WeightModel(family="table", points=((0.0, 0.0), (bad, 1.0)))
        with pytest.raises(DomainError):
            CouplingMap(target=WeightModel(family="exp", a=1.0), rate=bad)
    # finite rates whose a^2 or weights leave the doubles
    for extreme in (1e-320, 1e-200, 1e200, 1e308):
        with pytest.raises(DomainError):
            WeightModel(family="exp", a=extreme)
        with pytest.raises(DomainError):
            CouplingMap(target=WeightModel(family="exp", a=1.0), rate=extreme)


def test_rate_range_ends_keep_weights_and_squares_finite():
    for a in (RATE_MIN, RATE_MAX):
        assert 0.0 < a * a < math.inf
        for family in ("exp", "uniform"):
            m = WeightModel(family=family, a=a)
            # the smallest oracle uniform and the largest quantile argument
            for y in (bits_to_unit(0), 1.0 - 2.0**-53):
                w = m.quantile(y)
                assert 0.0 < w * w < math.inf, (a, family, y)


# small coordinates, and ones at or beyond the int64/uint64 edges, which the
# key fold reduces mod 2^64 (two's complement for negatives)
COORDS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(-(2**64) - 2, -(2**63) + 2),
    st.integers(-(2**80), 2**80),
)


@pytest.mark.parametrize(
    "family, a, points",
    [("exp", 1.3, None), ("uniform", 0.7, None), ("table", None, ATOM_TABLE)],
)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(2, 300),
       seeds=st.lists(st.integers(-(2**64), 2**65), min_size=1, max_size=4))
def test_edge_units_match_edge_weight_bit_for_bit(family, a, points, data, d, seeds):
    # one batch over several (seed, vertex) pairs, each pair's edges under
    # its own seed; a seed may repeat, and so may a vertex. Later vertices
    # redraw up to three coordinates of the first, as a search's neighbours do
    models = [WeightModel(family=family, a=a, points=points, seed=seed) for seed in seeds]
    verts = [tuple(data.draw(st.lists(COORDS, min_size=d, max_size=d)))]
    for _ in seeds[1:]:
        v = list(verts[0])
        for i in data.draw(st.lists(st.integers(0, d - 1), max_size=3)):
            v[i] = data.draw(COORDS)
        verts.append(tuple(v))
    axes = data.draw(st.lists(st.integers(0, d - 1), unique=True))
    moves = [(axis, delta) for axis in axes for delta in data.draw(st.permutations((1, -1)))]
    expected = []
    for m, v in zip(models, verts):
        for axis, delta in moves:
            base = v if delta > 0 else v[:axis] + (v[axis] - 1,) + v[axis + 1:]
            expected.append(m.edge_weight(EdgeId(base, axis)).hex())
    units = edge_units(seeds, d, verts, moves)
    assert units.shape == (len(seeds), len(moves))
    got = [m.quantile(u).hex() for m, row in zip(models, units.tolist()) for u in row]
    assert got == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(1, 40),
       seeds=st.lists(st.integers(-(2**64), 2**65), min_size=1, max_size=5))
def test_narrow_coordinate_block_matches_its_zero_padded_block(data, d, seeds):
    # a block of k < d columns stands for coordinates k..d-1 all 0; some of
    # its own columns are all 0 too, and moves lower axes inside and past it
    k = data.draw(st.integers(0, d))
    zero = data.draw(st.sets(st.integers(0, d - 1)))
    rows = [[0 if i in zero else data.draw(COORDS) for i in range(k)] for _ in seeds]
    axes = data.draw(st.lists(st.integers(0, d - 1), unique=True, min_size=1))
    moves = [(axis, delta) for axis in axes for delta in data.draw(st.permutations((1, -1)))]
    padded = [row + [0] * (d - k) for row in rows]
    narrow = edge_units(seeds, d, rows, moves)
    assert narrow.shape == (len(seeds), len(moves))
    assert narrow.tobytes() == edge_units(seeds, d, padded, moves).tobytes()
    if all(-(2**63) <= c < 2**63 for row in rows for c in row):
        block = np.array(rows, dtype=np.int64).reshape(len(seeds), k)
        assert edge_units(seeds, d, block, moves).tobytes() == narrow.tobytes()


# seeds below 0 and at or beyond 2^64 as well as in range; fold64 reduces
# them mod 2^64
SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(-(2**64), -1),
    st.integers(2**64, 2**65),
)


@pytest.mark.parametrize(
    "family, a, points",
    [("exp", 1.3, None), ("uniform", 0.7, None), ("table", None, ATOM_TABLE)],
)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), dims=st.lists(st.integers(2, 300), min_size=2, max_size=2,
                                     unique=True),
       seed=SEEDS, child_seeds=st.lists(SEEDS, min_size=1, max_size=3))
def test_edge_weight_matches_reference_fold_bit_for_bit(family, a, points, data, dims,
                                                        seed, child_seeds):
    # each (axis, x_1) is asked at one dimension, the other, then the first
    # again, so the two dimensions' prefix states interleave on one instance
    edges = []
    for _ in range(data.draw(st.integers(1, 4))):
        axis = data.draw(st.integers(0, min(dims) - 1))
        x1 = data.draw(COORDS)
        # the later words repeat a short drawn cycle, to keep generation cheap
        cycle = data.draw(st.lists(COORDS, min_size=1, max_size=8))
        rest = cycle * max(dims)
        edges += [EdgeId((x1, *rest[:d - 1]), axis) for d in (dims[0], dims[1], dims[0])]
    parent = WeightModel(family=family, a=a, points=points, seed=seed)
    # re-seeded children ask the parent's edges after it has cached them
    for m in [parent] + [parent.with_seed(s) for s in child_seeds]:
        got = [m.edge_weight(e).hex() for e in edges]
        assert got == [edge_weight_reference(m, e).hex() for e in edges]


def test_prefix_cache_leaves_model_identity_alone():
    for family, points in (("exp", None), ("uniform", None), ("table", ATOM_TABLE)):
        filled = WeightModel(family=family, a=1.0, points=points, seed=5)
        fresh = WeightModel(family=family, a=1.0, points=points, seed=5)
        filled.edge_weight(EdgeId((0, 1, -2), 1))
        assert filled._prefix and not fresh._prefix
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) and "_prefix" not in repr(filled)
        # with_seed skips the validation, yet builds the model replace() builds
        child, replaced = filled.with_seed(6), replace(filled, seed=6)
        assert child == replaced and hash(child) == hash(replaced)
        assert repr(child) == repr(replaced)
        assert not child._prefix and filled._prefix


# a near-flat piece: slope 1e-20 between y = 0.25 and y = 0.75
NEAR_FLAT_TABLE = ((0.0, 0.0), (0.25, 1e-21), (0.75, 6e-21), (1.0, 2.0))
# weights in the subnormal range, and a last node below y = 1
SUBNORMAL_TABLE = ((0.0, 0.0), (0.5, 1e-315), (0.9, 3e-310))
FLOOR_MODELS = [
    ("exp", 1.3, None), ("exp", RATE_MIN, None), ("exp", RATE_MAX, None),
    ("uniform", 0.7, None), ("table", None, ATOM_TABLE), ("table", None, JUMP_TABLE),
    ("table", None, NEAR_FLAT_TABLE), ("table", None, SUBNORMAL_TABLE),
]
UNIT_MIN = 2.0**-54  # the least unit bits_to_unit gives


def _ulp_steps(u: float, k: int) -> float:
    for _ in range(abs(k)):
        u = math.nextafter(u, math.inf if k > 0 else 0.0)
    return u


@st.composite
def adversarial_units(draw, model: WeightModel):
    """A unit at a table node, inside a piece (flat ones included), a few
    ulps from cdf(x), or anywhere, moved by up to 4 ulps, in [2^-54, _Y_MAX]."""
    kind = draw(st.sampled_from(("node", "piece", "cdf", "any")))
    ys = [y for y, _ in model.points] + [1.0] if model.points else [0.0, 1.0]
    if kind == "node" and model.points:
        u = draw(st.sampled_from(ys[:-1]))
    elif kind == "piece":
        j = draw(st.integers(0, len(ys) - 2))
        u = draw(st.floats(ys[j], ys[j + 1]))
    elif kind == "cdf":
        xs = [x for _, x in model.points] if model.points else [0.0]
        scale = 40.0 / (model.a or 1.0)
        x = draw(st.one_of(st.sampled_from(xs), st.floats(0.0, scale)))
        u = model.cdf(x)
    else:
        u = draw(st.floats(UNIT_MIN, _Y_MAX))
    u = _ulp_steps(u, draw(st.integers(-4, 4)))
    return min(max(u, UNIT_MIN), _Y_MAX)


@pytest.mark.parametrize("family, a, points", FLOOR_MODELS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_weight_floor_stays_at_or_below_the_quantile(family, a, points, data):
    model = WeightModel(family=family, a=a, points=points)
    units = data.draw(st.lists(adversarial_units(model), min_size=1, max_size=40))
    floor = model.weight_floor(np.array(units)).tolist()
    assert [(u, f) for u, f in zip(units, floor) if not f <= model.quantile(u)] == []
    if family != "exp":  # the uniform and table floors are the quantile itself
        assert floor == [model.quantile(u) for u in units]


def test_table_quantile_dips_at_a_node():
    m = WeightModel(family="table", points=BUMP_TABLE)
    y, x = BUMP_TABLE[1]
    assert m.quantile(math.nextafter(y, 0.0)) > m.quantile(y) == x
    # the floor is the quantile there too, so a prune at x drops the dip
    # and keeps the node
    dip = np.array([math.nextafter(y, 0.0), y])
    assert m.weight_floor(dip).tolist() == [m.quantile(u) for u in dip.tolist()]


@pytest.mark.parametrize("family, a, points", FLOOR_MODELS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_weight_is_the_family_formula_bit_for_bit(family, a, points, data):
    # the unchecked quantile that the kernels call, and the checked one
    model = WeightModel(family=family, a=a, points=points)
    units = data.draw(st.lists(adversarial_units(model), min_size=1, max_size=40))
    want = [quantile_formula(model, u).hex() for u in units]
    for m in (model, model.with_seed(3)):
        assert [m.unit_weight(u).hex() for u in units] == want
        assert [m.quantile(u).hex() for u in units] == want
