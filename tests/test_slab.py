from __future__ import annotations

import math
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppslab.errors import BudgetExceeded
from fppslab.lattice import EdgeId
from fppslab.slab import (
    _BATCH_MIN,
    _SEARCH_BLOCK,
    _WIDE_BLOCK,
    DEFAULT_SETTLED_CAP,
    _concatenations,
    _reach,
    _lazy_search,
    greedy_concatenation,
    point_to_hyperplane_time,
    slab_crossing_time,
)
from fppslab.weights import CoupledWeights, CouplingMap, WeightModel, derive_seed

from oracles import hyperplane_value_bruteforce, search_reference, slab_value_bruteforce


class MapWeights:
    """Duck-typed weight model with explicit per-edge overrides."""

    def __init__(self, default: float, overrides: dict | None = None):
        self.default = default
        self.overrides = overrides or {}

    def edge_weight(self, e: EdgeId) -> float:
        return self.overrides.get(e, self.default)


def test_single_cheap_exit_dominates():
    m = MapWeights(10.0, {EdgeId((0, 0, 0), 0): 0.5})
    s = slab_crossing_time(m, (0, 0, 0))
    assert s.value == 0.5
    assert s.exit_vertex == (1, 0, 0)
    assert s.settled_count == 1


def test_equal_targets_break_by_vertex_order():
    # the exit (1, 0) is pushed first at 1.0; the exit (1, -1) ties it later
    # through (0, -1) and must still be pushed, since it pops first
    m = MapWeights(10.0, {EdgeId((0, 0), 0): 1.0, EdgeId((0, 0), 1): 0.5,
                          EdgeId((0, -1), 1): 0.5, EdgeId((0, -1), 0): 0.5})
    s = slab_crossing_time(m, (0, 0))
    assert (s.value, s.exit_vertex, s.settled_count) == (1.0, (1, -1), 3)


def test_value_never_exceeds_direct_exit_edge():
    for seed in range(50):
        m = WeightModel(family="exp", a=1.0, seed=seed)
        s = slab_crossing_time(m, (0, 0, 0))
        assert s.value <= m.edge_weight(EdgeId((0, 0, 0), 0)) + 1e-15


def test_matches_bruteforce_relaxation_oracle():
    for seed in range(20):
        m = WeightModel(family="exp", a=1.0, seed=3000 + seed)
        lazy = slab_crossing_time(m, (0, 0, 0))
        brute = slab_value_bruteforce(m, 3, 6)
        assert lazy.value == pytest.approx(brute, abs=1e-12)


# two atoms: x = 0.3 carries mass 0.3 and x = 1.0 the mass 0.1, so ties occur
ATOM_TABLE = ((0.0, 0.0), (0.3, 0.3), (0.6, 0.3), (0.9, 1.0))
# the oracle's in-plane box; the optimum stayed inside it on all of 10,200
# realizations checked (exp and the atom table, d = 2, 3, 4). The passage to
# plane n = 2 or 3 stayed inside it too, on all of 8,000 realizations (exp
# and the atom table, d = 2, 3, n = 2, 3), where radius 5 at d = 2 and
# radius 4 at d = 3 each missed the optimum on some
BRUTE_RADIUS = {2: 12, 3: 6, 4: 4}


@pytest.mark.parametrize("family", ["exp", "table"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(d=st.sampled_from((2, 3, 4)), seed=st.integers(0, 2**64 - 1),
       n=st.integers(1, 3))
def test_kernel_matches_bruteforce_oracle(family, d, seed, n):
    m = WeightModel(family=family, a=1.0, seed=seed,
                    points=ATOM_TABLE if family == "table" else None)
    lazy = slab_crossing_time(m, (0,) * d)
    brute = slab_value_bruteforce(m, d, BRUTE_RADIUS[d])
    assert lazy.value == pytest.approx(brute, abs=1e-12)
    total = sum(s.value for s in greedy_concatenation(m, d, n))
    assert point_to_hyperplane_time(m, d, n) <= total + 1e-9


@pytest.mark.parametrize("family", ["exp", "table"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(d=st.sampled_from((2, 3)), n=st.sampled_from((2, 3)),
       seed=st.integers(0, 2**64 - 1))
def test_hyperplane_time_matches_bruteforce_oracle(family, d, n, seed):
    m = WeightModel(family=family, a=1.0, seed=seed,
                    points=ATOM_TABLE if family == "table" else None)
    brute = hyperplane_value_bruteforce(m, d, n, BRUTE_RADIUS[d])
    assert point_to_hyperplane_time(m, d, n) == pytest.approx(brute, abs=1e-12)


def test_exit_vertex_in_next_hyperplane_and_shifted_start():
    m = WeightModel(family="exp", a=1.0, seed=11)
    s = slab_crossing_time(m, (3, 1, -2))
    assert s.exit_vertex[0] == 4


def test_budget_cap_raises():
    # cheap in-plane edges, expensive exits: the frontier must grow past the cap
    class SlowExit:
        def edge_weight(self, e: EdgeId) -> float:
            return 50.0 if e.axis == 0 else 1.0

    with pytest.raises(BudgetExceeded):
        slab_crossing_time(SlowExit(), (0, 0, 0), settled_cap=100)


class Boxed:
    """``model`` with every edge that leaves |x_j| <= r (j >= 2) cut."""

    def __init__(self, model, r: int):
        self.model = model
        self.r = r

    def edge_weight(self, e: EdgeId) -> float:
        far = max(abs(c) for c in e.base[1:])
        if far > self.r or (e.axis > 0 and e.base[e.axis] + 1 > self.r):
            return inf
        return self.model.edge_weight(e)


def test_point_to_hyperplane_direct_edge():
    m = MapWeights(10.0, {EdgeId((0, 0, 0), 0): 0.5})
    assert point_to_hyperplane_time(m, 3, 1) == 0.5


def test_point_to_hyperplane_monotone_in_radius():
    m = WeightModel(family="exp", a=1.0, seed=451)
    values = [point_to_hyperplane_time(Boxed(m, r), 3, 3) for r in (1, 2, 4, 8)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert point_to_hyperplane_time(m, 3, 3) == pytest.approx(
        point_to_hyperplane_time(Boxed(m, 16), 3, 3), abs=1e-15
    )


def test_point_to_hyperplane_follows_a_long_corridor():
    # a 0.01 corridor along x_2 out to 12, then a 0.01 forward edge: the
    # optimum leaves every box of radius < 12, so no boxed search finds it
    corridor = {EdgeId((0, j), 1): 0.01 for j in range(12)}
    corridor[EdgeId((0, 12), 0)] = 0.01
    m = MapWeights(10.0, corridor)
    assert point_to_hyperplane_time(m, 2, 1) == pytest.approx(0.13)


def test_greedy_concatenation_structure():
    m = WeightModel(family="exp", a=1.0, seed=37)
    chain = greedy_concatenation(m, 4, 5)
    assert len(chain) == 5
    assert chain[0].value == slab_crossing_time(m, (0, 0, 0, 0)).value
    exits = [s.exit_vertex[0] for s in chain]
    assert exits == [1, 2, 3, 4, 5]


def test_greedy_sum_dominates_direct_passage():
    for seed in range(20):
        m = WeightModel(family="exp", a=1.0, seed=8000 + seed)
        total = sum(s.value for s in greedy_concatenation(m, 4, 5))
        direct = point_to_hyperplane_time(m, 4, 5)
        assert direct <= total + 1e-9


def test_coupled_transform_never_slower_pathwise():
    # uniform-target transform shrinks every edge, so the crossing shrinks too
    cm = CouplingMap(target=WeightModel(family="uniform", a=1.0), rate=1.0)
    for seed in range(30):
        src = WeightModel(family="exp", a=1.0, seed=seed)
        plain = slab_crossing_time(src, (0, 0, 0, 0)).value
        coupled = slab_crossing_time(CoupledWeights(src, cm), (0, 0, 0, 0)).value
        assert coupled <= plain + 1e-12


def test_single_edge_increase_never_speeds_up():
    base = WeightModel(family="exp", a=1.0, seed=99)
    before = slab_crossing_time(base, (0, 0, 0))
    bumped_edges = [
        EdgeId((0, 0, 0), 0),
        EdgeId((0, 0, 0), 1),
        EdgeId((0, -1, 0), 1),
        EdgeId((0, 1, 0), 2),
    ]
    for e in bumped_edges:
        class Bumped:
            def edge_weight(self, edge, _e=e):
                w = base.edge_weight(edge)
                return w + 5.0 if edge == _e else w

        after = slab_crossing_time(Bumped(), (0, 0, 0))
        assert after.value >= before.value - 1e-15


def test_sampler_distributions_agree_smoke():
    # full-scale two-sample comparison runs in the acceptance suite
    from fppslab.eden import sample_slab_crossing
    from fppslab.experiments import ks_statistic
    from fppslab.weights import derive_seed

    n = 2000
    eden_vals = np.array(
        [sample_slab_crossing(5, 1.0, derive_seed(21, i)).value for i in range(n)]
    )
    slab_vals = np.array(
        [
            slab_crossing_time(
                WeightModel(family="exp", a=1.0, seed=derive_seed(22, i)), (0,) * 5
            ).value
            for i in range(n)
        ]
    )
    assert ks_statistic(eden_vals, slab_vals) < 0.06


# (family, d, seed, value.hex(), exit vertex, settled count) of the crossing
# from the origin, recorded from the kernel before the oracle's prefix cache
GOLDEN_CROSSINGS = [
    ("exp", 3, 1, "0x1.a162ea7e437f4p-3", (1, 0, 0), 4),
    ("exp", 3, 2, "0x1.6d3461fe9dbf9p-3", (1, 0, 1), 2),
    ("exp", 3, 3, "0x1.640274190845ep-2", (1, 1, 0), 4),
    ("exp", 3, 20261018, "0x1.3d55efcd92e6fp-3", (1, 0, 0), 1),
    ("exp", 3, 2**64 - 1, "0x1.7fce00a2156c3p-1", (1, 0, 0), 4),
    ("exp", 5, 1, "0x1.39c92b49c5b5cp-2", (1, 0, 1, 1, 0), 13),
    ("exp", 5, 2, "0x1.7a960dfa0561ap-3", (1, 0, 0, 0, 0), 1),
    ("exp", 5, 3, "0x1.7908484bf95e8p-2", (1, 0, 0, 0, 0), 3),
    ("exp", 5, 20261018, "0x1.1f9ce6c1c372fp-1", (1, -1, 0, 0, 0), 9),
    ("exp", 5, 2**64 - 1, "0x1.568a681e7a681p-4", (1, 0, 0, 0, 0), 2),
    ("table", 4, 1, "0x1.3333333333333p-2", (1, 0, 0, 0), 3),
    ("table", 4, 2, "0x1.80eb8ccd5dbebp-2", (1, 0, 0, 0), 8),
    ("table", 4, 3, "0x1.3333333333333p-2", (1, 0, 0, 0), 3),
    ("table", 4, 20261018, "0x1.6325e610f81d0p-6", (1, 0, 0, 0), 1),
    ("table", 4, 2**64 - 1, "0x1.100ea4b362cb8p-2", (1, -1, 0, 0), 2),
]


def test_golden_values_fix_the_kernel():
    for family, d, seed, value, exit_vertex, settled in GOLDEN_CROSSINGS:
        m = WeightModel(family=family, a=1.0, seed=seed,
                        points=ATOM_TABLE if family == "table" else None)
        s = slab_crossing_time(m, (0,) * d)
        assert (s.value.hex(), s.exit_vertex, s.settled_count) == (
            value, exit_vertex, settled), (family, d, seed)
    # off the origin, with a coordinate the key fold reduces mod 2^64
    s = slab_crossing_time(WeightModel(family="exp", a=1.0, seed=11), (3, 1, -2))
    assert (s.value.hex(), s.exit_vertex, s.settled_count) == (
        "0x1.3c23a38a9d5b1p-1", (4, 2, -2), 4)
    s = slab_crossing_time(WeightModel(family="table", points=ATOM_TABLE, seed=11),
                           (-2, 5, -7, 2**64))
    assert (s.value.hex(), s.exit_vertex, s.settled_count) == (
        "0x1.82cea652911c8p-2", (-1, 5, -7, 2**64 - 1), 8)
    assert point_to_hyperplane_time(
        WeightModel(family="exp", a=1.0, seed=7), 4, 3).hex() == "0x1.4325a565505c8p+0"
    assert point_to_hyperplane_time(
        WeightModel(family="exp", a=1.0, seed=2**63), 4, 3).hex() == "0x1.bde9eb9f84499p-1"


# -- the lockstep kernel -----------------------------------------------------

FAMILY_POINTS = {"exp": None, "uniform": None, "table": ATOM_TABLE}

SMALL = st.integers(-6, 6)
# coordinates near +-2^63 and +-2^64 as well, which edge_units reduces mod
# 2^64 through its OverflowError branch
WIDE = st.one_of(SMALL, st.integers(2**63 - 2, 2**63 + 2),
                 st.integers(-2**63 - 2, -2**63 + 2),
                 st.sampled_from((2**64, -2**64, 2**64 + 1)))


def _family_model(family: str, seed: int) -> WeightModel:
    return WeightModel(family=family, a=1.0, seed=seed, points=FAMILY_POINTS[family])


def _block(model, starts, span, seeds, settled_cap=DEFAULT_SETTLED_CAP):
    """The lockstep kernel's (value.hex(), exit vertex, settled count), by search."""
    out = [None] * len(starts)
    for r, value, exit_vertex, settled in _lazy_search(model, starts, span, settled_cap,
                                                       seeds):
        out[r] = (value.hex(), exit_vertex, settled)
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(FAMILY_POINTS)),
       d=st.integers(2, 6), span=st.integers(1, 3),
       n=st.integers(_BATCH_MIN, _WIDE_BLOCK + 4), root=st.integers(0, 2**64 - 1))
def test_block_kernel_matches_single_searches(data, family, d, span, n, root):
    # n >= _BATCH_MIN, so the block's stars come from edge_units, and n can
    # pass _WIDE_BLOCK, so wider searches also hand their places on
    coordinate = data.draw(st.sampled_from((SMALL, WIDE)))
    starts = data.draw(st.lists(st.tuples(*[coordinate] * d), min_size=n, max_size=n))
    model = _family_model(family, root)
    seeds = [derive_seed(root, r) for r in range(n)]
    serial = []
    for seed, start in zip(seeds, starts):
        value, exit_vertex, settled = search_reference(model.with_seed(seed), start, span)
        serial.append((value.hex(), exit_vertex, settled))
    assert _block(model, starts, span, seeds) == serial


def test_block_kernel_refills_past_one_block():
    # more crossings than _SEARCH_BLOCK, from the origin and from shifted starts
    for family in sorted(FAMILY_POINTS):
        model = _family_model(family, 77)
        n = _SEARCH_BLOCK + 40
        seeds = [derive_seed(77, r) for r in range(n)]
        starts = [(r % 3 - 1, r % 5 - 2, -(r % 7)) for r in range(n)]
        serial = [slab_crossing_time(model.with_seed(seed), start)
                  for seed, start in zip(seeds, starts)]
        assert _block(model, starts, 1, seeds) == [
            (s.value.hex(), s.exit_vertex, s.settled_count) for s in serial]


@pytest.mark.parametrize("family", sorted(FAMILY_POINTS))
@pytest.mark.parametrize("d,n", [(2, 3), (3, 1), (3, 2), (4, 3), (5, 2)])
def test_block_chains_match_greedy_concatenation(family, d, n):
    model = _family_model(family, 1000 + d)
    seeds = [derive_seed(1000 + d, r) for r in range(_BATCH_MIN + 5)]
    chains = _concatenations(model, d, n, DEFAULT_SETTLED_CAP, seeds)
    assert chains == [greedy_concatenation(model.with_seed(seed), d, n) for seed in seeds]
    for chain in chains:  # round k starts from the exit of round k - 1
        assert [s.exit_vertex[0] for s in chain] == list(range(1, n + 1))


def _outcome(run):
    """What ``run()`` returned, or the type and message of what it raised."""
    try:
        return run()
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


def test_block_raises_budget_exceeded_exactly_when_serial_does():
    outcomes = set()
    for cap in range(1, 6):
        for d, span in [(2, 1), (3, 1), (4, 1), (3, 2)]:
            for root in range(25):
                model = _family_model(("exp", "uniform", "table")[root % 3], root)
                seeds = [derive_seed(root, r) for r in range(_BATCH_MIN + root % 4)]
                starts = [(0,) * d] * len(seeds)

                def serial():
                    return [_block(model.with_seed(seed), [start], span, None, cap)[0]
                            for seed, start in zip(seeds, starts)]

                block = _outcome(lambda: _block(model, starts, span, seeds, cap))
                assert block == _outcome(serial), (cap, d, span, root)
                outcomes.add((cap, type(block)))
    # every cap raises on some block, and caps from 2 on let some block finish
    assert outcomes >= {(cap, tuple) for cap in range(1, 6)} | {
        (cap, list) for cap in range(2, 6)}


# weights in the subnormal range
SUBNORMAL_TABLE = ((0.0, 0.0), (0.5, 1e-315), (0.9, 3e-310))
PRUNE_POINTS = {**FAMILY_POINTS, "subnormal": SUBNORMAL_TABLE}


def _prune_model(family: str) -> WeightModel:
    table = family in ("subnormal", "table")
    return WeightModel(family="table" if table else family, a=1.0,
                       points=PRUNE_POINTS[family])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(PRUNE_POINTS)))
def test_dropped_moves_cannot_beat_the_best_target(data, family):
    # each row's best sits within a few ulps of val + quantile(u) for one
    # of its units, so the test meets ties and near ties; a move the floor
    # drops must reach a value above best, where the loop pushes nothing
    model = _prune_model(family)
    nodes = [y for y, _ in model.points][1:] if model.points else [0.5]
    unit = st.one_of(st.floats(2.0**-54, 1 - 2.0**-53), st.sampled_from(nodes))
    for _ in range(data.draw(st.integers(1, 8))):
        row = data.draw(st.lists(unit, min_size=1, max_size=6))
        val = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0),
                                  st.floats(0.0, 1e-300)))
        best = val + model.quantile(data.draw(st.sampled_from(row)))
        for _ in range(data.draw(st.integers(0, 3))):
            best = math.nextafter(best, data.draw(st.sampled_from((0.0, inf))))
        best = data.draw(st.sampled_from((best, best, inf)))
        if not val < best:  # a popped vertex lies below its search's best
            continue
        for u, floor in zip(row, model.weight_floor(np.array(row)).tolist()):
            assert not floor > _reach(best, val) or val + model.quantile(u) > best, (
                u, val, best)


def test_prune_drops_a_move_above_best_and_keeps_a_tie():
    for family in sorted(PRUNE_POINTS):
        model = _prune_model(family)
        floor = model.weight_floor(np.array([0.95]))[0]
        weight = model.quantile(0.95)
        # far above best, and exactly at best: the tie may be a target's
        assert floor > _reach(weight / 4, 0.0), family
        assert not floor > _reach(weight, 0.0)
        assert not floor > _reach(inf, 0.0)


def _two_atoms(x: float) -> tuple[tuple[float, float], ...]:
    """A table whose every weight is x (u <= 0.5) or 2x: no double lies
    strictly between its last two nodes. Sums of its weights are exact,
    and two half steps tie one whole step."""
    return ((0.0, x), (0.5, x), (math.nextafter(0.5, 1.0), 2 * x))


# x = 2^-1073 keeps every path value subnormal, where best * 2^-50 rounds
# to 0 and the threshold is best - val exactly
@pytest.mark.parametrize("x", [0.5, 2.0**-1073])
@pytest.mark.parametrize("d,span", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (3, 3)])
def test_atom_ties_in_the_batched_path_match_the_reference(d, span, x):
    # ties are everywhere, and n >= _BATCH_MIN, so edge_units weighs the
    # stars and the prune meets targets that tie the best one exactly
    model = WeightModel(family="table", points=_two_atoms(x), seed=9)
    n = 2 * _SEARCH_BLOCK if span == 1 else 3 * _WIDE_BLOCK
    seeds = [derive_seed(900 + d, span, r) for r in range(n)]
    starts = [(r % 3 - 1,) + (0,) * (d - 1) for r in range(n)]
    serial = []
    for seed, start in zip(seeds, starts):
        value, exit_vertex, settled = search_reference(model.with_seed(seed), start, span)
        serial.append((value.hex(), exit_vertex, settled))
    assert {model.with_seed(seed).edge_weight(EdgeId((0,) * d, axis))
            for seed in seeds for axis in range(d)} == {x, 2 * x}
    assert _block(model, starts, span, seeds) == serial
