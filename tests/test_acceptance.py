"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single [c##] PASS line with its measured numbers and
runtime (visible with ``pytest -s``); the assertions implement the stated
gates and tolerances. Stochastic gates run on fixed seeds committed here,
chosen once and verified to clear their gates with wide margins.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fppslab.bounds import (
    bound_report,
    first_moment_ub,
    integral_decomposition,
    second_moment_ub,
)
from fppslab.cli import main as cli_main
from fppslab.experiments import (
    ExperimentConfig,
    ks_statistic,
    normalized_values,
    sample_crossing_values,
    search_cross_probe,
    subadditivity_check,
    ui_tail,
)
from fppslab.slab import slab_crossing_time
from fppslab.weights import CoupledWeights, CouplingMap, WeightModel

from helpers import bootstrap_ci
from oracles import slab_value_bruteforce

EXP1 = WeightModel(family="exp", a=1.0, seed=0)


def _config(d, reps, seed):
    return ExperimentConfig(d_grid=tuple(d) if isinstance(d, (tuple, list)) else (d,),
                            model=EXP1, replicates=reps, root_seed=seed)


def _report(tag: str, started: float, budget: float, detail: str) -> float:
    elapsed = time.perf_counter() - started
    print(f"[{tag}] PASS ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    return elapsed


def test_c01_slab_exactness_against_bruteforce_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1000, 1100):
        m = WeightModel(family="exp", a=1.0, seed=seed)
        lazy = slab_crossing_time(m, (0, 0, 0), 0).value
        brute = slab_value_bruteforce(m, 3, 6)
        worst = max(worst, abs(lazy - brute))
        assert abs(lazy - brute) <= 1e-12
    elapsed = _report("c01", t0, 10, f"max |lazy - brute| = {worst:.2e} over 100 seeds")
    assert elapsed < 10


def test_c02_sampler_equivalence_two_sample_ks():
    t0 = time.perf_counter()
    eden_vals = sample_crossing_values(_config(5, 20_000, 1001), "eden", 5)
    slab_vals = sample_crossing_values(_config(5, 20_000, 1002), "slab", 5)
    ks = ks_statistic(eden_vals, slab_vals)
    assert ks < 0.02
    gap = abs(float(np.mean(eden_vals)) - float(np.mean(slab_vals)))
    combined_se = math.sqrt(
        np.var(eden_vals, ddof=1) / len(eden_vals)
        + np.var(slab_vals, ddof=1) / len(slab_vals)
    )
    assert gap <= 3.0 * combined_se
    elapsed = _report(
        "c02", t0, 120,
        f"KS = {ks:.5f}, mean gap {gap:.5f} <= 3 x {combined_se:.5f}, N = 20000 per side",
    )
    assert elapsed < 120


def test_c03_flat_dimension_series_closed_form():
    t0 = time.perf_counter()
    ub1, tail = first_moment_ub(2, 1.0, 200)
    assert tail < 1e-10
    assert ub1 >= 11.0 / 6.0 - 1e-12
    assert ub1 - 11.0 / 6.0 <= tail + 1e-12
    elapsed = _report("c03", t0, 1, f"ub1 = {ub1!r}, tail = {tail:.2e}, target 11/6")
    assert elapsed < 1


def test_c04_empirical_moments_respect_series_bounds():
    t0 = time.perf_counter()
    values = sample_crossing_values(_config(50, 10_000, 1004), "eden", 50)
    ub1, _ = first_moment_ub(50, 1.0)
    ub2, _ = second_moment_ub(50, 1.0)
    mean = float(np.mean(values))
    se_mean = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    sq = values**2
    mean_sq = float(np.mean(sq))
    se_sq = float(np.std(sq, ddof=1)) / math.sqrt(len(sq))
    assert mean <= ub1 + 3 * se_mean
    assert mean_sq <= ub2 + 3 * se_sq
    elapsed = _report(
        "c04", t0, 120,
        f"mean {mean:.5f} <= ub1 {ub1:.5f}; second moment {mean_sq:.6f} <= ub2 {ub2:.6f}",
    )
    assert elapsed < 120


def test_c05_normalized_ratio_and_integral_trends():
    t0 = time.perf_counter()
    reports = [bound_report(d, 1.0) for d in (100, 1000, 10_000, 100_000)]
    r1 = [r.ratio1 for r in reports]
    r2 = [r.ratio2 for r in reports]
    assert all(x > 1.0 for x in r1) and all(b < a for a, b in zip(r1, r1[1:]))
    assert all(x > 1.0 for x in r2) and all(b < a for a, b in zip(r2, r2[1:]))

    parts = [integral_decomposition(d) for d in (100, 1000, 10_000)]
    scale = [(d / math.log(d)) ** 2 for d in (100, 1000, 10_000)]
    mid = [p.inner_beyond * s for p, s in zip(parts, scale)]
    far = [p.outer_beyond * s for p, s in zip(parts, scale)]
    assert all(x > 0 for x in mid) and all(b < a for a, b in zip(mid, mid[1:]))
    assert all(x > 0 for x in far) and all(b < a for a, b in zip(far, far[1:]))
    elapsed = _report(
        "c05", t0, 60,
        f"ratio1 {[round(x, 4) for x in r1]}, ratio2 {[round(x, 4) for x in r2]}, "
        f"II-scaled {[f'{x:.2e}' for x in mid]}, III-scaled {[f'{x:.2e}' for x in far]}",
    )
    assert elapsed < 60


def test_c06_concentration_improves_with_dimension():
    t0 = time.perf_counter()
    eta = 0.5
    exceed = {}
    for d, seed, boot in ((40, 1006, 601), (400, 1007, 602)):
        values = sample_crossing_values(_config(d, 5000, seed), "eden", d)
        hits = (np.abs(normalized_values(values, d, 1.0) - 1.0) > eta).astype(float)
        exceed[d] = (float(np.mean(hits)), bootstrap_ci(hits, np.mean, seed=boot))
    (p40, ci40), (p400, ci400) = exceed[40], exceed[400]
    assert ci400[1] < ci40[0]  # bootstrap intervals separated
    elapsed = _report(
        "c06", t0, 300,
        f"P(|X-1|>0.5): d=40 {p40:.4f} CI {ci40}, d=400 {p400:.4f} CI {ci400}",
    )
    assert elapsed < 300


def test_c07_normalized_variance_decays():
    t0 = time.perf_counter()
    out = {}
    for d, seed, boot in ((20, 1008, 701), (200, 1009, 702)):
        values = sample_crossing_values(_config(d, 10_000, seed), "eden", d)
        x = normalized_values(values, d, 1.0)
        out[d] = (float(np.var(x, ddof=1)),
                  bootstrap_ci(x, lambda v: float(np.var(v, ddof=1)), seed=boot))
    (v20, ci20), (v200, ci200) = out[20], out[200]
    assert ci200[1] < ci20[0]
    elapsed = _report(
        "c07", t0, 300,
        f"normalizedVar: d=20 {v20:.4f} CI {ci20}, d=200 {v200:.4f} CI {ci200}",
    )
    assert elapsed < 300


def test_c08_coupling_identity_and_pathwise_domination():
    t0 = time.perf_counter()
    ident = CouplingMap(target=WeightModel(family="exp", a=1.0), rate=1.0)
    worst = max(abs(ident(float(t)) - float(t)) for t in np.linspace(0.0, 10.0, 2001))
    assert worst <= 1e-12

    cm = CouplingMap(target=WeightModel(family="uniform", a=1.0), rate=1.0)
    for seed in range(2000, 2100):
        src = WeightModel(family="exp", a=1.0, seed=seed)
        plain = slab_crossing_time(src, (0, 0, 0, 0), 0).value
        coupled = slab_crossing_time(CoupledWeights(src, cm), (0, 0, 0, 0), 0).value
        assert coupled <= plain + 1e-12
    elapsed = _report(
        "c08", t0, 30,
        f"identity sup-dev {worst:.1e}; transformed crossing <= exponential on 100/100 seeds",
    )
    assert elapsed < 30


def test_c09_pathwise_subadditivity():
    t0 = time.perf_counter()
    rep = subadditivity_check(_config(4, 100, 1010), 5)[4]
    assert rep.pathwise_violations == 0
    assert rep.lhs_mean <= rep.rhs_mean + 3.0 * rep.combined_se
    elapsed = _report(
        "c09", t0, 120,
        f"violations 0/100; mean T(0,H5)/5 = {rep.lhs_mean:.5f} <= "
        f"mean crossing {rep.rhs_mean:.5f} + 3SE",
    )
    assert elapsed < 120


def test_c10_uniform_integrability_tail():
    t0 = time.perf_counter()
    tails = ui_tail(_config((50, 200), 10_000, 1011), 100.0)
    assert tails[50] < 0.01
    assert tails[200] < 0.01
    elapsed = _report("c10", t0, 180, f"E[X 1(X>=100)]: d=50 {tails[50]!r}, d=200 {tails[200]!r}")
    assert elapsed < 180


def test_c11_cli_byte_determinism_across_thread_counts(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "bounds": ["bounds", "--d", "100", "--a", "1.0", "--N", "2000"],
        "sample-slab": ["sample-slab", "--d", "4", "--reps", "30", "--seed", "5"],
        "sample-eden": ["sample-eden", "--d", "6", "--reps", "60", "--seed", "5",
                        "--mode", "summary"],
        "concentration": ["concentration", "--d", "8", "--eta", "0.5",
                          "--reps", "60", "--seed", "5"],
        "subadd": ["subadd", "--d", "3", "--n", "2", "--reps", "15", "--seed", "5"],
        "search-cross": ["search-cross", "--d", "16", "--reps", "40", "--seed", "5"],
        "ui-tail": ["ui-tail", "--d", "8", "--M", "2.0", "--reps", "60", "--seed", "5"],
        "couple-check": ["couple-check", "--family", "uniform", "--a", "1.0",
                         "--grid", "60"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in ("1", "2"):
            out = tmp_path / f"{name}-{run}.csv"
            assert cli_main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output differs between two runs"
    _report("c11", t0, 600, f"{len(commands)} commands byte-identical across two runs")


def test_c12_search_cross_probe_report_only():
    t0 = time.perf_counter()
    model = WeightModel(family="exp", a=1.0, seed=1012)
    print("\n[c12] cheap-detour probe (report-only; floor 4*log(d)/d binds asymptotically)")
    print(f"[c12] {'d':>5} {'reps':>5} {'p_hat_fj':>9} {'wilson_lo':>9} "
          f"{'wilson_hi':>9} {'target':>8} {'p_path':>7} {'p_tau':>6}")
    for d, reps in ((16, 1000), (64, 300), (128, 150), (256, 60)):
        r = search_cross_probe(d, model, reps)
        assert 0.0 <= r.p_hat_fj <= 1.0
        assert r.capped_replicates == 0
        print(f"[c12] {d:>5} {reps:>5} {r.p_hat_fj:>9.4f} {r.fj_wilson[0]:>9.4f} "
              f"{r.fj_wilson[1]:>9.4f} {r.target_rate:>8.4f} {r.p_hat_path:>7.3f} "
              f"{r.p_hat_tau:>6.3f}")
    _report("c12", t0, 600, "empirical detour curve recorded (also tabulated in README)")
