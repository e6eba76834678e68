"""Correctness checks on the CSV files the benchmark's jobs wrote.

Each check returns a list of failure messages; an empty list means the
outputs passed. The exact references come from ``oracle`` (which shares no
code with fppslab); the statistical checks pool every round of a run so
that each is made once per run, at three standard errors, on a large
sample. Callers pass in the two things that do need the program: the
series bound at d = 5 and a validated rerun of the cluster race.
"""

from __future__ import annotations

import csv
import io
import math

from oracle import Weights, probe_events, probe_thresholds, replicate_seed, slab_box_value
from workloads import TABLE_POINTS

A = 1.0             # every job runs at density a = 1
Z = 3.0             # standard errors allowed by the statistical checks
Z_WILSON = 3.2905   # two-sided 99.9% normal quantile

EXACT_D3 = range(5)     # d = 3 replicates compared with Bellman-Ford on radius 6
BOX_D5 = range(2)       # d = 5 replicates checked against the radius-2 box
BOX_TABLE = range(2)    # d = 4 table replicates checked against the radius-3 box


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _pooled(rows: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """(n, mean, sample variance) of the union of summary rows (n, mean, var)."""
    n = sum(r[0] for r in rows)
    total = sum(r[0] * r[1] for r in rows)
    squares = sum((r[0] - 1) * r[2] + r[0] * r[1] ** 2 for r in rows)
    mean = total / n
    return n, mean, (squares - n * mean * mean) / (n - 1)


def _mean_in_interval(label: str, n: int, mean: float, var: float,
                      lo: float, hi: float) -> list[str]:
    se = math.sqrt(var / n)
    if lo - Z * se <= mean <= hi + Z * se:
        return []
    return [f"{label}: mean {mean:.6g} (se {se:.3g}, n {n}) outside "
            f"[{lo:.6g}, {hi:.6g}] by more than {Z} se"]


def check_slab_exact(outputs, ub1_d5: float) -> list[str]:
    """outputs: (job, round, text) for every timed job that succeeded."""
    errs: list[str] = []
    d5_values: list[float] = []
    for job, rnd, text in outputs:
        rows = read_csv(text)
        where = f"round {rnd} {job.label}"
        if job.label == "subadd":
            for r in rows:
                if int(r["pathwise_violations"]) != 0:
                    errs.append(f"{where}: pathwise_violations = {r['pathwise_violations']}")
                lhs, rhs, se = float(r["lhs_mean"]), float(r["rhs_mean"]), float(r["combined_se"])
                if lhs > rhs + Z * se:
                    errs.append(f"{where}: lhs_mean {lhs} > rhs_mean {rhs} + {Z} se")
            continue
        table = TABLE_POINTS if job.label == "slab-table" else None
        expected_rows = job.replicates
        if len(rows) != expected_rows:
            errs.append(f"{where}: {len(rows)} rows, expected {expected_rows}")
        for r in rows:
            d, rep, value = int(r["d"]), int(r["replicate"]), float(r["value"])
            seed = replicate_seed(job.seed, d, rep)
            if int(r["seed"]) != seed:
                errs.append(f"{where}: d {d} rep {rep} seed {r['seed']}, expected {seed}")
                continue
            if d == 5:
                d5_values.append(value)
            w = Weights(seed, A, table)
            if d == 3 and rep in EXACT_D3:
                ref = slab_box_value(w, 3, 6)
                if abs(value - ref) > 1e-12:
                    errs.append(f"{where}: d 3 rep {rep} value {value!r} != Bellman-Ford {ref!r}")
            elif (d == 5 and rep in BOX_D5) or (table and rep in BOX_TABLE):
                ref = slab_box_value(w, d, 2 if d == 5 else 3)
                if value > ref + 1e-12:
                    errs.append(f"{where}: d {d} rep {rep} value {value!r} above box value {ref!r}")
    if len(d5_values) > 1:
        n = len(d5_values)
        mean = sum(d5_values) / n
        var = sum((v - mean) ** 2 for v in d5_values) / (n - 1)
        errs += _mean_in_interval("d 5 slab mean", n, mean, var, 1 / (A * 9), ub1_d5)
    return errs


def check_eden_highd(outputs) -> list[str]:
    errs: list[str] = []
    summaries: dict[int, list[tuple[int, float, float]]] = {}
    bounds: dict[int, dict[str, float]] = {}
    for job, rnd, text in outputs:
        rows = read_csv(text)
        where = f"round {rnd} {job.label}"
        if job.label == "bounds":
            ratios = []
            for r in sorted(rows, key=lambda r: int(r["d"])):
                d = int(r["d"])
                vals = {k: float(v) for k, v in r.items()}
                asym = math.log(d) / (2 * A * d)
                if abs(vals["asymptote"] - asym) > 1e-12 * asym:
                    errs.append(f"{where}: d {d} asymptote {vals['asymptote']!r} != {asym!r}")
                if vals["ratio1"] <= 1.0:
                    errs.append(f"{where}: d {d} ratio1 {vals['ratio1']} <= 1")
                ratios.append(vals["ratio1"])
                if d in bounds and bounds[d] != vals:
                    errs.append(f"{where}: d {d} bounds differ between rounds")
                bounds[d] = vals
            if any(b >= a for a, b in zip(ratios, ratios[1:])):
                errs.append(f"{where}: ratio1 not decreasing in d: {ratios}")
            continue
        for r in rows:
            n = int(r["n"])
            if n != job.replicates:
                errs.append(f"{where}: n {n}, expected {job.replicates}")
            summaries.setdefault(int(r["d"]), []).append((n, float(r["mean"]), float(r["variance"])))
    normalized = {}
    for d, rows in sorted(summaries.items()):
        if d not in bounds:
            errs.append(f"d {d}: no bounds row to check against")
            continue
        n, mean, var = _pooled(rows)
        ub1, ub2 = bounds[d]["ub1"], bounds[d]["ub2"]
        errs += _mean_in_interval(f"d {d} eden mean", n, mean, var, 1 / (A * (2 * d - 1)), ub1)
        second = ((n - 1) * var + n * mean * mean) / n
        se2 = math.sqrt((4 * mean * mean * var + 2 * var * var) / n)
        if second > ub2 + Z * se2:
            errs.append(f"d {d}: second moment {second:.6g} > ub2 {ub2:.6g} + {Z} se ({se2:.3g})")
        normalized[d] = 2 * A * d * mean / math.log(d)
    if 50 in normalized and 1000 in normalized and not normalized[1000] < normalized[50]:
        errs.append(f"normalized mean does not fall from d 50 ({normalized[50]:.4f}) "
                    f"to d 1000 ({normalized[1000]:.4f})")
    return errs


def _wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def check_probe_highd(outputs, enumerate_round: int = 0) -> list[str]:
    """Exact recounts of the tau event on every row, the walk enumeration on
    the d = 64 job of ``enumerate_round``, and one pooled Wilson check."""
    errs: list[str] = []
    tau_hits = tau_n = 0
    tau_expected = 0.0
    enumerated = False
    for job, rnd, text in outputs:
        where = f"round {rnd} {job.label}"
        for r in read_csv(text):
            d, reps = int(r["d"]), int(r["replicates"])
            p, n_steps, x, y = probe_thresholds(d, A)
            got = (int(r["subspace_dim"]), int(r["path_steps"]),
                   float(r["x_threshold"]), float(r["y_threshold"]), reps)
            if got != (p, n_steps, x, y, job.replicates):
                errs.append(f"{where}: parameters {got} != {(p, n_steps, x, y, job.replicates)}")
                continue
            if int(r["capped_replicates"]) != 0:
                errs.append(f"{where}: capped_replicates = {r['capped_replicates']}")
            fj, path, tau = (float(r[k]) for k in ("p_hat_fj", "p_hat_path", "p_hat_tau"))
            if fj > min(path, tau):
                errs.append(f"{where}: p_hat_fj {fj} > min(p_hat_path, p_hat_tau)")
            seeds = [replicate_seed(job.seed, d, i) for i in range(reps)]
            if d == 64 and rnd == enumerate_round and not enumerated:
                enumerated = True
                events = [probe_events(Weights(s, A), d) for s in seeds]
                taus = sum(t for t, _ in events)
                paths = sum(f for _, f in events)
                both = sum(t and f for t, f in events)
                if round(path * reps) != paths or round(fj * reps) != both:
                    errs.append(f"{where}: fast-path count {round(path * reps)} and joint "
                                f"count {round(fj * reps)}, enumeration gives {paths} and {both}")
            else:
                origin = (0,) * d
                taus = sum(Weights(s, A).edge(origin, p + 1) <= y for s in seeds)
            if round(tau * reps) != taus:
                errs.append(f"{where}: tau count {round(tau * reps)}, recount gives {taus}")
            tau_hits += round(tau * reps)
            tau_n += reps
            tau_expected += reps * -math.expm1(-A * y)
    if tau_n:
        # the pooled count of rows with different P(tau <= y) has variance at
        # most that of a binomial at their mean, so this interval is conservative
        lo, hi = _wilson(tau_hits, tau_n, Z_WILSON)
        exact = tau_expected / tau_n
        if not lo <= exact <= hi:
            errs.append(f"P(tau <= y) = {exact:.4f} outside the 99.9% Wilson interval "
                        f"({lo:.4f}, {hi:.4f}) of {tau_hits}/{tau_n}")
    if outputs and not enumerated:
        errs.append(f"no d = 64 job in round {enumerate_round} to enumerate")
    return errs
