"""Tests of the benchmark itself.

    python3 -m pytest -q fppbench/test_bench.py

A short run of every workload must pass its checks and print every metric
that BENCHMARK.json names; and each correctness check must reject an
output with one planted fault.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from fppslab.cli import main as cli_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "fppbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_and_reports_every_metric(workload):
    res = _bench(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    res = _bench("eden-highd", 1)
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # the race bypasses the oracle and the exact searches
    assert metrics["weights.calls"]["value"] == 0
    assert metrics["slab.searches"]["value"] == 0
    assert metrics["eden.steps"]["value"] > 0


def test_outside_a_checkout_the_benchmark_fails(tmp_path):
    bench = tmp_path / "fppbench"
    bench.mkdir()
    for p in HERE.glob("*.py"):
        (bench / p.name).write_text(p.read_text())
    out = subprocess.run([sys.executable, "fppbench/run.py", "--workload", "slab-exact",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def _outputs(tmp_path, jobs) -> list:
    outputs = []
    for i, job in enumerate(jobs):
        path = tmp_path / f"j{i}.csv"
        assert cli_main([*job.argv, "--out", str(path)]) == 0
        outputs.append((job, 0, path.read_text()))
    return outputs


def _replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture
def small_slab(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SLAB_EXP_REPS", 12)
    monkeypatch.setattr(workloads, "SLAB_TABLE_REPS", 6)
    monkeypatch.setattr(workloads, "SUBADD_REPS", 4)
    outputs = _outputs(tmp_path, workloads.WORKLOADS["slab-exact"].jobs(3, 0))
    from fppslab.bounds import bound_report

    ub1 = bound_report(5, 1.0).ub1
    assert checks.check_slab_exact(outputs, ub1) == []
    return outputs, ub1


def test_slab_check_rejects_a_scaled_value(small_slab):
    outputs, ub1 = small_slab
    job, rnd, text = outputs[0]
    row = next(i for i, r in enumerate(checks.read_csv(text))
               if r["d"] == "3" and int(r["replicate"]) in checks.EXACT_D3)
    value = float(checks.read_csv(text)[row]["value"])
    bad = _replace_field(text, row, "value", repr(1.5 * value))
    errs = checks.check_slab_exact([(job, rnd, bad), *outputs[1:]], ub1)
    assert any("Bellman-Ford" in e for e in errs)


def test_slab_check_rejects_a_pathwise_violation(small_slab):
    outputs, ub1 = small_slab
    job, rnd, text = outputs[2]
    bad = _replace_field(text, 0, "pathwise_violations", "1")
    errs = checks.check_slab_exact([*outputs[:2], (job, rnd, bad)], ub1)
    assert any("pathwise_violations" in e for e in errs)


@pytest.fixture
def small_probe(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_JOBS", ((64, 12), (128, 1)))
    outputs = _outputs(tmp_path, workloads.WORKLOADS["probe-highd"].jobs(3, 0))
    assert checks.check_probe_highd(outputs) == []
    return outputs


@pytest.mark.parametrize("column", ["p_hat_path", "p_hat_tau"])
def test_probe_check_rejects_a_count_off_by_one(small_probe, column):
    job, rnd, text = small_probe[0]
    row = checks.read_csv(text)[0]
    reps = int(row["replicates"])
    count = round(float(row[column]) * reps)
    wrong = count + 1 if count < reps else count - 1
    bad = _replace_field(text, 0, column, repr(wrong / reps))
    errs = checks.check_probe_highd([(job, rnd, bad), *small_probe[1:]])
    assert any("count" in e for e in errs)
