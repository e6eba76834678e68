from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fppslab.cli import main
from fppslab.weights import WeightModel, derive_seed
from fppslab.experiments import ExperimentConfig, sample_crossing_values


def run(argv, capsys=None):
    return main(argv)


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_bounds_csv_schema_and_values(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bounds", "--d", "100", "--d", "1000", "--a", "1.0",
                "--N", "4000", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["d", "a", "N", "ub1", "ub1Tail", "ub2", "ub2Tail",
                      "ratio1", "ratio2", "asymptote"]
    assert len(rows) == 2
    by_d = {int(r[0]): r for r in rows}
    assert float(by_d[100][7]) > 1.0  # ratio1
    # 17 significant digits round-trip
    from fppslab.bounds import bound_report
    rep = bound_report(100, 1.0, 4000)
    assert float(by_d[100][3]) == rep.ub1


def test_sample_eden_deterministic_across_thread_counts(tmp_path):
    # same config, run twice: the bytes depend on the parameters only
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample-eden", "--d", "5", "--a", "1.0", "--reps", "40",
            "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_mode_follows_umask(tmp_path):
    out = tmp_path / "b.csv"
    old = os.umask(0o022)
    try:
        assert run(["bounds", "--d", "10", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]


def test_sample_values_match_library(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sample-slab", "--d", "4", "--reps", "10", "--seed", "3",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["d", "replicate", "seed", "value"]
    cfg = ExperimentConfig(d_grid=(4,), model=WeightModel(family="exp", a=1.0, seed=3),
                           replicates=10)
    expected = sample_crossing_values(cfg, "slab", 4)
    assert [float(r[3]) for r in rows] == list(expected)
    assert int(rows[0][2]) == derive_seed(3, 4, 0)


def test_summary_mode_schema(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sample-eden", "--d", "5", "--reps", "50", "--seed", "1",
                "--mode", "summary", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["d", "n", "mean", "variance", "ci95_lo", "ci95_hi",
                      "normalized_mean", "normalized_var"]
    assert len(rows) == 1 and int(rows[0][1]) == 50


def test_json_format_round_trips(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", "--d", "50", "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "bounds"
    assert doc["rows"][0]["d"] == 50
    from fppslab.bounds import bound_report
    assert doc["rows"][0]["ub1"] == bound_report(50, 1.0).ub1


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "10", "--bogus", "1"],
    ["couple-check", "--seed", "3"],  # the coupling table draws no weights
], ids=["bounds-bogus", "couple-check-seed"])
def test_unknown_flag_exits_2_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_bad_params_exit_2_with_error_record(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["sample-eden", "--d", "5", "--reps", "0", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DomainError"
    assert not out.exists()


def test_eden_with_uniform_family_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["sample-eden", "--d", "5", "--family", "uniform", "--a", "1.0",
                "--reps", "5", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "SamplerMismatch"


def test_missing_out_dir_exits_1_no_partials(tmp_path, capsys):
    out = tmp_path / "nope" / "x.csv"
    code = run(["bounds", "--d", "10", "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "IoError"
    assert list(tmp_path.iterdir()) == []


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"d": [5], "reps": 12, "seed": 9}))
    out1 = tmp_path / "o1.csv"
    assert run(["sample-eden", "--config", str(cfg_path), "--out", str(out1)]) == 0
    _, rows = read_csv(out1)
    assert len(rows) == 12
    assert int(rows[0][2]) == derive_seed(9, 5, 0)

    out2 = tmp_path / "o2.csv"
    assert run(["sample-eden", "--config", str(cfg_path), "--seed", "10",
                "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    assert int(rows2[0][2]) == derive_seed(10, 5, 0)  # flag beats file


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    code = run(["sample-eden", "--config", str(cfg_path), "--d", "5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("config", [
    {"d": [5], "reps": "10"},
    {"d": ["5"]},
    {"seed": 1.5, "d": [5]},
    {"format": "xml"},
    {"mode": "bogus"},
    {"a": 10**400, "d": [5]},
    # past Python's 4300-digit int-string limit; json.dumps fails on it too,
    # so the file is given as text
    '{"reps": ' + "1" * 5000 + ', "d": [5]}',
])
def test_config_file_bad_value_exits_2_writes_nothing(tmp_path, capsys, config):
    # each value fails the type or choices check its flag would fail
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "x.csv"
    code = run(["sample-eden", "--config", str(cfg_path), "--d", "5", "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample-slab", "--d", "3"],
    ["search-cross", "--d", "16"],
], ids=["sample-slab", "search-cross"])
def test_budget_cap_below_one_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code = run(argv + ["--reps", "2", "--budget-cap", "0", "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"
    assert not out.exists()


def test_couple_check_exponential_identity(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run(["couple-check", "--family", "exp", "--a", "1.0",
                "--grid", "50", "--out", str(out), "--format", "json"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["monotonicity_violations"] == 0
    assert doc["sup_ratio_deviation"] < 1e-12
    for row in doc["rows"]:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_couple_check_uniform_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["couple-check", "--family", "uniform", "--a", "2.0",
                "--grid", "40", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "h", "ratio"]
    ratios = [float(r[2]) for r in rows]
    assert all(0.0 < r <= 1.0 for r in ratios)


def test_concentration_and_ui_tail_cli(tmp_path):
    out = tmp_path / "conc.csv"
    assert run(["concentration", "--d", "6", "--eta", "0.5", "--reps", "100",
                "--seed", "4", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["d", "eta", "n", "p_hat", "wilson_lo", "wilson_hi"]
    p = float(rows[0][3])
    assert 0.0 <= p <= 1.0

    out2 = tmp_path / "tail.csv"
    assert run(["ui-tail", "--d", "6", "--M", "100", "--reps", "100",
                "--seed", "4", "--out", str(out2)]) == 0
    header2, rows2 = read_csv(out2)
    assert header2 == ["d", "M", "n", "tail_mean"]
    assert float(rows2[0][3]) >= 0.0


def test_subadd_cli(tmp_path):
    out = tmp_path / "sub.csv"
    assert run(["subadd", "--d", "3", "--n", "2", "--reps", "10",
                "--seed", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "pathwise_violations"
    assert int(rows[0][-1]) == 0


def test_search_cross_cli(tmp_path):
    out = tmp_path / "sc.csv"
    assert run(["search-cross", "--d", "16", "--reps", "50", "--seed", "8",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert "p_hat_fj" in header
    assert 0.0 <= float(rows[0][header.index("p_hat_fj")]) <= 1.0


def test_search_cross_budget_cap_caps_the_probe(tmp_path):
    out = tmp_path / "sc.csv"
    assert run(["search-cross", "--d", "16", "--reps", "5", "--budget-cap", "1",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert int(rows[0][header.index("capped_replicates")]) == 5


def test_config_value_is_typed_as_its_flag(tmp_path):
    # a JSON integer for a float flag is written as the flag would write it
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"a": 1, "d": [10]}))
    by_file, by_flag = tmp_path / "file.json", tmp_path / "flag.json"
    assert run(["bounds", "--config", str(cfg_path), "--format", "json",
                "--out", str(by_file)]) == 0
    assert run(["bounds", "--d", "10", "--a", "1", "--format", "json",
                "--out", str(by_flag)]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "10", "--a", "inf"],
    ["sample-slab", "--d", "3", "--reps", "2", "--a", "inf"],
    ["sample-eden", "--d", "3", "--reps", "2", "--a", "inf"],
    ["sample-slab", "--d", "3", "--reps", "2", "--family", "table",
     "--points", "[[0,0],[0.5,NaN]]"],
    # finite rates outside weights.RATE_MIN..RATE_MAX
    ["bounds", "--d", "3", "--a", "1e-320"],
    ["bounds", "--d", "3", "--a", "1e-200"],
    ["bounds", "--d", "3", "--a", "1e308"],
    ["bounds", "--d", "3", "--a", "1e200"],
    ["sample-eden", "--d", "3", "--reps", "2", "--a", "1e-320"],
    ["sample-slab", "--d", "3", "--reps", "2", "--a", "1e-320"],
], ids=["bounds-a-inf", "slab-a-inf", "eden-a-inf", "table-nan-node",
        "bounds-a-1e-320", "bounds-a-1e-200", "bounds-a-1e308", "bounds-a-1e200",
        "eden-a-1e-320", "slab-a-1e-320"])
def test_non_finite_input_exits_2_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code = run(argv + ["--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"
    assert not out.exists()


def test_config_points_list_writes_the_flag_bytes(tmp_path):
    points = [[0.0, 0.0], [0.3, 0.3], [0.6, 0.3], [0.9, 1.0]]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"family": "table", "points": points}))
    by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    common = ["sample-slab", "--d", "4", "--reps", "5", "--seed", "3"]
    assert run(common + ["--config", str(cfg_path), "--out", str(by_file)]) == 0
    assert run(common + ["--family", "table", "--points", json.dumps(points),
                         "--out", str(by_flag)]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()


def test_points_with_non_table_family_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["sample-slab", "--family", "exp", "--points", "[[0,0],[0.5,1]]",
                "--d", "3", "--reps", "2", "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DomainError"
    assert not out.exists()


def test_cli_import_leaves_quadrature_unloaded():
    # no command integrates numerically, so the CLI does not load scipy.integrate
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, fppslab.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
