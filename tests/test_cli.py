from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fppslab.cli import build_parser, main
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


@pytest.mark.parametrize("argv", [
    ["sample-slab", "--d", "4", "--reps", "20", "--budget-cap", "2"],
    ["subadd", "--d", "3", "--n", "2", "--reps", "5", "--budget-cap", "2"],
], ids=["sample-slab", "subadd"])
def test_budget_cap_exceeded_exits_1_writes_nothing(tmp_path, capsys, argv):
    # the exact searches raise the typed error, and no result or .tmp file is left
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "BudgetExceeded", "message": "search exceeded settled cap 2"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bounds", "search-cross", "sample-eden"])
@pytest.mark.parametrize("dims", ["empty", "repeated"])
def test_empty_or_repeated_dimension_exits_2_writes_nothing(tmp_path, capsys, command, dims):
    out = tmp_path / "x.csv"
    if dims == "empty":  # only a config file can give an empty list
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"d": []}))
        argv = [command, "--config", str(cfg_path)]
    else:
        argv = [command, "--d", "16", "--d", "16"]
    code = run(argv + ["--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
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


TABLE_POINTS = json.dumps([[0.0, 0.0], [0.3, 0.3], [0.6, 0.3], [0.9, 1.0]])

# c11's eight commands, then the race in replicates mode at d = 2, 3 and 50,
# the table and uniform families, the exact sampler behind the normalized
# statistics, and the cheap-detour probe at d = 64 and 128
DIGEST_COMMANDS = {
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
    "sample-eden-replicates": ["sample-eden", "--d", "2", "--d", "3", "--d", "50",
                               "--reps", "30", "--seed", "5"],
    "sample-slab-table": ["sample-slab", "--d", "3", "--reps", "10", "--seed", "5",
                          "--family", "table", "--points", TABLE_POINTS],
    "couple-check-table": ["couple-check", "--family", "table", "--points", TABLE_POINTS,
                           "--grid", "40"],
    "sample-slab-uniform": ["sample-slab", "--d", "4", "--reps", "20", "--seed", "5",
                            "--family", "uniform", "--a", "1.0", "--mode", "summary"],
    "concentration-slab": ["concentration", "--d", "4", "--eta", "0.5", "--reps", "20",
                           "--seed", "5", "--sampler", "slab"],
    "ui-tail-slab": ["ui-tail", "--d", "4", "--M", "2.0", "--reps", "20", "--seed", "5",
                     "--sampler", "slab"],
    "search-cross-d64": ["search-cross", "--d", "64", "--reps", "30", "--seed", "5"],
    "search-cross-d128": ["search-cross", "--d", "128", "--reps", "8", "--seed", "5"],
    # a node cap that cuts some replicates' searches off
    "search-cross-capped": ["search-cross", "--d", "64", "--reps", "30", "--seed", "5",
                            "--budget-cap", "40"],
}

# SHA-256 of each result file, by (command name, format)
DIGESTS = {
    ("bounds", "csv"): "084c3780d25dd7a151098047af32b47f77c671cbc50557d5cda95cdf01803c7b",
    ("bounds", "json"): "650037be0adc13bdd04af39e297ad0c2b9fa5e268dd05f4f106e30a77bc6f2dd",
    ("sample-slab", "csv"): "3a9ff9a396e1815c81bae1f4ed5839d9aef563edf9a4b4d7a5097d664e2347cd",
    ("sample-slab", "json"): "2a1d9c7033fa19f12ade21e377df5fd7ca25235d13904511e76adcec81f69e26",
    ("sample-eden", "csv"): "b321c15893779810496c60f5c55e8e8ecd4996e3f85fad8f6137fd39847bf309",
    ("sample-eden", "json"): "03eeed6501390277ed3da2f80ae82a37b9ceff87a5431ec8a198a0b9d3a4b30a",
    ("concentration", "csv"): "468302c0e44dd2199740d9549f8026ac1f99b4473c1b91c2ac0c76a4d1b8fdc6",
    ("concentration", "json"): "fdb1caa4b380899403c4aba66328441638f7c48007836a41b2c4d14bbe835f0b",
    ("subadd", "csv"): "d82be83623e9ff931cf29fad1fa0cbc5bc499753b919008de13d0d708162c87b",
    ("subadd", "json"): "2c1542986858ce59e93e8de6a9233a2e2cda557e64ef606def5a62181aba72f8",
    ("search-cross", "csv"): "0cd822380cd81d6228f5a305072ca4057cc5ce66fbc424375095de9db30f2494",
    ("search-cross", "json"): "9fd4251e41d84412b2dcfedf00cf27f4c9730b1b75ce044245545b11a9e6e4e7",
    ("ui-tail", "csv"): "f6b06e51cb267281393c38ef831b853648204fe45a102a43bdec731e538eb9b4",
    ("ui-tail", "json"): "ee2b286679dccb74f60750da52df56f594911745a1af7578ef500652a137cf05",
    ("couple-check", "csv"): "9c8264f3536ab62b86bb11bf929611b9a4a18872b20e467a4fb9fc9099b4785b",
    ("couple-check", "json"): "de86c5c985c873486c7d2f6f6e9f9084a01689d2538d22f95378fd332eae21c3",
    ("sample-eden-replicates", "csv"): "c66257d9ab4f248dfab62ad8a925df79cc5bb74d8d3e46a194c11ca5ea63d3e4",
    ("sample-eden-replicates", "json"): "dc74234747aec9cdb4fddcebe7592f5d9a64c7eba38f1a66076eedb57d3db46d",
    ("sample-slab-table", "csv"): "5c9f926930638233dc78493820a16b8c9eb1f89a5cb37b74a783a72e6babe6c6",
    ("sample-slab-table", "json"): "8c08d22587a5310194ba211f10d2a3dc3d6971aea0d9fd5ec9228e5fe6f76955",
    ("couple-check-table", "csv"): "481adee9f1750500e7c97c98a505edd4ef779eb4f4add2d5e816c2a90ba85bda",
    ("couple-check-table", "json"): "a60bbd8a17d0c2f8a92884da99fd01f2720c5721ccd7be40b75280b29fbbcfe2",
    ("sample-slab-uniform", "csv"): "369739c9d7394aa87ba8c070f3e19605c34d61b97a2b7377d2bfd358f937b527",
    ("sample-slab-uniform", "json"): "d0cc926c8e70ab4f1c0073e8f66726d72259dc0d0c4905a8db3da1408387b7e5",
    ("concentration-slab", "csv"): "eb5d14e6820b4b28486ba72743096e6aa013d837f2d0398de0c87b9e7e2bd6a0",
    ("concentration-slab", "json"): "d12f3b93b2fe92b9196f63b14a2fc3f1c306e6ca50768e06395abd2c839692a6",
    ("ui-tail-slab", "csv"): "82c554c80d313ff6b2a592eb2f1ae5512b050da3b7f20721b1d9c06aa3722bf9",
    ("ui-tail-slab", "json"): "8110a5b438b9c21085d1e211d90d970a71b6bc0cf6e09dc937c905a4af757735",
    ("search-cross-d64", "csv"): "a6b26b91d63140cf3d04adab9ba307ef6b5867cf9d0d226b88c4065167b3e2b5",
    ("search-cross-d64", "json"): "7d3dcd08d2b7908d1a73d0345acb3159e0f7c37c5e7efa6e1cc453f0d642f614",
    ("search-cross-d128", "csv"): "936f4fdb8a4114a0fe8fc3546396c5251918c8c5a4840a1953062c717fdc4946",
    ("search-cross-d128", "json"): "0eed17e85ef49acf29d8194f9902602325e3a65875a7e040bdcd2d1fcd3630fb",
    ("search-cross-capped", "csv"): "f8850940ece26e3d9a06a405b0f65d20aa3bb901e500ef3e1555f1d7450005b3",
    ("search-cross-capped", "json"): "b1d54b1a8d2a858f6a9f4da21f70d6fb412caf76ba846fcd1731773711589352",
}


def test_cli_outputs_match_recorded_digests(tmp_path):
    """Every result file's bytes are the recorded ones.

    c11 compares two runs of one tree; this compares against the digests
    recorded here, so a refactor that changes a byte fails. A change that
    versions outputs on purpose updates these digests and says so in
    CHANGES.md.
    """
    for name, argv in DIGEST_COMMANDS.items():
        for fmt in ("csv", "json"):
            out = tmp_path / f"{name}.{fmt}"
            assert run(argv + ["--format", fmt, "--out", str(out)]) == 0
            got = hashlib.sha256(out.read_bytes()).hexdigest()
            assert got == DIGESTS[name, fmt], (name, fmt)


@pytest.mark.parametrize("bad", [
    ["--reps", "7", "--bogus", "1"],         # an unknown flag
    ["--reps", "7", "--budget-cap", "x"],    # a value its type rejects
    ["--reps", "7", "--format", "xml"],      # a value outside the choices
], ids=["unknown", "type", "choice"])
def test_failed_parse_leaves_the_shared_parser_as_built(tmp_path, capsys, bad):
    # main() reuses one parser per process; a parse that exits 2 partway
    # through leaves it as a freshly built one, and so leaves the bytes
    argv = DIGEST_COMMANDS["search-cross"]
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        run(["search-cross", "--d", "16", *bad, "--out", str(tmp_path / "bad.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "bad.csv").exists()
    shared, fresh = tmp_path / "shared.json", tmp_path / "fresh.json"
    assert run(argv + ["--format", "json", "--out", str(shared)]) == 0
    build_parser.cache_clear()
    assert run(argv + ["--format", "json", "--out", str(fresh)]) == 0
    assert shared.read_bytes() == fresh.read_bytes()
    assert hashlib.sha256(fresh.read_bytes()).hexdigest() == DIGESTS["search-cross", "json"]
