import json

import pytest

import sspg
from sspg.cli import EXIT_USAGE, main


@pytest.fixture
def everett_file(tmp_path, everett):
    path = tmp_path / "everett.json"
    path.write_text(sspg.save_model(everett))
    return str(path)


@pytest.fixture
def zerocost_file(tmp_path, zerocost):
    path = tmp_path / "zerocost.json"
    path.write_text(sspg.save_model(zerocost))
    return str(path)


@pytest.fixture
def self_loop_file(tmp_path, self_loop):
    path = tmp_path / "loop.json"
    path.write_text(sspg.save_model(self_loop))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_usage_error(capsys):
    code = main(["solve-vi"])  # missing --model
    assert code == 1
    assert main(["solve-vi", "--model", "g.json", "--threads", "2"]) == 1  # no such flag


def test_validate_ok(capsys, everett_file):
    code, out = run_cli(capsys, "validate", "--model", everett_file)
    assert code == 0
    assert json.loads(out)["valid"]


def test_validate_bad_model(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["1"],
        "controls1": {"1": ["a"]},
        "controls2": {"1": ["x"]},
        "transitions": [
            {"i": "1", "u": "a", "v": "x", "next": [{"j": "0", "p": 0.9, "cost": 0.0}]}
        ],
    }))
    code, out = run_cli(capsys, "validate", "--model", str(bad))
    assert code == 2
    doc = json.loads(out)
    assert not doc["valid"]
    assert any("0.9" in f["message"] for f in doc["findings"])


def test_matgame(capsys):
    code, out = run_cli(capsys, "matgame", "--matrix", "[[3,0],[1,2]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.5, abs=1e-9)
    assert doc["row_strategy"] == pytest.approx([0.25, 0.75], abs=1e-9)


def test_solve_vi_everett(capsys, everett_file):
    code, out = run_cli(capsys, "solve-vi", "--model", everett_file, "--tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["refined"]
    assert doc["values"]["1"] == pytest.approx(1.0, abs=1e-5)
    assert f'{doc["values"]["1"]:.6f}' == "1.000000"


def test_solve_vi_iteration_cap_exit_code(capsys, everett_file):
    code, out = run_cli(capsys, "solve-vi", "--model", everett_file,
                        "--tol", "1e-9", "--max-iters", "3")
    assert code == 3
    assert json.loads(out)["outcome"] == "iteration-cap"


def test_solve_qvi(capsys, self_loop_file):
    code, out = run_cli(capsys, "solve-qvi", "--model", self_loop_file, "--tol", "1e-10")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"][0]["q"] == pytest.approx(2.0, abs=1e-8)


def test_solve_pi(capsys, everett_file, tmp_path):
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"player": "I", "rules": {"1": {"1": 1.0, "2": 0.0}}}))
    code, out = run_cli(capsys, "solve-pi", "--model", everett_file,
                        "--player", "I", "--start", str(start), "--tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["1"] == pytest.approx(1.0, abs=1e-6)


def test_evaluate_pair(capsys, everett_file, tmp_path):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text(json.dumps({"player": "I", "rules": {"1": {"1": 0.0, "2": 1.0}}}))
    nu.write_text(json.dumps({"player": "II", "rules": {"1": {"1": 1.0, "2": 0.0}}}))
    code, out = run_cli(capsys, "evaluate-pair", "--model", everett_file,
                        "--mu", str(mu), "--nu", str(nu))
    assert code == 0
    doc = json.loads(out)
    assert doc["prolonging"]
    assert "zero-gain-prolonging" in doc["flags"]


def test_analyze_everett(capsys, everett_file):
    code, out = run_cli(capsys, "analyze", "--model", everett_file)
    assert code == 0
    assert json.loads(out)["overall"] == "violated"
    code, out = run_cli(capsys, "analyze", "--model", everett_file, "--strict")
    assert code == 4
    doc = json.loads(out)
    witness = doc["clauses"]["prolonging_pairs"]
    assert witness["witness_mu"]["rules"]["1"]["2"] == 1.0
    assert witness["witness_nu"]["rules"]["1"]["1"] == 1.0


def test_analyze_zerocost_strict(capsys, zerocost_file):
    code, out = run_cli(capsys, "analyze", "--model", zerocost_file, "--strict")
    assert code == 4
    witness = json.loads(out)["clauses"]["prolonging_pairs"]
    assert witness["witness_mu"]["rules"]["1"]["2"] == 1.0
    assert witness["witness_nu"]["rules"]["1"]["2"] == 1.0


def test_sspa_build(capsys, everett_file):
    code, out = run_cli(capsys, "sspa-build", "--model", everett_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["state_rows"]) == 2


def test_certificate(capsys, self_loop_file):
    code, out = run_cli(capsys, "certificate", "--model", self_loop_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == pytest.approx(0.5, abs=1e-9)


def test_certificate_improper(capsys, everett_file, tmp_path):
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"player": "II", "rules": {"1": {"1": 1.0, "2": 0.0}}}))
    code = main(["certificate", "--model", everett_file, "--nu", str(nu)])
    assert code == 2


def test_qlearn_zero_iterations(capsys, everett_file):
    code, out = run_cli(capsys, "qlearn", "--model", everett_file, "--iters", "0",
                        "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert all(row["q"] == 0.0 for row in doc["q"])


def test_qlearn_rejects_negative_delay(capsys, everett_file):
    for cmd in ("qlearn", "couple"):
        code = main([cmd, "--model", everett_file, "--iters", "10", "--delay", "-3"])
        assert code == EXIT_USAGE
        assert "delay bound must be nonnegative" in capsys.readouterr().err


def test_qlearn_with_reference_and_csv(capsys, self_loop_file, tmp_path):
    ref = tmp_path / "ref.json"
    code, out = run_cli(capsys, "solve-qvi", "--model", self_loop_file, "--tol", "1e-10")
    ref.write_text(json.dumps(json.loads(out)["q"]))
    csv_path = tmp_path / "trace.csv"
    code, out = run_cli(capsys, "qlearn", "--model", self_loop_file, "--iters", "4000",
                        "--seed", "1", "--ref", str(ref), "--record",
                        "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["final_sup_dist_to_ref"] < 0.5
    assert csv_path.exists()


def test_qlearn_config_file(capsys, self_loop_file, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 9, "max_iters": 50, "stepsize": [1, 1, 0.8],
                                   "scheduler": "all", "delay": 2}))
    code, out = run_cli(capsys, "qlearn", "--model", self_loop_file, "--iters", "7",
                        "--config", str(cfgfile))
    assert code == 0
    doc = json.loads(out)
    assert doc["iterations"] == 50  # config file entries override the flags


def test_couple(capsys, everett_file):
    code, out = run_cli(capsys, "couple", "--model", everett_file, "--iters", "2000",
                        "--seed", "3", "--scheduler", "uniform-random:1", "--delay", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0


def test_gen_deterministic_and_valid(capsys):
    code, out1 = run_cli(capsys, "gen", "--states", "4", "--max-controls", "3",
                         "--family", "sequential", "--seed", "5")
    assert code == 0
    m = sspg.load_model(out1)
    assert sspg.validate_model(m).ok
    assert m.n == 4
    code, out2 = run_cli(capsys, "gen", "--states", "4", "--max-controls", "3",
                         "--family", "sequential", "--seed", "5")
    assert out1 == out2  # byte-identical repeat invocation


def test_gen_rejects_more_controls_than_labels(capsys):
    # control labels come from 8-letter alphabets; 9 controls used to be capped at 8
    code = main(["gen", "--states", "4", "--max-controls", "9"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == "" and "max_controls" in captured.err
    with pytest.raises(ValueError, match="max_controls"):
        sspg.GeneratorConfig(max_controls=9)
    m = sspg.generate_model(sspg.GeneratorConfig(n_states=12, max_controls=8, seed=3))
    assert max(len(c) for c in m.controls1.values()) == 8


def test_gen_seed_env_override(capsys, monkeypatch):
    _, base = run_cli(capsys, "gen", "--seed", "5")
    monkeypatch.setenv("SSPG_SEED", "6")
    _, other = run_cli(capsys, "gen", "--seed", "5")
    assert base != other
    monkeypatch.delenv("SSPG_SEED")
    _, again = run_cli(capsys, "gen", "--seed", "5")
    assert base == again


def test_solve_vi_byte_identical(capsys, everett_file):
    _, a = run_cli(capsys, "solve-vi", "--model", everett_file, "--tol", "1e-6")
    _, b = run_cli(capsys, "solve-vi", "--model", everett_file, "--tol", "1e-6")
    assert a == b


def test_missing_model_file(capsys):
    code = main(["validate", "--model", "/nonexistent/x.json"])
    assert code == 2


def test_out_flag(capsys, everett_file, tmp_path):
    out_path = tmp_path / "result.json"
    code, out = run_cli(capsys, "solve-vi", "--model", everett_file,
                        "--tol", "1e-6", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["values"]["1"] == pytest.approx(1.0, abs=1e-5)
