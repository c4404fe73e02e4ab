import argparse
import hashlib
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

import sspg
from conftest import make_contraction, make_ring
from sspg.cli import EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_USAGE, build_parser, main


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


@pytest.mark.parametrize("matrix", [[[True, "2"], [0, 1]], [[3, 0], [1, "2"]], [[3, 0], [False, 2]], [[None]], [3, 0]])
def test_matgame_entries_must_be_numbers(capsys, tmp_path, matrix):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    for flags in (["--matrix", json.dumps(matrix)], ["--file", str(path)]):
        code = main(["matgame", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: matrix game needs a list of rows of numbers, got {matrix!r}\n"


def test_matgame_rows_must_have_one_length(capsys):
    code = main(["matgame", "--matrix", "[[1, 2], [3]]"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: matrix game needs a 2-D m x n matrix, got rows of shapes [(2,), (1,)]\n"


def test_solve_vi_everett(capsys, everett_file):
    code, out = run_cli(capsys, "solve-vi", "--model", everett_file, "--tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["refined"]
    assert doc["values"]["1"] == pytest.approx(1.0, abs=1e-5)
    assert f'{doc["values"]["1"]:.6f}' == "1.000000"


def test_solve_vi_prints_a_rejected_refine(capsys, tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(sspg.save_model(sspg.generate_model(sspg.GeneratorConfig(n_states=5, max_controls=3, seed=4))))
    code, out = run_cli(capsys, "solve-vi", "--model", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["outcome"] == "converged" and doc["iterations"] == 47 and doc["refined"] is False


@pytest.mark.parametrize("cmd,count", [("solve-vi", "iterations"), ("solve-qvi", "iterations"),
                                       ("solve-pi", "outer_iterations")])
def test_solve_csv_has_one_row_per_iteration(capsys, tmp_path, pursuit, cmd, count):
    model, trace = tmp_path / "pursuit.json", tmp_path / "trace.csv"
    model.write_text(sspg.save_model(pursuit))
    code, out = run_cli(capsys, cmd, "--model", str(model), "--csv", str(trace))
    rows = trace.read_text().splitlines()
    assert code == 0 and rows[0] == "iteration,residual,distance_to_ref"
    assert len(rows) - 1 == json.loads(out)[count] > 0


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


def test_evaluate_pair_undetermined_state_is_strict_json(capsys, tmp_path):
    # state 1 splits evenly between a +1 loop and a -1 loop: zero drift, no total cost
    loop = lambda i, cost: {"i": i, "u": "a", "v": "a", "next": [{"j": i, "p": 1.0, "cost": cost}]}
    game = {
        "states": ["1", "2", "3"],
        "controls1": {s: ["a"] for s in "123"},
        "controls2": {s: ["a"] for s in "123"},
        "transitions": [{"i": "1", "u": "a", "v": "a", "next": [{"j": "2", "p": 0.5, "cost": 0.0},
                                                                {"j": "3", "p": 0.5, "cost": 0.0}]},
                        loop("2", 1.0), loop("3", -1.0)],
    }
    model, mu, nu = tmp_path / "game.json", tmp_path / "mu.json", tmp_path / "nu.json"
    model.write_text(json.dumps(game))
    mu.write_text(json.dumps({"player": "I", "rules": {s: {"a": 1.0} for s in "123"}}))
    nu.write_text(json.dumps({"player": "II", "rules": {s: {"a": 1.0} for s in "123"}}))
    code, out = run_cli(capsys, "evaluate-pair", "--model", str(model), "--mu", str(mu), "--nu", str(nu))
    assert code == 0

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    states = json.loads(out, parse_constant=refuse)["states"]
    assert states == {"1": {"classification": "undetermined"},
                      "2": {"classification": "plus_infinity"},
                      "3": {"classification": "minus_infinity"}}


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


def test_analyze_strict_past_the_pair_cap(capsys, tmp_path):
    # an inconclusive report is no violation, so --strict exits 0
    path = tmp_path / "wide.json"
    path.write_text(sspg.save_model(make_ring(10)))  # 4**10 pure pairs local to one end component
    code, out = run_cli(capsys, "analyze", "--model", str(path), "--strict")
    assert code == 0
    assert json.loads(out)["overall"] == "inconclusive"


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


def test_qlearn_records_delays_past_int16(capsys, everett_file, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, out = run_cli(capsys, "qlearn", "--model", everett_file, "--record", "--delay", "40000",
                        "--iters", "41000", "--csv", str(csv_path))
    assert code == 0 and json.loads(out)["events"] == 41000
    delays = [int(line.split(",")[5]) for line in csv_path.read_text().splitlines()[1:]]
    assert max(delays) > 32_767


def test_qlearn_config_file(capsys, self_loop_file, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 9, "max_iters": 50, "stepsize": [1, 1, 0.8],
                                   "scheduler": "all", "delay": 2}))
    code, out = run_cli(capsys, "qlearn", "--model", self_loop_file, "--iters", "7",
                        "--config", str(cfgfile))
    assert code == 0
    doc = json.loads(out)
    assert doc["iterations"] == 50  # config file entries override the flags


def test_qlearn_delay_schedule_file(capsys, pursuit, tmp_path):
    """One offset per line, blank lines skipped: the fixed delay rule of those offsets."""
    model, offsets = tmp_path / "pursuit.json", tmp_path / "offsets.csv"
    model.write_text(sspg.save_model(pursuit))
    offsets.write_text("0\n\n2\n1\n3\n")
    code, out = run_cli(capsys, "qlearn", "--model", str(model), "--seed", "3", "--iters", "300", "--record",
                        "--scheduler", "round-robin:2", "--delay-schedule", str(offsets))
    cfg = sspg.QLearnConfig(seed=3, max_iters=300, scheduler="round-robin:2", delay_model=("fixed", (0, 2, 1, 3)),
                            record_full_history=True)
    assert code == 0 and json.loads(out)["digest"] == sspg.run_qlearning(pursuit, cfg)[1].digest()


# a --config document and the flags it stands for
CONFIG_AS_FLAGS = {
    "delay-0": ({"delay": 0}, ["--delay", "0"]),
    "delay-3": ({"delay": 3}, ["--delay", "3"]),
    "delay-65535": ({"delay": 65535}, ["--delay", "65535"]),  # the largest uniform bound
    "seed": ({"seed": 7}, ["--seed", "7"]),
    "max_iters": ({"max_iters": 150}, ["--iters", "150"]),
    "stepsize-a-list": ({"stepsize": [2, 0.5, 0.9]}, ["--stepsize", "2,0.5,0.9"]),
    "stepsize-a-string": ({"stepsize": "2,0.5,0.9"}, ["--stepsize", "2,0.5,0.9"]),
    "scheduler": ({"scheduler": "round-robin:2"}, ["--scheduler", "round-robin:2"]),
    "record_full_history": ({"record_full_history": True}, ["--record"]),
}


@pytest.mark.parametrize("case", CONFIG_AS_FLAGS)
def test_config_key_reads_as_the_flag(capsys, everett_file, tmp_path, case):
    doc, flags = CONFIG_AS_FLAGS[case]
    for cmd in ("qlearn", "couple") if "record_full_history" not in doc else ("qlearn",):  # couple always records
        base = [cmd, "--model", everett_file, "--iters", "200", "--delay", "1"]
        flag = run_cli(capsys, *base, *flags)
        assert flag[0] == 0
        assert run_cli(capsys, *base, "--config", _config(tmp_path, doc)) == flag


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


# gen flags and the one error line they end in, before anything is drawn
GEN_FAULTS = {
    "cost-range-infinite": (["--cost-range", "0,inf"], "cost_range must be two finite numbers (lo, hi), got (0.0, inf)"),
    "cost-range-one-number": (["--cost-range", "1"], "cost-range needs two comma-separated numbers lo,hi, got '1'"),
    "cost-range-not-numbers": (["--cost-range", "a,b"], "cost-range needs two comma-separated numbers lo,hi, got 'a,b'"),
    "cost-range-reversed": (["--cost-range", "2,1"], "cost_range must have lo <= hi"),
    "seed-negative": (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
}


@pytest.mark.parametrize("case", GEN_FAULTS)
def test_gen_faults_are_one_usage_line(capsys, monkeypatch, case):
    flags, err = GEN_FAULTS[case]

    def no_draw(*args, **kwargs):
        raise AssertionError("the game was drawn")

    monkeypatch.setattr(sspg.generate, "generate_model", no_draw)
    code = main(["gen", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"error: {err}\n"


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


def test_game_without_states_is_rejected(capsys, tmp_path):
    # validate used to report it valid, and the solvers then failed on an empty reduction
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"states": [], "controls1": {}, "controls2": {}, "transitions": []}))
    code, out = run_cli(capsys, "validate", "--model", str(path))
    assert code == 2
    assert json.loads(out) == {"valid": False, "findings": [
        {"code": "no-states", "location": "states", "message": "the game has no states"}]}
    for cmd in ("solve-vi", "solve-pi", "analyze", "certificate", "qlearn"):
        code = main([cmd, "--model", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "[no-states]" in captured.err


MALFORMED = {
    "policy-is-a-list": "policy document must be an object",
    "rule-is-a-list": "rule at state 1 must map control labels to probabilities",
    "controls1-is-a-list": '"controls1" must be an object',
    "player-is-a-list": 'policy "player" must be "I" or "II"',
    "probability-is-text": "rule at state 1 must map control labels to probabilities",
    "control-list-is-a-number": '"controls1" entry for state 1 must be a list',
    "states-is-a-number": '"states" must be a list',
    "p-is-text": 'transitions[0] (1,1,1): entry 0: "p" and "cost" must be numbers',
    "p-is-true": 'transitions[0] (1,1,1): entry 0: "p" and "cost" must be numbers',
    "cost-is-numeric-text": 'transitions[0] (1,1,1): entry 0: "p" and "cost" must be numbers',
    "probability-is-numeric-text": "rule at state 1 must map control labels to probabilities",
    "probability-is-true": "rule at state 1 must map control labels to probabilities",
    "probability-is-10**400": "rule at state 1 must map control labels to probabilities",
    "weight-is-nan": "rule at state 1 is not a distribution: [0.0, nan]",
    "mass-off-by-1e-7": "rule at state 1 is not a distribution: [0.5, 0.5000001]",
    "weight-is-minus-1e-12": "rule at state 1 is not a distribution: [1.000000000001, -1e-12]",
    "weight-on-unknown-control": "rule at state 1 names control 'typo', which the state does not have",
    "rule-for-unknown-state": "policy has a rule for state 9, which the game does not have",
    "player-is-true": 'policy "player" must be "I" or "II"',
    "state-label-is-true": '"states" entry 0 must be a string, got True',
    "control-label-is-null": '"controls1" entry for state 1: control 0 must be a string, got None',
    "control-label-is-a-float": '"controls2" entry for state 1: control 1 must be a string, got 1.5',
    "i-is-a-number": 'transitions[0]: "i" must be a string, got 1',
    "u-is-a-number": 'transitions[1]: "u" must be a string, got 1',
    "v-is-false": 'transitions[2]: "v" must be a string, got False',
    "j-is-a-number": 'transitions[0] (1,1,1): entry 0: "j" must be a string, got 0',
    "root-is-a-list": "document root must be an object",
    "transitions-missing": 'missing field "transitions"',
    "row-without-next": 'transitions[0]: needs fields "i", "u", "v", "next"',
    "entry-without-cost": 'transitions[0] (1,1,1): entry 0 needs fields "j", "p", "cost"',
    "next-is-an-object": 'transitions[0] (1,1,1): "next" must be a list',
    "row-of-unknown-triplet": "transition row for unknown triplet ('1', '9', '1')",
    "successor-is-unknown": "unknown successor '9' in row ('1', '1', '1')",
    "state-labels-repeated": "duplicate state labels",
    "control-labels-repeated": "duplicate control labels at state 1",
    "rules-is-a-list": 'policy "rules" must be an object',
    "rule-of-a-state-missing": "policy has no rule for state 1",
    "controls-of-no-state": '"controls1" has an entry for state 9, which the game does not have',
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_invalid(capsys, everett_file, tmp_path, case):
    model, mu = tmp_path / "model.json", tmp_path / "mu.json"
    doc = json.loads(Path(everett_file).read_text())
    mu_doc = {"player": "I", "rules": {"1": {"1": 0.0, "2": 1.0}}}
    if case == "policy-is-a-list":
        mu_doc = [mu_doc]
    elif case == "rule-is-a-list":
        mu_doc["rules"]["1"] = [1, 0]
    elif case == "player-is-a-list":
        mu_doc["player"] = ["I"]
    elif case == "probability-is-text":
        mu_doc["rules"]["1"]["2"] = "x"
    elif case == "control-list-is-a-number":
        doc["controls1"]["1"] = 5
    elif case == "states-is-a-number":
        doc["states"] = 3
    elif case == "p-is-text":
        doc["transitions"][0]["next"][0]["p"] = "x"
    elif case == "p-is-true":
        doc["transitions"][0]["next"][0]["p"] = True
    elif case == "cost-is-numeric-text":
        doc["transitions"][0]["next"][0]["cost"] = "2.5"
    elif case == "probability-is-numeric-text":
        mu_doc["rules"]["1"]["2"] = "1"
    elif case == "probability-is-true":
        mu_doc["rules"]["1"]["2"] = True
    elif case == "probability-is-10**400":
        mu_doc["rules"]["1"]["2"] = 10**400  # json writes and reads back the integer, which no float holds
    elif case == "weight-is-nan":
        mu_doc["rules"]["1"]["2"] = float("nan")  # json writes NaN and reads it back
    elif case == "mass-off-by-1e-7":
        mu_doc["rules"]["1"] = {"1": 0.5, "2": 0.5000001}
    elif case == "weight-is-minus-1e-12":
        mu_doc["rules"]["1"] = {"1": 1.0 + 1e-12, "2": -1e-12}
    elif case == "weight-on-unknown-control":
        mu_doc["rules"]["1"] = {"1": 1.0, "typo": 0.5}
    elif case == "rule-for-unknown-state":
        mu_doc["rules"]["9"] = {"1": 1.0}
    elif case == "player-is-true":
        mu_doc["player"] = True
    elif case == "state-label-is-true":
        doc["states"] = [True]
    elif case == "control-label-is-null":
        doc["controls1"]["1"][0] = None
    elif case == "control-label-is-a-float":
        doc["controls2"]["1"][1] = 1.5
    elif case == "i-is-a-number":
        doc["transitions"][0]["i"] = 1
    elif case == "u-is-a-number":
        doc["transitions"][1]["u"] = 1
    elif case == "v-is-false":
        doc["transitions"][2]["v"] = False
    elif case == "j-is-a-number":
        doc["transitions"][0]["next"][0]["j"] = 0
    elif case == "root-is-a-list":
        doc = [doc]
    elif case == "transitions-missing":
        del doc["transitions"]
    elif case == "row-without-next":
        del doc["transitions"][0]["next"]
    elif case == "entry-without-cost":
        del doc["transitions"][0]["next"][0]["cost"]
    elif case == "next-is-an-object":
        doc["transitions"][0]["next"] = {}
    elif case == "row-of-unknown-triplet":
        doc["transitions"][0]["u"] = "9"
    elif case == "successor-is-unknown":
        doc["transitions"][0]["next"][0]["j"] = "9"
    elif case == "state-labels-repeated":
        doc["states"] = ["1", "1"]
    elif case == "control-labels-repeated":
        doc["controls1"]["1"] = ["1", "1"]
    elif case == "rules-is-a-list":
        mu_doc["rules"] = []
    elif case == "rule-of-a-state-missing":
        mu_doc["rules"] = {}
    elif case == "controls-of-no-state":
        doc["controls1"]["9"] = ["b"]
    else:
        doc["controls1"] = [doc["controls1"]["1"]]
    model.write_text(json.dumps(doc))
    mu.write_text(json.dumps(mu_doc))
    code = main(["evaluate-pair", "--model", str(model), "--mu", str(mu), "--nu", str(mu)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {MALFORMED[case]}\n"


def test_out_flag(capsys, everett_file, tmp_path):
    out_path = tmp_path / "result.json"
    code, out = run_cli(capsys, "solve-vi", "--model", everett_file,
                        "--tol", "1e-6", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["values"]["1"] == pytest.approx(1.0, abs=1e-5)


# sha256 of stdout with default flags (uniform start / uniform nu), recorded
# with the value-iteration best response and re-recorded where the exact
# best response moved the bytes (see CHANGES.md); the zerocost solve-vi and
# solve-pi --player I and the pursuit certificate (empty) did not move
CLI_PINS = {
    ("everett", "solve-vi"): "52f80c95d8ff03b8801336459701bc8f66e3df90806296dd2777ab594165c3a9",
    ("everett", "solve-pi --player I"): "48be180b8c0757841abff3ea937a6394f04e8e6e7c15e104f7fc4c44c611b24a",
    ("everett", "solve-pi --player II"): "3315fbd037b95cc8a67ff9f52b8d70b1ac4bc6c9e06c692d1517b68bca014150",
    ("everett", "certificate"): "831b626f5e8568224240742be0fd5e7cb1e42f4345c4a880299d686868b98a74",
    ("zerocost", "solve-vi"): "d0e39364d50e4210c6c20f26269c710b4d4147269882ed8e6e1802d4a980e258",
    ("zerocost", "solve-pi --player I"): "7ddabe4b62c53ad33bdba4875d0dddf26919645a3f913360087fcfd440e10f0c",
    ("zerocost", "solve-pi --player II"): "3be356ea816c0892b3046d5b8cb8dd7d5b978da6d37669032ffc6561dd65d4f4",
    ("zerocost", "certificate"): "8978b53b503d8b212ef41f553bd0ce73bd6b6449c848100a3a4aa704ffae2217",
    ("pursuit", "solve-vi"): "281e3c9d9c81b315b719caa4035a92e0e9c2e27320d7285f46023e21ff535112",
    ("pursuit", "solve-pi --player I"): "24feecafc8ef6f01a6c875e20aa59cb97359a78867391461e00490d8c9b58a63",
    ("pursuit", "solve-pi --player II"): "416d8f25ddf82933a71afc8eaba14fb4f28bed19c14057f33945d04a64e78e69",
    ("pursuit", "certificate"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


@pytest.mark.parametrize("game,cmd", sorted(CLI_PINS))
def test_cli_output_pins(capsys, tmp_path, game, cmd):
    path = tmp_path / f"{game}.json"
    path.write_text(sspg.save_model(sspg.load_bundled_model(game)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the start-policy warning goes to stderr
        _, out = run_cli(capsys, *cmd.split(), "--model", str(path))
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_PINS[(game, cmd)]


def test_solve_pi_cap_note_names_the_violated_assumption(capsys, everett_file, tmp_path, pursuit):
    # everett's maximizer has no optimal stationary policy: its PI stops at the cap
    _, out = run_cli(capsys, "solve-pi", "--player", "II", "--model", everett_file)
    doc = json.loads(out)
    assert doc["outcome"] == "iteration-cap"
    assert doc["note"] == ("the game violates the SSP game assumption: prolonging pair with finite total cost "
                           "(zero-gain recurrent class); so player II may have no optimal stationary policy")
    # pursuit meets the assumption: a cap there is only a cap
    path = tmp_path / "pursuit.json"
    path.write_text(sspg.save_model(pursuit))
    _, out = run_cli(capsys, "solve-pi", "--player", "I", "--max-outer", "1", "--model", str(path))
    assert (json.loads(out)["outcome"], json.loads(out)["note"]) == ("iteration-cap", "")


def _strict_json(text):
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("game", ["everett", "zerocost", "pursuit"])
def test_solve_output_is_strict_json(capsys, tmp_path, game):
    path = tmp_path / f"{game}.json"
    path.write_text(sspg.save_model(sspg.load_bundled_model(game)))
    runs = [["solve-vi"], ["solve-vi", "--max-iters", "1"], ["solve-qvi"], ["solve-qvi", "--max-iters", "1"],
            ["solve-pi", "--player", "I"], ["solve-pi", "--player", "II"], ["solve-pi", "--max-outer", "1"]]
    for argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, out = run_cli(capsys, *argv, "--model", str(path))
        assert _strict_json(out)["outcome"]


@pytest.mark.parametrize("argv,reason", [
    (["solve-vi", "--max-iters", "0"], "max_iter"),
    (["solve-qvi", "--max-iters", "0"], "max_iter"),
    (["solve-vi", "--tol", "-1"], "tol"),
    (["solve-pi", "--max-outer", "0"], "max_outer"),
    (["solve-pi", "--tol", "-1"], "tol"),
    (["solve-pi", "--tol", "0"], "tol"),
    (["solve-vi", "--tol", "nan"], "tol"),  # NaN used to pass the check and run to the cap
    (["solve-qvi", "--tol", "nan"], "tol"),
    (["solve-pi", "--tol", "nan"], "tol"),
])
def test_solvers_reject_empty_or_meaningless_runs(capsys, everett_file, argv, reason):
    code = main([*argv, "--model", everett_file])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"error: {reason} must")


def test_solve_pi_ill_posed_evaluation(capsys, tmp_path):
    # the maximizer can stay at cost 1 forever, so the minimizer's only policy has no value
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x", "y"]},
                       {("1", "a", "x"): [("0", 1.0, 0.0)], ("1", "a", "y"): [("1", 1.0, 1.0)]})
    path = tmp_path / "loop.json"
    path.write_text(sspg.save_model(m))
    code, out = run_cli(capsys, "solve-pi", "--model", str(path), "--player", "I")
    assert code == EXIT_NO_CONVERGENCE
    doc = _strict_json(out)
    assert doc["outcome"] == "ill-posed" and doc["outer_iterations"] == 0
    assert doc["values"] == {"1": None} and doc["final_residual"] is None
    assert doc["note"] == ("best response ill-posed: a never-terminating response from state 1 "
                           "is not infinitely bad for the responder")


# ---------------------------------------------------------------------------
# the command-line surface: each subcommand registers the flags it reads
# ---------------------------------------------------------------------------

_RUN_FLAGS = "model seed out csv iters stepsize scheduler delay delay-schedule config"
CLI_FLAGS = {
    "validate": "model out",
    "matgame": "matrix file out",
    "solve-vi": "model tol max-iters out csv",
    "solve-qvi": "model tol max-iters out csv",
    "solve-pi": "model tol out csv player start max-outer",
    "evaluate-pair": "model out mu nu",
    "analyze": "model out strict",
    "sspa-build": "model out nu",
    "certificate": "model out nu",
    "qlearn": f"{_RUN_FLAGS} ref record",
    "couple": f"{_RUN_FLAGS} nu",
    "gen": "seed out states max-controls family kappa cost-range",
}


def _registered_flags() -> dict:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s[2:] for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def test_cli_flag_surface():
    flags = _registered_flags()
    assert flags == {name: set(names.split()) for name, names in CLI_FLAGS.items()}
    assert sum(map(len, flags.values())) == 65


def _readme_synopsis() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").strip().splitlines()
    # optional flags are bracketed: [--flag value]
    return [shlex.split(re.sub(r"\[(--[^\]]*)\]", r"\1", line)) for line in lines]


def test_readme_synopsis_parses_and_lists_every_flag():
    parser, seen = build_parser(), {name: {"out"} for name in CLI_FLAGS}
    for argv in _readme_synopsis():
        assert argv[0] == "sspg"
        parser.parse_args(argv[1:])  # a usage error raises
        seen[argv[1]] |= {tok[2:] for tok in argv[2:] if tok.startswith("--")}
    assert seen == {name: set(names.split()) for name, names in CLI_FLAGS.items()}


# one flag per subcommand that it used to accept and ignore
REMOVED = {
    "validate": ["--seed", "1"],
    "matgame": ["--tol", "0.1"],
    "solve-vi": ["--seed", "2"],
    "solve-qvi": ["--strict"],
    "solve-pi": ["--max-iters", "5"],
    "evaluate-pair": ["--csv", "pair.csv"],
    "analyze": ["--csv", "a.csv"],
    "sspa-build": ["--tol", "3"],
    "certificate": ["--max-iters", "1"],
    "qlearn": ["--metric-interval", "10"],
    "couple": ["--record"],
    "gen": ["--csv", "g.csv"],
}


@pytest.mark.parametrize("cmd", sorted(REMOVED))
def test_removed_flag_is_usage_error(capsys, everett_file, tmp_path, cmd):
    mu, nu = tmp_path / "mu.json", tmp_path / "nu.json"
    mu.write_text(json.dumps({"player": "I", "rules": {"1": {"1": 0.5, "2": 0.5}}}))
    nu.write_text(json.dumps({"player": "II", "rules": {"1": {"1": 0.5, "2": 0.5}}}))
    argv = {"matgame": ["--matrix", "[[1,2]]"], "gen": [],
            "evaluate-pair": ["--model", everett_file, "--mu", str(mu), "--nu", str(nu)]}.get(
        cmd, ["--model", everett_file])
    assert main([cmd, *argv]) == 0  # without the flag the command runs
    capsys.readouterr()
    code = main([cmd, *argv, *REMOVED[cmd]])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: " + REMOVED[cmd][0])


def test_qlearn_seed_precedence(capsys, monkeypatch, tmp_path):
    """SSPG_SEED over the --config seed over --seed, for qlearn and couple alike."""
    game, cfg = tmp_path / "game.json", tmp_path / "cfg.json"
    game.write_text(sspg.save_model(make_contraction(seed=5, n_states=4)))
    cfg.write_text(json.dumps({"seed": 4}))

    def output(cmd, *argv):
        code, out = run_cli(capsys, cmd, "--model", str(game), "--iters", "300", "--delay", "2", *argv)
        assert code == 0
        return out

    for cmd in ("qlearn", "couple"):
        base = {s: output(cmd, "--seed", str(s)) for s in (3, 4, 5)}
        assert len(set(base.values())) == 3
        assert output(cmd, "--seed", "3", "--config", str(cfg)) == base[4]
        monkeypatch.setenv("SSPG_SEED", "5")
        assert output(cmd, "--seed", "3", "--config", str(cfg)) == base[5]
        assert output(cmd, "--seed", "3") == base[5]
        monkeypatch.delenv("SSPG_SEED")


@pytest.mark.parametrize("cmd,doc,key", [
    ("qlearn", {"metric_interval": 10}, "metric_interval"),
    ("qlearn", {"seed": 1, "iters": 5}, "iters"),
    ("couple", {"record_full_history": False}, "record_full_history"),
])
def test_config_rejects_keys_it_does_not_read(capsys, everett_file, tmp_path, cmd, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main([cmd, "--model", everett_file, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"error: --config key {key!r} is not one of seed, max_iters")


REF_FAULTS = {
    "missing-triplet": "--ref has no row for triplet ('1', '2', '2')",
    "no-q": '--ref row 1 needs a triplet "i", "u", "v" of the game and a number "q"',
    "unknown-triplet": '--ref row 3 needs a triplet "i", "u", "v" of the game and a number "q"',
    "repeated-triplet": "--ref row 3 repeats triplet ('1', '1', '1')",
    "infinite-q": '--ref row 2: "q" must be finite',
    "q-is-numeric-text": '--ref row 2 needs a triplet "i", "u", "v" of the game and a number "q"',
    "q-is-true": '--ref row 2 needs a triplet "i", "u", "v" of the game and a number "q"',
    "rows-in-an-object": "--ref must hold a list of triplet rows",
}


@pytest.mark.parametrize("case", sorted(REF_FAULTS))
def test_qlearn_ref_needs_every_triplet_once(capsys, everett, everett_file, tmp_path, case):
    rows = [{"i": i, "u": u, "v": v, "q": 0.5} for i, u, v in everett.triplets]
    if case == "missing-triplet":
        rows.pop()
    elif case == "no-q":
        del rows[1]["q"]
    elif case == "unknown-triplet":
        rows[3]["v"] = "9"
    elif case == "repeated-triplet":
        rows[3] = dict(rows[0])
    elif case == "q-is-numeric-text":
        rows[2]["q"] = "0.5"
    elif case == "q-is-true":
        rows[2]["q"] = True
    elif case == "rows-in-an-object":
        rows = {"rows": rows}
    else:
        rows[2]["q"] = float("inf")
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(rows))
    code = main(["qlearn", "--model", everett_file, "--iters", "10", "--ref", str(ref)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert captured.err == f"error: {REF_FAULTS[case]}\n"


def _config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


# flags, --config document, the start of the one error line
FLAG_CONFLICTS = {
    "csv-without-record": (["--csv", "trace.csv"], None, "--csv needs the event history"),
    "csv-with-record-off-in-config": (["--csv", "trace.csv", "--record"], {"record_full_history": False},
                                      "--csv needs the event history"),
    "delay-key-and-schedule": (["--delay-schedule", "offsets.csv"], {"delay": 0},
                               "--config key 'delay' and --delay-schedule both set the delays"),
    "delay-flag-and-schedule": (["--delay", "3", "--delay-schedule", "offsets.csv"], None,
                                "--delay and --delay-schedule both set the delays"),
    "delay-flag-zero-and-schedule": (["--delay", "0", "--delay-schedule", "offsets.csv"], None,
                                     "--delay and --delay-schedule both set the delays"),
    "stepsize-two-numbers": (["--stepsize", "1,2"], None,
                             "stepsize needs three comma-separated numbers a,b,p, got '1,2'"),
    "stepsize-not-a-number": (["--stepsize", "1,b,0.75"], None,
                              "stepsize needs three comma-separated numbers a,b,p, got '1,b,0.75'"),
    "config-stepsize-two-numbers": ([], {"stepsize": [1, 2]},
                                    "stepsize needs three comma-separated numbers a,b,p, got [1, 2]"),
    "config-scheduler-a-number": ([], {"scheduler": 5},
                                  "scheduler must be a string or a (kind, argument) pair, got 5"),
    "config-max-iters-a-string": ([], {"max_iters": "10"}, "max_iters must be an integer, got '10'"),
    "config-delay-a-list": ([], {"delay": [1]}, "delay bound needs an integer, got [1]"),
    "config-delay-null": ([], {"delay": None}, "delay bound needs an integer, got None"),
    "config-delay-false": ([], {"delay": False}, "delay bound needs an integer, got False"),
    "config-delay-a-float": ([], {"delay": 0.0}, "delay bound needs an integer, got 0.0"),
    "config-delay-empty-text": ([], {"delay": ""}, "delay bound needs an integer, got ''"),
    "config-delay-empty-list": ([], {"delay": []}, "delay bound needs an integer, got []"),
    "config-delay-numeric-text": ([], {"delay": "3"}, "delay bound needs an integer, got '3'"),
    "config-stepsize-a-bool": ([], {"stepsize": [True, 1, 0.75]},
                               "stepsize needs three comma-separated numbers a,b,p, got [True, 1, 0.75]"),
    "config-stepsize-numeric-text": ([], {"stepsize": [1, "1", 0.75]},
                                     "stepsize needs three comma-separated numbers a,b,p, got [1, '1', 0.75]"),
    "config-seed-a-string": ([], {"seed": "x"}, "seed must be an integer, got 'x'"),
    "delay-schedule-fractional-line": (["--delay-schedule", "fractional.csv"], None,
                                       "--delay-schedule line 3 needs an integer, got '1.5'"),
    "stepsize-infinite-a": (["--stepsize", "inf,1,0.75"], None, "stepsize needs finite a and b, got (inf, 1.0, 0.75)"),
    "config-stepsize-infinite-b": ([], {"stepsize": [1, 1e400, 0.75]},
                                   "stepsize needs finite a and b, got (1.0, inf, 0.75)"),
    "config-not-an-object": ([], [{"seed": 1}], "--config must hold a JSON object"),
    "delay-past-16-bits": (["--delay", "70000"], None,
                           "uniform delay bound 70000 exceeds 65535: offsets are scaled from a 16-bit draw"),
}


@pytest.mark.parametrize("cmd,case", [
    ("qlearn", "csv-without-record"),
    ("qlearn", "csv-with-record-off-in-config"),
    ("qlearn", "delay-key-and-schedule"),
    ("couple", "delay-key-and-schedule"),
    ("qlearn", "delay-flag-and-schedule"),
    ("couple", "delay-flag-and-schedule"),
    ("qlearn", "delay-flag-zero-and-schedule"),
    ("qlearn", "stepsize-two-numbers"),
    ("couple", "stepsize-not-a-number"),
    ("qlearn", "config-stepsize-two-numbers"),
    ("qlearn", "config-scheduler-a-number"),
    ("qlearn", "config-max-iters-a-string"),
    ("couple", "config-max-iters-a-string"),
    ("qlearn", "config-delay-a-list"),
    ("qlearn", "config-delay-null"),
    ("couple", "config-delay-false"),
    ("qlearn", "config-delay-a-float"),
    ("qlearn", "config-delay-empty-text"),
    ("couple", "config-delay-empty-list"),
    ("qlearn", "config-delay-numeric-text"),
    ("qlearn", "config-stepsize-a-bool"),
    ("couple", "config-stepsize-numeric-text"),
    ("couple", "config-seed-a-string"),
    ("qlearn", "delay-schedule-fractional-line"),
    ("couple", "delay-schedule-fractional-line"),
    ("qlearn", "stepsize-infinite-a"),
    ("couple", "config-stepsize-infinite-b"),
    ("qlearn", "config-not-an-object"),
    ("qlearn", "delay-past-16-bits"),
    ("couple", "delay-past-16-bits"),
])
def test_qlearn_flag_conflicts_rejected_before_running(capsys, monkeypatch, everett_file, tmp_path, cmd, case):
    flags, doc, err = FLAG_CONFLICTS[case]
    (tmp_path / "offsets.csv").write_text("0\n2\n1\n")
    (tmp_path / "fractional.csv").write_text("0\n\n1.5\n")  # blank lines are skipped but counted
    argv = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    if doc is not None:
        argv += ["--config", _config(tmp_path, doc)]

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(sspg.qlearn, "run_qlearning", no_run)
    code = main([cmd, "--model", everett_file, "--iters", "50", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"error: {err}") and captured.err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


def test_qlearn_csv_with_recording_from_config(capsys, everett_file, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, _ = run_cli(capsys, "qlearn", "--model", everett_file, "--iters", "50", "--csv", str(csv_path),
                      "--config", _config(tmp_path, {"record_full_history": True}))
    assert code == 0 and len(csv_path.read_text().splitlines()) == 51  # header and one row per event
    code, _ = run_cli(capsys, "couple", "--model", everett_file, "--iters", "50", "--csv", str(csv_path))
    assert code == 0


@pytest.mark.parametrize("game", ["everett", "zerocost", "pursuit"])
def test_validate_stdout_of_the_bundled_games(capsys, tmp_path, game):
    path = tmp_path / f"{game}.json"
    path.write_text(sspg.save_model(sspg.load_bundled_model(game)))
    assert run_cli(capsys, "validate", "--model", str(path)) == (0, '{\n  "valid": true,\n  "findings": []\n}\n')
