"""The traced benchmark run (``perfbench/run.py --trace 1``) and the demos keep working.

Its tracer wraps named ``sspg`` functions from outside, and its workloads
rebuild recorded logs field by field; a refactor that renames or removes
one of them would only fail once a benchmark run starts.
"""

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sspg
from conftest import make_contraction

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def _tracer_module():
    return _perfbench_module("tracer")


def test_tracer_targets_resolve():
    tracer = _tracer_module()
    targets = [t for group in tracer.SPAN_TARGETS.values() for t in group] + list(tracer.AGG_TARGETS)
    missing = [f"sspg.{mod}.{name}" for mod, name in targets
               if not callable(getattr(importlib.import_module(f"sspg.{mod}"), name, None))]
    assert not missing


def test_tracer_installs_and_restores(everett):
    tracer = _tracer_module()
    t = tracer.Tracer()
    t.install()
    try:
        assert sspg.bellman(everett, [1.0]).tolist() == [1.0]
        sspg.greedy_policies(everett, sspg.q_from_values(everett, [1.0]))
    finally:
        t.restore()
    assert "operators.bellman" in t.names and "operators.greedy_policies" in t.names
    assert sspg.bellman.__module__ == "sspg.operators" and not hasattr(sspg.bellman, "__wrapped__")


def test_tracer_counts_pairs_under_the_assumption_check(everett):
    # structure.pairs_enumerated counts the classify_chain spans directly under
    # check_ssp_game_assumption: one per pure pair local to an end component
    # whose chain has a closed class there; everett's one state is its one
    # end component, so that is each of its 2 x 2 pairs that can avoid 0: 1
    mus, nus = (list(sspg.iter_pure_policies(everett, p)) for p in (sspg.PLAYER_MIN, sspg.PLAYER_MAX))
    improper = sum(not sspg.reach_probability_one(sspg.induce_chain(everett, mu, nu)).all()
                   for mu in mus for nu in nus)
    assert (len(mus) * len(nus), improper) == (4, 1)
    tracer = _tracer_module()
    t = tracer.Tracer()
    t.install()
    try:
        sspg.check_ssp_game_assumption(everett)
    finally:
        t.restore()
    view = tracer.SpanView(t, 0, len(t.s_name))
    [check] = view.indices("structure.check_ssp_game_assumption")
    assert len(view.children(check, "structure.classify_chain")) == improper


def test_tracer_sees_every_best_response(pursuit, everett):
    # solve.best_response_calls and best_response_ms pool these spans
    tracer = _tracer_module()
    t = tracer.Tracer()
    t.install()
    try:
        traces = [sspg.policy_iteration(m, player, sspg.uniform_policy(m, player))[2]
                  for m, player in ((pursuit, 1), (everett, 2))]
        sspg.refine_fixed_point(everett, [1.0])
        sspg.check_ssp_game_assumption(pursuit)
    finally:
        t.restore()
    view = tracer.SpanView(t, 0, len(t.s_name))
    span = "solve.evaluate_vs_best_response"
    pis = view.indices("solve.policy_iteration")
    assert [len(view.children(k, span)) for k in pis] == [len(tr.rows) for tr in traces] == [2, 50]
    [refine] = view.indices("solve.refine_fixed_point")
    assert len(view.children(refine, span)) == 1
    [check] = view.indices("structure.check_ssp_game_assumption")
    assert len(view.children(check, span)) == 2  # one per safeguard clause


def test_workloads_truncate_cuts_a_replayable_run():
    # the benchmark times replays of a recorded run cut by workloads.truncate
    workloads = _perfbench_module("workloads")
    m = make_contraction(seed=30, n_states=4, max_controls=2)
    cfg = sspg.QLearnConfig(seed=9, max_iters=3000, scheduler="uniform-random:1",
                            delay_model=("uniform", 5), record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    assert sum(getattr(run.events, f.name).nbytes for f in dataclasses.fields(run.events)) == 24 * len(run.events)
    cut = workloads.truncate(run, 200)
    assert len(cut.events) == 200 and cut.model is m
    assert cut.digest() == workloads.truncate(run, 200).digest() != run.digest()
    nu = sspg.uniform_policy(m, sspg.PLAYER_MAX)
    assert sspg.noise_decomposition(cut, m).tobytes() == sspg.noise_decomposition(run, m)[:200].tobytes()
    rep = sspg.run_coupled_lower_process(m, nu, cut)
    assert rep.ok and rep.qhat_events.tobytes() == sspg.run_coupled_lower_process(m, nu, run).qhat_events[:200].tobytes()
    # the trackers of the cut log are those of the run stopped after its 200th event
    short = sspg.run_qlearning(m, dataclasses.replace(cfg, max_iters=int(run.events.t[199]) + 1))[1]
    got, want = sspg.run_trackers(m, cut), sspg.run_trackers(m, short)
    assert got.g_tilde.tobytes() == want.g_tilde.tobytes() and got.q_hat.tobytes() == want.q_hat.tobytes()


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports ``sspg`` from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it cost the CLI about a third of its start-up
    proc = _python("-c", "import sspg.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", ["01_matrix_games", "02_everett_game", "03_generate_solve_verify",
                                  "04_qlearning", "05_boundedness_diagnostics"])
def test_demo_runs(demo, tmp_path):
    proc = _python(str(ROOT / "demos" / f"{demo}.py"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # only demo 04 writes a file, and it writes it into the working directory
    assert [p.name for p in tmp_path.iterdir()] == (["qlearn_trace.csv"] if demo == "04_qlearning" else [])


def test_readme_quick_start_runs(tmp_path):
    """The README's library quick start, run as written; it ends in ``assert coupling.ok``."""
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert code.rstrip().splitlines()[-1].startswith("assert coupling.ok")
    proc = _python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
