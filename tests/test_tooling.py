"""The traced benchmark run (``perfbench/run.py --trace 1``) and the demos keep working.

Its tracer wraps named ``sspg`` functions from outside; a refactor that
renames or removes one of them would only fail once a traced run starts.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sspg

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
    # check_ssp_game_assumption: one per pure pair whose chain can avoid 0 (the
    # others are solved a stacked chunk at a time); everett has 1 of its 2 x 2
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


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it cost the CLI about a third of its start-up
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sspg.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# 04_qlearning.py is left out: it takes about 9 s
@pytest.mark.parametrize("demo", ["01_matrix_games", "02_everett_game", "03_generate_solve_verify",
                                  "05_boundedness_diagnostics"])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
