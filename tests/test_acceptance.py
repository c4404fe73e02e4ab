"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while the suite runs.  The Q-learning criteria (8-10) share one set of
recorded runs built by a module-scoped fixture.
"""

import itertools
import json
import time

import numpy as np
import pytest

import sspg
from sspg.cli import main as cli_main
from test_matgame import certificate_slack, oracle_2x2
from test_solve import brute_force_value


@pytest.fixture
def report(request):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'} - {detail}"
        if reporter is not None:
            reporter.write_line("\n" + line)
        else:
            print(line)
        assert ok, f"criterion {criterion}: {detail}"

    return _report


def cli_json(capsys, *argv):
    code = cli_main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# 1-3: bundled counterexample games
# ---------------------------------------------------------------------------


def test_criterion_1_everett_value(tmp_path, capsys, everett, report):
    path = tmp_path / "everett.json"
    path.write_text(sspg.save_model(everett))
    t0 = time.perf_counter()
    code, doc = cli_json(capsys, "solve-vi", "--model", str(path), "--tol", "1e-6")
    elapsed = time.perf_counter() - t0

    value_ok = code == 0 and abs(doc["values"]["1"] - 1.0) <= 1e-5

    _, trace = sspg.value_iteration(everett, tol=1e-6, record_iterates=True)
    x, recurrence_ok = 0.0, True
    for k in range(10):
        recurrence_ok &= abs(trace.iterates[k][0] - x) <= 1e-9
        x = 1.0 / (2.0 - x)

    report(
        1,
        value_ok and recurrence_ok and elapsed < 1.0,
        f"J(1)={doc['values']['1']:.8f} (target 1 +- 1e-5), "
        f"first 10 iterates match x_k+1=1/(2-x_k) to 1e-9: {recurrence_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_zero_cost_example(tmp_path, capsys, zerocost, report):
    path = tmp_path / "zerocost.json"
    path.write_text(sspg.save_model(zerocost))
    t0 = time.perf_counter()
    j, trace = sspg.value_iteration(zerocost, tol=1e-6)
    code, doc = cli_json(capsys, "analyze", "--model", str(path), "--strict")
    elapsed = time.perf_counter() - t0

    witness = doc["clauses"]["prolonging_pairs"]
    witness_ok = (
        code == 4
        and doc["overall"] == "violated"
        and witness["witness_mu"]["rules"]["1"] == {"1": 0.0, "2": 1.0}
        and witness["witness_nu"]["rules"]["1"] == {"1": 0.0, "2": 1.0}
    )
    report(
        2,
        trace.outcome == sspg.CONVERGED and j[0] == 0.0 and witness_ok and elapsed < 1.0,
        f"VI value {j[0]} (exact 0), violation witness (u=2, v=2): {witness_ok}, {elapsed:.2f}s",
    )


def test_criterion_3_everett_assumption_violation(tmp_path, capsys, everett, report):
    path = tmp_path / "everett.json"
    path.write_text(sspg.save_model(everett))
    t0 = time.perf_counter()
    code, doc = cli_json(capsys, "analyze", "--model", str(path), "--strict")
    elapsed = time.perf_counter() - t0

    witness = doc["clauses"]["prolonging_pairs"]
    mu_ok = witness["witness_mu"]["rules"]["1"] == {"1": 0.0, "2": 1.0}
    nu_ok = witness["witness_nu"]["rules"]["1"] == {"1": 1.0, "2": 0.0}
    # the witness pair's chain has a zero-gain recurrent class
    mu = sspg.pure_policy(everett, 1, {"1": "2"})
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    gains = dict(sspg.recurrent_class_gains(sspg.induce_chain(everett, mu, nu)))
    zero_gain_ok = gains.get(("1",)) == 0.0
    report(
        3,
        code == 4 and mu_ok and nu_ok and zero_gain_ok and elapsed < 1.0,
        f"witness pair (u=2, v=1) with zero-gain class: {mu_ok and nu_ok and zero_gain_ok}, "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4-5: operator and matrix-game properties
# ---------------------------------------------------------------------------


def test_criterion_4_operator_property_suite(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(200):
        m = sspg.generate_model(
            sspg.GeneratorConfig(
                n_states=int(rng.integers(1, 6)),
                max_controls=int(rng.integers(1, 4)),
                termination_floor=float(rng.uniform(0.05, 0.5)),
                cost_range=(-1.0, 1.0),
                family="contraction",
                seed=40_000 + k,
            )
        )
        x = rng.uniform(-10, 10, m.n)
        y = x + rng.uniform(0, 3, m.n)
        qx = rng.uniform(-10, 10, m.n_triplets)
        qy = qx + rng.uniform(0, 3, m.n_triplets)
        qz = rng.uniform(-10, 10, m.n_triplets)
        mu = sspg.StationaryPolicy(1, {s: rng.dirichlet(np.ones(len(m.controls1[s]))) for s in m.states})
        nu = sspg.StationaryPolicy(2, {s: rng.dirichlet(np.ones(len(m.controls2[s]))) for s in m.states})

        tx, ty = sspg.bellman(m, x), sspg.bellman(m, y)
        worst = max(worst, float((tx - ty).max()))  # monotone: tx <= ty
        worst = max(worst, np.abs(tx - sspg.bellman(m, x)).max())
        worst = max(worst, float(np.abs(tx - ty).max() - np.abs(x - y).max()))
        fqx, fqy = sspg.q_bellman(m, qx), sspg.q_bellman(m, qy)
        worst = max(worst, float((fqx - fqy).max()))
        worst = max(worst, float(np.abs(fqx - sspg.q_bellman(m, qz)).max() - np.abs(qx - qz).max()))
        worst = max(worst, float(np.abs(tx - sspg.bellman_maximin(m, x)).max() - 1e-8))
        t_mu = sspg.bellman_min_fixed(m, mu, x)
        t_nu = sspg.bellman_max_fixed(m, nu, x)
        t_pair = sspg.bellman_pair(m, mu, nu, x)
        t_tilde = sspg.bellman_maximin(m, x)
        worst = max(worst, float((t_nu - t_pair).max()), float((t_pair - t_mu).max()))
        worst = max(worst, float((t_nu - t_tilde).max()), float((t_tilde - tx).max() - 1e-8))
        worst = max(worst, float((tx - t_mu).max()))
    elapsed = time.perf_counter() - t0
    report(4, worst <= 1e-10 and elapsed < 30.0,
           f"200 models, worst property slack {worst:.2e} (<= 1e-10 beyond stated 1e-8 allowances), {elapsed:.1f}s")


def test_criterion_5_matrix_game_oracle(report):
    t0 = time.perf_counter()
    worst_oracle = 0.0
    vals = range(-3, 4)
    for a, b, c, d in itertools.product(vals, repeat=4):
        want, _, _ = oracle_2x2(a, b, c, d)
        got = sspg.solve_matrix_game([[a, b], [c, d]]).value
        worst_oracle = max(worst_oracle, abs(got - want))
    rng = np.random.default_rng(77)
    worst_cert = 0.0
    for _ in range(500):
        mat = rng.uniform(-10, 10, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        sol = sspg.solve_matrix_game(mat)
        worst_cert = max(worst_cert, certificate_slack(mat, sol))
        worst_cert = max(worst_cert, abs(sol.value - -sspg.solve_matrix_game(-mat.T).value))
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst_oracle <= 1e-9 and worst_cert <= 1e-8 and elapsed < 30.0,
        f"2401 integer 2x2 vs closed form: {worst_oracle:.2e} (<=1e-9); "
        f"500 random games duality/certificate: {worst_cert:.2e} (<=1e-8), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6-7: exact solver equivalences
# ---------------------------------------------------------------------------


def test_criterion_6_sequential_brute_force(report):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=int(3 + (k % 2)), max_controls=3,
                                 termination_floor=0.15, cost_range=(-1.0, 1.0),
                                 family="sequential", seed=60_000 + k)
        )
        j, trace = sspg.value_iteration(m, tol=1e-12)
        assert trace.outcome == sspg.CONVERGED
        j, _ = sspg.refine_fixed_point(m, j)
        worst = max(worst, float(np.abs(j - brute_force_value(m)).max()))
    elapsed = time.perf_counter() - t0
    report(6, worst <= 1e-8 and elapsed < 60.0,
           f"50 sequential models, worst |VI - brute force| = {worst:.2e} (<= 1e-8), {elapsed:.1f}s")


def test_criterion_7_policy_iteration(report):
    t0 = time.perf_counter()
    all_ok = True
    worst_monotone = 0.0
    for k in range(50):
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=int(2 + (k % 3)), max_controls=2,
                                 termination_floor=0.1, cost_range=(0.0, 1.0),
                                 family="contraction", seed=70_000 + k)
        )
        start = sspg.uniform_policy(m, 1)
        all_ok &= sspg.is_essentially_proper(m, start).verdict == "yes"
        x, policies, trace = sspg.policy_iteration(m, 1, start, tol=1e-6, max_outer=50)
        all_ok &= trace.outcome == sspg.CONVERGED
        all_ok &= float(np.abs(x - sspg.bellman(m, x)).max()) <= 1e-6
        # reconstruct the evaluation sequence to check monotone descent
        seq = []
        for pol in policies:
            xt, _ = sspg.evaluate_vs_best_response(m, pol)
            seq.append(xt)
        for a, b in zip(seq, seq[1:]):
            worst_monotone = max(worst_monotone, float((b - a).max()))
    elapsed = time.perf_counter() - t0
    report(7, all_ok and worst_monotone <= 1e-8 and elapsed < 60.0,
           f"50 models converged with proper starts, worst uptick {worst_monotone:.2e} (<= 1e-8), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8-10: Q-learning runs (shared fixture)
# ---------------------------------------------------------------------------

N_SEEDS = 10
T_UPDATES = 200_000


@pytest.fixture(scope="module")
def qlearning_runs():
    data = []
    t0 = time.perf_counter()
    for k in range(5):
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=4, max_controls=2, termination_floor=0.1,
                                 cost_range=(0.0, 1.0), family="contraction",
                                 seed=80_000 + k)
        )
        qstar, trace = sspg.q_value_iteration(m, tol=1e-10)
        assert trace.outcome == sspg.CONVERGED
        runs = []
        for seed in range(1, N_SEEDS + 1):
            cfg = sspg.QLearnConfig(
                seed=seed, max_iters=T_UPDATES, stepsize=(1.0, 1.0, 0.75),
                scheduler="uniform-random:1", delay_model=("uniform", 5),
                record_full_history=True, metric_interval=50_000,
            )
            q, run = sspg.run_qlearning(m, cfg)
            runs.append((q, run))
        data.append((m, qstar, runs))
    elapsed = time.perf_counter() - t0
    # a recorded log stores 24 bytes per event: four int32 index columns and the new values
    logs = [run.events for _, _, runs in data for _, run in runs]
    assert sum(col.nbytes for ev in logs for col in vars(ev).values()) == 24 * sum(map(len, logs))
    return data, elapsed


def test_criterion_8_qlearning_convergence(qlearning_runs, report):
    data, elapsed = qlearning_runs
    ok = True
    details = []
    for m, qstar, runs in data:
        bound = 0.05 * (1.0 + float(np.abs(qstar).max()))
        errs = sorted(float(np.abs(q - qstar).max()) for q, _ in runs)
        median = 0.5 * (errs[N_SEEDS // 2 - 1] + errs[N_SEEDS // 2])
        ok &= median <= bound
        details.append(f"{median:.3f}/{bound:.3f}")
    report(8, ok and elapsed < 300.0,
           f"median |Q_T - Q*| vs 0.05(1+|Q*|) per model: {', '.join(details)}; runs took {elapsed:.0f}s (< 300s)")


def test_criterion_9_boundedness(qlearning_runs, report):
    data, _ = qlearning_runs
    t0 = time.perf_counter()
    ok = True
    worst_ratio = 0.0
    for m, qstar, runs in data:
        bound = 10.0 * (1.0 + float(np.abs(qstar).max()))
        for _, run in runs:
            worst_ratio = max(worst_ratio, run.max_abs_q / bound)
            ok &= run.max_abs_q <= bound
    # ten additional runs on loopy-family models satisfying the assumptions
    n_loopy = 0
    for k in range(20):
        if n_loopy == 10:
            break
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=3, max_controls=2, termination_floor=0.1,
                                 cost_range=(0.1, 1.0), family="loopy", seed=90_000 + k)
        )
        if sspg.check_ssp_game_assumption(m).overall != "holds":
            continue
        n_loopy += 1
        qstar, trace = sspg.q_value_iteration(m, tol=1e-10)
        assert trace.outcome == sspg.CONVERGED
        cfg = sspg.QLearnConfig(seed=n_loopy, max_iters=T_UPDATES, stepsize=(1.0, 1.0, 0.75),
                                scheduler="uniform-random:1", delay_model=("uniform", 5),
                                metric_interval=50_000)
        _, run = sspg.run_qlearning(m, cfg)
        bound = 10.0 * (1.0 + float(np.abs(qstar).max()))
        worst_ratio = max(worst_ratio, run.max_abs_q / bound)
        ok &= run.max_abs_q <= bound
    elapsed = time.perf_counter() - t0
    report(9, ok and n_loopy == 10,
           f"max_t |Q_t| within 10(1+|Q*|) on all {5 * N_SEEDS} runs + {n_loopy} loopy runs; "
           f"worst ratio {worst_ratio:.2f} (loopy leg {elapsed:.0f}s)")


def test_criterion_10_coupling(qlearning_runs, report):
    data, _ = qlearning_runs
    t0 = time.perf_counter()
    total_viol = 0
    worst_margin = np.inf
    rng = np.random.default_rng(5)
    for m, _, runs in data:
        policies = [sspg.uniform_policy(m, 2),
                    sspg.StationaryPolicy(2, {s: rng.dirichlet(np.ones(len(m.controls2[s]))) for s in m.states})]
        for idx, (_, run) in enumerate(runs):
            for nu in policies if idx == 0 else policies[:1]:
                rep = sspg.run_coupled_lower_process(m, nu, run)
                total_viol += len(rep.violations)
                worst_margin = min(worst_margin, float(rep.min_margin.min()))
    elapsed = time.perf_counter() - t0
    report(10, total_viol == 0 and worst_margin >= -1e-9,
           f"zero coupling violations across {5 * N_SEEDS} replayed runs "
           f"(worst margin {worst_margin:.1e} >= -1e-9), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11-12: certificates and trackers
# ---------------------------------------------------------------------------


def test_criterion_11_contraction_certificate(self_loop, report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    for k in range(20):
        kappa = float(rng.uniform(0.1, 0.4))
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=int(rng.integers(2, 5)), max_controls=2,
                                 termination_floor=kappa, cost_range=(0.0, 1.0),
                                 family="contraction", seed=110_000 + k)
        )
        nu = sspg.uniform_policy(m, 2)
        ok &= bool(sspg.forall_termination(m, nu).all())
        cert = sspg.build_contraction_certificate(m, nu)
        sup_xi_nu = np.array([x.max() for x in cert.xi_nu])
        ok &= bool(((m.P[:, 1:] @ sup_xi_nu) <= cert.beta * cert.xi + 1e-8).all())
        for _ in range(100):
            qa = rng.uniform(-10, 10, m.n_triplets)
            qb = rng.uniform(-10, 10, m.n_triplets)
            lhs = cert.weighted_norm(
                sspg.q_bellman_max_fixed(m, nu, qa) - sspg.q_bellman_max_fixed(m, nu, qb)
            )
            ok &= lhs <= (cert.beta + 1e-8) * cert.weighted_norm(qa - qb)
    cert = sspg.build_contraction_certificate(self_loop, sspg.uniform_policy(self_loop, 2))
    exact_ok = abs(cert.xi[0] - 2.0) <= 1e-9 and abs(cert.beta - 0.5) <= 1e-9
    elapsed = time.perf_counter() - t0
    report(11, ok and exact_ok and elapsed < 60.0,
           f"20 certificates validated on every triplet and 100 random pairs each; "
           f"self-loop xi={cert.xi[0]:.10f}, beta={cert.beta:.10f}, {elapsed:.1f}s")


def test_criterion_12_tracker_convergence(report):
    t0 = time.perf_counter()
    m = sspg.generate_model(
        sspg.GeneratorConfig(n_states=3, max_controls=2, termination_floor=0.1,
                             cost_range=(0.0, 1.0), family="contraction", seed=120_000)
    )
    cfg = sspg.QLearnConfig(seed=1, max_iters=100_000, stepsize=(1.0, 1.0, 0.75),
                            scheduler="all", record_full_history=True,
                            metric_interval=100_000)
    _, run = sspg.run_qlearning(m, cfg)
    assert (run.counts == 100_000).all()
    state = sspg.run_trackers(m, run)  # raises on any support escape
    g_err = float(np.abs(state.g_tilde - m.g).max())
    p_err = float(np.abs(state.q_hat - m.P).max())
    elapsed = time.perf_counter() - t0
    report(12, g_err <= 0.02 and p_err <= 0.02,
           f"after 1e5 updates per component: |g_tilde - g| = {g_err:.4f}, "
           f"max |q_hat - p| = {p_err:.4f} (both <= 0.02), support contained at every step, {elapsed:.0f}s")
