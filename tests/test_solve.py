import csv
import itertools

import numpy as np
import pytest

import sspg
from conftest import make_contraction, make_terminal_only, random_policy


def test_everett_vi_matches_derived_recurrence(everett):
    # x_{k+1} = 1/(2 - x_k) from the 2x2 indifference oracle; 0, 1/2, 2/3, ...
    _, trace = sspg.value_iteration(everett, tol=1e-6, record_iterates=True)
    x = 0.0
    for k in range(10):
        assert trace.iterates[k][0] == pytest.approx(x, abs=1e-9)
        x = 1.0 / (2.0 - x)
    assert trace.outcome == sspg.CONVERGED


def test_everett_vi_refined_limit(everett):
    j, trace = sspg.value_iteration(everett, tol=1e-6)
    assert trace.outcome == sspg.CONVERGED
    j2, refined = sspg.refine_fixed_point(everett, j)
    assert refined
    assert j2[0] == pytest.approx(1.0, abs=1e-9)


def test_everett_refine_is_exact(everett):
    j, _ = sspg.value_iteration(everett, tol=1e-8)
    x, refined = sspg.refine_fixed_point(everett, j)
    assert refined
    assert abs(x[0] - 1.0) <= 1e-15


def test_zerocost_vi_exact(zerocost):
    j, trace = sspg.value_iteration(zerocost, tol=1e-6)
    assert trace.outcome == sspg.CONVERGED
    assert len(trace.rows) == 1
    assert j[0] == 0.0


def test_terminal_only_vi_single_iteration():
    m = make_terminal_only(seed=6)
    j, trace = sspg.value_iteration(m, j0=np.full(m.n, 9.0), tol=1e-8)
    assert trace.outcome == sspg.CONVERGED
    assert len(trace.rows) <= 2


def test_qvi_scalar_fixed_point(self_loop):
    q, trace = sspg.q_value_iteration(self_loop, tol=1e-12)
    assert trace.outcome == sspg.CONVERGED
    assert q[0] == pytest.approx(2.0, abs=1e-9)


def test_qvi_warm_start_stops_immediately():
    m = make_contraction(seed=8)
    qstar, _ = sspg.q_value_iteration(m, tol=1e-12)
    _, trace = sspg.q_value_iteration(m, q0=qstar, tol=1e-8)
    assert trace.outcome == sspg.CONVERGED
    assert len(trace.rows) == 1
    assert trace.rows[0].residual <= 1e-8


def test_everett_q_fixed_point_value(everett):
    # warm start from the refined state-value solution
    j, _ = sspg.value_iteration(everett, tol=1e-6)
    j, _ = sspg.refine_fixed_point(everett, j)
    q, trace = sspg.q_value_iteration(everett, q0=sspg.q_from_values(everett, j), tol=1e-9)
    assert trace.outcome == sspg.CONVERGED
    assert sspg.values_from_q(everett, q)[0] == pytest.approx(1.0, abs=1e-6)


def test_vi_divergence_outcome():
    # negative-cost self-loop with no exit: backup drifts to -inf
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("1", 1.0, -1e7)]})
    _, trace = sspg.value_iteration(m, tol=1e-10, max_iter=10**4)
    assert trace.outcome == sspg.DIVERGING


def test_vi_iteration_cap():
    m = make_contraction(seed=10)
    _, trace = sspg.value_iteration(m, tol=1e-14, max_iter=3)
    assert trace.outcome == sspg.ITERATION_CAP
    assert len(trace.rows) == 3


def test_solvers_reject_empty_or_meaningless_runs(everett):
    start = sspg.uniform_policy(everett, 1)
    with pytest.raises(ValueError, match="max_iter"):
        sspg.value_iteration(everett, max_iter=0)
    with pytest.raises(ValueError, match="max_iter"):
        sspg.q_value_iteration(everett, max_iter=0)
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tol"):
            sspg.policy_iteration(everett, 1, start, tol=tol)
    with pytest.raises(ValueError, match="max_outer"):
        sspg.policy_iteration(everett, 1, start, max_outer=0)
    with pytest.raises(ValueError, match="player 2"):
        sspg.policy_iteration(everett, 2, start)


def test_trace_csv(tmp_path):
    m = make_contraction(seed=11)
    ref = np.zeros(m.n)
    _, trace = sspg.value_iteration(m, tol=1e-8, ref=ref)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["iteration", "residual", "distance_to_ref"]
    assert len(rows) == len(trace.rows) + 1
    assert float(rows[1][1]) >= 0.0


# ---------------------------------------------------------------------------
# evaluate_pair
# ---------------------------------------------------------------------------


def test_everett_pair_prolonging_zero_gain(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "2"})
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    ev = sspg.evaluate_pair(everett, mu, nu)
    assert ev.prolonging
    assert "zero-gain-prolonging" in ev.flags
    assert ev.classification(0) == "finite"
    assert ev.values[0] == pytest.approx(0.0, abs=1e-9)


def test_everett_pair_terminating(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "1"})
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    ev = sspg.evaluate_pair(everett, mu, nu)
    assert not ev.prolonging
    assert ev.values[0] == pytest.approx(1.0, abs=1e-12)
    # non-prolonging values solve the pair's fixed-point equation
    assert np.allclose(sspg.bellman_pair(everett, mu, nu, ev.values), ev.values, atol=1e-9)


def test_positive_self_loop_plus_infinity():
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("1", 1.0, 1.0)]})
    ev = sspg.evaluate_pair(m, sspg.uniform_policy(m, 1), sspg.uniform_policy(m, 2))
    assert ev.prolonging
    assert ev.classification(0) == "plus_infinity"


def test_negative_self_loop_minus_infinity():
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("1", 1.0, -2.0)]})
    ev = sspg.evaluate_pair(m, sspg.uniform_policy(m, 1), sspg.uniform_policy(m, 2))
    assert ev.classification(0) == "minus_infinity"


# ---------------------------------------------------------------------------
# evaluate_vs_best_response
# ---------------------------------------------------------------------------


def test_everett_best_response_to_terminating_column(everett):
    nu = sspg.pure_policy(everett, 2, {"1": "2"})
    x, trace = sspg.evaluate_vs_best_response(everett, nu)
    assert trace.outcome == sspg.CONVERGED
    # brute-force oracle: fix the column, enumerate the minimizer's pure rows
    brute = min(
        sspg.evaluate_pair(everett, sspg.pure_policy(everett, 1, {"1": u}), nu).values[0]
        for u in ("1", "2")
    )
    assert brute == 0.0
    assert x[0] == pytest.approx(brute, abs=1e-9)


def test_best_response_matches_operator_iterates():
    m = make_contraction(seed=12)
    rng = np.random.default_rng(0)
    mu = random_policy(m, 1, rng)
    x, _ = sspg.evaluate_vs_best_response(m, mu)
    # the fixed point satisfies the one-policy backup equation
    assert np.allclose(sspg.bellman_min_fixed(m, mu, x), x, atol=1e-9)


def test_upper_value_dominates_lower_value():
    rng = np.random.default_rng(3)
    for seed in range(8):
        m = make_contraction(seed=200 + seed, n_states=int(rng.integers(2, 5)))
        mu = random_policy(m, 1, rng)
        nu = random_policy(m, 2, rng)
        upper, t1 = sspg.evaluate_vs_best_response(m, mu)
        lower, t2 = sspg.evaluate_vs_best_response(m, nu)
        assert t1.outcome == t2.outcome == sspg.CONVERGED
        assert (upper >= lower - 1e-8).all()


def test_terminal_only_best_response_closed_form():
    m = make_terminal_only(seed=13)
    rng = np.random.default_rng(1)
    mu = random_policy(m, 1, rng)
    x, _ = sspg.evaluate_vs_best_response(m, mu)
    for i, s in enumerate(m.states, start=1):
        block = m.q_block(m.g, i)
        assert x[i - 1] == pytest.approx((mu.rule(s) @ block).max(), abs=1e-9)


# ---------------------------------------------------------------------------
# policy iteration
# ---------------------------------------------------------------------------


def test_pi_already_optimal_one_outer():
    m = make_contraction(seed=14)
    j, _ = sspg.value_iteration(m, tol=1e-12)
    mu_star = sspg.greedy_policies(m, sspg.q_from_values(m, j))[0]
    x, policies, trace = sspg.policy_iteration(m, 1, mu_star, tol=1e-6)
    assert trace.outcome == sspg.CONVERGED
    assert len(trace.rows) == 1
    assert np.allclose(x, j, atol=1e-6)


def test_everett_pi_from_pure_one(everett):
    # playing control 1 terminates against both opponent responses: proper start
    start = sspg.pure_policy(everett, 1, {"1": "1"})
    assert sspg.is_essentially_proper(everett, start).verdict == "yes"
    x, policies, trace = sspg.policy_iteration(everett, 1, start, tol=1e-6)
    assert trace.outcome == sspg.CONVERGED
    assert x[0] == pytest.approx(1.0, abs=1e-6)


def test_pi_monotone_and_converges():
    for seed in range(10):
        m = make_contraction(seed=300 + seed, n_states=4, max_controls=3)
        start = sspg.uniform_policy(m, 1)
        assert sspg.is_essentially_proper(m, start).verdict == "yes"
        x, policies, trace = sspg.policy_iteration(m, 1, start, tol=1e-6, max_outer=50)
        assert trace.outcome == sspg.CONVERGED
        jstar, _ = sspg.value_iteration(m, tol=1e-10)
        assert (x >= jstar - 1e-5).all()
        # re-run collecting the evaluation sequence to check monotonicity
        values = []
        mu = start
        for _ in range(len(policies)):
            xt, _ = sspg.evaluate_vs_best_response(m, mu)
            values.append(xt)
            mu = sspg.greedy_policies(m, sspg.q_from_values(m, xt))[0]
        for a, b in itertools.pairwise(values):
            assert (b <= a + 1e-8).all()


def test_pi_player_two_negation_symmetry():
    m = make_contraction(seed=15, n_states=3, max_controls=2)
    start = sspg.uniform_policy(m, 2)
    x, policies, trace = sspg.policy_iteration(m, 2, start, tol=1e-8)
    assert trace.outcome == sspg.CONVERGED
    jstar, _ = sspg.value_iteration(m, tol=1e-10)
    assert np.allclose(x, jstar, atol=1e-6)
    assert all(p.player == 2 for p in policies)


def test_pi_uniqueness_probe_and_consistency():
    m = make_contraction(seed=16, n_states=4, max_controls=2)
    rng = np.random.default_rng(2)
    limits = []
    for _ in range(20):
        j0 = rng.uniform(-10, 10, size=m.n)
        j, trace = sspg.value_iteration(m, j0=j0, tol=1e-9)
        assert trace.outcome == sspg.CONVERGED
        limits.append(j)
    limits = np.array(limits)
    assert np.ptp(limits, axis=0).max() <= 10 * 1e-9 + 1e-10
    qstar, _ = sspg.q_value_iteration(m, tol=1e-9)
    assert np.allclose(sspg.values_from_q(m, qstar), limits[0], atol=1e-8)


def test_fixed_point_residual_bound():
    for seed in range(5):
        m = make_contraction(seed=400 + seed)
        tol = 1e-8
        j, trace = sspg.value_iteration(m, tol=tol)
        assert trace.outcome == sspg.CONVERGED
        assert np.abs(j - sspg.bellman(m, j)).max() <= 2 * tol


# ---------------------------------------------------------------------------
# brute-force equivalence on sequential games
# ---------------------------------------------------------------------------


def brute_force_value(m):
    """Exhaustive min over pure minimizer policies of max over pure maximizer
    policies, each pair evaluated exactly by the induced linear system."""
    best = None
    for mu in sspg.iter_pure_policies(m, 1):
        worst = None
        for nu in sspg.iter_pure_policies(m, 2):
            ev = sspg.evaluate_pair(m, mu, nu)
            assert not ev.prolonging  # termination floor keeps every pair proper
            worst = ev.values if worst is None else np.maximum(worst, ev.values)
        best = worst if best is None else np.minimum(best, worst)
    return best


def test_sequential_brute_force_equivalence():
    for seed in range(10):
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=3, max_controls=3, termination_floor=0.15,
                                 family="sequential", seed=500 + seed)
        )
        j, trace = sspg.value_iteration(m, tol=1e-12)
        assert trace.outcome == sspg.CONVERGED
        j, _ = sspg.refine_fixed_point(m, j)
        assert np.abs(j - brute_force_value(m)).max() <= 1e-8


def test_empty_control_set_is_named_not_unbound():
    # an unvalidated model: state 1 has no player-1 control, so no policy loop can start
    m = sspg.GameModel(["1", "2"], {"1": [], "2": ["a"]}, {"1": ["x"], "2": ["x"]},
                       {("2", "a", "x"): [("0", 1.0, 0.0)]})
    wording = "[empty-controls] state 1: empty control set for player 1"
    assert [str(f) for f in sspg.validate_model(m).findings if f.code == "empty-controls"] == [wording]
    nu = sspg.uniform_policy(m, 2)
    for call in (lambda: sspg.check_ssp_game_assumption(m), lambda: sspg.evaluate_vs_best_response(m, nu),
                 lambda: sspg.policy_iteration(m, 2, nu)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == wording
