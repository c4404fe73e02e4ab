import dataclasses
import hashlib

import numpy as np
import pytest

import sspg
from sspg.diagnostics import _lower_kernel
from sspg.qlearn import derived_columns
from sspg.model import policy_average
from conftest import make_contraction, make_terminal_only, random_policy, random_qtable


@pytest.fixture(scope="module")
def recorded_run():
    m = make_contraction(seed=50, n_states=4, max_controls=2)
    cfg = sspg.QLearnConfig(seed=3, max_iters=5000, scheduler="uniform-random:1",
                            delay_model=("uniform", 5), record_full_history=True)
    q, run = sspg.run_qlearning(m, cfg)
    return m, q, run


# ---------------------------------------------------------------------------
# pinned-policy Q-backup
# ---------------------------------------------------------------------------


def test_pinned_backup_terminal_only():
    m = make_terminal_only(seed=51)
    rng = np.random.default_rng(0)
    for _ in range(5):
        nu = random_policy(m, 2, rng)
        q = random_qtable(m, rng)
        assert np.allclose(sspg.q_bellman_max_fixed(m, nu, q), m.g, atol=1e-12)


def test_pinned_backup_below_minimax():
    rng = np.random.default_rng(1)
    for seed in range(10):
        m = make_contraction(seed=800 + seed)
        nu = random_policy(m, 2, rng)
        q = random_qtable(m, rng)
        assert (
            sspg.q_bellman_max_fixed(m, nu, q) <= sspg.q_bellman(m, q) + 1e-10
        ).all()


def test_pinned_backup_scalar_fixed_point(self_loop):
    nu = sspg.uniform_policy(self_loop, 2)
    # singleton controls: coincides with the minimax backup, fixed point 2
    q = np.zeros(1)
    for _ in range(200):
        q = sspg.q_bellman_max_fixed(self_loop, nu, q)
    assert q[0] == pytest.approx(2.0, abs=1e-9)
    assert sspg.q_bellman_max_fixed(self_loop, nu, [2.0]) == pytest.approx([2.0])


def test_pinned_backup_monotone_nonexpansive():
    rng = np.random.default_rng(2)
    m = make_contraction(seed=52)
    nu = random_policy(m, 2, rng)
    for _ in range(20):
        x = random_qtable(m, rng)
        y = x + rng.uniform(0, 2, size=m.n_triplets)
        fx, fy = sspg.q_bellman_max_fixed(m, nu, x), sspg.q_bellman_max_fixed(m, nu, y)
        assert (fx <= fy + 1e-10).all()
        z = random_qtable(m, rng)
        fz = sspg.q_bellman_max_fixed(m, nu, z)
        assert np.abs(fx - fz).max() <= np.abs(x - z).max() + 1e-9


# ---------------------------------------------------------------------------
# contraction certificate
# ---------------------------------------------------------------------------


def test_certificate_all_terminal():
    m = make_terminal_only(seed=53)
    cert = sspg.build_contraction_certificate(m, sspg.uniform_policy(m, 2))
    assert np.allclose(cert.xi, 1.0, atol=1e-9)
    assert cert.beta == pytest.approx(0.0, abs=1e-9)


def test_certificate_self_loop(self_loop):
    cert = sspg.build_contraction_certificate(self_loop, sspg.uniform_policy(self_loop, 2))
    assert cert.xi[0] == pytest.approx(2.0, abs=1e-9)
    assert cert.beta == pytest.approx(0.5, abs=1e-9)


def test_certificate_requires_proper_policy(everett):
    looper = sspg.pure_policy(everett, 2, {"1": "1"})
    with pytest.raises(sspg.ImproperPolicyError, match="proper"):
        sspg.build_contraction_certificate(everett, looper)


def test_certificate_inequality_and_contraction():
    rng = np.random.default_rng(3)
    for seed in range(10):
        kappa = 0.1 + 0.05 * (seed % 3)
        m = make_contraction(seed=900 + seed, n_states=3, max_controls=2, kappa=kappa)
        nu = random_policy(m, 2, rng)
        cert = sspg.build_contraction_certificate(m, nu)
        assert (cert.xi >= 1.0 - 1e-12).all()
        assert 0.0 <= cert.beta < 1.0
        # hitting-time bound: expected steps to terminate <= 1/kappa
        assert cert.beta <= 1.0 - kappa + 1e-9
        assert (cert.xi <= 1.0 / kappa + 1e-9).all()
        # the defining inequality, triplet by triplet
        sup_xi_nu = np.array([x.max() for x in cert.xi_nu])
        assert ((m.P[:, 1:] @ sup_xi_nu) <= cert.beta * cert.xi + 1e-8).all()
        # weighted-norm contraction on random pairs
        for _ in range(25):
            qa, qb = random_qtable(m, rng), random_qtable(m, rng)
            lhs = cert.weighted_norm(
                sspg.q_bellman_max_fixed(m, nu, qa) - sspg.q_bellman_max_fixed(m, nu, qb)
            )
            assert lhs <= (cert.beta + 1e-8) * cert.weighted_norm(qa - qb)


def ref_auxiliary_costs(m, nu, tol=1e-13, max_iter=10**6):
    """The certificate's auxiliary costs by value iteration from zero (the former solver)."""
    p, offsets = policy_average(m, m.P[:, 1:], nu=nu)
    h = np.zeros(m.n)
    for _ in range(max_iter):
        h1 = np.minimum.reduceat(-1.0 + p @ h, offsets)
        if np.abs(h1 - h).max() <= tol:
            return h1
        h = h1
    raise AssertionError("auxiliary cost iteration did not converge")


def test_certificate_matches_value_iteration_reference(self_loop):
    rng = np.random.default_rng(4)
    cases = [(self_loop, sspg.uniform_policy(self_loop, 2))]
    for seed in range(8):
        m = make_contraction(seed=950 + seed, n_states=5, max_controls=3, kappa=0.1 + 0.1 * (seed % 3))
        cases += [(m, sspg.uniform_policy(m, 2)), (m, random_policy(m, 2, rng))]
    for m, nu in cases:
        cert = sspg.build_contraction_certificate(m, nu)
        h = ref_auxiliary_costs(m, nu)
        np.testing.assert_allclose(cert.state_costs, h, rtol=0.0, atol=1e-9)
        xi = 1.0 - m.P[:, 1:] @ h
        assert cert.beta == pytest.approx(max(float(((xi - 1.0) / xi).max()), 0.0), abs=1e-9)


def test_certificate_serializes(self_loop):
    cert = sspg.build_contraction_certificate(self_loop, sspg.uniform_policy(self_loop, 2))
    doc = cert.to_json(self_loop)
    assert doc["beta"] == pytest.approx(0.5, abs=1e-9)
    assert doc["xi"][0]["xi"] == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# coupled lower process
# ---------------------------------------------------------------------------


def test_coupling_no_violations(recorded_run):
    m, q, run = recorded_run
    rng = np.random.default_rng(4)
    for nu in (sspg.uniform_policy(m, 2), random_policy(m, 2, rng)):
        report = sspg.run_coupled_lower_process(m, nu, run)
        assert report.ok
        assert (report.min_margin >= -1e-9).all()
        assert (q >= report.qhat_final - 1e-9).all()


def _lower_value_loop(s, vals):
    """The coupled process's block value before its kernels: one loop per row, then the min."""
    rows = []
    for row in range(0, len(vals), len(s)):
        acc = 0.0
        for k, p in enumerate(s):
            acc += p * vals[row + k]
        rows.append(acc)
    return min(rows)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_lower_kernel_equals_the_loop_bitwise(nu, nv):
    """Weights with zeros, ties and signed zeros in the block; the padding of a
    position row is out of range, so a kernel that read it would raise."""
    rng = np.random.default_rng(nu * 10 + nv)
    size = nu * nv
    for k in range(150):
        s = rng.dirichlet(np.ones(nv))
        if k % 2 and nv > 1:
            s[rng.permutation(nv)[: rng.integers(1, nv)]] = 0.0
            s /= s.sum()
        vals = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=size) if k % 3 else rng.uniform(-10, 10, size=size)
        table = rng.uniform(-10, 10, size=3 * size).tolist()
        at = rng.permutation(len(table))[:size]
        for x, v in zip(at.tolist(), vals.tolist()):
            table[x] = v
        got = _lower_kernel(s.tolist(), nu)(table, at.tolist() + [10**9] * (16 - size))
        want = _lower_value_loop(s.tolist(), vals.tolist())
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (k, s, vals)


def test_coupling_terminal_only_tight():
    m = make_terminal_only(seed=54)
    cfg = sspg.QLearnConfig(seed=6, max_iters=4000, scheduler="all", record_full_history=True)
    q, run = sspg.run_qlearning(m, cfg)
    report = sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, 2), run)
    # both processes relax toward the realized costs: the coupling is tight
    assert np.abs(report.qhat_final - q).max() == 0.0
    assert np.abs(q - m.g).max() <= 1e-2


def test_coupling_singleton_maximizer_identical():
    m = sspg.generate_model(
        sspg.GeneratorConfig(n_states=3, max_controls=1, termination_floor=0.2, seed=55)
    )
    cfg = sspg.QLearnConfig(seed=2, max_iters=3000, scheduler="uniform-random:2",
                            delay_model=("uniform", 3), record_full_history=True)
    q, run = sspg.run_qlearning(m, cfg)
    report = sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, 2), run)
    assert (report.qhat_final == q).all()


def test_coupling_requires_history():
    m = make_contraction(seed=56)
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(seed=0, max_iters=10))
    with pytest.raises(ValueError, match="history"):
        sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, 2), run)


def test_coupling_csv(tmp_path, recorded_run):
    m, q, run = recorded_run
    report = sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, 2), run)
    path = tmp_path / "coupling.csv"
    report.to_csv(path, m)
    lines = open(path).read().splitlines()
    assert lines[0] == "i,u,v,min_margin"
    assert len(lines) == m.n_triplets + 1


def _swap_negate(m):
    """Swap the players' roles and negate costs (the maximizer's viewpoint)."""
    transitions = {(i, v, u): tuple((j, p, -c) for j, p, c in row)
                   for (i, u, v), row in m.transitions.items()}
    return sspg.GameModel(m.states, m.controls2, m.controls1, transitions)


def test_upper_coupling_via_negated_swapped_game(recorded_run):
    """Upper coupling has no separate code path: the lower-process machinery
    applied to the negated role-swapped game bounds runs on that game, which
    is the upper-bound statement for negated iterates."""
    m, q, run = recorded_run
    m_neg = _swap_negate(m)
    cfg = sspg.QLearnConfig(seed=run.config.seed, max_iters=2000,
                            scheduler=run.config.scheduler,
                            delay_model=run.config.delay_model,
                            record_full_history=True)
    _, run_neg = sspg.run_qlearning(m_neg, cfg)
    report = sspg.run_coupled_lower_process(m_neg, sspg.uniform_policy(m_neg, 2), run_neg)
    assert report.ok


# ---------------------------------------------------------------------------
# trackers
# ---------------------------------------------------------------------------


def _update_trackers(state, event):
    """The fold oracle: one recorded event ``(ell, gamma, j, cost)`` applied to a
    copy of ``state``; untouched components are unchanged."""
    ell, gamma, j, cost = event
    g = state.g_tilde.copy()
    qh = state.q_hat.copy()
    g[ell] = (1.0 - gamma) * g[ell] + gamma * cost
    qh[ell] *= 1.0 - gamma
    qh[ell, j] += gamma
    return sspg.TrackerState(g, qh)


def _fold_trackers(m, run):
    """The trackers of a recorded run as a fold of single-event updates, from
    g_tilde = Q0 * 0.0 (so -0.0 where Q0 is negative) and q_hat = P."""
    state = sspg.TrackerState(run.q0 * 0.0, m.P.copy())
    ev = run.events
    cost, gamma = derived_columns(m, run.config, ev)
    for event in zip(ev.ell.tolist(), gamma.tolist(), ev.j.tolist(), cost.tolist()):
        state = _update_trackers(state, event)
    return state


def _with_outside_successors(m, run, events):
    """The run with each listed event's successor moved to the last state outside its kernel row."""
    j = run.events.j.copy()
    for k in events:
        j[k] = int(np.flatnonzero(m.P[run.events.ell[k]] == 0.0)[-1])
    return dataclasses.replace(run, events=dataclasses.replace(run.events, j=j))


def _outside_candidates(m, run):
    """Events whose kernel row leaves some state out."""
    return [k for k, ell in enumerate(run.events.ell) if (m.P[ell] == 0.0).any()]


def test_tracker_first_update_overwrites(self_loop):
    state = sspg.TrackerState.initial(self_loop)
    new = _update_trackers(state, (0, 1.0, 1, 4.5))
    assert new.g_tilde[0] == 4.5
    assert new.q_hat[0].tolist() == [0.0, 1.0]
    # pure function: the input state is untouched
    assert state.g_tilde[0] == 0.0
    assert state.q_hat[0].tolist() == [0.5, 0.5]


def test_tracker_deterministic_transitions_pin_unit_vector():
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("1", 1.0, 2.0)]})
    state = sspg.TrackerState.initial(m)
    for k in range(10):
        state = _update_trackers(state, (0, 1.0 / (1 + k) ** 0.75, 1, 2.0))
        assert state.q_hat[0].tolist() == [0.0, 1.0]
    assert state.g_tilde[0] == pytest.approx(2.0, abs=1e-12)


def test_tracker_batch_matches_pure_updates():
    m = make_contraction(seed=59, n_states=3, max_controls=2)
    cfg = sspg.QLearnConfig(seed=4, max_iters=300, scheduler="uniform-random:2",
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    batch = sspg.run_trackers(m, run)
    state = sspg.TrackerState.initial(m)
    ev = run.events
    cost, gamma = derived_columns(m, cfg, ev)
    for k in range(len(ev)):
        state = _update_trackers(
            state, (int(ev.ell[k]), float(gamma[k]), int(ev.j[k]), float(cost[k]))
        )
    assert np.allclose(state.g_tilde, batch.g_tilde, atol=0.0)
    assert np.allclose(state.q_hat, batch.q_hat, atol=0.0)


def test_tracker_convergence_and_support():
    m = make_contraction(seed=57, n_states=3, max_controls=2)
    cfg = sspg.QLearnConfig(seed=1, max_iters=60_000, scheduler="all",
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    state = sspg.run_trackers(m, run)  # raises on any support escape
    assert np.abs(state.g_tilde - m.g).max() <= 0.02
    assert np.abs(state.q_hat - m.P).max() <= 0.02
    # support containment
    assert ((state.q_hat > 0) <= (m.P > 0)).all()


def test_tracker_requires_history():
    m = make_contraction(seed=58)
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(seed=0, max_iters=5))
    with pytest.raises(ValueError, match="history"):
        sspg.run_trackers(m, run)


@pytest.mark.parametrize("outside", [False, True])
def test_tracker_batch_equals_fold_bitwise(outside):
    m = make_contraction(seed=60, n_states=4, max_controls=2)
    cfg = sspg.QLearnConfig(seed=5, max_iters=400, scheduler="uniform-random:2",
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    if outside:
        # send a few sampled successors to a state outside their kernel row
        moved = _outside_candidates(m, run)[::7]
        assert moved
        run = _with_outside_successors(m, run, moved)
        with pytest.raises(AssertionError, match="outside kernel support"):
            sspg.run_trackers(m, run)
        return
    batch = sspg.run_trackers(m, run)
    state = sspg.TrackerState.initial(m)
    ev = run.events
    cost, gamma = derived_columns(m, run.config, ev)
    for event in zip(ev.ell.tolist(), gamma.tolist(), ev.j.tolist(), cost.tolist()):
        state = _update_trackers(state, event)
    assert state.g_tilde.tobytes() == batch.g_tilde.tobytes()
    assert state.q_hat.tobytes() == batch.q_hat.tobytes()


# scheduler, delay model, iterations, negative Q0, successors moved outside their kernel rows
TRACKER_CASES = {
    "uniform-random-1": ("uniform-random:1", ("uniform", 3), 1500, False, False),
    "uniform-random-3": ("uniform-random:3", "zero", 600, False, False),
    "all": ("all", "zero", 150, False, False),
    "round-robin-2": ("round-robin:2", ("fixed", (0, 2, 1)), 800, False, False),
    "custom-with-gaps": (("custom", [[0, 3], [], [], [1], [0, 2, 5], []]), "zero", 900, False, False),
    "skewed": ("skewed", "zero", 3000, False, False),
    "negative-q0": (("custom", [[1], [2, 3]]), "zero", 400, True, False),
    "zero-iterations": ("all", "zero", 0, False, False),
    "outside-support": ("uniform-random:2", "zero", 800, False, True),
}


@pytest.mark.parametrize("case", list(TRACKER_CASES))
def test_tracker_levels_equal_fold_bitwise(case):
    """The level pass against the fold oracle, bit for bit, on both trackers."""
    sched, delay, iters, negative, outside = TRACKER_CASES[case]
    m = make_contraction(seed=60, n_states=4, max_controls=2)
    if sched == "skewed":  # one component in 99 of 100 groups: mostly levels of width one
        sched = ("custom", [[0]] * 99 + [list(range(1, m.n_triplets))])
    cfg = sspg.QLearnConfig(seed=7, max_iters=iters, scheduler=sched, delay_model=delay,
                            record_full_history=True)
    q0 = -np.linspace(0.5, 2.0, m.n_triplets) if negative else None
    _, run = sspg.run_qlearning(m, cfg, q0=q0)
    if outside:
        moved = _outside_candidates(m, run)[::5]
        assert moved
        run = _with_outside_successors(m, run, moved)
        with pytest.raises(AssertionError, match="outside kernel support"):
            sspg.run_trackers(m, run)
        return
    got, want = sspg.run_trackers(m, run), _fold_trackers(m, run)
    assert got.g_tilde.tobytes() == want.g_tilde.tobytes()
    assert got.q_hat.tobytes() == want.q_hat.tobytes()
    if case == "skewed":
        assert run.counts[0] > 50 * run.counts[1:].max()
    if case == "negative-q0":  # components never updated keep g_tilde = -0.0
        idle = run.counts == 0
        assert idle.any() and np.signbit(got.g_tilde[idle]).all() and (got.g_tilde[idle] == 0.0).all()
    if case == "zero-iterations":
        assert len(run.events) == 0 and (got.q_hat == m.P).all()


def test_tracker_support_error_names_the_earliest_event():
    m = make_contraction(seed=60, n_states=4, max_controls=2)
    cfg = sspg.QLearnConfig(seed=5, max_iters=400, scheduler="uniform-random:2",
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    candidates = _outside_candidates(m, run)
    first = candidates[len(candidates) // 2]
    ell = int(run.events.ell[first])
    # later bad events on other triplets, listed first
    later = [k for k in candidates if k > first and run.events.ell[k] != ell][::-3]
    assert len(later) >= 3
    run = _with_outside_successors(m, run, [*later, first])
    j = int(run.events.j[first])
    with pytest.raises(AssertionError) as err:
        sspg.run_trackers(m, run)
    assert str(err.value) == f"sampled successor {j} outside kernel support of {m.triplets[ell]}"


# ---------------------------------------------------------------------------
# coupled-replay pins on every block shape the coupled kernel tells apart
# ---------------------------------------------------------------------------

# blocks 1x1, 1x2, 1x3, 2x1, 3x1, 4x1, 2x2, 2x3, 3x2, 3x3, 3x4 and 4x4
WIDE_GAME = dict(n_states=16, max_controls=4, family="loopy", cost_range=(0.5, 1.0), seed=31)
# (scheduler, delay model, iterations): hashed offsets, the memoised zero-delay path, fixed offsets
WIDE_RUNS = {
    "uniform-random:1-uniform-5": ("uniform-random:1", ("uniform", 5), 3000),
    "all-zero": ("all", "zero", 30),
    "round-robin:3-fixed": ("round-robin:3", ("fixed", (0, 2, 1, 3)), 1000),
}
# (the run's digest, sha256 of the coupled qhat_events, qhat_final and min_margin)
GOLDEN_COUPLED = {
    "uniform-random:1-uniform-5": (
        "49e63764ce50a92028b1e4b875a171611ed44bb81af55e156559be2429a426f6",
        "364600cb59a9c29e85e1f1b707731ac5d255f8bfcc48b6482c4f60dcbf3e0e47",
    ),
    "all-zero": (
        "dbd17aaa42c965dcc442ef4a2859575ceaee8158e14bb31e632da2bdf0b37868",
        "e8b4385eac891196e6047de3c8e04c4483efae0aab220119264ddfd7a5ad14a0",
    ),
    "round-robin:3-fixed": (
        "2fb869f982b1d7d1dc33a089e5ba85bece7399ae5932938ff48ee068e510c4c0",
        "67d7ac997b7be14a3b227265096e20781615ea8cde1b31ac18681e017c7b3ec4",
    ),
}


def _skewed_policy(m):
    """The maximizer's weight k / (0 + 1 + ... + (n - 1)) on its k-th of n controls: zeros and unequal mixes."""
    return sspg.StationaryPolicy(sspg.PLAYER_MAX, {
        s: np.arange(n) / (n * (n - 1) / 2) if n > 1 else np.ones(1)
        for s, n in ((s, len(m.controls2[s])) for s in m.states)})


@pytest.mark.parametrize("name", list(WIDE_RUNS))
def test_golden_coupled_replays_on_every_block_shape(name):
    m = sspg.generate_model(sspg.GeneratorConfig(**WIDE_GAME))
    shapes = {m.state_block(i)[1:] for i in range(1, m.n + 1)}
    assert {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)} <= shapes
    sched, delay, iters = WIDE_RUNS[name]
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(seed=3, max_iters=iters, scheduler=sched, delay_model=delay,
                                                     record_full_history=True))
    rep = sspg.run_coupled_lower_process(m, _skewed_policy(m), run)
    got = hashlib.sha256(b"".join(a.tobytes() for a in (rep.qhat_events, rep.qhat_final, rep.min_margin)))
    assert rep.ok and (run.digest(), got.hexdigest()) == GOLDEN_COUPLED[name]
