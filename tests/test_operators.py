import hashlib
import json

import numpy as np
import pytest

import sspg
from conftest import make_contraction, make_terminal_only, random_policy, random_qtable, random_values


def random_cases(n_cases=40, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    for k in range(n_cases):
        m = make_contraction(seed=1000 + k, n_states=int(rng.integers(1, 5)),
                             max_controls=int(rng.integers(1, 4)), **kwargs)
        yield m, rng


def test_everett_backup_from_zero(everett):
    # induced stage matrix at J=0 is [[1,0],[0,1]]: no saddle, value 1/(1+1) = 0.5
    assert sspg.bellman(everett, [0.0]) == pytest.approx([0.5], abs=1e-9)


def test_everett_fixed_point(everett):
    assert sspg.bellman(everett, [1.0]) == pytest.approx([1.0], abs=1e-9)


def test_terminal_only_backup_ignores_values():
    m = make_terminal_only(seed=2)
    j1 = sspg.bellman(m, np.zeros(m.n))
    j2 = sspg.bellman(m, np.full(m.n, 37.5))
    assert np.allclose(j1, j2, atol=1e-12)
    stage = [sspg.solve_matrix_game(m.q_block(m.g, i)).value for i in range(1, m.n + 1)]
    assert np.allclose(j1, stage, atol=1e-12)


def test_minimax_equals_maximin():
    for m, rng in random_cases(30):
        j = random_values(m, rng)
        assert np.abs(sspg.bellman(m, j) - sspg.bellman_maximin(m, j)).max() < 1e-8


def test_maximin_equals_per_state_lp():
    # the per-state LP form: maximin(A) = -minimax(-A') on each state's block
    for family in sspg.FAMILIES:
        for k in range(6):
            m = sspg.generate_model(sspg.GeneratorConfig(n_states=1 + 3 * k, max_controls=1 + k % 5, family=family,
                                                         cost_range=(0.5, 2.0), seed=k))
            j = random_values(m, np.random.default_rng(k))
            q = m.g + m.P[:, 1:] @ j
            want = [-sspg.solve_matrix_game(-m.q_block(q, i).T).value for i in range(1, m.n + 1)]
            assert np.abs(sspg.bellman_maximin(m, j) - want).max() < 1e-12


def test_single_control_game_is_affine():
    m = make_contraction(seed=5, max_controls=1)
    rng = np.random.default_rng(0)
    j = random_values(m, rng)
    want = m.g + m.P[:, 1:] @ j  # one triplet per state
    assert np.allclose(sspg.bellman(m, j), want, atol=1e-12)
    assert np.allclose(sspg.bellman_maximin(m, j), want, atol=1e-12)


def test_everett_min_fixed_pure_one(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "1"})
    for j in ([-4.0], [0.0], [11.0]):
        assert sspg.bellman_min_fixed(everett, mu, j) == pytest.approx([1.0], abs=1e-12)


def test_everett_pair_backup(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "1"})
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    assert sspg.bellman_pair(everett, mu, nu, [123.0]) == pytest.approx([1.0], abs=1e-12)


def test_operator_chain_inequalities():
    for m, rng in random_cases(30):
        j = random_values(m, rng)
        mu = random_policy(m, 1, rng)
        nu = random_policy(m, 2, rng)
        t_mu = sspg.bellman_min_fixed(m, mu, j)
        t_nu = sspg.bellman_max_fixed(m, nu, j)
        t_pair = sspg.bellman_pair(m, mu, nu, j)
        t = sspg.bellman(m, j)
        t_tilde = sspg.bellman_maximin(m, j)
        eps = 1e-10
        assert (t_nu <= t_pair + eps).all() and (t_pair <= t_mu + eps).all()
        assert (t_nu <= t_tilde + eps).all()
        assert (t_tilde <= t + 1e-8).all()
        assert (t <= t_mu + eps).all()


def test_monotonicity():
    for m, rng in random_cases(20):
        x = random_values(m, rng)
        y = x + rng.uniform(0, 3, size=m.n)
        assert (sspg.bellman(m, x) <= sspg.bellman(m, y) + 1e-10).all()
        qx = random_qtable(m, rng)
        qy = qx + rng.uniform(0, 3, size=m.n_triplets)
        assert (sspg.q_bellman(m, qx) <= sspg.q_bellman(m, qy) + 1e-10).all()


def test_sup_norm_nonexpansive():
    for m, rng in random_cases(20):
        x, y = random_values(m, rng), random_values(m, rng)
        lhs = np.abs(sspg.bellman(m, x) - sspg.bellman(m, y)).max()
        assert lhs <= np.abs(x - y).max() + 1e-9
        qx, qy = random_qtable(m, rng), random_qtable(m, rng)
        lhs = np.abs(sspg.q_bellman(m, qx) - sspg.q_bellman(m, qy)).max()
        assert lhs <= np.abs(qx - qy).max() + 1e-9


def test_q_value_round_trip():
    for m, rng in random_cases(20):
        j = random_values(m, rng)
        assert np.allclose(
            sspg.values_from_q(m, sspg.q_from_values(m, j)),
            sspg.bellman(m, j),
            atol=1e-10,
        )
    m = make_contraction(seed=42)
    assert np.allclose(sspg.q_from_values(m, np.zeros(m.n)), m.g, atol=1e-15)


def test_q_backup_terminal_only_is_stage_cost():
    m = make_terminal_only(seed=9)
    rng = np.random.default_rng(1)
    q = random_qtable(m, rng)
    assert np.allclose(sspg.q_bellman(m, q), m.g, atol=1e-12)


def test_q_backup_scalar_fixed_point(self_loop):
    # single state/control self-loop: FQ = 1 + 0.5 Q, fixed point 2
    assert sspg.q_bellman(self_loop, [0.0]) == pytest.approx([1.0], abs=1e-15)
    assert sspg.q_bellman(self_loop, [2.0]) == pytest.approx([2.0], abs=1e-15)


def test_everett_q_table(everett):
    q = sspg.q_from_values(everett, [1.0])
    # canonical order (1,1,1),(1,1,2),(1,2,1),(1,2,2)
    assert np.allclose(q, [1.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert sspg.values_from_q(everett, q) == pytest.approx([1.0], abs=1e-9)
    assert np.allclose(sspg.q_bellman(everett, q), q, atol=1e-9)  # fixed point


def test_greedy_policies_matching_pennies():
    m = sspg.GameModel(
        ["1"], {"1": ["a", "b"]}, {"1": ["x", "y"]},
        {("1", "a", "x"): [("0", 1.0, 1.0)],
         ("1", "a", "y"): [("0", 1.0, -1.0)],
         ("1", "b", "x"): [("0", 1.0, -1.0)],
         ("1", "b", "y"): [("0", 1.0, 1.0)]},
    )
    mu, nu = sspg.greedy_policies(m, m.g)
    assert np.allclose(mu.rule("1"), [0.5, 0.5], atol=1e-9)
    assert np.allclose(nu.rule("1"), [0.5, 0.5], atol=1e-9)


def test_greedy_policies_pure_saddle():
    m = make_terminal_only(seed=3)
    mu, nu = sspg.greedy_policies(m, m.g)
    for i, s in enumerate(m.states, start=1):
        block = m.q_block(m.g, i)
        sol = sspg.solve_matrix_game(block)
        v_row, _ = sspg.best_response_value(block, mu.rule(s), "row")
        v_col, _ = sspg.best_response_value(block, nu.rule(s), "col")
        assert v_row <= sol.value + 1e-8
        assert v_col >= sol.value - 1e-8


# sha256 of the greedy pair's JSON on two games with 3x3 blocks, at continuous
# and at small-integer (tied) values: policy output depends on the LP's
# tie-breaking, so these bytes must not move
GREEDY_PINS = {
    (4, "continuous"): "ca08a608ab9101b51ac576ef2782630c7935ee9db7b5982e855394cfff04b54f",
    (9, "integer"): "353f3a40a087b964d87599a37391db0326e0f9d19e15af6f543df65d9e6af70a",
}


@pytest.mark.parametrize("key", list(GREEDY_PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_greedy_policies_pins(key):
    seed, kind = key
    m = sspg.generate_model(sspg.GeneratorConfig(n_states=6, max_controls=3, termination_floor=0.1,
                                                 family="contraction", seed=seed))
    assert any(m.state_block(i)[1:] == (3, 3) for i in range(1, m.n + 1))
    rng = np.random.default_rng(seed)
    j = rng.integers(-3, 4, size=m.n).astype(float) if kind == "integer" else rng.uniform(-10, 10, size=m.n)
    mu, nu = sspg.greedy_policies(m, sspg.q_from_values(m, j))
    doc = json.dumps([mu.to_json(m), nu.to_json(m)])
    assert hashlib.sha256(doc.encode()).hexdigest() == GREEDY_PINS[key]


def ref_greedy_policies(m, q):
    """The per-state loop that greedy_policies replaced: one solve_matrix_game per state."""
    rules1, rules2 = {}, {}
    for i, s in enumerate(m.states, start=1):
        sol = sspg.solve_matrix_game(m.q_block(q, i))
        rules1[s], rules2[s] = sol.row_strategy, sol.col_strategy
    return rules1, rules2


def terminating_game(rng, n_states, max_controls):
    """Random control sets up to max_controls (the generator stops at 8), state 1 the widest; all triplets end."""
    states = [str(i) for i in range(1, n_states + 1)]
    c1, c2 = ({s: [f"c{k}" for k in range(max_controls if s == "1" else int(rng.integers(1, max_controls + 1)))]
               for s in states} for _ in range(2))
    return sspg.GameModel(states, c1, c2, {(s, u, v): [("0", 1.0, 0.0)] for s in states for u in c1[s] for v in c2[s]})


def test_greedy_policies_equal_per_state_reference():
    rng = np.random.default_rng(91)
    shapes = set()
    for k in range(126):
        n, controls = int(rng.integers(1, 7)), 1 + k % 9
        m = terminating_game(rng, n, controls) if controls == 9 else make_contraction(1300 + k, n, controls)
        if k % 2:
            q = rng.uniform(-10, 10, size=m.n_triplets)
        else:  # ties, signed zeros included
            q = rng.integers(-2, 3, size=m.n_triplets).astype(float)
            q[q == 0.0] *= rng.choice([1.0, -1.0], size=int((q == 0.0).sum()))
        mu, nu = sspg.greedy_policies(m, q)
        rules1, rules2 = ref_greedy_policies(m, q)
        for s in m.states:
            assert mu.rule(s).tobytes() == rules1[s].tobytes(), (k, s)
            assert nu.rule(s).tobytes() == rules2[s].tobytes(), (k, s)
        shapes.update(m.state_block(i)[1:] for i in range(1, m.n + 1))
    assert {(1, 1), (2, 2), (9, 9)} <= shapes and any(min(s) == 1 < max(s) for s in shapes)


def test_everett_greedy_certificate_at_fixed_point(everett):
    q = sspg.q_from_values(everett, [1.0])
    mu, nu = sspg.greedy_policies(everett, q)
    block = everett.q_block(q, 1)
    v_nu, _ = sspg.best_response_value(block, nu.rule("1"), "col")
    v_mu, _ = sspg.best_response_value(block, mu.rule("1"), "row")
    assert v_nu >= 1.0 - 1e-8
    assert v_mu <= 1.0 + 1e-8


def test_policy_player_mismatch(everett):
    nu = sspg.uniform_policy(everett, 2)
    with pytest.raises(sspg.PolicyMismatchError):
        sspg.bellman_min_fixed(everett, nu, [0.0])


@pytest.mark.parametrize("call,message", [
    (lambda m: sspg.bellman(m, [0.0, 1.0]), "value vector needs shape (1,), got (2,)"),
    (lambda m: sspg.q_from_values(m, 0.0), "value vector needs shape (1,), got ()"),
    (lambda m: sspg.q_bellman(m, [0.0]), "Q-table needs shape (4,), got (1,)"),
    (lambda m: sspg.greedy_policies(m, np.zeros((2, 2))), "Q-table needs shape (4,), got (2, 2)"),
])
def test_operators_refuse_tables_of_another_shape(everett, call, message):
    with pytest.raises(ValueError) as info:
        call(everett)
    assert str(info.value) == message
