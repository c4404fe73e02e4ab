import math
import warnings

import numpy as np
import pytest

import sspg
from conftest import make_contraction, make_ring, make_terminal_only, random_policy
from sspg.structure import InducedChain, _end_components, _staying_set, _support_rows, count_pure_policies


def chain_from(p_rows, costs, labels):
    n = len(labels)
    P = np.zeros((n + 1, n + 1))
    P[0, 0] = 1.0
    for i, row in enumerate(p_rows, start=1):
        P[i] = row
    c = np.concatenate([[0.0], costs])
    return InducedChain(P, c, tuple(labels))


def test_induce_chain_pure_copies_rows(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "1"})
    nu = sspg.pure_policy(everett, 2, {"1": "2"})
    chain = sspg.induce_chain(everett, mu, nu)
    k = everett.triplet_index(("1", "1", "2"))
    assert np.allclose(chain.P[1], everett.P[k], atol=1e-15)
    assert chain.costs[1] == everett.g[k]


def test_induce_chain_everett_loop(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "2"})
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    chain = sspg.induce_chain(everett, mu, nu)
    assert chain.P[1, 1] == 1.0
    assert chain.costs[1] == 0.0


def test_induce_chain_everett_uniform(everett):
    # four equiprobable cells: three terminate, the two u=v cells cost 1
    mu = sspg.uniform_policy(everett, 1)
    nu = sspg.uniform_policy(everett, 2)
    chain = sspg.induce_chain(everett, mu, nu)
    assert chain.P[1, 0] == pytest.approx(0.75, abs=1e-12)
    assert chain.costs[1] == pytest.approx(0.5, abs=1e-12)


def test_reach_probability_one_simple():
    all_term = chain_from([[1.0, 0.0]], [0.0], ["1"])
    assert sspg.reach_probability_one(all_term).all()
    stuck = chain_from([[0.0, 1.0]], [0.0], ["1"])
    assert not sspg.reach_probability_one(stuck).any()


def test_reach_probability_one_everett_loop(everett):
    mu = sspg.pure_policy(everett, 1, {"1": "2"})
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    assert not sspg.reach_probability_one(sspg.induce_chain(everett, mu, nu))[0]


def test_reach_matches_absorption_probabilities():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        P = np.zeros((n + 1, n + 1))
        P[0, 0] = 1.0
        for i in range(1, n + 1):
            row = rng.random(n + 1) * (rng.random(n + 1) < 0.6)
            if not row.any():
                row[int(rng.integers(n + 1))] = 1.0
            P[i] = row / row.sum()
        chain = InducedChain(P, np.zeros(n + 1), tuple(str(i) for i in range(1, n + 1)))
        flag = sspg.reach_probability_one(chain)
        # oracle: monotone power iteration of q <- p0 + P_SS q from zero
        q = np.zeros(n)
        for _ in range(20_000):
            q = P[1:, 0] + P[1:, 1:] @ q
        assert (flag == (q >= 1 - 1e-9)).all()


def test_forall_exists_everett_cases(everett):
    mu1 = sspg.pure_policy(everett, 1, {"1": "1"})
    mu2 = sspg.pure_policy(everett, 1, {"1": "2"})
    assert sspg.forall_termination(everett, mu1).all()
    assert not sspg.forall_termination(everett, mu2).any()
    assert sspg.exists_termination(everett, mu2).all()


def test_forall_exists_trivial_cases():
    m = make_terminal_only(seed=20)
    for player in (1, 2):
        pol = sspg.uniform_policy(m, player)
        assert sspg.forall_termination(m, pol).all()
        assert sspg.exists_termination(m, pol).all()


def test_exists_termination_trap():
    # state 2 is an inescapable trap whatever either player does
    m = sspg.GameModel(
        ["1", "2"], {"1": ["a"], "2": ["a"]}, {"1": ["x", "y"], "2": ["x", "y"]},
        {("1", "a", "x"): [("0", 1.0, 0.0)],
         ("1", "a", "y"): [("2", 1.0, 0.0)],
         ("2", "a", "x"): [("2", 1.0, 0.0)],
         ("2", "a", "y"): [("2", 1.0, 0.0)]},
    )
    mu = sspg.uniform_policy(m, 1)
    et = sspg.exists_termination(m, mu)
    assert et[0] and not et[1]


def test_forall_exists_brute_force_agreement():
    rng = np.random.default_rng(23)
    for seed in range(12):
        m = sspg.generate_model(
            sspg.GeneratorConfig(n_states=3, max_controls=2, termination_floor=0.0,
                                 cost_range=(0.1, 1.0), family="loopy", seed=600 + seed)
        )
        fixed = random_policy(m, 1, rng)
        fa = sspg.forall_termination(m, fixed)
        ex = sspg.exists_termination(m, fixed)
        reaches = [
            sspg.reach_probability_one(sspg.induce_chain(m, fixed, nu))
            for nu in sspg.iter_pure_policies(m, 2)
        ]
        reaches = np.array(reaches)
        assert (fa == reaches.all(axis=0)).all()
        assert (ex == reaches.any(axis=0)).all()


def test_recurrent_classes_absorbing_only():
    chain = chain_from([[1.0, 0.0]], [5.0], ["1"])
    assert sspg.recurrent_class_gains(chain) == [(("0",), 0.0)]


def test_recurrent_classes_costly_self_loop():
    chain = chain_from([[0.0, 1.0]], [1.0], ["1"])
    got = dict(sspg.recurrent_class_gains(chain))
    assert got[("0",)] == 0.0
    assert got[("1",)] == pytest.approx(1.0, abs=1e-12)


def test_recurrent_classes_two_cycle_gain():
    # deterministic 2-cycle alternating costs +2, -1: stationary (1/2, 1/2), gain 0.5
    chain = chain_from([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [2.0, -1.0], ["1", "2"])
    got = dict(sspg.recurrent_class_gains(chain))
    assert got[("1", "2")] == pytest.approx(0.5, abs=1e-12)


def test_recurrent_class_gains_match_power_iteration():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        P = np.zeros((n + 1, n + 1))
        P[0, 0] = 1.0
        for i in range(1, n + 1):
            row = rng.random(n + 1) * (rng.random(n + 1) < 0.5)
            if not row.any():
                row[int(rng.integers(1, n + 1))] = 1.0
            P[i] = row / row.sum()
        costs = np.concatenate([[0.0], rng.uniform(-2, 2, n)])
        chain = InducedChain(P, costs, tuple(str(i) for i in range(1, n + 1)))
        for labels, gain in sspg.recurrent_class_gains(chain):
            idx = [0 if s == "0" else int(s) for s in labels]
            sub = P[np.ix_(idx, idx)]
            # Cesaro power iteration for the stationary distribution
            pi = np.full(len(idx), 1.0 / len(idx))
            acc = np.zeros(len(idx))
            for k in range(4000):
                pi = pi @ sub
                acc += pi
            pi = acc / 4000
            assert gain == pytest.approx(float(pi @ costs[idx]), abs=1e-8)


def test_essentially_proper_everett_no_witness(everett):
    nu = sspg.pure_policy(everett, 2, {"1": "1"})
    report = sspg.is_essentially_proper(everett, nu)
    assert report.verdict == "no"
    assert report.witness_policy is not None
    assert report.witness_policy.rule("1").tolist() == [0.0, 1.0]  # the looping row


def test_essentially_proper_terminal_model():
    m = make_terminal_only(seed=21)
    for player in (1, 2):
        assert sspg.is_essentially_proper(m, sspg.uniform_policy(m, player)).verdict == "yes"


def test_proper_implies_essentially_proper():
    m = make_contraction(seed=22)
    pol = sspg.uniform_policy(m, 1)
    assert sspg.forall_termination(m, pol).all()
    assert sspg.is_essentially_proper(m, pol).verdict == "yes"


def test_essentially_proper_no_terminating_response():
    # the opponent cannot force termination at all
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("1", 1.0, 1.0)]})
    report = sspg.is_essentially_proper(m, sspg.uniform_policy(m, 1))
    assert report.verdict == "no"
    assert report.witness_state == "1"


def test_assumption_contraction_family_holds():
    m = make_contraction(seed=23, n_states=4, max_controls=2)
    report = sspg.check_ssp_game_assumption(m)
    assert report.overall == "holds"
    assert report.caveats  # pure-policy sufficiency is spelled out


def test_assumption_everett_violated(everett):
    report = sspg.check_ssp_game_assumption(everett)
    assert report.overall == "violated"
    clause = report.clause_prolonging
    assert clause.status == "violated"
    assert clause.witness_mu.rule("1").tolist() == [0.0, 1.0]  # control 2
    assert clause.witness_nu.rule("1").tolist() == [1.0, 0.0]  # control 1
    assert clause.witness_states == ("1",)


def test_assumption_zerocost_violated(zerocost):
    report = sspg.check_ssp_game_assumption(zerocost)
    assert report.overall == "violated"
    clause = report.clause_prolonging
    assert clause.witness_mu.rule("1").tolist() == [0.0, 1.0]
    assert clause.witness_nu.rule("1").tolist() == [0.0, 1.0]


def test_assumption_safeguard_notes_pursuit(pursuit):
    doc = sspg.check_ssp_game_assumption(pursuit).to_json(pursuit)["clauses"]
    assert doc["safeguard_min"] == {
        "status": "holds",
        "note": "pure safeguard found for minimizer",
        "witness_mu": {"player": "I", "rules": {"1": {"chase": 1.0, "wait": 0.0}, "2": {"-": 1.0},
                                                "3": {"sprint": 1.0, "cut": 0.0}}},
    }
    assert doc["safeguard_max"] == {
        "status": "holds",
        "note": "pure safeguard found for maximizer",
        "witness_nu": {"player": "II", "rules": {"1": {"-": 1.0}, "2": {"run": 1.0, "hide": 0.0},
                                                 "3": {"-": 1.0}}},
    }


def test_assumption_inconclusive_past_the_pair_cap():
    # the cap counts the pure pairs local to the end components: here one
    # component of all ten states, with 4 triplets each
    m = make_ring(10)
    assert [c.tolist() for c in _end_components(m)] == [list(range(10))]
    report = sspg.check_ssp_game_assumption(m)
    note = f"end-component pure pair space {4**10} exceeds cap 1000000"
    for clause in (report.clause_safeguard_min, report.clause_safeguard_max, report.clause_prolonging):
        assert (clause.status, clause.note) == ("inconclusive", note)
    assert report.overall == "inconclusive"


def test_assumption_holds_past_the_pair_cap_without_end_components():
    # a contraction game has no end component, so none of its 8,388,608 pure
    # pairs is enumerated; the full pair space used to make it inconclusive
    m = sspg.generate_model(sspg.GeneratorConfig(n_states=20, max_controls=2, seed=0))
    pairs = count_pure_policies(m, sspg.PLAYER_MIN) * count_pure_policies(m, sspg.PLAYER_MAX)
    assert pairs == 8_388_608 and _end_components(m) == []
    report = sspg.check_ssp_game_assumption(m)
    assert report.overall == "holds"
    assert [(c.status, c.note) for c in (report.clause_safeguard_min, report.clause_safeguard_max,
                                         report.clause_prolonging)] == [
        ("holds", "pure safeguard found for minimizer"),
        ("holds", "pure safeguard found for maximizer"),
        ("holds", "every pure prolonging pair has an infinite total cost"),
    ]
    # with no end component, each safeguard is the player's first pure policy
    for pol in (report.clause_safeguard_min.witness_mu, report.clause_safeguard_max.witness_nu):
        assert all(r[0] == 1.0 for r in pol.rules.values())


def test_assumption_overflowed_proper_pair_is_not_infinite():
    # the one pair terminates a.s. with total cost 2e308, which overflows to
    # +inf; proper pairs are never solved, so the overflow does not count as
    # +inf (it used to leave the minimizer without a pure safeguard)
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]}, {("1", "a", "x"): [("0", 0.5, 1e308), ("1", 0.5, 1e308)]})
    assert sspg.validate_model(m).ok and _end_components(m) == []
    with np.errstate(invalid="ignore"):
        assert np.isposinf(sspg.evaluate_pair(m, *(sspg.uniform_policy(m, p) for p in (1, 2))).values).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, trace = sspg.evaluate_vs_best_response(m, sspg.uniform_policy(m, 2))
        report = sspg.check_ssp_game_assumption(m)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning) and w.filename.endswith("solve.py")]
    assert np.isposinf(x).all() and not trace.rows
    assert (trace.outcome, trace.note) == ("diverging", "the total cost from state 1 leaves the float range")
    assert report.clause_safeguard_min.status == "holds" and report.overall == "holds"
    # each safeguard's best response stops at the overflowed evaluation and says where
    overflow = "best response diverging: the total cost from state 1 leaves the float range"
    assert [c.note for c in (report.clause_safeguard_min, report.clause_safeguard_max)] == [
        f"pure safeguard found for {who} ({overflow}; pure-pair evidence only)" for who in ("minimizer", "maximizer")]


def test_assumption_report_serializes(everett):
    doc = sspg.check_ssp_game_assumption(everett).to_json(everett)
    assert doc["overall"] == "violated"
    assert doc["clauses"]["prolonging_pairs"]["witness_mu"]["rules"]["1"]["2"] == 1.0


def test_sspa_pure_policy_rows(everett):
    nu = sspg.pure_policy(everett, 2, {"1": "2"})
    sspa = sspg.build_sspa(everett, nu)
    # u=1 against v=2 terminates with cost 0; u=2 against v=2 terminates with cost 1
    assert sspa.s_probs[0][0, 0] == 1.0 and sspa.s_costs[0][0] == 0.0
    assert sspa.s_probs[0][1, 0] == 1.0 and sspa.s_costs[0][1] == 1.0


def test_sspa_uniform_average(everett):
    nu = sspg.uniform_policy(everett, 2)
    sspa = sspg.build_sspa(everett, nu)
    # u=2 row: half the mass terminates (v=2, cost 1), half loops (v=1, cost 0)
    assert sspa.s_probs[0][1, 0] == pytest.approx(0.5, abs=1e-12)
    assert sspa.s_probs[0][1, 1] == pytest.approx(0.5, abs=1e-12)
    assert sspa.s_costs[0][1] == pytest.approx(0.5, abs=1e-12)


def test_single_player_check_terminal():
    m = make_terminal_only(seed=24)
    sspa = sspg.build_sspa(m, sspg.uniform_policy(m, 2))
    assert sspg.check_single_player_ssp(sspa).status == "holds"


def test_single_player_check_zero_cost_loop(zerocost):
    nu = sspg.pure_policy(zerocost, 2, {"1": "2"})
    sspa = sspg.build_sspa(zerocost, nu)
    verdict = sspg.check_single_player_ssp(sspa)
    assert verdict.status == "violated"
    assert verdict.witness == {"1": "2"}


def test_single_player_check_contraction_family():
    for seed in range(5):
        m = make_contraction(seed=700 + seed)
        nu = sspg.uniform_policy(m, 2)
        assert sspg.is_essentially_proper(m, nu).verdict == "yes"
        assert sspg.check_single_player_ssp(sspg.build_sspa(m, nu)).status == "holds"


# ---------------------------------------------------------------------------
# Exact total costs of prolonging chains
# ---------------------------------------------------------------------------


def test_classify_periodic_zero_gain_cycle_exact():
    # 1 -> 2 -> 3 -> 1 with costs (1, -1, 0): gain 0, period 3; the partial
    # sums cycle and their Cesaro limits are (1/3, -2/3, 1/3)
    chain = chain_from([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]], [1.0, -1.0, 0.0], ["1", "2", "3"])
    cls = sspg.classify_chain(chain)
    assert cls.prolonging
    np.testing.assert_allclose(cls.values, [1 / 3, -2 / 3, 1 / 3], rtol=0, atol=1e-12)
    assert cls.flags == ("oscillating-partial-sums", "zero-gain-prolonging")


def test_classify_aperiodic_zero_gain_class():
    # a self-loop makes the class aperiodic; stationary (2/3, 1/3), costs (1, -2)
    chain = chain_from([[0, 0.5, 0.5], [0, 1, 0]], [1.0, -2.0], ["1", "2"])
    cls = sspg.classify_chain(chain)
    np.testing.assert_allclose(cls.values, [2 / 3, -4 / 3], rtol=0, atol=1e-12)
    assert cls.flags == ("zero-gain-prolonging",)


def test_classify_periodic_class_without_oscillation():
    # period 2 with subclasses {1} and {2, 3}; each has zero weighted cost
    chain = chain_from([[0, 0, 0.5, 0.5], [0, 1, 0, 0], [0, 1, 0, 0]], [0.0, 1.0, -1.0], ["1", "2", "3"])
    cls = sspg.classify_chain(chain)
    np.testing.assert_allclose(cls.values, [0.0, 1.0, -1.0], rtol=0, atol=1e-12)
    assert cls.flags == ("zero-gain-prolonging",)


def test_classify_mixed_sign_gains_zero_drift():
    # state 1 enters a +1 loop or a -1 loop with equal odds: drift 0, undetermined
    chain = chain_from([[0, 0, 0.5, 0.5], [0, 0, 1, 0], [0, 0, 0, 1]], [0.0, 1.0, -1.0], ["1", "2", "3"])
    cls = sspg.classify_chain(chain)
    assert np.isnan(cls.values[0]) and cls.values[1:].tolist() == [np.inf, -np.inf]
    assert cls.flags == ("mixed-sign-gains", "undetermined-total-cost")


@pytest.mark.parametrize("cost", [1.0, -1.0])
def test_classify_tiny_path_into_a_signed_class(cost):
    # 1 -> 0 w.p. 1 - 1e-13 and 1 -> 2 w.p. 1e-13, where 2 loops at cost +-1: the
    # loop is reached with positive probability, so both totals are infinite
    chain = chain_from([[1 - 1e-13, 0, 1e-13], [0, 0, 1]], [0.0, cost], ["1", "2"])
    cls = sspg.classify_chain(chain)
    assert cls.values.tolist() == [math.copysign(np.inf, cost)] * 2
    assert cls.prolonging and cls.flags == ()


def _limiting_matrix(P):
    """Cesaro limit of P^t by averaging 60 = lcm(1..6) steps after a long burn-in."""
    Q = np.linalg.matrix_power(P, 2**20)
    acc = np.zeros_like(P)
    for _ in range(60):
        acc += Q
        Q = Q @ P
    return acc / 60


def test_classify_finite_values_solve_poisson_equation():
    # costs c = (I - P) f give every closed class gain 0; mixing in random
    # costs on some chains adds states with infinite totals
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(300):
        n = int(rng.integers(1, 7))
        P = np.zeros((n + 1, n + 1))
        P[0, 0] = 1.0
        for i in range(1, n + 1):
            if rng.random() < 0.4:
                P[i, int(rng.integers(n + 1))] = 1.0
            else:
                row = rng.random(n + 1) * (rng.random(n + 1) < 0.5)
                if not row.any():
                    row[int(rng.integers(n + 1))] = 1.0
                P[i] = row / row.sum()
        c = (np.eye(n + 1) - P) @ rng.uniform(-2, 2, n + 1)
        if trial % 3 == 0:
            c[1:][rng.random(n) < 0.3] += 1.0
        c[0] = 0.0
        cls = sspg.classify_chain(InducedChain(P, c, tuple(str(i) for i in range(1, n + 1))))
        if not cls.prolonging:
            continue
        fin = np.concatenate(([False], np.isfinite(cls.values)))
        if not fin.any():
            continue
        checked += 1
        h = np.where(fin, np.concatenate(([0.0], np.nan_to_num(cls.values))), 0.0)
        assert not P[np.ix_(fin, ~fin)][:, 1:].any()  # finite states only reach finite ones or 0
        np.testing.assert_allclose(h[fin], c[fin] + P[fin] @ h, rtol=0, atol=1e-9)
        np.testing.assert_allclose((_limiting_matrix(P) @ h)[fin], 0.0, rtol=0, atol=1e-9)
    assert checked > 100


def _proper_chain_solve(chain):
    """Total costs of a chain that terminates a.s. from every state: one solve of I - P on states 1..n."""
    n = chain.P.shape[0] - 1
    return np.linalg.solve(np.eye(n) - chain.P[1:, 1:], chain.costs[1:])


def test_classify_chain_of_proper_chains_is_one_solve_bitwise():
    rng = np.random.default_rng(43)
    sizes = [int(rng.integers(1, 41)) for _ in range(45)] + [120]
    for k, n in enumerate(sizes):
        m = make_contraction(seed=900 + k, n_states=n, max_controls=2,
                             cost_range=[(0.0, 1.0), (-5.0, 5.0), (1e3, 1e6)][k % 3])
        chain = sspg.induce_chain(m, random_policy(m, 1, rng), random_policy(m, 2, rng))
        costs = chain.costs.copy()
        costs[1:][rng.random(n) < 0.3] = 0.0  # zero-cost rows
        for c in (chain.costs, costs):
            proper = InducedChain(chain.P, c, chain.labels)
            assert sspg.reach_probability_one(proper).all()
            cls = sspg.classify_chain(proper)
            assert (cls.prolonging, cls.flags) == (False, ())
            assert cls.values.tobytes() == _proper_chain_solve(proper).tobytes(), (k, n)


def test_classify_chain_of_the_zero_state_chain():
    cls = sspg.classify_chain(InducedChain(np.ones((1, 1)), np.zeros(1), ()))
    assert (cls.values.shape, cls.prolonging, cls.flags) == ((0,), False, ())


def test_forall_termination_with_an_empty_staying_set():
    # every row reaches 0 with probability at least 0.1, so no response stays away from it
    m = make_contraction(seed=31, n_states=6, max_controls=3)
    for player in (1, 2):
        pol = sspg.uniform_policy(m, player)
        assert not _staying_set(*_support_rows(m, pol)).any()
        assert sspg.forall_termination(m, pol).tolist() == [True] * m.n


def test_assumption_clause3_inconclusive_on_pure_pairs_of_both_infinities():
    # (a, x) loops at cost 1 and (a, y) at cost -1, b stops: every pure prolonging pair has an
    # infinite total cost, yet (a, x/2 + y/2) loops at expected stage cost 0
    m = sspg.GameModel(["1"], {"1": ["a", "b"]}, {"1": ["x", "y"]},
                       {("1", "a", "x"): [("1", 1.0, 1.0)], ("1", "a", "y"): [("1", 1.0, -1.0)],
                        ("1", "b", "x"): [("0", 1.0, 0.0)], ("1", "b", "y"): [("0", 1.0, 0.0)]})
    half = sspg.StationaryPolicy(2, {"1": np.array([0.5, 0.5])})
    cls = sspg.classify_chain(sspg.induce_chain(m, sspg.pure_policy(m, 1, {"1": "a"}), half))
    assert cls.flags == ("zero-gain-prolonging",) and cls.values.tolist() == [0.0]
    report = sspg.check_ssp_game_assumption(m)
    assert [c.status for c in (report.clause_safeguard_min, report.clause_safeguard_max)] == ["holds", "holds"]
    assert report.clause_prolonging == sspg.structure.ClauseVerdict(
        "inconclusive", "end component {1} has pure pairs of total cost +inf and -inf; randomized pairs there "
        "not certified")
    assert report.overall == "inconclusive"
