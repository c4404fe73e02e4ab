"""Every computation with one player's stationary policy fixed.

Five kinds of test:

* sha256 pins of graph results, verdicts and witnesses (assumption reports,
  termination sets, essential properness, pure-pair induced chains, SSP(A)
  verdicts).  These depend only on supports and on 0/1 policy weights, so
  they hold bit for bit whatever the summation order of the averaging.
* a verdict oracle: the pure-response enumeration that essential properness
  and the SSP(A) check once used, against their exact best-response
  decision, and the witness responses of that decision.
* a pair oracle: the assumption check's former per-pair loop (one chain and
  one ``classify_chain`` per pure pair, every pair enumerated) against its
  enumeration per maximal end component, report for report.
* a tolerance oracle: the per-state averaging loops, kept here as
  references, against the operators, best response, SSP(A), the pinned
  Q-backup and the certificate weights on random mixed policies.
* the rejections of ``policy_arrays`` and a support edge whose probability
  underflows once multiplied by its rule weight.
"""

import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

import sspg
from sspg import structure
from sspg.model import PolicyMismatchError, policy_arrays
from sspg.structure import GAIN_TOL, ClauseVerdict, count_pure_policies, iter_pure_policies

# recorded on the per-state-loop implementation; "assumption" re-recorded when
# the safeguard check's best response became exact: the maximizer notes of
# the trap games (no terminating response) and of everett (a zero-cost loop)
# name the ill-posed best response instead of an unsettled iteration or none;
# "termination" re-recorded when essential properness became the best
# response's decision: the reason of every "yes" (four were "inconclusive")
PINS = {
    "assumption": "427ef1b03dc27c740ae124a0bc9d9a069f6defd6fb79b6deb37ccecc55cc7bce",
    "termination": "37f3d94087e21654c549a194800c2d1565790677d4e70496cf180911554e9f55",
    "pure_chains": "35d490df229edd0526ebba381e41d38aa86aceb6592f78035586ad5d526262f9",
    "sspa_verdicts": "b4c1189d395e74d2a4c23f7deaa32c50c2b7488eed7a3064e24e2101d1fed069",
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _generated(family, n, mc, seed):
    lo = 0.5 if family == "loopy" else 0.0
    return sspg.generate_model(sspg.GeneratorConfig(
        n_states=n, max_controls=mc, family=family, seed=seed, cost_range=(lo, 1.5)))


def _trap_game(seed, n=5, controls=2, absorbing=True):
    """Sparse rows, some without terminal mass, and (if ``absorbing``) state n absorbing at cost 1."""
    rng = np.random.default_rng(seed)
    states = [str(i) for i in range(1, n + 1)]
    c1 = {s: list("abc"[: rng.integers(1, controls + 1)]) for s in states}
    c2 = {s: list("xyz"[: rng.integers(1, controls + 1)]) for s in states}
    rows = {}
    for s in states:
        for u in c1[s]:
            for v in c2[s]:
                if absorbing and s == states[-1]:
                    rows[(s, u, v)] = [(s, 1.0, 1.0)]
                    continue
                succ = rng.choice(n + 1, size=rng.integers(1, 3), replace=False)
                p = rng.random(len(succ)) + 0.1
                rows[(s, u, v)] = [(str(j), float(x), float(rng.uniform(-1.0, 1.0)))
                                   for j, x in zip(succ, p / p.sum())]
    return sspg.GameModel(states, c1, c2, rows)


def _pin_games():
    games = [sspg.load_bundled_model(name) for name in ("everett", "zerocost", "pursuit")]
    games += [_generated("loopy", 3, 2, s) for s in (1, 2, 3)]
    games += [_generated("sequential", 4, 3, s) for s in (4, 5)]
    games += [_generated("contraction", 3, 2, s) for s in (6, 7)]
    games += [_trap_game(s) for s in (8, 9, 10, 11)]
    return games


def _sparse_mixed_policy(m, player, rng):
    """Random mixed policy; about a third of the entries are exactly zero."""
    ctrl = m.controls1 if player == sspg.PLAYER_MIN else m.controls2
    rules = {}
    for s in m.states:
        w = rng.random(len(ctrl[s])) * (rng.random(len(ctrl[s])) < 0.67)
        if not w.any():
            w[rng.integers(len(w))] = 1.0
        rules[s] = w / w.sum()
    return sspg.StationaryPolicy(player, rules)


def _pure_pairs(m, cap=64):
    mus = list(itertools.islice(iter_pure_policies(m, sspg.PLAYER_MIN), cap))
    nus = list(itertools.islice(iter_pure_policies(m, sspg.PLAYER_MAX), cap))
    return itertools.product(mus, nus)


def _pin_parts(kind):
    rng = np.random.default_rng(2024)
    for m in _pin_games():
        if kind == "assumption":
            yield sspg.check_ssp_game_assumption(m).to_json(m)
        elif kind == "termination":
            for player in (sspg.PLAYER_MIN, sspg.PLAYER_MAX):
                for _ in range(4):
                    pol = _sparse_mixed_policy(m, player, rng)
                    yield sspg.forall_termination(m, pol).tobytes()
                    yield sspg.exists_termination(m, pol).tobytes()
                    rep = sspg.is_essentially_proper(m, pol)
                    yield [rep.verdict, rep.reason, rep.witness_state,
                           None if rep.witness_policy is None else rep.witness_policy.to_json(m)]
        elif kind == "pure_chains":
            for mu, nu in _pure_pairs(m):
                chain = sspg.induce_chain(m, mu, nu)
                yield chain.P.tobytes() + chain.costs.tobytes()
        elif kind == "sspa_verdicts":
            nus = list(itertools.islice(iter_pure_policies(m, sspg.PLAYER_MAX), 16))
            nus += [sspg.uniform_policy(m, sspg.PLAYER_MAX), _sparse_mixed_policy(m, sspg.PLAYER_MAX, rng)]
            for nu in nus:
                v = sspg.check_single_player_ssp(sspg.build_sspa(m, nu))
                yield [v.status, v.reason, v.witness]


@pytest.mark.parametrize("kind", sorted(PINS))
def test_pins(kind):
    assert _digest(_pin_parts(kind)) == PINS[kind]


def test_pin_assumption_three_control_trap_game():
    # every one of the 1944 pure pairs is prolonging; recorded on the
    # partial-sum implementation of classify_chain, and re-recorded with the
    # exact best response (the maximizer safeguard note)
    m = _trap_game(9, controls=3)
    assert count_pure_policies(m, sspg.PLAYER_MIN) * count_pure_policies(m, sspg.PLAYER_MAX) == 1944
    digest = _digest([sspg.check_ssp_game_assumption(m).to_json(m)])
    assert digest == "5bb7601eccc6053e8ddcbe38c22e082144905697e9ab5f2be5ad9a1a9f636b7b"


# ---------------------------------------------------------------------------
# Verdict oracle: the pure-response enumeration as a reference
# ---------------------------------------------------------------------------


def _needed_infinity(fixed):
    """The total cost a response that never terminates needs to be infinitely bad for the opponent."""
    return np.isneginf if fixed.player == sspg.PLAYER_MIN else np.isposinf


def _pair(fixed, response):
    return (fixed, response) if fixed.player == sspg.PLAYER_MIN else (response, fixed)


def ref_essentially_proper(m, policy, cap=10**6):
    """"yes", "no" or "inconclusive" by enumerating the opponent's pure responses.

    "yes" only when no response prolongs; "no" when no response terminates
    from some state, or when a pure prolonging response lacks the needed
    infinite cost; otherwise "inconclusive", as enumeration does not bound
    randomized responses.
    """
    if not sspg.exists_termination(m, policy).all():
        return "no"
    if sspg.forall_termination(m, policy).all():
        return "yes"
    opp = sspg.PLAYER_MAX if policy.player == sspg.PLAYER_MIN else sspg.PLAYER_MIN
    if count_pure_policies(m, opp) > cap:
        return "inconclusive"
    for response in iter_pure_policies(m, opp):
        cls = sspg.classify_chain(sspg.induce_chain(m, *_pair(policy, response)))
        if cls.prolonging and not _needed_infinity(policy)(cls.values).any():
            return "no"
    return "inconclusive"


def ref_single_player_ssp(m, nu):
    """"holds" or "violated" by enumerating the minimizer's pure policies against ``nu``."""
    proper = False
    for mu in iter_pure_policies(m, sspg.PLAYER_MIN):
        chain = sspg.induce_chain(m, mu, nu)
        if sspg.reach_probability_one(chain).all():
            proper = True
        elif not any(gain > GAIN_TOL for _, gain in sspg.recurrent_class_gains(chain)):
            return "violated"
    return "holds" if proper else "violated"


def _fixed_policy_cases():
    rng = np.random.default_rng(31)
    games = _pin_games() + [_trap_game(s, controls=3) for s in (12, 13)]
    games += [_trap_game(s, n=4, controls=3, absorbing=False) for s in range(40, 46)]
    for m in games:
        for player in (sspg.PLAYER_MIN, sspg.PLAYER_MAX):
            pols = list(itertools.islice(iter_pure_policies(m, player), 6))
            pols += [sspg.uniform_policy(m, player)] + [_sparse_mixed_policy(m, player, rng) for _ in range(3)]
            for pol in pols:
                yield m, pol


def test_fixed_policy_checks_agree_with_enumeration():
    seen = Counter()
    for m, pol in _fixed_policy_cases():
        want = ref_essentially_proper(m, pol)
        seen[want] += 1
        verdict = sspg.is_essentially_proper(m, pol).verdict
        _, trace = sspg.evaluate_vs_best_response(m, pol)
        assert verdict == ("yes" if trace.outcome == sspg.CONVERGED else "no")
        assert verdict == ("yes" if want == "inconclusive" else want)
        if pol.player == sspg.PLAYER_MAX:
            status = sspg.check_single_player_ssp(sspg.build_sspa(m, pol)).status
            assert status == ref_single_player_ssp(m, pol) == ("holds" if verdict == "yes" else "violated")
    assert seen["yes"] >= 100 and seen["no"] >= 100 and seen["inconclusive"] >= 10


def test_witness_response_prolongs_without_the_needed_infinity():
    witnesses = 0
    for m, pol in _fixed_policy_cases():
        report = sspg.is_essentially_proper(m, pol)
        if report.witness_policy is None:
            continue
        cls = sspg.classify_chain(sspg.induce_chain(m, *_pair(pol, report.witness_policy)))
        assert cls.prolonging and not _needed_infinity(pol)(cls.values).any()
        witnesses += 1
    assert witnesses >= 40


# ---------------------------------------------------------------------------
# Pair oracle: the per-pair loop of the assumption check as a reference
# ---------------------------------------------------------------------------


def ref_pure_pair_signs(m):
    """The assumption check's former pair loop: one chain and one classify_chain per pure pair."""
    pols = [list(iter_pure_policies(m, p)) for p in (sspg.PLAYER_MIN, sspg.PLAYER_MAX)]
    combos = [list(itertools.product(*(range(len(c[s])) for s in m.states))) for c in (m.controls1, m.controls2)]
    n_v = np.array([len(m.controls2[s]) for s in m.states], dtype=np.intp)
    rows = np.column_stack((m.g, m.P))
    costs = np.concatenate(([0.0], rows[:, 0]))
    probs = np.vstack((np.eye(1, m.n + 1), rows[:, 1:]))
    shape = (count_pure_policies(m, sspg.PLAYER_MIN), count_pure_policies(m, sspg.PLAYER_MAX))
    has_pos, has_neg = np.zeros((2, *shape), dtype=bool)
    clause3 = ClauseVerdict("holds", "every pure prolonging pair has an infinite total cost")
    for a, mu_combo in enumerate(combos[0]):
        base = np.concatenate(([0], m.control_layout.blocks + np.asarray(mu_combo, dtype=np.intp) * n_v + 1))
        for b, nu_combo in enumerate(combos[1]):
            idx = base + (0, *nu_combo)
            chain = sspg.InducedChain(probs[idx], costs[idx], m.states)
            cls = sspg.classify_chain(chain)
            has_pos[a, b] = np.isposinf(cls.values).any()
            has_neg[a, b] = np.isneginf(cls.values).any()
            if cls.prolonging and not has_pos[a, b] and not has_neg[a, b] and clause3.status == "holds":
                clause3 = ClauseVerdict(
                    "violated",
                    "prolonging pair with finite total cost (zero-gain recurrent class)",
                    witness_mu=pols[0][a],
                    witness_nu=pols[1][b],
                    witness_states=tuple(m.states[i] for i in np.flatnonzero(~sspg.reach_probability_one(chain))),
                )
    return has_pos, has_neg, clause3


def _zero_gain_loop_game():
    """States 2 and 3 cycle at costs -1, +1 when u = b at 2 and v = y at 3; the first such pair is pair 5.

    Pair 5 is (a, b, a) against (x, x, y).  Other pairs loop at state 1 with gain 1 or 0.
    """
    c1 = {"1": ["a", "b"], "2": ["a", "b"], "3": ["a"]}
    c2 = {"1": ["x", "y"], "2": ["x"], "3": ["x", "y"]}
    rows = {
        ("1", "a", "x"): [("0", 0.5, 1.0), ("2", 0.5, 0.0)],
        ("1", "a", "y"): [("1", 1.0, 1.0)],
        ("1", "b", "x"): [("0", 1.0, 2.0)],
        ("1", "b", "y"): [("1", 1.0, 0.0)],
        ("2", "a", "x"): [("0", 1.0, 1.0)],
        ("2", "b", "x"): [("3", 1.0, -1.0)],
        ("3", "a", "x"): [("0", 0.25, 0.0), ("1", 0.75, -1.0)],
        ("3", "a", "y"): [("2", 1.0, 1.0)],
    }
    return sspg.GameModel(["1", "2", "3"], c1, c2, rows)


def ref_assumption_report(m):
    """The assumption report composed from the per-pair loop, as before end components.

    The first pure policy (canonical order) with no +inf (-inf) pair is the
    minimizer (maximizer) safeguard, noted from its best response.
    """
    has_pos, has_neg, clause3 = ref_pure_pair_signs(m)

    def safeguard(rows_bad, player, who):
        for pol, bad in zip(iter_pure_policies(m, player), rows_bad):
            if bad.any():
                continue
            _, trace = sspg.evaluate_vs_best_response(m, pol)
            note = f"pure safeguard found for {who}"
            if trace.outcome != sspg.CONVERGED:
                note += f" (best response {trace.outcome}: {trace.note}; pure-pair evidence only)"
            return ClauseVerdict("holds", note, *((pol, None) if player == sspg.PLAYER_MIN else (None, pol)))
        return ClauseVerdict("inconclusive", f"no pure safeguard for the {who}; randomized safeguards not excluded")

    return sspg.AssumptionReport(safeguard(has_pos, sspg.PLAYER_MIN, "minimizer"),
                                 safeguard(has_neg.T, sspg.PLAYER_MAX, "maximizer"), clause3,
                                 ("certified over deterministic stationary policies only",))


def _rows_game(controls1, controls2, rows):
    """A game on states "1".."n" from its control lists and rows {(i, u, v): [(j, p, cost), ...]}."""
    return sspg.GameModel([str(i) for i in range(1, len(controls1) + 1)],
                          {str(i): list(c) for i, c in enumerate(controls1, start=1)},
                          {str(i): list(c) for i, c in enumerate(controls2, start=1)},
                          {tuple(map(str, key)): [(str(j), p, c) for j, p, c in row] for key, row in rows.items()})


def _end_component_games():
    """Games with several end components, each built for one way the per-component enumeration combines."""
    return {
        # components {1, 3} and {2, 4} interleave in state order; 5 is in none.
        # Each has a zero-gain loop; the one of {2, 4} needs u = b at 2, so
        # the first offending pair loops in {1, 3} with u = a at 2
        "interleaved": _rows_game(["ab", "ab", "a", "ab", "ab"], ["x", "xy", "xy", "x", "x"], {
            (1, "a", "x"): [(3, 1.0, 1.0)],
            (1, "b", "x"): [(0, 0.5, 2.0), (1, 0.5, 0.0)],
            (3, "a", "x"): [(1, 1.0, -1.0)],  # 1 -> 3 -> 1 has gain 0
            (3, "a", "y"): [(1, 0.5, 1.0), (3, 0.5, 1.0)],
            (2, "a", "x"): [(4, 1.0, 1.0)],
            (2, "a", "y"): [(0, 1.0, 0.0)],
            (2, "b", "x"): [(2, 1.0, 0.0)],
            (2, "b", "y"): [(4, 0.5, 1.0), (0, 0.5, 1.0)],
            (4, "a", "x"): [(2, 1.0, 1.0)],
            (4, "b", "x"): [(0, 1.0, 1.0)],
            (5, "a", "x"): [(0, 0.5, 1.0), (1, 0.25, 0.0), (2, 0.25, 0.0)],
            (5, "b", "x"): [(0, 1.0, 3.0)],
        }),
        # both components have a zero-gain loop under u = b; the first offending
        # pair loops in the second, (a, b), before (b, a)
        "second-witness": _rows_game(["ab", "ab"], ["xy", "x"], {
            (1, "a", "x"): [(0, 1.0, 1.0)],
            (1, "a", "y"): [(1, 1.0, 1.0)],
            (1, "b", "x"): [(1, 1.0, 0.0)],
            (1, "b", "y"): [(0, 1.0, 2.0)],
            (2, "a", "x"): [(0, 1.0, 1.0)],
            (2, "b", "x"): [(2, 1.0, 0.0)],
        }),
        # at 1 the maximizer answers each minimizer control with a +1 loop;
        # component {2} has a clean minimizer control
        "no-clean-minimizer": _rows_game(["ab", "ab", "a"], ["xy", "x", "x"], {
            (1, "a", "x"): [(1, 1.0, 1.0)],
            (1, "a", "y"): [(0, 1.0, 0.0)],
            (1, "b", "x"): [(0, 1.0, 0.0)],
            (1, "b", "y"): [(1, 1.0, 2.0)],
            (2, "a", "x"): [(2, 1.0, 1.0)],
            (2, "b", "x"): [(0, 1.0, 1.0)],
            (3, "a", "x"): [(0, 0.5, 1.0), (1, 0.25, 1.0), (2, 0.25, 1.0)],
        }),
        # component {1, 2} holds a +1 loop at 1 and a -1 loop at 2 in one chain
        "mixed-signs": _rows_game(["ab", "a", "a"], ["x", "xy", "x"], {
            (1, "a", "x"): [(1, 1.0, 1.0)],
            (1, "b", "x"): [(2, 1.0, 0.0)],
            (2, "a", "x"): [(2, 1.0, -1.0)],
            (2, "a", "y"): [(1, 1.0, 0.0)],
            (3, "a", "x"): [(0, 0.5, 1.0), (2, 0.5, 1.0)],
        }),
    }


def _pair_oracle_games():
    games = [sspg.load_bundled_model(name) for name in ("everett", "zerocost", "pursuit")]
    games += [_trap_game(s, n=n, controls=c, absorbing=a)
              for n in (4, 5) for c in (2, 3) for a in (True, False) for s in range(20, 26)]
    games += [_generated(f, n, mc, s) for f in ("loopy", "sequential", "contraction")
              for n, mc in ((2, 3), (4, 2), (6, 2)) for s in range(4)]
    return games + [_zero_gain_loop_game(), *_end_component_games().values()]


def test_pair_signs_match_the_per_pair_loop():
    statuses = Counter()
    for m in _pair_oracle_games():
        report = sspg.check_ssp_game_assumption(m)
        assert report.to_json(m) == ref_assumption_report(m).to_json(m)
        statuses[report.clause_prolonging.status] += 1
    assert statuses["violated"] >= 3 and statuses["holds"] >= 10


def _components(m):
    return [[m.states[i] for i in c] for c in structure._end_components(m)]


def _picks(m, *policies):
    return [{s: max(r, key=r.get) for s, r in pol.to_json(m)["rules"].items()} for pol in policies]


def test_end_component_games_exercise_their_case():
    games = _end_component_games()
    m = games["interleaved"]
    assert _components(m) == [["1", "3"], ["2", "4"]]
    clause3 = sspg.check_ssp_game_assumption(m).clause_prolonging
    assert clause3.witness_states == ("1", "3", "5")
    assert _picks(m, clause3.witness_mu, clause3.witness_nu) == [dict.fromkeys("12345", "a"),
                                                                  {"1": "x", "2": "y", "3": "x", "4": "x", "5": "x"}]
    m = games["second-witness"]
    assert _components(m) == [["1"], ["2"]]
    clause3 = sspg.check_ssp_game_assumption(m).clause_prolonging
    assert clause3.witness_states == ("2",)
    assert _picks(m, clause3.witness_mu, clause3.witness_nu) == [{"1": "a", "2": "b"}, {"1": "x", "2": "x"}]
    m = games["no-clean-minimizer"]
    assert _components(m) == [["1"], ["2"]]
    report = sspg.check_ssp_game_assumption(m)
    assert [report.clause_safeguard_min.status, report.clause_safeguard_max.status, report.overall] == \
        ["inconclusive", "holds", "inconclusive"]
    m = games["mixed-signs"]
    assert _components(m) == [["1", "2"]]
    pair = [sspg.pure_policy(m, 1, dict.fromkeys("123", "a")), sspg.pure_policy(m, 2, dict.fromkeys("123", "x"))]
    values = sspg.classify_chain(sspg.induce_chain(m, *pair)).values
    assert np.isposinf(values[0]) and np.isneginf(values[1])


def test_zero_gain_loop_witness_is_the_first_offending_pair():
    m = _zero_gain_loop_game()
    clause3 = sspg.check_ssp_game_assumption(m).clause_prolonging
    assert clause3.status == "violated" and clause3.witness_states == ("1", "2", "3")  # 1 enters 2 w.p. 1/2
    picks = [{s: max(r, key=r.get) for s, r in pol.to_json(m)["rules"].items()}
             for pol in (clause3.witness_mu, clause3.witness_nu)]
    assert picks == [{"1": "a", "2": "b", "3": "a"}, {"1": "x", "2": "x", "3": "y"}]


def _count_classify_chain(monkeypatch, m):
    calls = []
    real = structure.classify_chain
    monkeypatch.setattr(structure, "classify_chain", lambda chain: calls.append(1) or real(chain))
    sspg.check_ssp_game_assumption(m)
    return len(calls)


def test_classify_chain_runs_once_per_local_pair_with_a_closed_class(monkeypatch):
    m = _trap_game(9, controls=3)
    assert count_pure_policies(m, sspg.PLAYER_MIN) * count_pure_policies(m, sspg.PLAYER_MAX) == 1944
    components = structure._end_components(m)
    assert [c.tolist() for c in components] == [[1, 2, 3], [4]]
    sizes = [len(m.controls1[s]) * len(m.controls2[s]) for s in m.states]
    assert sum(np.prod([sizes[i] for i in c]) for c in components) == 162 + 3
    # the local pairs with a closed class, read off the closed classes of all 1944 full pairs
    local = set()
    for mu, nu in itertools.product(*(iter_pure_policies(m, p) for p in (sspg.PLAYER_MIN, sspg.PLAYER_MAX))):
        picks = _picks(m, mu, nu)
        for members, _ in structure._closed_classes(sspg.induce_chain(m, mu, nu)):
            if members[0] != 0:
                c = next(c for c in components if members[0] - 1 in c)
                local.add(tuple((picks[0][m.states[i]], picks[1][m.states[i]]) for i in c))
    assert len(local) == _count_classify_chain(monkeypatch, m) == 34
    assert _count_classify_chain(monkeypatch, _generated("contraction", 6, 3, 1)) == 0


# ---------------------------------------------------------------------------
# Tolerance oracle: the per-state loops as references
# ---------------------------------------------------------------------------


def _rules(m, pol):
    return [np.asarray(pol.rules[s], dtype=float) for s in m.states]


def _blocks(m, i):
    off, nu_i, nv_i = m.state_block(i)
    k = slice(off, off + nu_i * nv_i)
    return m.P[k].reshape(nu_i, nv_i, m.n + 1), m.g[k].reshape(nu_i, nv_i)


def ref_fixed_policy_tensors(m, pol):
    """Averaged stage costs / kernels (columns 1..n) per opponent control."""
    cs, ps = [], []
    for i, r in enumerate(_rules(m, pol), start=1):
        block_p, block_g = _blocks(m, i)
        if pol.player == sspg.PLAYER_MIN:
            cs.append(r @ block_g)
            ps.append(np.einsum("u,uvj->vj", r, block_p)[:, 1:])
        else:
            cs.append(block_g @ r)
            ps.append(np.einsum("uvj,v->uj", block_p, r)[:, 1:])
    return cs, ps


def ref_bellman_min_fixed(m, mu, values):
    q = sspg.q_from_values(m, values)
    return np.array([(r @ m.q_block(q, i)).max() for i, r in enumerate(_rules(m, mu), start=1)])


def ref_bellman_max_fixed(m, nu, values):
    q = sspg.q_from_values(m, values)
    return np.array([(m.q_block(q, i) @ r).min() for i, r in enumerate(_rules(m, nu), start=1)])


def ref_bellman_pair(m, mu, nu, values):
    q = sspg.q_from_values(m, values)
    return np.array([r1 @ m.q_block(q, i) @ r2
                     for i, (r1, r2) in enumerate(zip(_rules(m, mu), _rules(m, nu)), start=1)])


def ref_q_bellman_max_fixed(m, nu, q):
    vals = np.array([(m.q_block(q, i) @ r).min() for i, r in enumerate(_rules(m, nu), start=1)])
    return m.g + m.P[:, 1:] @ vals


def ref_sspa(m, nu):
    probs, costs = [], []
    for i, r in enumerate(_rules(m, nu), start=1):
        block_p, block_g = _blocks(m, i)
        probs.append(np.einsum("uvj,v->uj", block_p, r))
        costs.append(block_g @ r)
    return probs, costs


def ref_xi_nu(m, nu, xi):
    return [m.q_block(xi, i) @ r for i, r in enumerate(_rules(m, nu), start=1)]


def _oracle_cases():
    rng = np.random.default_rng(77)
    games = [sspg.load_bundled_model("pursuit")]
    games += [_generated("contraction", 6, 4, s) for s in (11, 12, 13)]
    games += [_generated("loopy", 5, 3, s) for s in (14, 15)]
    for m in games:
        for _ in range(3):
            mu = _sparse_mixed_policy(m, sspg.PLAYER_MIN, rng)
            nu = _sparse_mixed_policy(m, sspg.PLAYER_MAX, rng)
            yield m, mu, nu, rng.uniform(-10.0, 10.0, m.n), rng.uniform(-10.0, 10.0, m.n_triplets)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_oracle_fixed_operators():
    for m, mu, nu, j, q in _oracle_cases():
        _close(sspg.bellman_min_fixed(m, mu, j), ref_bellman_min_fixed(m, mu, j))
        _close(sspg.bellman_max_fixed(m, nu, j), ref_bellman_max_fixed(m, nu, j))
        _close(sspg.bellman_pair(m, mu, nu, j), ref_bellman_pair(m, mu, nu, j))
        _close(sspg.q_bellman_max_fixed(m, nu, q), ref_q_bellman_max_fixed(m, nu, q))


def test_oracle_best_response_tensors():
    # the exact best response is the fixed point of reduce(c + p @ x) over each state's rows
    for m, mu, nu, _, _ in _oracle_cases():
        for pol, reduce in ((mu, np.max), (nu, np.min)):
            x, tr = sspg.evaluate_vs_best_response(m, pol)
            if tr.outcome == sspg.ILL_POSED:
                assert np.isnan(x).all()
                continue
            assert tr.outcome == sspg.CONVERGED
            cs, ps = ref_fixed_policy_tensors(m, pol)
            _close(x, np.array([reduce(c + p @ x) for c, p in zip(cs, ps)]))


def _fixed_value_iteration(m, pol, max_iter=20_000):
    """Iterate the one-policy backup from zero; None unless it converges."""
    op = sspg.bellman_min_fixed if pol.player == sspg.PLAYER_MIN else sspg.bellman_max_fixed
    x = np.zeros(m.n)
    for _ in range(max_iter):
        x1 = op(m, pol, x)
        if np.abs(x1 - x).max() <= 1e-13:
            return x1
        x = x1
    return None


def test_best_response_agrees_with_value_iteration():
    rng = np.random.default_rng(5)
    games = [sspg.load_bundled_model("pursuit"), _generated("contraction", 5, 3, 21),
             _generated("sequential", 5, 3, 22), _generated("loopy", 4, 3, 23)]
    agreed = ill_posed = 0
    for m in games:
        for player in (sspg.PLAYER_MIN, sspg.PLAYER_MAX):
            pols = list(itertools.islice(iter_pure_policies(m, player), 4))
            pols += [sspg.uniform_policy(m, player), _sparse_mixed_policy(m, player, rng)]
            for pol in pols:
                x, tr = sspg.evaluate_vs_best_response(m, pol)
                ill_posed += tr.outcome == sspg.ILL_POSED
                ref = _fixed_value_iteration(m, pol)
                if ref is None:
                    continue
                assert tr.outcome == sspg.CONVERGED
                np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9)
                agreed += 1
    assert agreed >= 30 and ill_posed >= 1


def _one_state(*rows):
    """One state, one minimizer control, maximizer controls x, y, ... with the given next-rows."""
    c2 = list("xyz"[:len(rows)])
    return sspg.GameModel(["1"], {"1": ["a"]}, {"1": c2}, {("1", "a", v): row for v, row in zip(c2, rows)})


def test_ill_posed_best_response_without_terminating_response():
    m = _trap_game(8)  # the last state is absorbing whatever either player does
    for player in (sspg.PLAYER_MIN, sspg.PLAYER_MAX):
        start = sspg.uniform_policy(m, player)
        x, tr = sspg.evaluate_vs_best_response(m, start)
        assert tr.outcome == sspg.ILL_POSED and not tr.rows and np.isnan(x).all()
        first = m.states[int(np.flatnonzero(~sspg.exists_termination(m, start))[0])]
        assert tr.note == f"no terminating response from state {first}"
        x, policies, tr = sspg.policy_iteration(m, player, start)
        assert tr.outcome == sspg.ILL_POSED and not tr.rows and np.isnan(x).all()
        assert policies == [start] and "no terminating response" in tr.note


def test_ill_posed_best_response_when_never_terminating_is_not_bad():
    # the responder's problem is an SSP only if every response that never
    # terminates is infinitely bad for the responder
    loop1 = [("1", 1.0, 1.0)]  # stay forever at cost 1
    m = _one_state([("0", 1.0, 0.0)], loop1)
    mu = sspg.uniform_policy(m, sspg.PLAYER_MIN)
    x, tr = sspg.evaluate_vs_best_response(m, mu)  # the maximizer gains without bound by staying
    assert tr.outcome == sspg.ILL_POSED and not tr.rows and np.isnan(x).all()
    assert tr.note == "a never-terminating response from state 1 is not infinitely bad for the responder"
    x, policies, tr = sspg.policy_iteration(m, sspg.PLAYER_MIN, mu)
    assert tr.outcome == sspg.ILL_POSED and not tr.rows and len(policies) == 1
    assert np.isnan(x).all() and np.isnan(tr.final_residual)
    # the minimizer facing the same rows: staying is infinitely bad for it
    x, tr = sspg.evaluate_vs_best_response(m, sspg.uniform_policy(m, sspg.PLAYER_MAX))
    assert tr.outcome == sspg.CONVERGED and x.tolist() == [1.0]
    x, tr = sspg.evaluate_vs_best_response(m, sspg.pure_policy(m, sspg.PLAYER_MAX, {"1": "y"}))
    assert tr.outcome == sspg.ILL_POSED and tr.note.startswith("no terminating response")
    dear_loop = sspg.GameModel(["1"], {"1": ["a", "b"]}, {"1": ["x"]},
                               {("1", "a", "x"): [("0", 1.0, 2.0)], ("1", "b", "x"): loop1})
    x, tr = sspg.evaluate_vs_best_response(dear_loop, sspg.uniform_policy(dear_loop, sspg.PLAYER_MAX))
    assert tr.outcome == sspg.CONVERGED and x.tolist() == [2.0]
    # zero-cost loops: a response that never terminates has gain 0, whether
    # it is cheaper (everett: 0 against 1) or dearer (0 against -1) than stopping
    everett = sspg.load_bundled_model("everett")
    x, tr = sspg.evaluate_vs_best_response(everett, sspg.pure_policy(everett, sspg.PLAYER_MAX, {"1": "1"}))
    assert tr.outcome == sspg.ILL_POSED and "never-terminating" in tr.note
    cheap_stop = sspg.GameModel(["1"], {"1": ["a", "b"]}, {"1": ["x"]},
                                {("1", "a", "x"): [("0", 1.0, -1.0)], ("1", "b", "x"): [("1", 1.0, 0.0)]})
    x, tr = sspg.evaluate_vs_best_response(cheap_stop, sspg.uniform_policy(cheap_stop, sspg.PLAYER_MAX))
    assert tr.outcome == sspg.ILL_POSED and "never-terminating" in tr.note


def test_oracle_sspa_and_certificate_weights():
    for m, _, nu, _, _ in _oracle_cases():
        sspa = sspg.build_sspa(m, nu)
        probs, costs = ref_sspa(m, nu)
        assert len(sspa.s_probs) == len(sspa.s_costs) == m.n
        for k in range(m.n):
            _close(sspa.s_probs[k], probs[k])
            _close(sspa.s_costs[k], costs[k])
        if sspg.forall_termination(m, nu).all():
            cert = sspg.build_contraction_certificate(m, nu)
            assert len(cert.xi_nu) == m.n
            for got, want in zip(cert.xi_nu, ref_xi_nu(m, nu, cert.xi)):
                _close(got, want)


# ---------------------------------------------------------------------------
# Policy validation and supports
# ---------------------------------------------------------------------------


def test_policy_arrays_flat_state_order(pursuit):
    mu = sspg.uniform_policy(pursuit, sspg.PLAYER_MIN)
    flat = policy_arrays(pursuit, mu, sspg.PLAYER_MIN)
    assert flat.tolist() == [x for s in pursuit.states for x in mu.rules[s].tolist()]


@pytest.mark.parametrize("defect", ["missing", "length", "negative", "mass", "player", "mass-1e-7", "minus-1e-12"])
def test_policy_arrays_rejections(pursuit, defect):
    m = pursuit
    rules = {s: np.asarray(r).copy() for s, r in sspg.uniform_policy(m, sspg.PLAYER_MIN).rules.items()}
    s = m.states[2]  # the last state, with two minimizer controls
    assert len(m.controls1[s]) == 2
    player = sspg.PLAYER_MIN
    if defect == "missing":
        del rules[s]
    elif defect == "length":
        rules[s] = np.append(rules[s], 0.0)
    elif defect == "negative":
        rules[s] = np.zeros(len(rules[s]))
        rules[s][0], rules[s][-1] = -0.5, 1.5
    elif defect == "mass":
        rules[s] = rules[s] * (1.0 + 2e-6)
    elif defect == "mass-1e-7":  # decision_rule rejects it, so policy_arrays does too
        rules[s] = np.array([0.5, 0.5000001])
    elif defect == "minus-1e-12":
        rules[s] = np.array([1.0 + 1e-12, -1e-12])
    else:
        player = sspg.PLAYER_MAX
    with pytest.raises(PolicyMismatchError) as err:
        policy_arrays(m, sspg.StationaryPolicy(sspg.PLAYER_MIN, rules), player)
    if defect == "player":
        assert "player-2" in str(err.value)
    else:
        assert f"state {s}" in str(err.value)


def test_policy_arrays_rejects_empty_rule():
    # an unvalidated model may have an empty control set; its rule has no mass
    m = sspg.GameModel(["1", "2"], {"1": [], "2": ["a"]}, {"1": ["x"], "2": ["x"]},
                       {("2", "a", "x"): [("0", 1.0, 0.0)]})
    with pytest.raises(PolicyMismatchError, match="state 1 is not a distribution"):
        policy_arrays(m, sspg.StationaryPolicy(sspg.PLAYER_MIN, {"1": np.zeros(0), "2": np.ones(1)}))


def test_policy_arrays_accepts_mass_within_tolerance(pursuit):
    rules = {s: r * (1.0 + 5e-10) for s, r in sspg.uniform_policy(pursuit, sspg.PLAYER_MAX).rules.items()}
    policy_arrays(pursuit, sspg.StationaryPolicy(sspg.PLAYER_MAX, rules), sspg.PLAYER_MAX)


def test_support_edge_survives_underflow():
    # control "b" is played with weight 1e-200 and enters the trap "2" with
    # probability 1e-200; the product underflows, the edge does not vanish
    tiny = 1e-200
    m = sspg.GameModel(
        ["1", "2"],
        {"1": ["a", "b"], "2": ["a"]},
        {"1": ["x"], "2": ["x"]},
        {
            ("1", "a", "x"): [("0", 1.0, 1.0)],
            ("1", "b", "x"): [("0", 1.0 - tiny, 1.0), ("2", tiny, 1.0)],
            ("2", "a", "x"): [("2", 1.0, 1.0)],
        },
    )
    assert sspg.validate_model(m).ok
    mu = sspg.StationaryPolicy(sspg.PLAYER_MIN, {"1": np.array([1.0, tiny]), "2": np.array([1.0])})
    assert tiny * tiny == 0.0
    assert sspg.forall_termination(m, mu).tolist() == [False, False]
    assert sspg.exists_termination(m, mu).tolist() == [False, False]
