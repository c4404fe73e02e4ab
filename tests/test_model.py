import hashlib
import itertools
import json

import numpy as np
import pytest
from scipy import stats

import sspg
from sspg.model import SamplingTable, counter_hash, counter_uniform, mulhi


def _generate_oracle(cfg: sspg.GeneratorConfig) -> sspg.GameModel:
    """The generator entry by entry: one scalar cost draw per entry, rows through the dict constructor."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_states
    states = [str(i) for i in range(1, n + 1)]
    lo, hi = cfg.cost_range
    kappa = cfg.termination_floor

    def random_dist(n_succ):
        w = rng.random(n_succ) * (rng.random(n_succ) < 0.75)
        if not w.any():
            w[rng.integers(n_succ)] = 1.0
        return w / w.sum()

    controls1, controls2 = {}, {}
    for s in states:
        if cfg.family == "sequential":
            mover = rng.integers(2)
            k = int(rng.integers(2, cfg.max_controls + 1)) if cfg.max_controls > 1 else 1
            controls1[s] = list("abcdefgh"[: k if mover == 0 else 1])
            controls2[s] = list("xyzwpqrs"[: k if mover == 1 else 1])
        else:
            controls1[s] = list("abcdefgh"[: int(rng.integers(1, cfg.max_controls + 1))])
            controls2[s] = list("xyzwpqrs"[: int(rng.integers(1, cfg.max_controls + 1))])

    transitions = {}
    for si, s in enumerate(states):
        for ui, u in enumerate(controls1[s]):
            for v in controls2[s]:
                p = random_dist(n + 1)
                if cfg.family == "loopy":
                    if ui == 0:
                        floor = max(kappa, 0.2)
                        p = floor * np.eye(n + 1)[0] + (1.0 - floor) * p
                    elif rng.random() < 0.5 and n >= 1:
                        p[0] = 0.0  # pure in-game row
                        if not p.any():
                            p[si + 1] = 1.0
                        p = p / p.sum()
                else:
                    p = kappa * np.eye(n + 1)[0] + (1.0 - kappa) * p
                transitions[(s, u, v)] = [
                    (str(j) if j else "0", float(p[j]), float(rng.uniform(lo, hi)))
                    for j in range(n + 1)
                    if p[j] > 0.0
                ]
    return sspg.GameModel(states, controls1, controls2, transitions)


def _assert_same_model(a: sspg.GameModel, b: sspg.GameModel, text: bool = True):
    for name in ("P", "C", "g"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in ("start", "succ", "cum"):
        assert getattr(a.sampling, name).tobytes() == getattr(b.sampling, name).tobytes(), name
    assert (a.states, a.controls1, a.controls2, a.triplets) == (b.states, b.controls1, b.controls2, b.triplets)
    assert a.transitions == b.transitions and a == b
    if text:
        assert sspg.save_model(a) == sspg.save_model(b)


@pytest.mark.parametrize("family", sspg.FAMILIES)
@pytest.mark.parametrize("n", [1, 4, 9, 60])
def test_generator_equals_oracle_bitwise(family, n):
    # a negative lo only where the family allows it: loopy needs positive costs
    costs = [(0.5, 4.0), (2.5, 2.5)] if family == "loopy" else [(0.0, 1.0), (2.5, 2.5), (-3.0, 5.0)]
    for controls, kappa, cost_range, seed in itertools.product([1, 2, 3, 8], [0.0, 0.1, 1.0], costs, range(3)):
        cfg = sspg.GeneratorConfig(n_states=n, max_controls=controls, termination_floor=kappa,
                                   cost_range=cost_range, family=family, seed=seed)
        # the document text of an n = 60 game takes most of a second; the rows it prints are compared
        _assert_same_model(sspg.generate_model(cfg), _generate_oracle(cfg), text=n < 60)


def test_everett_document_shape(everett):
    assert everett.states == ("1",)
    assert everett.controls1["1"] == ("1", "2")
    assert everett.controls2["1"] == ("1", "2")
    assert everett.n_triplets == 4


def test_validate_everett_clean(everett):
    assert sspg.validate_model(everett).ok


def test_validate_bad_probability_mass():
    m = sspg.GameModel(
        ["1"], {"1": ["a"]}, {"1": ["x"]},
        {("1", "a", "x"): [("0", 0.4, 1.0), ("1", 0.5, 0.0)]},
    )
    report = sspg.validate_model(m)
    assert not report.ok
    assert any(f.code == "bad-mass" and "0.9" in f.message for f in report.findings)


def test_validate_empty_control_set():
    m = sspg.GameModel(["1"], {"1": []}, {"1": ["x"]}, {})
    report = sspg.validate_model(m)
    assert any(f.code == "empty-controls" for f in report.findings)


def test_validate_cost_on_zero_probability_edge():
    m = sspg.GameModel(
        ["1"], {"1": ["a"]}, {"1": ["x"]},
        {("1", "a", "x"): [("0", 1.0, 1.0), ("1", 0.0, 5.0)]},
    )
    report = sspg.validate_model(m)
    assert any(f.code == "cost-on-zero-edge" for f in report.findings)


def test_validate_missing_row():
    m = sspg.GameModel(["1"], {"1": ["a", "b"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("0", 1.0, 0.0)]})
    report = sspg.validate_model(m)
    assert any(f.code == "missing-row" and "b" in f.location for f in report.findings)


def test_expected_stage_cost_terminal():
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("0", 1.0, 1.0)]})
    assert sspg.expected_stage_cost(m, ("1", "a", "x")) == 1.0


def test_expected_stage_cost_convex_combination():
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("0", 0.5, 2.0), ("1", 0.5, 0.0)]})
    assert sspg.expected_stage_cost(m, ("1", "a", "x")) == pytest.approx(1.0, abs=1e-12)


def test_expected_stage_cost_everett(everett):
    assert sspg.expected_stage_cost(everett, ("1", "1", "2")) == 0.0


def test_expected_stage_cost_unknown_triplet(everett):
    with pytest.raises(ValueError, match="unknown"):
        sspg.expected_stage_cost(everett, ("1", "1", "3"))


def test_stage_cost_linear_in_costs():
    m = sspg.generate_model(sspg.GeneratorConfig(n_states=3, max_controls=2, seed=4))
    alpha = 3.25
    scaled = sspg.GameModel(
        m.states, m.controls1, m.controls2,
        {t: [(j, p, alpha * c) for j, p, c in row] for t, row in m.transitions.items()},
    )
    assert np.allclose(scaled.g, alpha * m.g, atol=1e-12)


def _draws(m, row: int, seed: int, n: int):
    """Successor indices and costs of the first ``n`` transitions of triplet ``row``, as the engine draws them."""
    u = counter_uniform(seed, row, np.arange(n, dtype=np.uint64))
    succ = m.sampling.succ[m.sampling.draw(np.full(n, row), u)]
    return succ, m.C[row, succ]


def test_sample_transition_deterministic_row():
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("0", 1.0, 2.5)]})
    j, cost = _draws(m, 0, seed=7, n=20)
    assert j.tolist() == [0] * 20 and cost.tolist() == [2.5] * 20


def test_sample_transition_replayable(everett):
    """A draw is a function of its coordinates alone: batches of one repeat every entry of a batch."""
    rows = np.array([2, 0, 3, 2, 1, 2])
    ctrs = np.array([11, 11, 0, 12, 5, 11], dtype=np.uint64)
    u = counter_uniform(3, rows.astype(np.uint64), ctrs)
    batch = everett.sampling.draw(rows, u)
    assert batch.tolist() == [everett.sampling.draw(rows[k : k + 1], u[k : k + 1])[0] for k in range(len(rows))]
    assert batch[0] == batch[5]


def test_sample_transition_equiprobable_frequencies():
    m = sspg.GameModel(["1", "2"], {"1": ["a"], "2": ["a"]}, {"1": ["x"], "2": ["x"]},
                       {("1", "a", "x"): [("0", 0.5, 1.0), ("2", 0.5, 0.0)],
                        ("2", "a", "x"): [("0", 1.0, 0.0)]})
    n = 100_000
    j, _ = _draws(m, 0, seed=1, n=n)
    assert abs((j == 0).sum() / n - 0.5) < 0.01


def test_sample_transition_chi_squared():
    m = sspg.GameModel(
        ["1", "2", "3"],
        {s: ["a"] for s in "123"}, {s: ["x"] for s in "123"},
        {("1", "a", "x"): [("0", 0.2, 1.0), ("1", 0.1, 0.0), ("2", 0.3, 0.0), ("3", 0.4, 0.0)],
         ("2", "a", "x"): [("0", 1.0, 0.0)],
         ("3", "a", "x"): [("0", 1.0, 0.0)]},
    )
    probs = [0.2, 0.1, 0.3, 0.4]  # to states 0..3
    n = 100_000
    j, _ = _draws(m, 0, seed=42, n=n)
    observed = np.bincount(j, minlength=4)
    assert stats.chisquare(observed, [p * n for p in probs]).pvalue > 1e-3


def _linear_scan(cum, u):
    pos = 0
    while cum[pos] < u:
        pos += 1
    return pos


def test_draw_equals_linear_scan():
    """The one draw rule (bisect_left) is the first-reaching scan, ties with a cumulative entry included."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        n_rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        P = rng.random((n_rows, width)) * (rng.random((n_rows, width)) < 0.5)
        P[np.arange(n_rows), rng.integers(0, width, n_rows)] += 0.1  # no empty row
        P /= P.sum(axis=1, keepdims=True)
        tab = SamplingTable.from_kernel(P)
        rows, us = [], []
        for k in range(n_rows):
            cum = tab.cum[tab.start[k] : tab.start[k + 1]]
            # exact entries, their neighbours, zero and random draws
            for u in [0.0, *cum[cum < 1.0], *np.nextafter(cum, 0.0), *np.nextafter(cum, 2.0), *rng.random(8)]:
                if u <= cum[-1]:
                    rows.append(k)
                    us.append(float(u))
        rows = np.array(rows)
        got = tab.draw(rows, np.array(us))
        want = [tab.start[k] + _linear_scan(tab.cum[tab.start[k] : tab.start[k + 1]].tolist(), u)
                for k, u in zip(rows.tolist(), us)]
        assert got.tolist() == want


def test_sample_transition_equals_linear_scan():
    """Generated models: the engine's draw, counter-based uniforms through the
    sampling table, is the linear scan over the kernel row's support."""
    for seed in range(8):
        m = sspg.generate_model(sspg.GeneratorConfig(seed=seed, n_states=6, max_controls=3))
        rows = np.repeat(np.arange(m.n_triplets), 20)
        u = counter_uniform(seed, rows.astype(np.uint64), np.tile(np.arange(20, dtype=np.uint64), m.n_triplets))
        succ = m.sampling.succ[m.sampling.draw(rows, u)]
        for k, uk, j, cost in zip(rows.tolist(), u.tolist(), succ, m.C[rows, succ]):
            idx = np.flatnonzero(m.P[k] > 0.0)
            want = idx[_linear_scan(np.cumsum(m.P[k, idx]).tolist(), uk)]
            assert (j, cost) == (want, m.C[k, want])


def test_draw_rejects_empty_rows():
    tab = SamplingTable.from_kernel(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="no transition row"):
        tab.draw(np.array([0, 1]), np.array([0.2, 0.2]))


_M64 = (1 << 64) - 1


def test_counter_hash_on_arrays_matches_scalars():
    rng = np.random.default_rng(23)
    # negative components and counters enter the scalar form masked to 64 bits, as uint64 arrays wrap them
    comps = [0, 1, 12, -1, -(2**40), 2**63, 2**63 + 12345, _M64, *rng.integers(0, 2**63, 12).tolist()]
    ctrs = [0, 5, -3, 2**63, 2**63 + 1, _M64, *rng.integers(0, 2**63, 12).tolist()]
    c_arr = np.array([c & _M64 for c in comps], dtype=np.uint64)
    k_arr = np.array([k & _M64 for k in ctrs], dtype=np.uint64)
    for seed in (0, 1, -1, -(2**70), 2**64 + 5, 987654321):
        got = counter_hash(seed, c_arr[:, None], k_arr[None, :])
        assert got.dtype == np.uint64
        assert got.tolist() == [[counter_hash(seed, c, k) for k in ctrs] for c in comps]
        u = counter_uniform(seed, c_arr[:, None], k_arr[None, :])
        assert u.tolist() == [[counter_uniform(seed, c, k) for k in ctrs] for c in comps]


def test_mulhi_matches_full_product():
    rng = np.random.default_rng(29)
    hs = [0, 1, 2**32 - 1, 2**32, 2**63, _M64, *rng.integers(0, 2**64 - 1, 200, dtype=np.uint64).tolist()]
    h = np.array(hs, dtype=np.uint64)
    for n in (1, 2, 3, 12, 1095, 2**20 + 7, 2**31 - 1, 2**31):
        assert mulhi(h, n).tolist() == [(x * n) >> 64 for x in hs]


def test_counter_uniform_is_pure_function():
    assert counter_uniform(5, 9, 100) == counter_uniform(5, 9, 100)
    assert counter_uniform(5, 9, 100) != counter_uniform(5, 9, 101)
    u = counter_uniform(5, 9, 100)
    assert 0.0 <= u < 1.0


def test_round_trip_identity(everett, pursuit):
    for m in (everett, pursuit):
        text = sspg.save_model(m)
        again = sspg.load_model(text)
        assert again == m
        assert sspg.save_model(again) == text


def test_load_canonicalizes_and_renormalizes():
    doc = {
        "states": ["1"],
        "controls1": {"1": ["a"]},
        "controls2": {"1": ["x"]},
        "transitions": [
            {"i": "1", "u": "a", "v": "x",
             "next": [{"j": "1", "p": 0.5 + 2e-10, "cost": 0.0},
                      {"j": "0", "p": 0.5, "cost": 1.0}]}
        ],
    }
    m = sspg.load_model(json.dumps(doc))
    row = m.transitions[("1", "a", "x")]
    assert [e[0] for e in row] == ["0", "1"]  # canonical successor order
    assert sum(e[1] for e in row) == pytest.approx(1.0, abs=1e-15)
    assert sspg.save_model(sspg.load_model(sspg.save_model(m))) == sspg.save_model(m)


@pytest.mark.parametrize("family", ["contraction", "loopy", "sequential"])
def test_load_of_saved_generated_model_is_exact(family):
    # generated rows sum to one only up to rounding: loading must keep them as they are
    for seed in range(20):
        m = sspg.generate_model(sspg.GeneratorConfig(n_states=6, max_controls=3, family=family,
                                                     cost_range=(0.5, 2.0), seed=seed))
        text = sspg.save_model(m)
        again = sspg.load_model(text)
        assert again == m and sspg.save_model(again) == text, seed


def test_load_missing_row_names_triplet():
    doc = {
        "states": ["1"],
        "controls1": {"1": ["a", "b"]},
        "controls2": {"1": ["x"]},
        "transitions": [
            {"i": "1", "u": "a", "v": "x", "next": [{"j": "0", "p": 1.0, "cost": 0.0}]}
        ],
    }
    with pytest.raises(sspg.ModelValidationError, match=r"1,b,x"):
        sspg.load_model(json.dumps(doc))


def test_load_rejects_bad_json_with_line():
    with pytest.raises(sspg.ModelFormatError, match="line"):
        sspg.load_model("{ not json")


def test_load_rejects_terminal_in_states():
    doc = {"states": ["0"], "controls1": {}, "controls2": {}, "transitions": []}
    with pytest.raises(sspg.ModelFormatError, match='"0"'):
        sspg.load_model(json.dumps(doc))


def test_load_rejects_bad_mass():
    doc = {
        "states": ["1"],
        "controls1": {"1": ["a"]},
        "controls2": {"1": ["x"]},
        "transitions": [
            {"i": "1", "u": "a", "v": "x", "next": [{"j": "0", "p": 0.9, "cost": 0.0}]}
        ],
    }
    with pytest.raises(sspg.ModelValidationError, match="0.9"):
        sspg.load_model(json.dumps(doc))


def test_policy_helpers(everett):
    mu = sspg.pure_policy(everett, sspg.PLAYER_MIN, {"1": "2"})
    assert mu.rule("1").tolist() == [0.0, 1.0]
    uni = sspg.uniform_policy(everett, sspg.PLAYER_MAX)
    assert uni.rule("1").tolist() == [0.5, 0.5]
    doc = mu.to_json(everett)
    back = sspg.policy_from_json(everett, doc)
    assert back.rule("1").tolist() == [0.0, 1.0]
    with pytest.raises(sspg.PolicyMismatchError):
        sspg.pure_policy(everett, sspg.PLAYER_MIN, {"1": "nope"})


def test_decision_rule_validation():
    with pytest.raises(ValueError):
        sspg.decision_rule([0.5, 0.4])
    r = sspg.decision_rule([0.25, 0.75])
    assert r.sum() == 1.0


def test_bundled_models_valid():
    for name in ("everett", "zerocost", "pursuit"):
        m = sspg.load_bundled_model(name)
        assert sspg.validate_model(m).ok


# row set of a malformed model: the validation report and the kernel arrays it leaves
MALFORMED_ROWS = {
    "zero-p": ({("1", "a", "x"): [("0", 1.0, 1.0), ("1", 0.0, 5.0)]},
               "[cost-on-zero-edge] (1,a,x): cost defined on zero-probability edge to 1",
               [[1.0, 0.0], [1.0, 0.0]], [[1.0, 5.0], [0.0, 0.0]]),
    "nan-p": ({("1", "a", "x"): [("0", float("nan"), 1.0), ("1", 0.5, 1.0)]},
              "[bad-probability] (1,a,x): probability nan to 0\n[bad-mass] (1,a,x): probability mass 0.5",
              [[float("nan"), 0.5], [1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]),
    "nan-cost": ({("1", "a", "x"): [("1", 0.5, float("nan")), ("0", 0.5, 1.0)]},
                 "[bad-cost] (1,a,x): non-finite cost nan to 1",
                 [[0.5, 0.5], [1.0, 0.0]], [[1.0, float("nan")], [0.0, 0.0]]),
    "negative-p": ({("1", "a", "x"): [("0", 1.5, 1.0), ("1", -0.5, 2.0)]},
                   "[bad-probability] (1,a,x): probability -0.5 to 1\n[bad-mass] (1,a,x): probability mass 1.5",
                   [[1.5, -0.5], [1.0, 0.0]], [[1.0, 2.0], [0.0, 0.0]]),
    "missing": ({}, "[missing-row] (1,a,x): no transition row", [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
}


@pytest.mark.parametrize("case", MALFORMED_ROWS)
def test_malformed_rows_reach_validation_unchanged(case):
    rows, report, P, C = MALFORMED_ROWS[case]
    given = {**rows, ("1", "b", "x"): [("0", 1.0, 0.0)]}
    m = sspg.GameModel(["1"], {"1": ["a", "b"]}, {"1": ["x"]}, given)
    assert str(sspg.validate_model(m)) == report
    np.testing.assert_array_equal(m.P, P)
    np.testing.assert_array_equal(m.C, C)
    # the rows are kept as given (sorted by successor), zero-probability and NaN entries included
    want = {t: tuple(sorted(row, key=lambda e: e[0])) for t, row in given.items()}
    assert repr(m.transitions) == repr({t: want.get(t, ()) for t in m.triplets})


def test_duplicate_rows_and_successors_refused():
    with pytest.raises(sspg.ModelFormatError, match=r"duplicate successor entries in row \('1', 'a', 'x'\)"):
        sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]}, {("1", "a", "x"): [("0", 0.5, 1.0), ("0", 0.5, 1.0)]})


NON_STRING_LABELS = {
    "state": (([1], {"1": ["a"]}, {"1": ["x"]}, {}), '"states" entry 0 must be a string, got 1'),
    "control": ((["1"], {"1": [1]}, {"1": ["x"]}, {("1", 1, "x"): [("0", 1.0, 0.0)]}),
                '"controls1" entry for state 1: control 0 must be a string, got 1'),
    "row-key": ((["1"], {"1": ["a"]}, {"1": ["x"]}, {(1, "a", "x"): [("0", 1.0, 0.0)]}),
                'transitions[0]: "i" must be a string, got 1'),
    "successor": ((["1"], {"1": ["a"]}, {"1": ["x"]}, {("1", "a", "x"): [(0, 1.0, 0.0)]}),
                  'transitions[0] (1,a,x): entry 0: "j" must be a string, got 0'),
}


@pytest.mark.parametrize("case", NON_STRING_LABELS)
def test_non_string_labels_refused(case):
    """The constructor keeps load_model's rule and wording: labels are strings, never coerced."""
    args, err = NON_STRING_LABELS[case]
    with pytest.raises(sspg.ModelFormatError) as info:
        sspg.GameModel(*args)
    assert str(info.value) == err
    row = {"i": "1", "u": "a", "v": "x", "next": [{"j": "0", "p": 1.0, "cost": 0.0}]}
    doc = {"states": ["1"], "controls1": {"1": ["a"]}, "controls2": {"1": ["x"]}, "transitions": [row, row]}
    with pytest.raises(sspg.ModelFormatError, match=r"transitions\[1\] \(1,a,x\): duplicate transition row"):
        sspg.load_model(json.dumps(doc))


NON_NUMBER_ENTRIES = {
    "p-bool": ([("0", True, "2")], 'transitions[0] (1,a,x): entry 0: "p" and "cost" must be numbers'),
    "p-string": ([("0", "1", 2.0)], 'transitions[0] (1,a,x): entry 0: "p" and "cost" must be numbers'),
    "cost-string": ([("0", 1.0, "2")], 'transitions[0] (1,a,x): entry 0: "p" and "cost" must be numbers'),
    "cost-none": ([("1", 0.5, 1.0), ("0", 0.5, None)],
                  'transitions[0] (1,a,x): entry 1: "p" and "cost" must be numbers'),
}


@pytest.mark.parametrize("case", NON_NUMBER_ENTRIES)
def test_non_number_entries_refused(case):
    """The constructor keeps load_model's rule and wording: probabilities and costs are numbers, never coerced."""
    entries, err = NON_NUMBER_ENTRIES[case]
    with pytest.raises(sspg.ModelFormatError) as info:
        sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]}, {("1", "a", "x"): entries})
    assert str(info.value) == err
    row = {"i": "1", "u": "a", "v": "x", "next": [{"j": j, "p": p, "cost": c} for j, p, c in entries]}
    doc = {"states": ["1"], "controls1": {"1": ["a"]}, "controls2": {"1": ["x"]}, "transitions": [row]}
    with pytest.raises(sspg.ModelFormatError, match='"p" and "cost" must be numbers'):
        sspg.load_model(json.dumps(doc))


def _document(states, controls1, controls2, transitions) -> str:
    """The game document of the constructor's arguments, rows in mapping order."""
    rows = [{"i": i, "u": u, "v": v, "next": [{"j": j, "p": p, "cost": c} for j, p, c in entries]}
            for (i, u, v), entries in transitions.items()]
    return json.dumps({"states": states, "controls1": controls1, "controls2": controls2, "transitions": rows})


ONE_ROW = (["1"], {"1": ["a"]}, {"1": ["x"]})
ONE_FAULT = {f"label-{case}": args for case, (args, _) in NON_STRING_LABELS.items()}
ONE_FAULT.update({f"entry-{case}": (*ONE_ROW, {("1", "a", "x"): entries})
                  for case, (entries, _) in NON_NUMBER_ENTRIES.items()})
ONE_FAULT["entry-cost-past-float"] = (*ONE_ROW, {("1", "a", "x"): [("0", 1.0, 10**400)]})  # not an OverflowError


@pytest.mark.parametrize("case", ONE_FAULT)
def test_one_message_per_fault_from_both_entry_points(case):
    """A game given as a mapping and as a document is refused by one checker, in one wording."""
    args = ONE_FAULT[case]
    with pytest.raises(sspg.ModelFormatError) as built:
        sspg.GameModel(*args)
    with pytest.raises(sspg.ModelFormatError) as loaded:
        sspg.load_model(_document(*args))
    assert str(loaded.value) == str(built.value)


# a fault only a document can hold, and the message it gets
DOCUMENT_ONLY = {
    "i-a-list": (lambda d: d["transitions"][0].update(i=["1"]), 'transitions[0]: "i" must be a string, got [\'1\']'),
    "j-a-list": (lambda d: d["transitions"][0]["next"][0].update(j=["0"]),
                 'transitions[0] (1,a,x): entry 0: "j" must be a string, got [\'0\']'),
    "state-a-list": (lambda d: d.update(states=[["1"]]), '"states" entry 0 must be a string, got [\'1\']'),
    "control-a-list": (lambda d: d["controls1"].update({"1": [["a"]]}),
                       '"controls1" entry for state 1: control 0 must be a string, got [\'a\']'),
    "control-of-no-state": (lambda d: d["controls1"].update({"9": [1]}),
                            '"controls1" entry for state 9: control 0 must be a string, got 1'),
    "controls-of-a-state-missing": (lambda d: d["controls1"].pop("1"), '"controls1" has no entry for state 1'),
}


@pytest.mark.parametrize("case", DOCUMENT_ONLY)
def test_document_only_faults_refused(case):
    edit, err = DOCUMENT_ONLY[case]
    doc = json.loads(_document(*ONE_ROW, {("1", "a", "x"): [("0", 1.0, 0.0)]}))
    edit(doc)
    with pytest.raises(sspg.ModelFormatError) as info:
        sspg.load_model(json.dumps(doc))
    assert str(info.value) == err


def test_load_checks_each_label_and_number_once(monkeypatch):
    """A work count, not a timing: one label check per label, one number check per p and cost."""
    m = sspg.generate_model(sspg.GeneratorConfig(n_states=20, max_controls=2, seed=3))
    text = sspg.save_model(m)
    counts, paused = {"label": 0, "number": 0}, []

    def counted(name, check):
        def wrapped(*args, **kwargs):
            counts[name] += not paused
            return check(*args, **kwargs)
        return wrapped

    def from_arrays(*args):  # the suite's row check (conftest.py) rebuilds each model from its arrays
        paused.append(True)
        try:
            return build(*args)
        finally:
            paused.pop()

    build = sspg.GameModel._from_arrays
    monkeypatch.setattr(sspg.GameModel, "_from_arrays", staticmethod(from_arrays))
    monkeypatch.setattr(sspg.model, "_label", counted("label", sspg.model._label))
    monkeypatch.setattr(sspg.model, "_is_number", counted("number", sspg.model._is_number))
    assert sspg.load_model(text) == m
    entries = int(m._listed.sum())
    controls = sum(len(c[s]) for c in (m.controls1, m.controls2) for s in m.states)
    assert (len(m.states), controls, m.n_triplets, entries) == (20, 59, 45, 722)
    assert counts == {"label": len(m.states) + controls + 3 * m.n_triplets + entries, "number": 2 * entries}
    assert counts["label"] == 936


def _pinned_games():
    for name in ("everett", "zerocost", "pursuit"):
        yield name, sspg.load_bundled_model(name)
    for family in sspg.generate.FAMILIES:
        cfg = sspg.GeneratorConfig(n_states=6, max_controls=3, cost_range=(0.25, 2.0), family=family, seed=7)
        yield family, sspg.generate_model(cfg)
    # a listed zero-probability entry and a NaN cost: not a valid game, but a savable one
    yield "listed", sspg.GameModel(["1", "2"], {"1": ["a"], "2": ["a", "b"]}, {"1": ["x"], "2": ["x"]},
                                   {("1", "a", "x"): [("2", 0.5, 2.0), ("0", 0.5, 1.0), ("1", 0.0, 3.0)],
                                    ("2", "a", "x"): [("0", 1.0, float("nan"))], ("2", "b", "x"): [("1", 1.0, 0.25)]})


# sha256 of save_model's text for each game of _pinned_games
SAVE_PINS = {
    "everett": "d30bc7151dad2e92f1c105fbcdc67d3b5305e3351b22b09b07b70956797ff5f1",
    "zerocost": "efdc9d2e9a27243bb710905f0fd636b9a06dcf7f4a6a651bf625e238d7ceadcb",
    "pursuit": "19445dd0dfd7a236bffe6e52429211af4d824c0f32000feb26ff2d9e4b931e7e",
    "contraction": "1a340f9304a83c0fb28439b2f513e285cd45cfab37306302a3fea668691018ee",
    "loopy": "2da18a39c1512246c5c3739ffefe4c90619f063abafab1c4b2a47b5420259363",
    "sequential": "b36152699d12b470dec8ccf859dd510527cf2c55380c499ef6b5917b11817dcb",
    "listed": "6b8b8e12006fc9eac15655d7ddd718a5ea7ba1a33c6c377f48a7e39dfed39f8f",
}


def test_saved_bytes_pinned():
    games = dict(_pinned_games())
    assert list(games) == list(SAVE_PINS)
    for name, m in games.items():
        text = sspg.save_model(m)
        assert hashlib.sha256(text.encode()).hexdigest() == SAVE_PINS[name], name
        if sspg.validate_model(m).ok:
            assert sspg.load_model(text) == m, name
    assert not sspg.validate_model(games["listed"]).ok


def test_generated_rows_come_on_demand():
    m = sspg.generate_model(sspg.GeneratorConfig(n_states=5, max_controls=3, seed=2))
    assert "transitions" not in m.__dict__  # nothing derived until asked
    rows = m.transitions
    assert m.transitions is rows
    live = m.P > 0
    assert [len(rows[t]) for t in m.triplets] == live.sum(axis=1).tolist()
    for k, t in enumerate(m.triplets):
        want = tuple((m.state_label(j), float(m.P[k, j]), float(m.C[k, j])) for j in np.flatnonzero(live[k]))
        assert rows[t] == want


def test_generated_models_compare_by_their_arrays():
    cfg = sspg.GeneratorConfig(n_states=500, max_controls=2, termination_floor=0.1, seed=5)
    a, b = sspg.generate_model(cfg), sspg.generate_model(cfg)
    assert a == b and b == a
    assert "transitions" not in a.__dict__ and "transitions" not in b.__dict__  # decided without building rows
    k, j = np.argwhere(a.P > 0)[7]
    for name in ("P", "C"):  # one entry of the support changed
        arrays = {"P": a.P.copy(), "C": a.C.copy()}
        arrays[name][k, j] = np.nextafter(arrays[name][k, j], 2.0)
        other = sspg.GameModel._from_arrays(a.states, a.controls1, a.controls2, arrays["P"], arrays["C"])
        assert a != other and other != a, name
    assert "transitions" not in a.__dict__ and "transitions" not in b.__dict__
    small = sspg.generate_model(sspg.GeneratorConfig(n_states=40, max_controls=3, seed=5))
    assert sspg.load_model(sspg.save_model(small)) == small  # a constructor-built model equals its source


def test_rows_and_arrays_of_the_same_entries_compare_equal():
    labels = (["1"], {"1": ["a", "b"]}, {"1": ["x"]})
    rows = {("1", "a", "x"): [("1", 0.25, 2.0), ("0", 0.75, 1.0)], ("1", "b", "x"): [("0", 1.0, 0.0)]}
    built = sspg.GameModel(*labels, rows)
    arrays = sspg.GameModel._from_arrays(*labels, built.P.copy(), built.C.copy())
    assert built == arrays and arrays == built
    # a listed zero-probability entry: the same P and C, another model
    zero = sspg.GameModel(*labels, {**rows, ("1", "b", "x"): [("0", 1.0, 0.0), ("1", 0.0, 0.0)]})
    assert zero.P.tobytes() == built.P.tobytes() and zero.C.tobytes() == built.C.tobytes()
    for other in (built, arrays):
        assert zero != other and other != zero


def test_a_model_with_a_nan_entry_equals_itself_alone():
    rows = {("1", "a", "x"): [("0", float("nan"), 1.0), ("1", 0.5, 0.0)]}
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]}, rows)
    assert m == m
    assert m != sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]}, rows)


# a malformed GeneratorConfig field and the start of its error
BAD_CONFIGS = {
    "n_states-a-float": (dict(n_states=2.5), "n_states must be an integer, got 2.5"),
    "n_states-a-bool": (dict(n_states=True), "n_states must be an integer, got True"),
    "max_controls-a-string": (dict(max_controls="2"), "max_controls must be an integer, got '2'"),
    "n_states-a-string": (dict(n_states="3"), "n_states must be an integer, got '3'"),
    "max_controls-a-float": (dict(max_controls=2.0), "max_controls must be an integer, got 2.0"),
    "max_controls-a-bool": (dict(max_controls=True), "max_controls must be an integer, got True"),
    "seed-a-float": (dict(seed=1.5), "seed must be an integer, got 1.5"),
    "seed-a-bool": (dict(seed=False), "seed must be an integer, got False"),
    "seed-a-string": (dict(seed="0"), "seed must be an integer, got '0'"),
    "seed-negative": (dict(seed=-1), "seed must be a non-negative integer, got -1"),
    "floor-a-string": (dict(termination_floor="0.1"), "termination_floor must be a real number, got '0.1'"),
    "floor-a-bool": (dict(termination_floor=True), "termination_floor must be a real number, got True"),
    "floor-nan": (dict(termination_floor=float("nan")), "termination_floor must lie in [0, 1]"),
    "cost-one-number": (dict(cost_range=1.0), "cost_range must be two finite numbers (lo, hi), got 1.0"),
    "cost-three-numbers": (dict(cost_range=(0, 1, 2)), "cost_range must be two finite numbers (lo, hi), got (0, 1, 2)"),
    "cost-a-string": (dict(cost_range=("0", 1)), "cost_range must be two finite numbers (lo, hi), got ('0', 1)"),
    "cost-infinite": (dict(cost_range=(0.0, float("inf"))), "cost_range must be two finite numbers (lo, hi), got (0.0, inf)"),
    "cost-nan": (dict(cost_range=(float("nan"), 1.0)), "cost_range must be two finite numbers (lo, hi), got (nan, 1.0)"),
    "cost-width-overflows": (dict(cost_range=(-1e308, 1e308)), "cost_range must be two finite numbers"),
    "cost-reversed": (dict(cost_range=(2.0, 1.0)), "cost_range must have lo <= hi"),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_generator_config_fields_named(case):
    kwargs, err = BAD_CONFIGS[case]
    with pytest.raises(ValueError) as info:
        sspg.GeneratorConfig(**kwargs)
    assert str(info.value).startswith(err)


def test_generator_config_accepts_numpy_numbers():
    cfg = sspg.GeneratorConfig(n_states=np.int64(4), max_controls=np.int32(3), seed=np.uint8(7),
                               termination_floor=np.float32(0.25), cost_range=[np.float64(-1), 2])
    plain = sspg.GeneratorConfig(n_states=4, max_controls=3, seed=7, termination_floor=0.25, cost_range=(-1.0, 2.0))
    _assert_same_model(sspg.generate_model(cfg), sspg.generate_model(plain))
