"""Graph and Markov-chain analyses of SSP game structure.

Covers: the chain induced by a stationary policy pair, almost-sure
termination tests (for a fixed policy, against every opponent policy or
against some opponent policy), recurrent-class average costs, essential
properness of a policy, the game-level structural assumption report, and
the auxiliary single-player problem induced by fixing the maximizer's
policy.

Almost-sure reachability questions over the randomized-policy continuum are
decided by graph fixpoints on transition supports, which is exact: whether
termination is reached with probability one depends only on which
transitions have positive probability, not on their values.  Total-cost
classification of prolonging chains follows the recurrent-class gain rule:
a reachable recurrent class with positive (negative) average cost forces
total cost +inf (-inf) on the class and everything that reaches it; a
prolonging chain whose reachable classes all have zero gain is the
assumption-violating case and is flagged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import (
    PLAYER_MAX,
    PLAYER_MIN,
    GameModel,
    StationaryPolicy,
    policy_arrays,
    policy_average,
    pure_policy,
)

#: |gain| at or below this is treated as zero when classifying total costs
GAIN_TOL = 1e-9


# ---------------------------------------------------------------------------
# Induced chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedChain:
    """Markov chain induced by a policy pair: states 0..n, 0 absorbing."""

    P: np.ndarray  # (n+1, n+1) row-stochastic, row 0 = unit vector at 0
    costs: np.ndarray  # (n+1,), costs[0] == 0
    labels: tuple[str, ...]  # labels for indices 1..n


def induce_chain(m: GameModel, mu: StationaryPolicy, nu: StationaryPolicy) -> InducedChain:
    """P[i][j] = sum_{u,v} mu(u|i) nu(v|i) p_ij(u,v); costs likewise from g."""
    rows, _ = policy_average(m, np.column_stack((m.g, m.P)), mu, nu)
    P = np.vstack((np.eye(1, m.n + 1), rows[:, 1:]))
    return InducedChain(P, np.concatenate(([0.0], rows[:, 0])), m.states)


# ---------------------------------------------------------------------------
# Reachability fixpoints
# ---------------------------------------------------------------------------


def _reverse_reachable(adj: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Nodes with a directed path into the source set (sources included)."""
    r = sources.copy()
    while True:
        grown = r | (adj[:, r].any(axis=1))
        if (grown == r).all():
            return r
        r = grown


def reach_probability_one(chain: InducedChain) -> np.ndarray:
    """True at state i iff the chain hits state 0 from i with probability 1.

    Graph test: absorption is almost sure exactly when no state reachable
    from i belongs to the set that cannot reach 0 at all.
    """
    n1 = chain.P.shape[0]
    adj = chain.P > 0.0
    to_zero = _reverse_reachable(adj, np.eye(n1, dtype=bool)[0])
    trapped = ~to_zero
    trapped[0] = False
    bad = _reverse_reachable(adj, trapped)
    return ~bad[1:]


def _support_rows(m: GameModel, fixed: StationaryPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Boolean successor support over 0..n of every opponent control, and each state's first row.

    Built from rule weights > 0 and kernel entries > 0 separately, never from
    their product, which can underflow to zero on a live edge.
    """
    lay = m.control_layout
    own = policy_arrays(m, fixed)[lay.index[fixed.player - 1]] > 0.0
    opponent = PLAYER_MAX if fixed.player == PLAYER_MIN else PLAYER_MIN
    return lay.group(own[:, None] & (m.P > 0.0), opponent, np.logical_or)


def forall_termination(m: GameModel, fixed: StationaryPolicy) -> np.ndarray:
    """True at i iff every opponent stationary policy terminates a.s. from i.

    Computed as the complement of the states from which the opponent can
    reach a sub-model it can stay in forever while avoiding 0.
    """
    supp, offsets = _support_rows(m, fixed)
    alive = np.ones(m.n + 1, dtype=bool)
    alive[0] = False
    while True:
        # keep a state while some opponent control stays inside `alive`
        kept = alive[1:] & np.logical_or.reduceat(~(supp & ~alive).any(axis=1), offsets)
        if (kept == alive[1:]).all():
            break
        alive[1:] = kept
    if not alive.any():
        return np.ones(m.n, dtype=bool)
    adj = np.zeros((m.n + 1, m.n + 1), dtype=bool)
    adj[1:] = np.logical_or.reduceat(supp, offsets, axis=0)
    adj[:, 0] = False  # paths through 0 are absorbed, not useful
    bad = _reverse_reachable(adj, alive)
    return ~bad[1:]


def exists_termination(m: GameModel, fixed: StationaryPolicy) -> np.ndarray:
    """True at i iff some opponent stationary policy terminates a.s. from i.

    Standard two-level fixpoint for almost-sure reachability with a
    cooperating controller: repeatedly restrict to states that can reach 0
    without ever risking a step outside the current candidate set.
    """
    supp, offsets = _support_rows(m, fixed)
    w = np.ones(m.n + 1, dtype=bool)
    while True:
        safe = ~(supp & ~w).any(axis=1)  # the control cannot leave the candidate set
        r = np.zeros(m.n + 1, dtype=bool)
        r[0] = True
        while True:
            grown = r.copy()
            grown[1:] = w[1:] & np.logical_or.reduceat(safe & (supp & r).any(axis=1), offsets)
            if (grown == r).all():
                break
            r = grown
        if (r == w).all():
            return w[1:]
        w = r


# ---------------------------------------------------------------------------
# Recurrent classes and total-cost classification
# ---------------------------------------------------------------------------


def recurrent_class_gains(chain: InducedChain) -> list[tuple[tuple[str, ...], float]]:
    """Recurrent classes with their long-run average stage costs.

    Partitions 0..n into recurrent classes (closed strongly connected
    components, including {0} with gain 0) and transient states; the gain
    of a class is its stationary distribution weighted average stage cost.
    """
    n1 = chain.P.shape[0]
    adj = chain.P > 0.0
    n_comp, comp = connected_components(csr_matrix(adj), directed=True, connection="strong")
    out = []
    for cidx in range(n_comp):
        members = np.flatnonzero(comp == cidx)
        outside = adj[np.ix_(members, np.setdiff1d(np.arange(n1), members))]
        if outside.any():
            continue  # leaks out: transient
        sub = chain.P[np.ix_(members, members)]
        k = len(members)
        a = (np.eye(k) - sub).T
        a[-1, :] = 1.0
        b = np.zeros(k)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        gain = float(pi @ chain.costs[members])
        labels = tuple("0" if i == 0 else chain.labels[i - 1] for i in members)
        out.append((labels, gain))
    out.sort(key=lambda item: item[0])
    return out


@dataclass(frozen=True)
class ChainClassification:
    """Total-cost classification of an induced chain, per state."""

    values: np.ndarray  # +-inf where total cost diverges, nan if undetermined
    prolonging: bool
    flags: tuple[str, ...]


def classify_chain(chain: InducedChain) -> ChainClassification:
    n = chain.P.shape[0] - 1
    reach = reach_probability_one(chain)
    if reach.all():
        P_ss = chain.P[1:, 1:]
        values = np.linalg.solve(np.eye(n) - P_ss, chain.costs[1:])
        return ChainClassification(values, False, ())

    flags: set[str] = set()
    classes = recurrent_class_gains(chain)
    label_to_idx = {lbl: k + 1 for k, lbl in enumerate(chain.labels)}
    label_to_idx["0"] = 0

    # absorption probability into each recurrent class, for every state
    all_members = []
    for labels, _ in classes:
        all_members.append(np.array([label_to_idx[s] for s in labels]))
    recurrent = np.zeros(n + 1, dtype=bool)
    for mem in all_members:
        recurrent[mem] = True
    transient = np.flatnonzero(~recurrent)
    P_tt = chain.P[np.ix_(transient, transient)]
    lu = np.linalg.inv(np.eye(len(transient)) - P_tt) if len(transient) else None

    absorb = np.zeros((len(classes), n + 1))
    for k, mem in enumerate(all_members):
        absorb[k, mem] = 1.0
        if len(transient):
            rhs = chain.P[np.ix_(transient, mem)].sum(axis=1)
            absorb[k, transient] = lu @ rhs

    values = np.empty(n)
    finite_states = []
    for i in range(1, n + 1):
        pos = neg = zero_prolong = 0.0
        drift = 0.0
        for k, (labels, gain) in enumerate(classes):
            a = absorb[k, i]
            drift += a * gain
            if gain > GAIN_TOL:
                pos += a
            elif gain < -GAIN_TOL:
                neg += a
            elif labels != ("0",):
                zero_prolong += a
        if pos > 1e-12 and neg > 1e-12:
            flags.add("mixed-sign-gains")
            values[i - 1] = np.inf if drift > GAIN_TOL else (-np.inf if drift < -GAIN_TOL else np.nan)
            if np.isnan(values[i - 1]):
                flags.add("undetermined-total-cost")
        elif pos > 1e-12:
            values[i - 1] = np.inf
        elif neg > 1e-12:
            values[i - 1] = -np.inf
        else:
            if zero_prolong > 1e-12:
                flags.add("zero-gain-prolonging")
            finite_states.append(i)

    if finite_states:
        # zero-drift prolonging states: estimate the limit of expected
        # partial sums on the finite sub-chain (bounded by construction)
        idx = np.array(finite_states)
        P_ff = chain.P[np.ix_(idx, idx)]
        c_f = chain.costs[idx]
        s = np.zeros(len(idx))
        window = []
        for k in range(4000):
            s = c_f + P_ff @ s
            if k >= 3500:
                window.append(s.copy())
        window_arr = np.array(window)
        values[idx - 1] = window_arr.mean(axis=0)
        if np.ptp(window_arr, axis=0).max() > 1e-6:
            flags.add("oscillating-partial-sums")

    return ChainClassification(values, True, tuple(sorted(flags)))


# ---------------------------------------------------------------------------
# Pure-policy enumeration
# ---------------------------------------------------------------------------


def count_pure_policies(m: GameModel, player: int) -> int:
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    count = 1
    for s in m.states:
        count *= max(len(ctrl[s]), 1)
    return count


def iter_pure_policies(m: GameModel, player: int) -> Iterator[StationaryPolicy]:
    """All deterministic stationary policies, in canonical label order."""
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    for combo in itertools.product(*(ctrl[s] for s in m.states)):
        yield pure_policy(m, player, dict(zip(m.states, combo)))


# ---------------------------------------------------------------------------
# Essential properness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropernessReport:
    verdict: str  # "yes" | "no" | "inconclusive"
    reason: str = ""
    witness_policy: StationaryPolicy | None = None
    witness_state: str | None = None


def is_essentially_proper(
    m: GameModel, policy: StationaryPolicy, max_opponents: int = 10**6
) -> PropernessReport:
    """Check whether a policy's induced single-player problem is well-posed.

    "yes" requires either that no opponent response prolongs the game at all
    (a graph fact that covers randomized opponents exactly), or is never
    claimed: when prolonging pure responses exist, they are enumerated and
    each must be infinitely bad for the opponent, but that enumeration does
    not bound randomized mixtures (zero-gain mixtures are possible), so the
    verdict is "inconclusive" rather than "yes".
    """
    et = exists_termination(m, policy)
    if not et.all():
        s = m.states[int(np.flatnonzero(~et)[0])]
        return PropernessReport(
            "no", f"no opponent response terminates almost surely from state {s}", witness_state=s
        )
    if forall_termination(m, policy).all():
        return PropernessReport("yes", "no opponent response is prolonging")
    opp = PLAYER_MAX if policy.player == PLAYER_MIN else PLAYER_MIN
    if count_pure_policies(m, opp) > max_opponents:
        return PropernessReport("inconclusive", "too large: opponent pure policy space exceeds cap")
    need_neg = policy.player == PLAYER_MIN
    for theirs in iter_pure_policies(m, opp):
        cls = classify_chain(induce_chain(m, *((policy, theirs) if need_neg else (theirs, policy))))
        if not cls.prolonging:
            continue
        bad_for_opponent = (
            np.isneginf(cls.values).any() if need_neg else np.isposinf(cls.values).any()
        )
        if not bad_for_opponent:
            return PropernessReport(
                "no",
                "prolonging opponent response without the required infinite cost",
                witness_policy=theirs,
            )
    return PropernessReport(
        "inconclusive",
        "all pure prolonging responses are infinitely bad for the opponent; "
        "randomized mixtures are not excluded by enumeration",
    )


# ---------------------------------------------------------------------------
# Game-level structural assumption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseVerdict:
    status: str  # "holds" | "violated" | "inconclusive"
    note: str = ""
    witness_mu: StationaryPolicy | None = None
    witness_nu: StationaryPolicy | None = None
    witness_states: tuple[str, ...] = ()


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts for the three structural clauses of the SSP game model.

    Clause 1: the minimizer has a policy keeping its cost below +inf against
    every opponent policy.  Clause 2: symmetric for the maximizer against
    -inf.  Clause 3: every prolonging policy pair is infinitely bad for one
    of the players.  "holds" verdicts are certified over deterministic
    stationary policies only and carry an explicit caveat; "violated"
    verdicts carry a reproducible witness and are conclusive (a pure witness
    is also a randomized one).
    """

    clause_safeguard_min: ClauseVerdict
    clause_safeguard_max: ClauseVerdict
    clause_prolonging: ClauseVerdict
    caveats: tuple[str, ...]

    @property
    def overall(self) -> str:
        statuses = [
            self.clause_safeguard_min.status,
            self.clause_safeguard_max.status,
            self.clause_prolonging.status,
        ]
        if "violated" in statuses:
            return "violated"
        if all(s == "holds" for s in statuses):
            return "holds"
        return "inconclusive"

    def to_json(self, m: GameModel) -> dict:
        def clause(c: ClauseVerdict) -> dict:
            out = {"status": c.status, "note": c.note}
            if c.witness_mu is not None:
                out["witness_mu"] = c.witness_mu.to_json(m)
            if c.witness_nu is not None:
                out["witness_nu"] = c.witness_nu.to_json(m)
            if c.witness_states:
                out["witness_states"] = list(c.witness_states)
            return out

        return {
            "overall": self.overall,
            "clauses": {
                "safeguard_min": clause(self.clause_safeguard_min),
                "safeguard_max": clause(self.clause_safeguard_max),
                "prolonging_pairs": clause(self.clause_prolonging),
            },
            "caveats": list(self.caveats),
        }


def check_ssp_game_assumption(m: GameModel, max_pairs: int = 10**6) -> AssumptionReport:
    """Enumerate pure policy pairs and report the structural clause verdicts."""
    n_mu = count_pure_policies(m, PLAYER_MIN)
    n_nu = count_pure_policies(m, PLAYER_MAX)
    caveat = "certified over deterministic stationary policies only"
    if n_mu * n_nu > max_pairs:
        too_big = ClauseVerdict("inconclusive", f"pure pair space {n_mu * n_nu} exceeds cap {max_pairs}")
        return AssumptionReport(too_big, too_big, too_big, (caveat,))

    mus = list(iter_pure_policies(m, PLAYER_MIN))
    nus = list(iter_pure_policies(m, PLAYER_MAX))
    has_pos = np.zeros((n_mu, n_nu), dtype=bool)
    has_neg = np.zeros((n_mu, n_nu), dtype=bool)
    prolonging_witness = None
    for a, mu in enumerate(mus):
        for b, nu in enumerate(nus):
            chain = induce_chain(m, mu, nu)
            cls = classify_chain(chain)
            has_pos[a, b] = np.isposinf(cls.values).any()
            has_neg[a, b] = np.isneginf(cls.values).any()
            if cls.prolonging and not has_pos[a, b] and not has_neg[a, b] and prolonging_witness is None:
                bad = tuple(m.states[i] for i in np.flatnonzero(~reach_probability_one(chain)))
                prolonging_witness = (mu, nu, bad)

    if prolonging_witness is None:
        clause3 = ClauseVerdict("holds", "every pure prolonging pair has an infinite total cost")
    else:
        mu_w, nu_w, states_w = prolonging_witness
        clause3 = ClauseVerdict(
            "violated",
            "prolonging pair with finite total cost (zero-gain recurrent class)",
            witness_mu=mu_w,
            witness_nu=nu_w,
            witness_states=states_w,
        )

    from .solve import CONVERGED, evaluate_vs_best_response  # solve imports this module

    def safeguard(rows_bad: np.ndarray, policies: Sequence[StationaryPolicy], who: str) -> ClauseVerdict:
        for k, pol in enumerate(policies):
            if rows_bad[k].any():
                continue
            _, trace = evaluate_vs_best_response(m, pol, max_iter=2000)
            note = f"pure safeguard found for {who}"
            if trace.outcome != CONVERGED:
                note += " (best-response iteration did not settle; pure-pair evidence only)"
            return ClauseVerdict(
                "holds",
                note,
                witness_mu=pol if who == "minimizer" else None,
                witness_nu=pol if who == "maximizer" else None,
            )
        return ClauseVerdict(
            "inconclusive", f"no pure safeguard for the {who}; randomized safeguards not excluded"
        )

    clause1 = safeguard(has_pos, mus, "minimizer")
    clause2 = safeguard(has_neg.T, nus, "maximizer")
    return AssumptionReport(clause1, clause2, clause3, (caveat,))


# ---------------------------------------------------------------------------
# The induced single-player problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SspA:
    """Single-player SSP induced by fixing the maximizer's policy.

    State space: 0, the game states 1..n, and every triplet as an entry
    state.  Triplet states are uncontrolled and move to a game state (or 0)
    with the model's kernel and costs; at a game state the remaining player
    picks u and moves with the fixed-policy-averaged kernel and costs.
    """

    model: GameModel
    nu: StationaryPolicy
    s_probs: tuple[np.ndarray, ...]  # per state: (|U(i)|, n+1)
    s_costs: tuple[np.ndarray, ...]  # per state: (|U(i)|,)

    def to_json(self) -> dict:
        m = self.model
        rows = []
        for i, s in enumerate(m.states):
            for ui, u in enumerate(m.controls1[s]):
                rows.append(
                    {
                        "i": s,
                        "u": u,
                        "p": {m.state_label(j): float(p) for j, p in enumerate(self.s_probs[i][ui]) if p > 0},
                        "cost": float(self.s_costs[i][ui]),
                    }
                )
        return {"policy": self.nu.to_json(m), "state_rows": rows}


def build_sspa(m: GameModel, nu: StationaryPolicy) -> SspA:
    rows, offsets = policy_average(m, np.column_stack((m.g, m.P)), nu=nu)
    split = offsets[1:]
    return SspA(m, nu, tuple(np.split(rows[:, 1:], split)), tuple(np.split(rows[:, 0], split)))


@dataclass(frozen=True)
class SspVerdict:
    status: str  # "holds" | "violated" | "inconclusive"
    reason: str = ""
    witness: dict | None = None  # state -> control label


def check_single_player_ssp(sspa: SspA, max_policies: int = 10**6) -> SspVerdict:
    """Verify the single-player model conditions by pure-policy enumeration.

    Needs at least one policy terminating almost surely from every state,
    and every policy that fails to must have a reachable recurrent class
    with strictly positive average cost.
    """
    m = sspa.model
    sizes = [len(m.controls1[s]) for s in m.states]
    total = int(np.prod(sizes)) if sizes else 1
    if total > max_policies:
        return SspVerdict("inconclusive", f"pure policy space {total} exceeds cap {max_policies}")
    probs = np.concatenate((np.eye(1, m.n + 1), *sspa.s_probs))
    costs = np.concatenate(([0.0], *sspa.s_costs))
    first = np.concatenate(([0], 1 + m.control_layout.offsets[0]))
    proper_found = False
    for combo in itertools.product(*(range(k) for k in sizes)):
        rows = first + (0, *combo)
        chain = InducedChain(probs[rows], costs[rows], m.states)
        if reach_probability_one(chain).all():
            proper_found = True
            continue
        gains = [g for labels, g in recurrent_class_gains(chain) if labels != ("0",)]
        if not any(g > GAIN_TOL for g in gains):
            witness = {s: m.controls1[s][combo[k]] for k, s in enumerate(m.states)}
            return SspVerdict(
                "violated", "improper policy without a positive-gain recurrent class", witness
            )
    if not proper_found:
        return SspVerdict("violated", "no proper deterministic policy exists")
    return SspVerdict("holds", "proper policy exists; improper ones incur +inf")
