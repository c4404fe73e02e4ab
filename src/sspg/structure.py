"""Graph and Markov-chain analyses of SSP game structure.

Covers: the chain induced by a stationary policy pair, almost-sure
termination tests (for a fixed policy, against every opponent policy or
against some opponent policy), recurrent-class average costs, essential
properness of a policy, the game-level structural assumption report, and
the auxiliary single-player problem induced by fixing the maximizer's
policy.  Whether a fixed policy leaves the opponent an SSP (essential
properness, and the single-player check) is decided exactly, over
randomized responses too, by the opponent's best response
(:func:`sspg.solve.evaluate_vs_best_response`).

Almost-sure reachability questions over the randomized-policy continuum are
decided by graph fixpoints on transition supports, which is exact: whether
termination is reached with probability one depends only on which
transitions have positive probability, not on their values.  Total costs
of prolonging chains are exact too: a state that reaches a closed class of
positive (negative) gain with positive probability, a question of the
support graph too, has total cost +inf (-inf); on states that reach only
zero-gain classes it is the Cesàro limit h of the expected partial sums,
(I - P + P*) h = c with P* the limiting matrix (Puterman, *Markov Decision
Processes*, App. A).  Zero-gain
prolonging classes violate the model assumption and are flagged, as are
periodic ones whose partial sums oscillate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import (
    PLAYER_MAX,
    PLAYER_MIN,
    GameModel,
    StationaryPolicy,
    _empty_controls,
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
    """Nodes with a directed path into the source set (sources included); leading axes are a batch."""
    r = sources.copy()
    while True:
        grown = r | (adj & r[..., None, :]).any(axis=-1)
        if (grown == r).all():
            return r
        r = grown


def reach_probability_one(chain: InducedChain) -> np.ndarray:
    """True at state i iff the chain hits state 0 from i with probability 1.

    Graph test: absorption is almost sure exactly when no state reachable
    from i belongs to the set that cannot reach 0 at all.
    """
    adj = chain.P > 0.0
    trapped = ~_reverse_reachable(adj, np.eye(len(adj), dtype=bool)[0])
    return ~_reverse_reachable(adj, trapped)[1:]


def _support_rows(m: GameModel, fixed: StationaryPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Boolean successor support over 0..n of every opponent control, and each state's first row.

    Built from rule weights > 0 and kernel entries > 0 separately, never from
    their product, which can underflow to zero on a live edge.
    """
    lay = m.control_layout
    own = policy_arrays(m, fixed)[lay.index[fixed.player - 1]] > 0.0
    opponent = PLAYER_MAX if fixed.player == PLAYER_MIN else PLAYER_MIN
    return lay.group(own[:, None] & (m.P > 0.0), opponent, np.logical_or)


def _staying_set(supp: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """States (over 0..n) where some choice among the support rows avoids 0 forever."""
    alive = np.ones(supp.shape[1], dtype=bool)
    alive[0] = False
    while True:
        # keep a state while some row stays inside `alive`
        kept = alive[1:] & np.logical_or.reduceat(~(supp & ~alive).any(axis=1), offsets)
        if (kept == alive[1:]).all():
            return alive
        alive[1:] = kept


def forall_termination(m: GameModel, fixed: StationaryPolicy) -> np.ndarray:
    """True at i iff every opponent stationary policy terminates a.s. from i.

    Computed as the complement of the states from which the opponent can
    reach a sub-model it can stay in forever while avoiding 0.
    """
    supp, offsets = _support_rows(m, fixed)
    alive = _staying_set(supp, offsets)
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
    return _terminating_response(m, fixed)[2] >= 0


def _terminating_response(m: GameModel, fixed: StationaryPolicy):
    """The :func:`_support_rows` output and a pure response attaining :func:`exists_termination`.

    At each state of the fixpoint the response's row stays inside it and has
    an edge into an earlier layer, so the response terminates a.s.; -1 elsewhere.
    """
    supp, offsets = _support_rows(m, fixed)
    rows = np.arange(len(supp))
    w = np.ones(m.n + 1, dtype=bool)
    while True:
        safe = ~(supp & ~w).any(axis=1)  # the control cannot leave the candidate set
        r = np.eye(1, m.n + 1, dtype=bool)[0]
        pick = np.full(m.n, -1)
        while True:
            # each state's first safe row with an edge into the layers so far
            first = np.minimum.reduceat(np.where(safe & (supp & r).any(axis=1), rows, len(rows)), offsets)
            new = w[1:] & ~r[1:] & (first < len(rows))
            if not new.any():
                break
            pick[new] = first[new]
            r[1:] |= new
        if (r == w).all():
            return supp, offsets, pick
        w = r


# ---------------------------------------------------------------------------
# Recurrent classes and total-cost classification
# ---------------------------------------------------------------------------


def _reach(adj: np.ndarray) -> np.ndarray:
    """reach[..., i, j] iff j is reachable from i along ``adj``'s edges (i included); leading axes are a batch."""
    reach = adj | np.eye(adj.shape[-1], dtype=bool)
    for _ in range(adj.shape[-1].bit_length()):  # each squaring doubles the path length covered
        reach = (reach.astype(float) @ reach) > 0.0
    return reach


def _closed_classes(chain: InducedChain) -> list[tuple[np.ndarray, np.ndarray]]:
    """Closed classes of the chain as (member indices, stationary distribution).

    A closed class is a strongly connected component that no edge leaves;
    {0} is one.  States in no closed class are transient.  Classes come in
    the order of their smallest member.
    """
    reach = _reach(chain.P > 0.0)
    # i is in a closed class iff every state it reaches reaches it back
    closed = ~(reach & ~reach.T).any(axis=1)
    out = []
    for i in np.flatnonzero(closed):
        members = np.flatnonzero(reach[i])
        if members[0] != i:  # the class was listed from its smallest member
            continue
        a = (np.eye(len(members)) - chain.P[np.ix_(members, members)]).T
        a[-1, :] = 1.0  # replace one balance equation by sum(pi) = 1
        out.append((members, np.linalg.solve(a, np.eye(len(members))[-1])))
    return out


def recurrent_class_gains(chain: InducedChain) -> list[tuple[tuple[str, ...], float]]:
    """Recurrent classes with their long-run average stage costs.

    Partitions 0..n into recurrent classes (closed strongly connected
    components, including {0} with gain 0) and transient states; the gain
    of a class is its stationary distribution weighted average stage cost.
    """
    return sorted(  # class labels are disjoint, so this sorts by label
        (tuple("0" if i == 0 else chain.labels[i - 1] for i in members), float(pi @ chain.costs[members]))
        for members, pi in _closed_classes(chain)
    )


def _oscillates(chain: InducedChain, members: np.ndarray, pi: np.ndarray) -> bool:
    """True iff a zero-gain closed class has period d > 1 and a cyclic subclass of nonzero pi-weighted cost.

    With BFS levels from the first member, d = gcd(level(i) + 1 - level(j))
    over edges i -> j, and j lies in subclass level(j) mod d.
    """
    adj = chain.P[np.ix_(members, members)] > 0.0
    level = np.full(len(members), -1)
    frontier, depth = np.eye(1, len(members), dtype=bool)[0], 0
    while frontier.any():
        level[frontier] = depth
        frontier = adj[frontier].any(axis=0) & (level < 0)
        depth += 1
    src, dst = np.nonzero(adj)
    d = int(np.gcd.reduce(level[src] + 1 - level[dst]))
    weighted = np.bincount(level % d, pi * chain.costs[members], minlength=d)
    return d > 1 and bool((np.abs(weighted) > GAIN_TOL).any())


@dataclass(frozen=True)
class ChainClassification:
    """Per-state total costs of an induced chain (of a committed policy pair).

    When the chain is not prolonging they solve its linear fixed-point
    equation exactly.  Flags name assumption-violating structure.
    """

    values: np.ndarray  # +-inf where total cost diverges, nan if undetermined
    prolonging: bool
    flags: tuple[str, ...]

    def classification(self, k: int) -> str:
        v = self.values[k]
        return ("plus_infinity" if np.isposinf(v) else "minus_infinity" if np.isneginf(v)
                else "undetermined" if np.isnan(v) else "finite")

    def to_json(self, m: GameModel) -> dict:
        per_state = {}
        for k, s in enumerate(m.states):
            tag = self.classification(k)
            per_state[s] = {"classification": tag}
            if tag == "finite":
                per_state[s]["value"] = float(self.values[k])
        return {"prolonging": self.prolonging, "flags": list(self.flags), "states": per_state}


def classify_chain(chain: InducedChain) -> ChainClassification:
    """Total cost of the chain from every state 1..n (see the module docstring).

    A state that reaches gain classes of both signs takes the sign of its
    drift, or nan if the drift is zero.
    """
    n = chain.P.shape[0] - 1
    classes = _closed_classes(chain)
    member = np.zeros((n + 1, len(classes)))
    stationary = np.zeros((len(classes), n + 1))
    for k, (members, pi) in enumerate(classes):
        member[members, k] = 1.0
        stationary[k, members] = pi
    gains = np.array([pi @ chain.costs[members] for members, pi in classes])

    # absorption probability into each closed class, for every state
    absorb = member.copy()
    transient = np.flatnonzero(~member.any(axis=1))
    P_tt = chain.P[np.ix_(transient, transient)]
    absorb[transient] = np.linalg.solve(np.eye(len(transient)) - P_tt, chain.P[transient] @ member)

    # which states reach a class of each gain sign, on the support graph; the drift of every state
    prolong_zero = (np.abs(gains) <= GAIN_TOL) & (member[0] == 0.0)  # zero-gain classes other than {0}
    adj = chain.P > 0.0
    pos, neg = (_reverse_reachable(adj, member @ sign > 0.0)[1:] for sign in (gains > GAIN_TOL, gains < -GAIN_TOL))
    drift = absorb[1:] @ gains
    by_drift = np.where(drift > GAIN_TOL, np.inf, np.where(drift < -GAIN_TOL, -np.inf, np.nan))
    values = np.where(pos & neg, by_drift, np.where(pos, np.inf, np.where(neg, -np.inf, 0.0)))

    # Cesàro limits of the states that reach only zero-gain classes
    finite = np.flatnonzero(~(pos | neg)) + 1
    P_star = absorb[finite] @ stationary[:, finite]
    lhs = np.eye(len(finite)) - chain.P[np.ix_(finite, finite)] + P_star
    values[finite - 1] = np.linalg.solve(lhs, chain.costs[finite])
    flags = (
        ("mixed-sign-gains", (pos & neg).any()),
        ("oscillating-partial-sums", any(_oscillates(chain, *classes[k]) for k in prolong_zero.nonzero()[0])),
        ("undetermined-total-cost", np.isnan(values).any()),
        ("zero-gain-prolonging", prolong_zero.any()),  # its members are among the finite states
    )
    return ChainClassification(values, len(classes) > 1, tuple(name for name, hit in flags if hit))


# ---------------------------------------------------------------------------
# Pure-policy enumeration
# ---------------------------------------------------------------------------


def count_pure_policies(m: GameModel, player: int) -> int:
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    return math.prod(max(len(ctrl[s]), 1) for s in m.states)


def _pure_policy(m: GameModel, player: int, combo: Sequence[int]) -> StationaryPolicy:
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    return pure_policy(m, player, {s: ctrl[s][k] for s, k in zip(m.states, combo)})


def iter_pure_policies(m: GameModel, player: int) -> Iterator[StationaryPolicy]:
    """All deterministic stationary policies, in canonical label order."""
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    return (_pure_policy(m, player, combo) for combo in itertools.product(*(range(len(ctrl[s])) for s in m.states)))


# ---------------------------------------------------------------------------
# Essential properness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropernessReport:
    verdict: str  # "yes" | "no"
    reason: str = ""
    witness_policy: StationaryPolicy | None = None
    witness_state: str | None = None


def is_essentially_proper(m: GameModel, policy: StationaryPolicy) -> PropernessReport:
    """Decide whether fixing ``policy`` leaves the opponent an SSP.

    It does when some opponent response terminates almost surely from every
    state and every response that does not is infinitely bad for the
    opponent, randomized responses included.  That is exactly when the
    opponent's best response (:func:`sspg.solve.evaluate_vs_best_response`)
    is not ``ill-posed``, so the verdict is that solve's outcome.  A "no"
    names the first state with no terminating response, or else carries a
    pure response that never terminates from some state and is not
    infinitely bad for the opponent.
    """
    from .solve import _best_response  # solve imports this module

    _, _, witness = _best_response(m, policy, m.g)
    if witness is None:
        return PropernessReport("yes", "every opponent response that does not terminate is infinitely bad for it")
    if (witness < 0).any():
        s = m.states[int(np.argmin(witness))]
        return PropernessReport(
            "no", f"no opponent response terminates almost surely from state {s}", witness_state=s
        )
    opp = PLAYER_MAX if policy.player == PLAYER_MIN else PLAYER_MIN
    return PropernessReport(
        "no",
        "prolonging opponent response without the required infinite cost",
        witness_policy=_pure_policy(m, opp, witness - m.control_layout.offsets[opp - 1]),
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


# pure pairs local to the end components beyond which the assumption check enumerates nothing
_MAX_PAIRS = 10**6


def _end_components(m: GameModel) -> list[np.ndarray]:
    """Maximal end components of the joint MDP in which one controller picks a triplet row per state.

    Sorted state arrays (0..n-1), by smallest state: the staying set split
    into strongly connected components, less the rows that leave their
    component, until no row goes (de Alfaro, PhD thesis, Stanford 1997).
    """
    supp, blocks = m.P > 0.0, m.control_layout.blocks
    state = np.repeat(np.arange(m.n), np.diff(np.append(blocks, len(supp))))
    ok = ~(supp & ~_staying_set(supp, blocks)).any(axis=1)  # the rows that stay inside the staying set
    while ok.any():
        comp = _reach(np.logical_or.reduceat(supp[:, 1:] & ok[:, None], blocks))
        comp &= comp.T  # comp[i, j] iff states i and j are strongly connected
        kept = ok & ~(supp[:, 1:] & ~comp[state]).any(axis=1)
        if (kept == ok).all():
            break
        ok = kept
    owners = np.flatnonzero(np.logical_or.reduceat(ok, blocks))
    return [np.flatnonzero(comp[i]) for i in owners if comp[i].argmax() == i]


def _local_pair_signs(m: GameModel, states: np.ndarray, nu: np.ndarray, nv: np.ndarray) -> np.ndarray:
    """Signs of the pure pairs local to an end component, indexed (sign, u picks..., v picks...).

    Sign 0: the pair's rows at ``states``, the mass leaving them sent to 0,
    have a closed class; only those chains reach :func:`classify_chain`.
    Signs 1, 2: a +inf, -inf total cost, from class gains that are the
    floats of the pair's full chain, as a class's rows stay inside it.
    """
    k, out = len(states), ~np.isin(np.arange(m.n + 1), states + 1)
    inside, leaves = m.P[:, states + 1] > 0.0, (m.P[:, out] > 0.0).any(axis=1)
    picks = [np.indices(z).reshape(k, -1).T for z in (nu[states], nv[states])]  # canonical order
    signs = np.zeros((3, len(picks[0]), len(picks[1])), dtype=bool)
    wide = int(len(picks[1]) > len(picks[0]))  # one at a time, so a batch is the side with fewer picks
    view = signs.transpose(0, 2, 1) if wide else signs
    for a, pick in enumerate(picks[wide]):
        u, v = (picks[0], pick) if wide else (pick, picks[1])
        rows = m.control_layout.blocks[states] + u * nv[states] + v
        trapped = ~(_reach(inside[rows]) & leaves[rows][:, None, :]).any(axis=-1).all(axis=-1)
        for b in np.flatnonzero(trapped):
            p = m.P[rows[b]]
            p = np.vstack((np.eye(1, k + 1), np.column_stack((p[:, out].sum(axis=1), p[:, states + 1]))))
            chain = InducedChain(p, np.concatenate(([0.0], m.g[rows[b]])), tuple(m.states[i] for i in states))
            values = classify_chain(chain).values
            view[:, a, b] = True, np.isposinf(values).any(), np.isneginf(values).any()
    return signs.reshape(3, *nu[states], *nv[states])


def check_ssp_game_assumption(m: GameModel) -> AssumptionReport:
    """Report the structural clause verdicts over the pure policy pairs, enumerated per end component.

    A closed class of a pure pair's chain lies in one maximal end component
    (:func:`_end_components`) and depends on the pair's picks there alone, so
    only the pairs local to each are enumerated (``_MAX_PAIRS`` in all).  As
    a product over disjoint coordinate blocks has its lexicographic minimum
    blockwise, the safeguards and the clause-3 witness are the first in
    canonical pair order; a state in no component takes its first control.
    Clause 3 is ``inconclusive``, never ``holds``, when a component has local
    pairs of total cost +inf and of -inf.
    """
    for finding in _empty_controls(m):  # no pure policy of that player, and no best response to one
        raise ValueError(str(finding))
    caveat = "certified over deterministic stationary policies only"
    components = _end_components(m)
    sizes = [np.array([len(c[s]) for s in m.states], dtype=np.intp) for c in (m.controls1, m.controls2)]
    local = sum(math.prod((sizes[0] * sizes[1])[c].tolist()) for c in components)
    if local > _MAX_PAIRS:
        too_big = ClauseVerdict("inconclusive", f"end-component pure pair space {local} exceeds cap {_MAX_PAIRS}")
        return AssumptionReport(too_big, too_big, too_big, (caveat,))
    signs = [_local_pair_signs(m, c, *sizes) for c in components]

    def first(masks: list[np.ndarray]) -> np.ndarray | None:
        """The first pair (u picks, v picks) whose local pair at each component is in its mask."""
        pick = np.zeros(2 * m.n, dtype=np.intp)
        for c, mask in zip(components, masks):
            if not mask.any():
                return None
            pick[np.concatenate((c, c + m.n))] = np.unravel_index(mask.argmax(), mask.shape)  # a kept axis picks 0
        return pick.reshape(2, m.n)

    from .solve import CONVERGED, evaluate_vs_best_response  # solve imports this module

    def safeguard(player: int, who: str) -> ClauseVerdict:
        # signs[player] is the infinity the player must avoid against every opponent pick
        pick = first([~s[player].any(axis=tuple(range(len(c), 2 * len(c)) if player == PLAYER_MIN else range(len(c))),
                                     keepdims=True) for c, s in zip(components, signs)])
        if pick is None:
            return ClauseVerdict("inconclusive", f"no pure safeguard for the {who}; randomized safeguards not excluded")
        pol = _pure_policy(m, player, pick[player - 1])
        _, trace = evaluate_vs_best_response(m, pol)
        note = f"pure safeguard found for {who}"
        if trace.outcome != CONVERGED:
            note += f" (best response {trace.outcome}: {trace.note}; pure-pair evidence only)"
        return ClauseVerdict("holds", note, *((pol, None) if player == PLAYER_MIN else (None, pol)))

    clause3 = ClauseVerdict("holds", "every pure prolonging pair has an infinite total cost")
    # pure pairs of both infinities in one component: a mixture of them may have a zero-gain class
    mixed = next((c for c, s in zip(components, signs) if s[1].any() and s[2].any()), None)
    if mixed is not None:
        clause3 = ClauseVerdict("inconclusive", f"end component {{{','.join(m.states[i] for i in mixed)}}} has pure "
                                "pairs of total cost +inf and -inf; randomized pairs there not certified")
    # a pair offends when one component holds a closed class and none an infinite total cost
    finite = [~pos & ~neg for _, pos, neg in signs]
    offending = [first([f & s[0] if j == k else f for k, (f, s) in enumerate(zip(finite, signs))])
                 for j in range(len(components))]
    offending = [pair.ravel().tolist() for pair in offending if pair is not None]
    if offending:
        u, v = np.reshape(min(offending), (2, m.n))
        mu, nu = _pure_policy(m, PLAYER_MIN, u), _pure_policy(m, PLAYER_MAX, v)
        trapped = np.flatnonzero(~reach_probability_one(induce_chain(m, mu, nu)))
        clause3 = ClauseVerdict("violated", "prolonging pair with finite total cost (zero-gain recurrent class)",
                                mu, nu, tuple(m.states[i] for i in trapped))
    return AssumptionReport(safeguard(PLAYER_MIN, "minimizer"), safeguard(PLAYER_MAX, "maximizer"), clause3, (caveat,))


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
    status: str  # "holds" | "violated"
    reason: str = ""
    witness: dict | None = None  # state -> control label


def check_single_player_ssp(sspa: SspA) -> SspVerdict:
    """Verify the single-player model conditions of SSP(A).

    Needs at least one policy terminating almost surely from every state,
    and every policy that fails to must have a reachable recurrent class
    with strictly positive average cost.  SSP(A) is the minimizer's problem
    against ``sspa.nu``, so this is :func:`is_essentially_proper` of
    ``sspa.nu``; its witness becomes a control label per state.
    """
    m = sspa.model
    report = is_essentially_proper(m, sspa.nu)
    if report.verdict == "yes":
        return SspVerdict("holds", "proper policy exists; improper ones incur +inf")
    if report.witness_policy is None:
        return SspVerdict("violated", "no proper deterministic policy exists")
    rules = report.witness_policy.rules
    witness = {s: m.controls1[s][int(np.argmax(rules[s]))] for s in m.states}
    return SspVerdict("violated", "improper policy without a positive-gain recurrent class", witness)
