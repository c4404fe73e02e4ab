"""Exact solution methods: value iteration, policy iteration, pair evaluation.

Outcomes are reported honestly: the structural assumptions give no
contraction rate, so every iterative routine returns a trace whose outcome
is ``converged``, ``iteration-cap``, or ``diverging`` (iterate sup-norm past
1e9); a best response, and so each policy-iteration step, is exact or
``ill-posed``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import PLAYER_MAX, GameModel, StationaryPolicy, _empty_controls, policy_average
from .operators import bellman, greedy_policies, q_bellman, q_from_values
from .structure import (
    ChainClassification,
    _staying_set,
    _terminating_response,
    classify_chain,
    induce_chain,
)

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
DIVERGING = "diverging"
ILL_POSED = "ill-posed"

_DIVERGE = 1e9

#: a best response switches a state's control only on a gain above this times 1 + max|x|
_SWITCH_TOL = 1e-12

#: largest minimax-backup residual of a refined value vector
REFINE_TOL = 1e-9


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    residual: float
    dist_to_ref: float | None = None


@dataclass
class SolveTrace:
    rows: list[TraceRow] = field(default_factory=list)
    outcome: str = ITERATION_CAP
    note: str = ""
    iterates: list[np.ndarray] | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iteration", "residual", "distance_to_ref"])
            for r in self.rows:
                w.writerow([r.iteration, repr(r.residual), "" if r.dist_to_ref is None else repr(r.dist_to_ref)])

    @property
    def final_residual(self) -> float:
        return self.rows[-1].residual if self.rows else float("nan")


def _iterate(
    op: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    ref: np.ndarray | None,
    record_iterates: bool,
) -> tuple[np.ndarray, SolveTrace]:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x = np.array(x0, dtype=float)
    trace = SolveTrace(iterates=[x.copy()] if record_iterates else None)
    for t in range(1, max_iter + 1):
        x1 = op(x)
        residual = float(np.abs(x1 - x).max()) if x1.size else 0.0
        dist = float(np.abs(x1 - ref).max()) if ref is not None else None
        trace.rows.append(TraceRow(t, residual, dist))
        if record_iterates:
            trace.iterates.append(x1.copy())
        x = x1
        if not np.isfinite(x).all() or (np.abs(x).max() if x.size else 0.0) > _DIVERGE:
            trace.outcome = DIVERGING
            return x, trace
        if residual <= tol:
            trace.outcome = CONVERGED
            return x, trace
    return x, trace  # outcome iteration-cap


def value_iteration(
    m: GameModel,
    j0=None,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    ref=None,
    record_iterates: bool = False,
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the minimax backup on state values until the residual meets tol."""
    x0 = np.zeros(m.n) if j0 is None else np.asarray(j0, dtype=float)
    ref = None if ref is None else np.asarray(ref, dtype=float)
    return _iterate(lambda x: bellman(m, x), x0, tol, max_iter, ref, record_iterates)


def q_value_iteration(
    m: GameModel, q0=None, tol: float = 1e-8, max_iter: int = 100_000
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the minimax backup on Q-tables until the residual meets tol."""
    x0 = np.zeros(m.n_triplets) if q0 is None else np.asarray(q0, dtype=float)
    return _iterate(lambda q: q_bellman(m, q), x0, tol, max_iter, None, False)


# ---------------------------------------------------------------------------
# Policy-pair evaluation and the exact best response to one fixed policy
# ---------------------------------------------------------------------------


PairEvaluation = ChainClassification  # the total costs of a committed policy pair


def evaluate_pair(m: GameModel, mu: StationaryPolicy, nu: StationaryPolicy) -> PairEvaluation:
    """Classify the chain induced by a policy pair and solve for its costs."""
    return classify_chain(induce_chain(m, mu, nu))


def _best_response(m: GameModel, fixed: StationaryPolicy, costs) -> tuple[np.ndarray, SolveTrace, np.ndarray | None]:
    """Howard policy iteration for the opponent of ``fixed`` on per-triplet stage ``costs``.

    Starts from the terminating response of the exists-termination fixpoint;
    trace rows hold each response's largest gain over 1 + max|x|.  Returns
    values, trace and, when ill-posed, a witness response as one row of
    :func:`sspg.structure._support_rows` per state (None otherwise): -1 at
    the states with no terminating response, or else a response that never
    terminates from the staying set and is not infinitely bad there.
    """
    for finding in _empty_controls(m):  # no response there, and no pure response to count
        raise ValueError(str(finding))
    minimize = fixed.player == PLAYER_MAX
    table = np.column_stack((costs, m.P))
    rows, offsets = policy_average(m, table, *((None, fixed) if minimize else (fixed, None)))
    supp, _, start = _terminating_response(m, fixed)
    c, stop, p = rows[:, 0], rows[:, 1], rows[:, 2:]
    sign = 1.0 if minimize else -1.0  # the responder minimizes sign * cost
    counts = np.diff(np.append(offsets, len(rows)))
    index, nan = np.arange(len(rows)), np.full(m.n, np.nan)
    head = np.eye(1, m.n + 1, dtype=bool)  # an edge into 0 takes a row out of every set of states
    witness = None

    def slack(x):  # per row: how much worse than x for the responder, over 1 + max|x|
        return (sign * (c + p @ x) - np.repeat(sign * x, counts)) / (1.0 + np.abs(x).max())

    def evaluate(pick):
        nonlocal witness
        if (pick < 0).any():
            witness = pick
            return nan, f"no terminating response from state {m.states[np.argmin(pick)]}"
        # I - P with each diagonal entry summed from the row's other mass, not
        # taken as 1 - p_ii, which cancels when p_ii is near 1
        a = -p[pick]
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, stop[pick] - a.sum(axis=1))
        x = np.linalg.solve(a, c[pick])
        # if rows no worse than x can avoid 0 forever, some response that never
        # terminates has gain <= 0 for the responder; otherwise the next
        # response, made of such rows, terminates
        kept = supp | ((slack(x) > _SWITCH_TOL)[:, None] & head)
        stay = _staying_set(kept, offsets)
        if stay.any():
            # at each staying state, the first row no worse than x that stays in the set
            inside = np.minimum.reduceat(np.where((kept & ~stay).any(axis=1), len(index), index), offsets)
            witness = np.where(stay[1:], inside, pick)
            s = m.states[np.argmax(stay) - 1]
            return nan, f"a never-terminating response from state {s} is not infinitely bad for the responder"
        return x, ""

    def improve(pick, x):
        gap = slack(x)
        best = np.minimum.reduceat(gap, offsets)
        first = np.minimum.reduceat(np.where(gap == np.repeat(best, counts), index, len(gap)), offsets)
        return np.where(best < -_SWITCH_TOL, first, pick)

    # no response comes back, so the count of pure responses bounds the loop
    x, _, trace = _policy_loop(evaluate, lambda x: float(-slack(x).min()), improve, start,
                               _SWITCH_TOL, math.prod(counts.tolist()))
    return x, trace, witness


def evaluate_vs_best_response(m: GameModel, policy: StationaryPolicy) -> tuple[np.ndarray, SolveTrace]:
    """Value of fixing one player's policy while the opponent best-responds.

    Fixing the minimizer gives the opponent's total-reward problem (per-state
    max); fixing the maximizer gives the remaining total-cost problem
    (per-state min).  Solved exactly by Howard policy iteration, one linear
    solve per improvement: the unique fixed point of
    :func:`sspg.operators.bellman_min_fixed` / ``bellman_max_fixed``.  The
    outcome is ``ill-posed``, with NaN values, when the opponent's problem
    is not an SSP: some state has no terminating response, or a response
    that never terminates is not infinitely bad for the opponent.
    """
    return _best_response(m, policy, m.g)[:2]


def refine_fixed_point(m: GameModel, values) -> tuple[np.ndarray, bool]:
    """Polish a value-iteration output with one exact best-response evaluation.

    Evaluates the minimizer's greedy policy at ``values`` against a
    best-responding opponent, and accepts the result (``True``) only when it
    is well posed and a fixed point of the minimax backup within
    ``REFINE_TOL``.  When the dynamic programming equation has a unique
    solution this pins the game value far more tightly than value iteration
    can where it converges sublinearly.  Otherwise ``values`` come back with
    ``False``.
    """
    values = np.asarray(values, dtype=float)
    mu = greedy_policies(m, q_from_values(m, values))[0]
    x, tr = evaluate_vs_best_response(m, mu)
    if tr.outcome == CONVERGED and float(np.abs(x - bellman(m, x)).max()) <= REFINE_TOL:
        return x, True
    return values, False


# ---------------------------------------------------------------------------
# Policy iteration: one loop for the game and for a best response
# ---------------------------------------------------------------------------


def _policy_loop(evaluate, residual, improve, policy, tol: float, max_outer: int):
    """Evaluate, stop once the residual meets ``tol``, improve; repeat.

    ``evaluate(policy)`` returns values and "", or NaN values and why there
    are none (outcome ``ill-posed``).  Returns values, policies and trace.
    """
    trace = SolveTrace()
    policies = [policy]
    for outer in range(1, max_outer + 1):
        x, note = evaluate(policy)
        if note:
            trace.outcome, trace.note = ILL_POSED, note
            return x, policies, trace
        res = residual(x)
        trace.rows.append(TraceRow(outer, res))
        if res <= tol:
            trace.outcome = CONVERGED
            return x, policies, trace
        policy = improve(policy, x)
        policies.append(policy)
    return x, policies, trace  # outcome iteration-cap


def policy_iteration(
    m: GameModel, player: int, start: StationaryPolicy, tol: float = 1e-6, max_outer: int = 50
) -> tuple[np.ndarray, list[StationaryPolicy], SolveTrace]:
    """Hoffman–Karp policy iteration for either player.

    Evaluates the player's policy exactly against a best-responding opponent
    (:func:`evaluate_vs_best_response`), stops once the values meet the
    minimax backup within ``tol``, and otherwise improves to the player's
    greedy stage-game policy.  The values are componentwise non-increasing
    for the minimizer (non-decreasing for the maximizer).  The outcome is
    ``ill-posed``, with NaN values, when an evaluation is; that happens at
    once when the start policy is not essentially proper.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if start.player != player:
        raise ValueError(f"start policy must belong to player {player}")

    def evaluate(pol):
        x, tr = evaluate_vs_best_response(m, pol)
        return x, "" if tr.outcome == CONVERGED else f"best response {tr.outcome}: {tr.note}"

    return _policy_loop(
        evaluate,
        lambda x: float(np.abs(x - bellman(m, x)).max()),
        lambda pol, x: greedy_policies(m, q_from_values(m, x))[player - 1],
        start, tol, max_outer,
    )
