"""Exact solution methods: value iteration, policy iteration, pair evaluation.

Outcomes are reported honestly: the structural assumptions give no
contraction rate, so every iterative routine returns a trace whose outcome
is ``converged``, ``iteration-cap``, or ``diverging`` (iterate sup-norm past
1e9).  Long runs accept a cooperative cancellation callback.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import PLAYER_MAX, PLAYER_MIN, GameModel, StationaryPolicy, policy_average
from .operators import bellman, greedy_policies, q_bellman, q_from_values
from .structure import classify_chain, induce_chain, is_essentially_proper

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
DIVERGING = "diverging"

_DIVERGE = 1e9


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
    cancel: Callable[[], bool] | None,
    record_iterates: bool,
) -> tuple[np.ndarray, SolveTrace]:
    if tol <= 0:
        raise ValueError("tol must be positive")
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
        if cancel is not None and cancel():
            trace.outcome = ITERATION_CAP
            trace.note = "cancelled"
            return x, trace
    trace.outcome = ITERATION_CAP
    return x, trace


def value_iteration(
    m: GameModel,
    j0=None,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    ref=None,
    cancel: Callable[[], bool] | None = None,
    record_iterates: bool = False,
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the minimax backup on state values until the residual meets tol."""
    x0 = np.zeros(m.n) if j0 is None else np.asarray(j0, dtype=float)
    ref = None if ref is None else np.asarray(ref, dtype=float)
    return _iterate(lambda x: bellman(m, x), x0, tol, max_iter, ref, cancel, record_iterates)


def q_value_iteration(
    m: GameModel,
    q0=None,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    ref=None,
    cancel: Callable[[], bool] | None = None,
    record_iterates: bool = False,
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the minimax backup on Q-tables until the residual meets tol."""
    x0 = np.zeros(m.n_triplets) if q0 is None else np.asarray(q0, dtype=float)
    ref = None if ref is None else np.asarray(ref, dtype=float)
    return _iterate(lambda q: q_bellman(m, q), x0, tol, max_iter, ref, cancel, record_iterates)


# ---------------------------------------------------------------------------
# Best response to one fixed policy
# ---------------------------------------------------------------------------


def evaluate_vs_best_response(
    m: GameModel,
    policy: StationaryPolicy,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    j0=None,
    ref=None,
    cancel: Callable[[], bool] | None = None,
) -> tuple[np.ndarray, SolveTrace]:
    """Value of fixing one player's policy while the opponent best-responds.

    Fixing the minimizer gives the opponent's total-reward problem (per-state
    max); fixing the maximizer gives the remaining total-cost problem
    (per-state min).  Computed by value iteration on the one-policy backup;
    iterates coincide with repeated :func:`sspg.operators.bellman_min_fixed`
    / ``bellman_max_fixed`` applications.
    """
    mu, nu = (policy, None) if policy.player == PLAYER_MIN else (None, policy)
    rows, offsets = policy_average(m, np.column_stack((m.g, m.P[:, 1:])), mu, nu)
    reduce = np.maximum.reduceat if nu is None else np.minimum.reduceat
    c, p = rows[:, 0], rows[:, 1:]

    def op(x: np.ndarray) -> np.ndarray:
        return reduce(c + p @ x, offsets)

    x0 = np.zeros(m.n) if j0 is None else np.asarray(j0, dtype=float)
    ref = None if ref is None else np.asarray(ref, dtype=float)
    return _iterate(op, x0, tol, max_iter, ref, cancel, False)


def refine_fixed_point(
    m: GameModel, values, residual_tol: float = 1e-9
) -> tuple[np.ndarray, bool]:
    """Polish a value-iteration output with one exact policy-evaluation step.

    Evaluates the minimizer's greedy policy at ``values`` against a
    best-responding opponent.  The evaluation is accepted (returned with
    ``True``) only when it is itself a fixed point of the minimax backup to
    within ``residual_tol``; when the dynamic programming equation has a
    unique solution this pins the game value far more tightly than the
    value-iteration residual can, which matters on games where value
    iteration converges only sublinearly.  Otherwise the input comes back
    unchanged with ``False``.
    """
    values = np.asarray(values, dtype=float)
    mu = greedy_policies(m, q_from_values(m, values))[0]
    x, tr = evaluate_vs_best_response(m, mu, tol=1e-13, max_iter=200_000)
    if tr.outcome != CONVERGED:
        return values, False
    if float(np.abs(x - bellman(m, x)).max()) <= residual_tol:
        return x, True
    return values, False


# ---------------------------------------------------------------------------
# Policy-pair evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairEvaluation:
    """Total costs of a committed stationary policy pair.

    ``values`` holds the per-state total cost with ``+inf`` / ``-inf`` where
    it diverges; when the pair is not prolonging all entries are finite and
    solve the pair's linear fixed-point equation exactly.  Flags name
    assumption-violating structure (zero-gain prolonging classes, mixed-sign
    gains).
    """

    values: np.ndarray
    prolonging: bool
    flags: tuple[str, ...]

    def classification(self, k: int) -> str:
        v = self.values[k]
        if np.isposinf(v):
            return "plus_infinity"
        if np.isneginf(v):
            return "minus_infinity"
        return "finite"

    def to_json(self, m: GameModel) -> dict:
        per_state = {}
        for k, s in enumerate(m.states):
            tag = self.classification(k)
            per_state[s] = {"classification": tag}
            if tag == "finite":
                per_state[s]["value"] = float(self.values[k])
        return {"prolonging": self.prolonging, "flags": list(self.flags), "states": per_state}


def evaluate_pair(
    m: GameModel, mu: StationaryPolicy, nu: StationaryPolicy
) -> PairEvaluation:
    """Classify the chain induced by a policy pair and solve for its costs."""
    cls = classify_chain(induce_chain(m, mu, nu))
    return PairEvaluation(cls.values, cls.prolonging, cls.flags)


# ---------------------------------------------------------------------------
# Policy iteration
# ---------------------------------------------------------------------------


def _swap_negate(m: GameModel) -> GameModel:
    """Swap the players' roles and negate costs (the maximizer's viewpoint)."""
    transitions = {}
    for (i, u, v), row in m.transitions.items():
        transitions[(i, v, u)] = tuple((j, p, -c) for j, p, c in row)
    return GameModel(m.states, m.controls2, m.controls1, transitions)


def policy_iteration(
    m: GameModel,
    player: int,
    start: StationaryPolicy,
    tol: float = 1e-6,
    max_outer: int = 50,
    inner_tol: float | None = None,
    inner_max_iter: int = 100_000,
    ref=None,
    cancel: Callable[[], bool] | None = None,
) -> tuple[np.ndarray, list[StationaryPolicy], SolveTrace]:
    """Alternate exact policy evaluation and greedy improvement for one player.

    The start policy should be essentially proper; the check runs first and
    anything short of a definite "yes" proceeds with a warning.  For the
    maximizer the game is solved through its negated role-swapped twin, so a
    single code path serves both players.  The produced value sequence is
    componentwise non-increasing (for the minimizer) and the last
    improvement policy is returned along with every intermediate one.
    """
    if player == PLAYER_MAX:
        if start.player != PLAYER_MAX:
            raise ValueError("start policy must belong to the maximizer")
        m2 = _swap_negate(m)
        start2 = StationaryPolicy(PLAYER_MIN, start.rules)
        x2, pols2, trace = policy_iteration(
            m2, PLAYER_MIN, start2, tol, max_outer, inner_tol, inner_max_iter,
            None if ref is None else -np.asarray(ref, dtype=float), cancel,
        )
        return -x2, [StationaryPolicy(PLAYER_MAX, p.rules) for p in pols2], trace

    if start.player != PLAYER_MIN:
        raise ValueError("start policy must belong to the minimizer")
    proper = is_essentially_proper(m, start)
    if proper.verdict != "yes":
        warnings.warn(
            f"policy iteration start: essential properness {proper.verdict} ({proper.reason}); proceeding",
            stacklevel=2,
        )
    if inner_tol is None:
        inner_tol = max(tol * 1e-3, 1e-12)
    ref = None if ref is None else np.asarray(ref, dtype=float)

    mu = start
    policies = [start]
    trace = SolveTrace()
    x = np.zeros(m.n)
    for outer in range(1, max_outer + 1):
        x, etrace = evaluate_vs_best_response(m, mu, inner_tol, inner_max_iter)
        if etrace.outcome == DIVERGING or not np.isfinite(x).all():
            trace.outcome = DIVERGING
            trace.note = f"policy evaluation diverged at outer iteration {outer - 1}"
            trace.rows.append(TraceRow(outer, float("inf"), None))
            return x, policies, trace
        residual = float(np.abs(x - bellman(m, x)).max())
        dist = float(np.abs(x - ref).max()) if ref is not None else None
        trace.rows.append(TraceRow(outer, residual, dist))
        if residual <= tol:
            trace.outcome = CONVERGED
            return x, policies, trace
        mu = greedy_policies(m, q_from_values(m, x))[0]
        policies.append(mu)
        if cancel is not None and cancel():
            trace.outcome = ITERATION_CAP
            trace.note = "cancelled"
            return x, policies, trace
    trace.outcome = ITERATION_CAP
    return x, policies, trace
