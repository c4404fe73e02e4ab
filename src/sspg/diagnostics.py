"""Boundedness diagnostics: coupled lower process, contraction certificates,
empirical trackers.

The coupled lower process replays a recorded Q-learning run with the
maximizer pinned to a fixed policy: the same stepsizes, successor samples,
realized costs, and delay offsets drive a second table whose update takes
the min over the remaining player's controls of the policy-averaged delayed
values.  Pathwise, the main iterates dominate the coupled ones, so a bounded
lower process certifies the run bounded below; the symmetric upper coupling
is obtained by running the same machinery on the negated, role-swapped
game.

For a *proper* fixed policy the one-policy Q-backup is a weighted sup-norm
contraction; the certificate (weights and modulus) is built from the
optimal costs of the induced all-costs-minus-one single-player problem and
validated triplet by triplet.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import (
    PLAYER_MAX,
    GameModel,
    StationaryPolicy,
    policy_arrays,
    policy_average,
)
from .qlearn import QLearnRun, ReplayCore
from .solve import _best_response
from .structure import forall_termination


class ImproperPolicyError(ValueError):
    """The contraction certificate requires a proper policy."""


def q_bellman_max_fixed(m: GameModel, nu: StationaryPolicy, q) -> np.ndarray:
    """Q-backup with the maximizer pinned to ``nu``.

    Component (i,u,v) is g(i,u,v) plus the kernel-weighted min over the
    successor's controls u~ of the nu-averaged Q at (j, u~, ·).  Never
    exceeds the minimax Q-backup componentwise.
    """
    rows, offsets = policy_average(m, q, nu=nu)
    return m.g + m.P[:, 1:] @ np.minimum.reduceat(rows, offsets)


@dataclass(frozen=True)
class ContractionCertificate:
    """Weights and modulus certifying the pinned-policy backup a contraction.

    ``xi`` (per triplet, all >= 1) are the negated optimal costs of the
    all-costs-minus-one auxiliary problem; ``beta = max (xi - 1) / xi < 1``.
    The defining inequality sum_j p_ij(u,v) max_u~ xi_nu(j,u~) <= beta *
    xi(i,u,v) is validated on every triplet at construction.
    """

    xi: np.ndarray  # per triplet, >= 1
    xi_nu: tuple[np.ndarray, ...]  # per state: policy-averaged weights over U(i)
    beta: float
    state_costs: np.ndarray  # optimal auxiliary costs at game states (<= -1)

    def weighted_norm(self, q) -> float:
        return float((np.abs(np.asarray(q, dtype=float)) / self.xi).max())

    def to_json(self, m: GameModel) -> dict:
        return {
            "beta": self.beta,
            "xi": [
                {"i": i, "u": u, "v": v, "xi": float(x)}
                for (i, u, v), x in zip(m.triplets, self.xi)
            ],
            "xi_nu": [
                {"i": s, "u": u, "xi": float(self.xi_nu[k][ui])}
                for k, s in enumerate(m.states)
                for ui, u in enumerate(m.controls1[s])
            ],
        }


def build_contraction_certificate(m: GameModel, nu: StationaryPolicy) -> ContractionCertificate:
    """Construct and validate the weighted sup-norm contraction certificate.

    Requires ``nu`` proper (terminating almost surely against every opposing
    policy); raises :class:`ImproperPolicyError` otherwise.  The auxiliary
    costs are the minimizer's exact best response to ``nu`` at stage cost
    -1 (Howard policy iteration, as in
    :func:`sspg.solve.evaluate_vs_best_response`), which is well posed
    because every response terminates.
    """
    if not forall_termination(m, nu).all():
        raise ImproperPolicyError("certificate requires a proper policy")
    h, _, _ = _best_response(m, nu, np.full(m.n_triplets, -1.0))  # auxiliary optimal costs at game states
    xi = 1.0 - m.P[:, 1:] @ h
    xi_rows, offsets = policy_average(m, xi, nu=nu)
    beta = max(float(((xi - 1.0) / xi).max()), 0.0)

    lhs = m.P[:, 1:] @ np.maximum.reduceat(xi_rows, offsets)
    slack = lhs - beta * xi
    if slack.max() > 1e-8:
        raise RuntimeError(f"certificate inequality violated by {slack.max():.3e}")
    return ContractionCertificate(xi, tuple(np.split(xi_rows, offsets[1:])), beta, h)


# ---------------------------------------------------------------------------
# Coupled lower process
# ---------------------------------------------------------------------------


@dataclass
class CouplingReport:
    """Result of replaying the lower process against a recorded run."""

    qhat_final: np.ndarray
    qhat_events: np.ndarray  # post-update coupled value per event
    min_margin: np.ndarray  # per component: min over time of Q - Qhat
    violations: tuple[tuple[int, int], ...]  # (event index, component)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_csv(self, path, m: GameModel) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["i", "u", "v", "min_margin"])
            for (i, u, v), margin in zip(m.triplets, self.min_margin):
                w.writerow([i, u, v, repr(float(margin))])


def run_coupled_lower_process(
    m: GameModel, nu: StationaryPolicy, run: QLearnRun, q0=None, slack: float = 1e-9
) -> CouplingReport:
    """Replay a recorded run's lower coupling under a fixed maximizer policy.

    Uses the recorded stepsizes, successors, realized costs, and delay
    offsets; the only change is the update target, which averages the
    delayed coupled table with ``nu`` at the successor state and minimizes
    over the remaining player's controls.  Reports any (event, component)
    where the main iterate drops below the coupled one by more than
    ``slack``; the domination is pathwise and exact, so none are expected
    when both processes start from the same table.
    """
    rows = run.rows("t", "ell", "j", "cost", "gamma", "new_q", "offsets")
    rules = policy_arrays(m, nu, PLAYER_MAX)
    sigma = [None] + [r.tolist() for r in np.split(rules, m.control_layout.offsets[1][1:])]

    qhat = (run.q0 if q0 is None else np.asarray(q0, dtype=float)).tolist()

    def lower_value(j: int, vals: list[float]) -> float:
        """Min over the minimizer's controls of the nu-averaged block."""
        _, nu_j, nv_j = core.blocks[j]
        s = sigma[j]
        best = None
        for ui in range(nu_j):
            acc = 0.0
            for vi in range(nv_j):
                acc += s[vi] * vals[ui * nv_j + vi]
            if best is None or acc < best:
                best = acc
        return best

    core = ReplayCore(m, run.config.delay_model, run.config.seed, qhat, kernel=lower_value)
    value, write = core.value, core.write

    min_margin = (run.q0 - np.array(qhat)).tolist()
    qhat_events = []
    violations: list[tuple[int, int]] = []

    for k, (t, ell, j, cost, gamma, new_q, offs) in enumerate(rows):
        # the recorded offsets, so the coupled table sees the engine's delays
        val = value(j, t, offs)
        new_hat = (1.0 - gamma) * qhat[ell] + gamma * (cost + val)
        write(ell, t, new_hat)
        qhat_events.append(new_hat)
        margin = new_q - new_hat
        if margin < min_margin[ell]:
            min_margin[ell] = margin
        if margin < -slack:
            violations.append((k, ell))

    return CouplingReport(np.array(qhat), np.array(qhat_events, dtype=float), np.array(min_margin), tuple(violations))


# ---------------------------------------------------------------------------
# Empirical trackers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackerState:
    """Stepsize-weighted empirical stage costs and transition frequencies.

    ``g_tilde`` tracks realized transition costs per triplet; ``q_hat``
    tracks successor frequencies per triplet as a distribution over states
    0..n, absolutely continuous with respect to the true kernel row by
    construction (it starts there and mixes in sampled unit vectors).
    """

    g_tilde: np.ndarray  # (|R|,)
    q_hat: np.ndarray  # (|R|, n+1)

    @classmethod
    def initial(cls, m: GameModel) -> "TrackerState":
        return cls(np.zeros(m.n_triplets), m.P.copy())


def update_trackers(state: TrackerState, event) -> TrackerState:
    """Apply one recorded update event; untouched components are unchanged.

    ``event`` is ``(ell, gamma, j, cost)`` with ``j`` a state index.
    """
    ell, gamma, j, cost = event
    g = state.g_tilde.copy()
    qh = state.q_hat.copy()
    g[ell] = (1.0 - gamma) * g[ell] + gamma * cost
    qh[ell] *= 1.0 - gamma
    qh[ell, j] += gamma
    return TrackerState(g, qh)


def run_trackers(m: GameModel, run: QLearnRun, check_support: bool = True) -> TrackerState:
    """Fold a recorded run through the trackers (batch form of the update).

    With ``check_support`` every sampled successor is asserted to lie in the
    support of its kernel row, which together with the initial state makes
    the absolute-continuity invariant hold at every step.
    """
    rows = run.rows("ell", "gamma", "j", "cost")
    g = (run.q0 * 0.0).tolist()
    # only entries that can be nonzero are scaled (0.0 * (1 - gamma) is 0.0):
    # the kernel row's support plus any successor a replay adds to it
    live = m.P > 0.0
    ends = np.cumsum(live.sum(axis=1)).tolist()
    flat = m.P[live].tolist()
    vals = [flat[a:b] for a, b in zip([0, *ends], ends)]
    succ, start = m.sampling.succ.tolist(), m.sampling.start.tolist()
    where = [dict(zip(succ[a:b], range(b - a))) for a, b in zip(start, start[1:])]  # column -> position in vals
    for ell, gamma, j, cost in rows:
        pos = where[ell].get(j)
        if pos is None:
            if check_support:
                raise AssertionError(f"sampled successor {j} outside kernel support of {m.triplets[ell]}")
            pos = where[ell][j] = len(vals[ell])
            vals[ell].append(0.0)
        g[ell] = (1.0 - gamma) * g[ell] + gamma * cost
        om = 1.0 - gamma
        row = vals[ell] = [x * om for x in vals[ell]]
        row[pos] += gamma
    qh = m.P.copy()
    for k, w in enumerate(where):
        qh[k, np.fromiter(w, np.intp, len(w))] = vals[k]
    return TrackerState(np.array(g), qh)

