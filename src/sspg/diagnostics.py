"""Boundedness diagnostics: coupled lower process, contraction certificates,
empirical trackers.

The coupled lower process replays a recorded Q-learning run with the
maximizer pinned to a fixed policy: the same stepsizes, successor samples,
realized costs, and delay offsets drive a second table through the
engine's own recursion, delayed reader and chunk cuts
(:func:`sspg.qlearn._replay`), with one change: the update takes the min
over the remaining player's controls of the policy-averaged delayed
values.  A replay refuses any model but the run's own.
Pathwise, the main iterates dominate the coupled ones, so a bounded lower
process certifies the run bounded below; the symmetric upper coupling is
obtained by running the same machinery on the negated, role-swapped game.

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
from .qlearn import QLearnRun, _replay
from .solve import _best_response
from .structure import forall_termination


# how far the main iterate may drop below the coupled one before it counts as a violation
_SLACK = 1e-9


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


def run_coupled_lower_process(m: GameModel, nu: StationaryPolicy, run: QLearnRun) -> CouplingReport:
    """Replay a recorded run's lower coupling under a fixed maximizer policy.

    Uses the recorded Q0, stepsizes, successors and realized costs, and the
    engine's delay offsets, recursion and chunks; the only change is the
    update target, which averages the delayed coupled table with ``nu`` at
    the successor state and minimizes over the remaining player's controls.
    Reports any (event, component) where the main iterate drops below the
    coupled one by more than ``_SLACK``; the domination is pathwise and
    exact, so none are expected.  ``m`` must be the run's model.
    """
    ev = run.history(m)
    rules = policy_arrays(m, nu, PLAYER_MAX)
    sigma = [None] + [r.tolist() for r in np.split(rules, m.control_layout.offsets[1][1:])]

    def lower_value(j: int, vals: list[float]) -> float:
        """Min over the minimizer's controls (rows) of the nu-averaged block."""
        s, rows = sigma[j], []
        for row in range(0, len(vals), len(s)):
            acc = 0.0
            for k, p in enumerate(s):
                acc += p * vals[row + k]
            rows.append(acc)
        return min(rows)

    qhat_events, qhat_final = _replay(run, m, lower_value)
    margin = ev.new_q - qhat_events
    # the minimum over time, the first of equal margins: a margin of -0.0
    # never goes below the initial +0.0, so it counts as +0.0
    min_margin = run.q0 - run.q0
    np.minimum.at(min_margin, ev.ell, margin + 0.0)
    violations = tuple((k, int(ev.ell[k])) for k in np.flatnonzero(margin < -_SLACK).tolist())
    return CouplingReport(qhat_final, qhat_events, min_margin, violations)


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


def run_trackers(m: GameModel, run: QLearnRun) -> TrackerState:
    """Replay a recorded run through the trackers, one update level at a time.

    An event reads only its own component's previous update, so level k is
    every component's k-th update.  With the rows of one ``(|R|, n+2)``
    matrix (q_hat, then g_tilde) sorted busiest first, a level is a prefix of
    rows and two numpy steps: scale by 1 - gamma, then add gamma at each
    sampled successor and gamma * cost to g_tilde.  Each entry sees the
    event-by-event fold's IEEE operations in its order, so the result is
    bit-identical: scaling a whole dense row equals scaling its live entries
    (gamma lies in [0, 1] and +0.0 * (1 - gamma) is +0.0), multiplication
    commutes.  Cost: O(events * n) numpy work plus about 3 us per level.
    The worst case is one component updated far more often than the rest,
    which gives levels of width one: 25k of them took 66 ms where the fold
    took 13 ms.

    ``m`` must be the run's model (a ValueError otherwise).  A sampled
    successor outside its kernel row's support, which would break q_hat's
    absolute continuity, is an AssertionError naming the first one.
    """
    ev = run.history(m)
    ell, j = ev.ell, ev.j
    bad = np.flatnonzero(~(m.P[ell, j] > 0.0))
    if len(bad):
        raise AssertionError(f"sampled successor {j[bad[0]]} outside kernel support of {m.triplets[ell[bad[0]]]}")
    counts = np.bincount(ell, minlength=m.n_triplets)
    order = np.argsort(-counts, kind="stable")
    rank = np.argsort(order)
    # level k: the components updated more than k times, the first rows;
    # an event's level is its component's update count before it
    starts = np.cumsum([0, *np.cumsum(np.bincount(counts)[::-1])[::-1][1:]])
    slot = np.empty(len(ell), np.intp)
    slot[starts[ev.count] + rank[ell]] = np.arange(len(ell))
    width = m.P.shape[1] + 1
    gamma, row = ev.gamma[slot], rank[ell[slot]] * width
    idx = np.stack((row + j[slot], row + width - 1), axis=1)
    add = np.stack((gamma, gamma * ev.cost[slot]), axis=1)
    scale = 1.0 - gamma[:, None]
    mat = np.hstack((m.P, (run.q0 * 0.0)[:, None]))[order]
    flat = mat.reshape(-1)
    starts = starts.tolist()
    for lo, hi in zip(starts, starts[1:]):
        mat[: hi - lo] *= scale[lo:hi]
        flat[idx[lo:hi]] += add[lo:hi]
    return TrackerState(mat[rank, -1], mat[rank, :-1])
