"""Dynamic-programming operators on value vectors and Q-tables.

Value vectors are plain float arrays indexed by the model's non-terminal
states (the terminal state's value is identically zero and never stored).
Q-tables are float arrays over the canonical triplet index, with the
terminal entry pinned to zero implicitly.

Every minimax evaluation is a matrix game per state.  Values go through the
batched kernel :func:`sspg.matgame.game_values` (closed forms for 1 x k,
k x 1 and 2 x 2 blocks, one stacked value LP for the rest), which serves
:func:`values_from_q` and through it :func:`bellman` and :func:`q_bellman`.
So does :func:`bellman_maximin`, on the transposed blocks.  Strategies
come from one :func:`sspg.matgame.solve_blocks` call.  Operators with one
player's policy fixed average the stage matrices over that policy with
:func:`sspg.model.policy_average` and take pure best responses over the
opponent's controls, which is exact because a linear function on a simplex
attains its optimum at a vertex.
"""

from __future__ import annotations

import numpy as np

from .matgame import ShapeGroups, game_values, solve_blocks
from .model import (
    PLAYER_MAX,
    PLAYER_MIN,
    GameModel,
    StationaryPolicy,
    policy_average,
)


def _as_values(m: GameModel, values) -> np.ndarray:
    j = np.asarray(values, dtype=float)
    if j.shape != (m.n,):
        raise ValueError(f"value vector needs shape ({m.n},), got {j.shape}")
    return j


def _as_qtable(m: GameModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (m.n_triplets,):
        raise ValueError(f"Q-table needs shape ({m.n_triplets},), got {q.shape}")
    return q


def stage_matrices(m: GameModel, values) -> np.ndarray:
    """Per-triplet one-step costs g + p·J, flattened over the triplet index."""
    j = _as_values(m, values)
    return m.g + m.P[:, 1:] @ j


def q_from_values(m: GameModel, values) -> np.ndarray:
    """Change of variable J -> Q: Q(i,u,v) = g(i,u,v) + sum_j p_ij(u,v) J(j)."""
    return stage_matrices(m, values)


def values_from_q(m: GameModel, q) -> np.ndarray:
    """Change of variable Q -> J: per-state matrix-game value of Q(i,·,·)."""
    return game_values(_as_qtable(m, q), m.shape_groups)


def bellman(m: GameModel, values) -> np.ndarray:
    """One-step minimax backup on state values.

    Component i is the matrix-game value of A_i[u][v] = g(i,u,v) + p·J.
    """
    return values_from_q(m, stage_matrices(m, values))


def bellman_maximin(m: GameModel, values) -> np.ndarray:
    """Maximin variant of :func:`bellman` (sup over the maximizer first).

    The batched value kernel on each state's transposed (v-major) block, the
    player-2 control order: maximin(A) = -minimax(-A').  Equals
    :func:`bellman` for finite games by the minimax theorem.
    """
    q = stage_matrices(m, values)
    groups = ShapeGroups.from_blocks([(off, nv, nu) for off, nu, nv in map(m.state_block, range(1, m.n + 1))])
    return -game_values(-q[m.control_layout.order[1]], groups)


def bellman_min_fixed(m: GameModel, policy: StationaryPolicy, values) -> np.ndarray:
    """Backup with the minimizer committed to ``policy``; opponent best-responds."""
    rows, offsets = policy_average(m, stage_matrices(m, values), mu=policy)
    return np.maximum.reduceat(rows, offsets)


def bellman_max_fixed(m: GameModel, policy: StationaryPolicy, values) -> np.ndarray:
    """Backup with the maximizer committed to ``policy``; opponent best-responds."""
    rows, offsets = policy_average(m, stage_matrices(m, values), nu=policy)
    return np.minimum.reduceat(rows, offsets)


def bellman_pair(
    m: GameModel, mu: StationaryPolicy, nu: StationaryPolicy, values
) -> np.ndarray:
    """Affine backup c(mu,nu) + P(mu,nu) J for a committed policy pair."""
    return policy_average(m, stage_matrices(m, values), mu, nu)[0]


def q_bellman(m: GameModel, q) -> np.ndarray:
    """One-step minimax backup on Q-tables.

    (FQ)(i,u,v) = g(i,u,v) + sum_j p_ij(u,v) · val_j, where val_j is the
    matrix-game value of Q restricted to state j (zero at the terminal).
    """
    vals = values_from_q(m, q)
    return m.g + m.P[:, 1:] @ vals


def greedy_policies(
    m: GameModel, q
) -> tuple[StationaryPolicy, StationaryPolicy]:
    """Per-state matrix-game optimal decision rules of a Q-table, as :func:`sspg.solve_matrix_game` gives them.

    At the Q-table solving Q = FQ these form an equilibrium pair when the
    game's structural assumptions hold; on other inputs they are only
    stage-game optimal for the given Q (no game-level optimality claim).
    """
    sols = solve_blocks(_as_qtable(m, q), [m.state_block(i) for i in range(1, m.n + 1)])
    return (StationaryPolicy(PLAYER_MIN, {s: sol.row_strategy for s, sol in zip(m.states, sols)}),
            StationaryPolicy(PLAYER_MAX, {s: sol.col_strategy for s, sol in zip(m.states, sols)}))
