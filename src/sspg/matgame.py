"""Exact solver for two-player zero-sum matrix games, and the batched value kernel.

``A[u][v]`` is the cost paid by the row player (minimizer) to the column
player (maximizer).  The solver returns the game value together with a
saddle-point certificate pair of mixed strategies: no column response beats
the row strategy by more than the value, and symmetrically for rows.

The general case is solved by linear programming after shifting the matrix
positive: maximize ``1'x`` subject to ``A'x <= 1, x >= 0`` with a dense
primal simplex using Bland's rule, which cannot cycle; the column strategy
is read off the slack reduced costs.  Degenerate one-row / one-column games
short-circuit to pure min/max.  Tie-breaking is lowest-index everywhere, so
results are deterministic for a fixed matrix.

Values alone come cheaper.  :func:`game_values` evaluates every state of a
game at once from its :class:`ShapeGroups`: 1 x k and k x 1 blocks as a
max / min over a padded index array, 2 x 2 blocks with a vectorized
:func:`value_2x2`, and only the remaining blocks through the simplex,
without assembling strategies; :meth:`ShapeGroups.laid_out` points it at
any batch of blocks.  :func:`flat_game_value` is the same dispatch for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12
_MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _as_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix game needs a 2-D m x n matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix game entries must be finite")
    return a


def _pure(size: int, index: int) -> np.ndarray:
    s = np.zeros(size)
    s[index] = 1.0
    return s


def _simplex(vals: list, m: int, n: int) -> tuple[float, np.ndarray, list]:
    """Primal simplex on a u-major flattened ``m x n`` game.

    Returns the value, the row weights ``x`` and the slack reduced costs
    ``y`` (unnormalized strategies).  The tableau is a list of Python float
    rows: at these sizes a numpy call per row operation costs more than the
    arithmetic.  Every entry goes through the same IEEE operations in the
    same order as a dense array tableau would, so results are bit-stable.
    """
    shift = 1.0 - min(vals)
    if shift < 0.0:
        shift = 0.0
    # tableau rows, one per column v: A'x + s = 1;  objective: maximize sum(x)
    t = []
    for v in range(n):
        row = [w + shift for w in vals[v::n]] + [0.0] * n + [1.0]
        row[m + v] = 1.0
        t.append(row)
    obj = [-1.0] * m + [0.0] * (n + 1)  # reduced costs z_j - c_j, slack basis
    basis = list(range(m, m + n))
    width = m + n

    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(width):
            if obj[j] < -_EPS:  # Bland: lowest-index improving column
                enter = j
                break
        if enter < 0:
            break
        leave, best, best_var = -1, math.inf, math.inf
        for i, row in enumerate(t):
            tie = row[enter]
            if tie > _EPS:
                ratio = row[-1] / tie
                if ratio < best - _EPS or (ratio < best + _EPS and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            raise RuntimeError("matrix game LP unbounded; input not positive?")
        piv = t[leave][enter]
        lrow = t[leave] = [w / piv for w in t[leave]]
        for i, row in enumerate(t):
            f = row[enter]
            if i != leave and f != 0.0:
                t[i] = [w - f * z for w, z in zip(row, lrow)]
        f = obj[enter]
        obj = [w - f * z for w, z in zip(obj, lrow)]
        basis[leave] = enter
    else:
        raise RuntimeError("matrix game LP did not terminate")

    x = np.zeros(m)
    for i, b in enumerate(basis):
        if b < m:
            x[b] = t[i][-1]
    total = float(x.sum())  # numpy sums 8 or more entries pairwise; the pins record that order
    if total <= 0:
        raise RuntimeError("matrix game LP returned a degenerate solution")
    return 1.0 / total - shift, x, obj[m:width]


def solve_matrix_game(matrix) -> MatrixGameSolution:
    """Solve a matrix game; returns value and a certificate-valid mixed pair."""
    a = _as_matrix(matrix)
    m, n = a.shape
    if m == 1:
        j = int(np.argmax(a[0]))
        return MatrixGameSolution(float(a[0, j]), np.ones(1), _pure(n, j))
    if n == 1:
        i = int(np.argmin(a[:, 0]))
        return MatrixGameSolution(float(a[i, 0]), _pure(m, i), np.ones(1))
    value, x, y = _simplex(a.ravel().tolist(), m, n)
    row = np.maximum(x, 0.0)
    col = np.maximum(np.array(y), 0.0)  # dual values from slack reduced costs
    return MatrixGameSolution(value, row / row.sum(), col / col.sum())


def best_response_value(matrix, strategy, side: str) -> tuple[float, int]:
    """Pure best response against one player's mixed strategy.

    ``side="row"``: the row strategy is given, the opponent maximizes over
    columns; returns ``(max_v (s'A)_v, argmax)``.  ``side="col"``: the given
    column strategy is minimized over rows.  Ties break to the lowest index.
    """
    a = _as_matrix(matrix)
    s = np.asarray(strategy, dtype=float)
    if side == "row":
        if s.shape != (a.shape[0],):
            raise ValueError(f"row strategy needs {a.shape[0]} entries, got {s.shape}")
        payoff = s @ a
        w = int(np.argmax(payoff))
    elif side == "col":
        if s.shape != (a.shape[1],):
            raise ValueError(f"column strategy needs {a.shape[1]} entries, got {s.shape}")
        payoff = a @ s
        w = int(np.argmin(payoff))
    else:
        raise ValueError(f'side must be "row" or "col", got {side!r}')
    return float(payoff[w]), w


def value_2x2(a: float, b: float, c: float, d: float) -> float:
    """Closed-form value of [[a, b], [c, d]] (row minimizes).

    Pure saddle if the pure upper and lower values meet; otherwise both
    players mix and the value is (ad - bc) / (a - b - c + d).
    """
    up = min(max(a, b), max(c, d))
    lo = max(min(a, c), min(b, d))
    if lo == up:
        return up
    den = a - b - c + d
    return up if den == 0.0 else (a * d - b * c) / den


def _values_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`value_2x2` over arrays, bit for bit.

    ``np.where(y > x, y, x)`` is Python's ``max(x, y)``: the first argument
    wins ties, signed zeros included.
    """
    def vmax(x, y):
        return np.where(y > x, y, x)

    def vmin(x, y):
        return np.where(y < x, y, x)

    up = vmin(vmax(a, b), vmax(c, d))
    lo = vmax(vmin(a, c), vmin(b, d))
    den = a - b - c + d
    return np.divide(a * d - b * c, den, out=up.copy(), where=(lo != up) & (den != 0.0))


@dataclass(frozen=True, eq=False)
class ShapeGroups:
    """The states of a game grouped by stage-game shape, for :func:`game_values`.

    ``rows`` (1 x k, 1 x 1 included), ``cols`` (k x 1) and ``pairs``
    (2 x 2) each hold 0-based state positions and a matrix of triplet
    indices, one row per state, padded by repeating the block's first entry.
    ``other`` lists every remaining block as ``(position, offset, nu, nv)``.
    """

    n: int
    rows: tuple[np.ndarray, np.ndarray]
    cols: tuple[np.ndarray, np.ndarray]
    pairs: tuple[np.ndarray, np.ndarray]
    other: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "ShapeGroups":
        """Group ``(offset, nu, nv)`` blocks, one per state, by the kernel's dispatch."""
        rows, cols, pairs, other = [], [], [], []
        for p, (off, nu, nv) in enumerate(blocks):
            if nu * nv == 0:
                other.append((p, off, nu, nv))  # the LP path rejects it
            elif nu == 1:
                rows.append((p, off, nv))
            elif nv == 1:
                cols.append((p, off, nu))
            elif nu == 2 and nv == 2:
                pairs.append((p, off, 4))
            else:
                other.append((p, off, nu, nv))

        def indexed(group):
            width = max((k for _, _, k in group), default=0)
            idx = [[off + (j if j < k else 0) for j in range(width)] for _, off, k in group]
            return (np.array([p for p, _, _ in group], dtype=np.intp),
                    np.array(idx, dtype=np.intp).reshape(len(group), width))

        return cls(len(blocks), indexed(rows), indexed(cols), indexed(pairs), tuple(other))

    def laid_out(self, blocks: np.ndarray, width: int) -> "ShapeGroups":
        """The groups of a batch of blocks: block ``b`` has the shape of
        position ``blocks[b]`` and is stored at ``b * width`` of a flat table."""
        at, groups = np.arange(len(blocks)) * width, []
        for pos, idx in (self.rows, self.cols, self.pairs):
            row = np.full(self.n, -1)
            row[pos] = np.arange(len(pos))
            b = np.flatnonzero(row[blocks] >= 0)
            local = idx[row[blocks[b]]]
            groups.append((b, at[b, None] + local - local[:, :1]))
        shape = {p: (nu, nv) for p, _, nu, nv in self.other}
        rest = np.flatnonzero(np.isin(blocks, list(shape))).tolist()
        return ShapeGroups(len(blocks), *groups, tuple((b, b * width, *shape[blocks[b]]) for b in rest))


def game_values(q, groups: ShapeGroups) -> np.ndarray:
    """Game value of every block of a flat u-major table, one pass per shape.

    The value kernel of the exact layer.  1 x k blocks take the first
    maximum and k x 1 blocks the first minimum, 2 x 2 blocks the vectorized
    :func:`value_2x2`, and every other block a value-only LP.  Equals
    :func:`flat_game_value` on each block bit for bit (property-tested).
    """
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("matrix game entries must be finite")
    out = np.empty(groups.n)
    for (pos, idx), pick in ((groups.rows, np.argmax), (groups.cols, np.argmin)):
        if pos.size:
            vals = q[idx]
            out[pos] = np.take_along_axis(vals, pick(vals, axis=1)[:, None], axis=1)[:, 0]
    pos, idx = groups.pairs
    if pos.size:
        out[pos] = _values_2x2(*q[idx].T)
    if groups.other:
        flat = q.tolist()
        for p, off, nu, nv in groups.other:
            if nu * nv == 0:
                raise ValueError(f"matrix game needs a 2-D m x n matrix, got shape {(nu, nv)}")
            out[p] = _simplex(flat[off : off + nu * nv], nu, nv)[0]
    return out


def flat_game_value(vals, nu: int, nv: int) -> float:
    """Game value of a u-major flattened ``nu x nv`` matrix.

    Fast dispatch used in sampling loops: single-row/column games are pure
    min/max, 2x2 uses the closed form, and larger blocks the value-only LP
    of :func:`game_values`.  Entries are not checked: every table the engine
    reads is finite (Q0 passes :func:`game_values` at t = 0 and every write
    is checked).  Agrees with :func:`solve_matrix_game` (property-tested).
    """
    if nu == 1:
        return max(vals)
    if nv == 1:
        return min(vals)
    if nu == 2 and nv == 2:
        return value_2x2(vals[0], vals[1], vals[2], vals[3])
    return _simplex(vals, nu, nv)[0]

