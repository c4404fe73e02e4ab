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

All LP blocks of a batch share one padded tableau (:func:`_stacked_simplex`),
serving :func:`solve_blocks` and :func:`game_values`, which takes 1 x k and
k x 1 blocks as a max / min and 2 x 2 ones by :func:`value_2x2`.  One block at
a time, :func:`block_kernel` picks a scalar kernel per block shape, which reads
the block from a table by position (the Q-learning recursion's, picked once per
run); larger blocks take the scalar :func:`_simplex`, equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12
_MAX_PIVOTS = 10_000

#: tolerance for probability-vector mass checks; model rows whose mass is off
#: by no more than this, but by more than rounding, are renormalized on load
PROB_TOL = 1e-9


def _not_distributions(flat: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """True for each of the ``n`` groups of ``flat`` (entry k in group ``owner[k]``) that is not a distribution.

    A distribution has entries >= 0, which a NaN fails, summing to 1 within ``PROB_TOL``.
    """
    bad = np.bincount(owner, ~(flat >= 0.0), n) > 0
    return bad | ~(np.abs(np.bincount(owner, flat, n) - 1.0) <= PROB_TOL)


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _finite(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("matrix game entries must be finite")
    return q


def _as_matrix(matrix) -> np.ndarray:
    shapes = [np.shape(row) for row in matrix] if isinstance(matrix, (list, tuple)) else []
    if len(set(shapes)) > 1:
        raise ValueError(f"matrix game needs a 2-D m x n matrix, got rows of shapes {shapes}")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix game needs a 2-D m x n matrix, got shape {a.shape}")
    return _finite(a)


def _simplex(vals: list, m: int, n: int) -> float:
    """Value of a u-major flattened ``m x n`` game by the primal simplex.

    A list of Python float rows: for one block a numpy call per row operation
    costs more than the arithmetic.  Bit for bit :func:`_stacked_simplex`'s
    IEEE operations, in the same order (property-tested).
    """
    shift = max(1.0 - min(vals), 0.0)
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
    return 1.0 / total - shift


def _stacked_simplex(q: np.ndarray, idx, nu, nv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_simplex` on the blocks of :attr:`ShapeGroups.other` at once, bit for bit: values, ``x``, ``y``.

    The tableau ``(B, N + 1, M + N + 1)`` keeps reduced costs in row N, x_u in column u and s_v in
    column M + v, so Bland's rule and the tie-break see each block's variables in order; padding is
    zero and never enters or leaves.  A round pivots every unfinished block; a finished one divides by 1.
    """
    for b in np.flatnonzero(nu * nv == 0)[:1].tolist():
        raise ValueError(f"matrix game needs a 2-D m x n matrix, got shape {(int(nu[b]), int(nv[b]))}")
    (nb, n, m), a = idx.shape, q[idx]
    with np.errstate(all="ignore"):  # shifted entries may overflow, as Python floats do silently
        shift = np.maximum(1.0 - a.reshape(nb, n * m).min(axis=1), 0.0)
        t = np.zeros((nb, n + 1, m + n + 1))
        t[:, :n, :m] = np.where((np.arange(m) < nu[:, None, None]) & (np.arange(n)[:, None] < nv[:, None, None]),
                                a + shift[:, None, None], 0.0)
        t[:, :n, m:] = np.eye(n, n + 1) + np.eye(1, n + 1, n)  # slack basis, right-hand side 1
        t[:, n, :m] = np.where(np.arange(m) < nu[:, None], -1.0, 0.0)
        basis, k, rows = np.tile(np.arange(m, m + n + 1), (nb, 1)), np.arange(nb), np.arange(n + 1)
        for _ in range(_MAX_PIVOTS):
            neg = t[:, n, :-1] < -_EPS
            go = neg.any(axis=1)
            if not go.any():
                break
            enter = neg.argmax(axis=1)  # Bland: lowest-index improving column
            col = np.where(go[:, None], t[k, :, enter], 0.0)  # a finished block leaves row -1, its cost row
            ratios = np.where(col[:, :n] > _EPS, t[:, :n, -1] / col[:, :n], math.inf)
            leave = np.where(go, ratios.argmin(axis=1), -1)  # the least ratio wins if no other is within eps
            low = ratios[k, leave][:, None]
            apart = (ratios >= low + _EPS) & (low < ratios - _EPS) | ~go[:, None]
            apart[k, leave] = True
            if not apart.all():  # else the ratio test of _simplex: a fold over the rows
                leave, best, best_var = -1, math.inf, math.inf
                for i in range(n):
                    ratio, var = ratios[:, i], basis[:, i]
                    take = (ratio < best - _EPS) | ((ratio < best + _EPS) & (var < best_var))
                    leave, best = np.where(take, i, leave), np.where(take, ratio, best)
                    best_var = np.where(take, var, best_var)
            if (go & (leave < 0)).any():
                raise RuntimeError("matrix game LP unbounded; input not positive?")
            lrow = t[k, leave] / np.where(go, col[k, leave], 1.0)[:, None]
            keep = (col == 0.0) | (rows == leave[:, None])  # f == 0 is skipped: w - 0*z can flip a zero
            t = np.where(keep[:, :, None], t, t - col[:, :, None] * lrow[:, None, :])
            t[k, leave], basis[k, leave] = lrow, enter
        else:
            raise RuntimeError("matrix game LP did not terminate")
    x = np.zeros((nb, m))
    b, i = np.nonzero(basis[:, :n] < m)
    x[b, basis[b, i]] = t[b, i, -1]
    total = _row_sums(x, nu)
    if (total <= 0).any():
        raise RuntimeError("matrix game LP returned a degenerate solution")
    return 1.0 / total - shift, x, t[:, n, m:-1]


def _row_sums(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``s[b, :k[b]].sum()`` for each row b: numpy sums 8 or more entries pairwise, so padding would regroup them."""
    out = np.empty(len(s))
    for width in set(k.tolist()):
        out[k == width] = s[k == width, :width].sum(axis=1)
    return out


def solve_blocks(q, blocks) -> list[MatrixGameSolution]:
    """Value and saddle-point pair of every ``(offset, nu, nv)`` block of a flat u-major table.

    1 x k and k x 1 blocks are pure (first max, first min); the rest take one :func:`_stacked_simplex`.
    """
    q, (_, idx, nu, nv) = _finite(q), ShapeGroups.from_blocks(blocks, closed_2x2=False).other
    values, x, y = _stacked_simplex(q, idx, nu, nv)
    found = zip(values.tolist(), *(s / _row_sums(s, k)[:, None] for s, k in ((np.maximum(x, 0.0), nu),
                                                                            (np.maximum(y, 0.0), nv))))
    sols = []
    for off, m, n in blocks:
        if min(m, n) != 1:
            value, row, col = next(found)
            sols.append(MatrixGameSolution(value, row[:m], col[:n]))
        else:  # pure: entry j of a row or a column, j % m and j % n pick the strategies
            a = q[off : off + m * n]
            j = int(a.argmax() if m == 1 else a.argmin())
            row, col = np.zeros(m), np.zeros(n)
            row[j % m] = col[j % n] = 1.0
            sols.append(MatrixGameSolution(float(a[j]), row, col))
    return sols


def solve_matrix_game(matrix) -> MatrixGameSolution:
    """Solve a matrix game; returns value and a certificate-valid mixed pair."""
    a = _as_matrix(matrix)
    return solve_blocks(a.ravel(), [(0, *a.shape)])[0]


def best_response_value(matrix, strategy, side: str) -> tuple[float, int]:
    """Pure best response against one player's mixed strategy.

    ``side="row"``: the row strategy is given, the opponent maximizes over
    columns; returns ``(max_v (s'A)_v, argmax)``.  ``side="col"``: the given
    column strategy is minimized over rows.  Ties break to the lowest index.
    A strategy that is not a probability vector is a ValueError.
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
    if _not_distributions(s, np.zeros(s.size, dtype=np.intp), 1)[0]:
        raise ValueError(f"not a probability vector: {s}")
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
    ``other``, the rest (2 x 2 too unless ``closed_2x2``), is ``(pos, idx[b, v, u] of entry (u, v), nu, nv)``.
    """

    n: int
    rows: tuple[np.ndarray, np.ndarray]
    cols: tuple[np.ndarray, np.ndarray]
    pairs: tuple[np.ndarray, np.ndarray]
    other: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def from_blocks(cls, blocks, closed_2x2: bool = True) -> "ShapeGroups":
        """Group ``(offset, nu, nv)`` blocks, one per state, by the kernel's dispatch."""
        off, nu, nv = np.array(blocks, dtype=np.intp).reshape(-1, 3).T
        rows, cols, pairs = (nu == 1) & (nv > 0), (nv == 1) & (nu > 1), (nu == 2) & (nv == 2) & closed_2x2

        def indexed(sel, k):
            pos = np.flatnonzero(sel)
            j = np.arange(k[pos].max(initial=0))
            return pos, np.where(j < k[pos, None], off[pos, None] + j, off[pos, None])

        p = np.flatnonzero(~(rows | cols | pairs))  # zero-size blocks too: the LP rejects them
        o, m, n = off[p, None, None], nu[p, None, None], nv[p, None, None]
        u, v = np.arange(nu[p].max(initial=1)), np.arange(nv[p].max(initial=1))[:, None]
        lp = p, np.where((u < m) & (v < n), o + u * n + v, o), nu[p], nv[p]  # idx[b, v, u]: entry (u, v)
        return cls(len(nu), indexed(rows, nv), indexed(cols, nu), indexed(pairs, nu * nv), lp)

    def laid_out(self, blocks: np.ndarray, width: int) -> "ShapeGroups":
        """The groups of a batch of blocks: block ``b`` has the shape of
        position ``blocks[b]`` and is stored at ``b * width`` of a flat table."""
        at, groups = np.arange(len(blocks)) * width, []
        for pos, idx, *shape in (self.rows, self.cols, self.pairs, self.other):
            row = np.full(self.n, -1)
            row[pos] = np.arange(len(pos))
            b = np.flatnonzero(row[blocks] >= 0)
            r = row[blocks[b]]
            local = idx[r]
            first = local[(slice(None),) + (slice(1),) * (local.ndim - 1)]  # each block's first entry
            groups.append((b, local - first + at[b].reshape(first.shape), *(k[r] for k in shape)))
        return ShapeGroups(len(blocks), *groups)


def game_values(q, groups: ShapeGroups) -> np.ndarray:
    """Game value of every block of a flat u-major table, one pass per shape.

    The value kernel of the exact layer.  1 x k blocks take the first
    maximum and k x 1 blocks the first minimum, 2 x 2 blocks the vectorized
    :func:`value_2x2`, and all other blocks one :func:`_stacked_simplex`.  Equals
    :func:`flat_game_value` on each block bit for bit (property-tested).
    """
    q = _finite(q)
    out = np.empty(groups.n)
    for (pos, idx), pick in ((groups.rows, np.argmax), (groups.cols, np.argmin)):
        if pos.size:
            vals = q[idx]
            out[pos] = np.take_along_axis(vals, pick(vals, axis=1)[:, None], axis=1)[:, 0]
    pos, idx = groups.pairs
    if pos.size:
        out[pos] = _values_2x2(*q[idx].T)
    if groups.other[0].size:
        out[groups.other[0]] = _stacked_simplex(q, *groups.other[1:])[0]
    return out


def block_kernel(nu: int, nv: int):
    """The scalar value kernel of ``nu x nv`` blocks, picked once: ``(table, positions) -> float``.

    The block's u-major entries are ``table[positions[0]], table[positions[1]], ...``;
    positions past its ``nu * nv`` are never read.  A 1 x 1 block is its entry, 1 x k
    the first maximum, k x 1 the first minimum, 2 x 2 :func:`value_2x2` and larger blocks
    :func:`_simplex`, the scalar twin of :func:`game_values`' LP.  Entries are not checked:
    every table the engine reads is finite (Q0 passes :func:`game_values` at t = 0 and
    every write is checked).
    """
    size = nu * nv
    if size == 1:
        return lambda q, at: q[at[0]]
    if nu == 1 or nv == 1:
        pick = max if nu == 1 else min
        if size == 2:
            return lambda q, at: pick(q[at[0]], q[at[1]])
        return lambda q, at: pick([q[x] for x in at[:size]])
    if nu == 2 and nv == 2:
        return lambda q, at: value_2x2(q[at[0]], q[at[1]], q[at[2]], q[at[3]])
    return lambda q, at: _simplex([q[x] for x in at[:size]], nu, nv)


def flat_game_value(vals, nu: int, nv: int) -> float:
    """Game value of a u-major flattened ``nu x nv`` matrix by :func:`block_kernel`.

    Agrees with :func:`solve_matrix_game` (property-tested).
    """
    return block_kernel(nu, nv)(vals, range(nu * nv))
