import hashlib
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import sspg
from conftest import make_contraction
from sspg import matgame
from sspg.matgame import ShapeGroups, block_kernel, flat_game_value, game_values


def oracle_2x2(a, b, c, d):
    """Independent closed-form oracle (row minimizes).

    Pure saddle when the pure upper and lower values coincide; otherwise the
    indifference equations give p = (d-c)/(a-b-c+d) for the row mix on the
    first row, q = (d-b)/(a-b-c+d) for the column mix, and value
    (ad-bc)/(a-b-c+d).
    """
    up = min(max(a, b), max(c, d))
    lo = max(min(a, c), min(b, d))
    if lo == up:
        return up, None, None
    den = a - b - c + d
    p = (d - c) / den
    q = (d - b) / den
    return (a * d - b * c) / den, (p, 1 - p), (q, 1 - q)


def certificate_slack(a, sol):
    a = np.asarray(a, dtype=float)
    br_row, _ = sspg.best_response_value(a, sol.row_strategy, "row")
    br_col, _ = sspg.best_response_value(a, sol.col_strategy, "col")
    return max(br_row - sol.value, sol.value - br_col)


def test_matching_pennies():
    sol = sspg.solve_matrix_game([[1, -1], [-1, 1]])
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.row_strategy, [0.5, 0.5], atol=1e-12)
    assert np.allclose(sol.col_strategy, [0.5, 0.5], atol=1e-12)


def test_singleton():
    sol = sspg.solve_matrix_game([[5.0]])
    assert sol.value == 5.0
    assert sol.row_strategy.tolist() == [1.0]
    assert sol.col_strategy.tolist() == [1.0]


def test_2x2_mixed_example():
    # oracle: p = (2-1)/(3-0-1+2) = 0.25, value = (3*2-0*1)/4 = 1.5, q = 0.5
    sol = sspg.solve_matrix_game([[3, 0], [1, 2]])
    assert sol.value == pytest.approx(1.5, abs=1e-9)
    assert np.allclose(sol.row_strategy, [0.25, 0.75], atol=1e-9)
    assert np.allclose(sol.col_strategy, [0.5, 0.5], atol=1e-9)


def test_everett_fixed_point_matrix():
    assert sspg.solve_matrix_game([[1, 0], [1, 1]]).value == pytest.approx(1.0, abs=1e-9)


def test_oracle_equivalence_all_small_integer_2x2():
    vals = range(-3, 4)
    for a, b, c, d in itertools.product(vals, repeat=4):
        want, _, _ = oracle_2x2(a, b, c, d)
        sol = sspg.solve_matrix_game([[a, b], [c, d]])
        assert sol.value == pytest.approx(want, abs=1e-9), (a, b, c, d)
        assert certificate_slack([[a, b], [c, d]], sol) < 1e-8, (a, b, c, d)


def test_duality_and_certificate_random():
    rng = np.random.default_rng(123)
    for _ in range(500):
        a = rng.uniform(-10, 10, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        sol = sspg.solve_matrix_game(a)
        assert certificate_slack(a, sol) < 1e-8
        maximin = -sspg.solve_matrix_game(-a.T).value
        assert abs(maximin - sol.value) < 1e-8
        assert sol.value == pytest.approx(
            float(sol.row_strategy @ a @ sol.col_strategy), abs=1e-8
        )


def test_shift_scale_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.uniform(-5, 5, size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        alpha, beta = float(rng.uniform(0.1, 4.0)), float(rng.uniform(-8, 8))
        base = sspg.solve_matrix_game(a)
        moved = sspg.solve_matrix_game(alpha * a + beta)
        assert moved.value == pytest.approx(alpha * base.value + beta, abs=1e-7)
        assert certificate_slack(alpha * a + beta, moved) < 1e-8


def test_fast_value_agrees_with_lp():
    rng = np.random.default_rng(99)
    for _ in range(300):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        a = rng.uniform(-6, 6, size=shape)
        fast = flat_game_value(a.ravel().tolist(), *shape)
        assert fast == pytest.approx(sspg.solve_matrix_game(a).value, abs=1e-8)


def test_best_response_examples():
    value, witness = sspg.best_response_value([[3, 0], [1, 2]], [0.25, 0.75], "row")
    assert value == pytest.approx(1.5, abs=1e-12)
    assert witness == 0  # both columns tie at 1.5; lowest index wins

    value, witness = sspg.best_response_value([[5.0]], [1.0], "row")
    assert (value, witness) == (5.0, 0)

    value, witness = sspg.best_response_value([[1, -1], [-1, 1]], [1.0, 0.0], "row")
    assert (value, witness) == (1.0, 0)


def test_best_response_dimension_mismatch():
    with pytest.raises(ValueError):
        sspg.best_response_value([[1, 2], [3, 4]], [0.5, 0.25, 0.25], "row")
    with pytest.raises(ValueError):
        sspg.best_response_value([[1, 2], [3, 4]], [1.0], "sideways")
    with pytest.raises(ValueError, match=r"^column strategy needs 2 entries, got \(3,\)$"):
        sspg.best_response_value([[1, 2], [3, 4]], [0.5, 0.25, 0.25], "col")


@pytest.mark.parametrize("side", ["row", "col"])
@pytest.mark.parametrize("strategy", [[2.0], [np.nan], [-1.0], [np.inf]])
def test_best_response_rejects_non_distributions(side, strategy):
    # [2.0] gave (2.0, 0), [nan] gave (nan, 0): the one check, entries >= 0 summing to 1 within PROB_TOL
    with pytest.raises(ValueError, match="not a probability vector"):
        sspg.best_response_value([[1.0]], strategy, side)
    for bad in ([np.nan, 0.5], [-1.0, 2.0], [0.5, 0.5 + 1e-8]):
        with pytest.raises(ValueError, match="not a probability vector"):
            sspg.best_response_value([[1.0, 2.0], [3.0, 4.0]], bad, side)
    # within the tolerance, and a zero of either sign, is a distribution
    assert sspg.best_response_value([[1.0, 2.0], [3.0, 4.0]], [-0.0, 1.0 + 1e-10], side)[1] in (0, 1)


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        sspg.solve_matrix_game([[np.inf, 1.0]])
    with pytest.raises(ValueError):
        sspg.solve_matrix_game(np.zeros((0, 2)))
    # rows of unequal length: the library's shape error, not numpy's
    with pytest.raises(ValueError, match=r"^matrix game needs a 2-D m x n matrix, got rows of shapes \[\(2,\), \(1,\)\]$"):
        sspg.solve_matrix_game([[1, 2], [3]])


def test_deterministic_resolution():
    rng = np.random.default_rng(5)
    a = rng.uniform(-3, 3, size=(4, 4))
    s1 = sspg.solve_matrix_game(a)
    s2 = sspg.solve_matrix_game(a.copy())
    assert s1.value == s2.value
    assert (s1.row_strategy == s2.row_strategy).all()
    assert (s1.col_strategy == s2.col_strategy).all()


# sha256 of solve_matrix_game's value, row and column bytes over fixed inputs:
# any change to the pivot order, tie-breaking or arithmetic shows here
LP_PINS = {
    "continuous": "1a37bae71de42b45bf760b73f3d07d0d0de8c9de9a879a5424a2cbc818797b63",
    "integer-ties": "7ea209a3687d7b63c0c7c435baef80f0d39c3f2410cc2092b50d1c1b1c88c55b",
    "pure": "56e284ff82d3e97933db6f23dc06acaaebdc1781d3c6eeb9cdb98a8930a30b87",
}


def lp_pin_matrices():
    """Every shape up to 8x8: continuous, small integers with ties, 1 x k and k x 1 rows."""
    rng = np.random.default_rng(20240)
    shapes = list(itertools.product(range(1, 9), repeat=2))
    return {
        "continuous": [rng.uniform(-10, 10, size=s) for s in shapes for _ in range(2)],
        "integer-ties": [rng.integers(-2, 3, size=s).astype(float) for s in shapes if min(s) > 1 for _ in range(2)],
        "pure": [rng.integers(-2, 3, size=(1, k) if side else (k, 1)).astype(float)
                 for k in range(1, 9) for side in (0, 1)],
    }


def test_lp_pins():
    got = {}
    for family, mats in lp_pin_matrices().items():
        h = hashlib.sha256()
        for a in mats:
            sol = sspg.solve_matrix_game(a)
            h.update(np.float64(sol.value).tobytes())
            h.update(sol.row_strategy.tobytes())
            h.update(sol.col_strategy.tobytes())
        got[family] = h.hexdigest()
    assert got == LP_PINS


def linprog_value(a):
    """Independent oracle: min over row mixes x of max_v (x'A)_v by HiGHS."""
    m, n = a.shape
    res = linprog(
        np.r_[np.zeros(m), 1.0],  # variables x_1..x_m, z; minimize z
        A_ub=np.c_[a.T, -np.ones(n)], b_ub=np.zeros(n),  # (x'A)_v <= z
        A_eq=np.r_[np.ones(m), 0.0][None, :], b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)], method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def test_linprog_oracle():
    rng = np.random.default_rng(31)
    for k in range(400):
        shape = tuple(int(x) for x in rng.integers(1, 9, size=2))
        a = rng.uniform(-10, 10, size=shape) if k % 2 else rng.integers(-3, 4, size=shape).astype(float)
        sol = sspg.solve_matrix_game(a)
        assert abs(sol.value - linprog_value(a)) <= 1e-9, (k, shape)
        assert certificate_slack(a, sol) <= 1e-9, (k, shape)


def test_kernel_equals_flat_game_value_bitwise():
    rng = np.random.default_rng(17)
    seen = set()
    for k in range(120):
        m = make_contraction(seed=500 + k, n_states=int(rng.integers(1, 9)), max_controls=int(rng.integers(1, 5)))
        if k % 2:
            q = rng.uniform(-10, 10, size=m.n_triplets)
        else:  # ties, signed zeros included
            q = rng.integers(-2, 3, size=m.n_triplets).astype(float)
            q[q == 0.0] *= rng.choice([1.0, -1.0], size=int((q == 0.0).sum()))
        want = []
        for i in range(1, m.n + 1):
            off, nu, nv = m.state_block(i)
            seen.add("1xk" if nu == 1 else "kx1" if nv == 1 else "2x2" if (nu, nv) == (2, 2) else "other")
            want.append(flat_game_value(q[off : off + nu * nv].tolist(), nu, nv))
        assert game_values(q, m.shape_groups).tobytes() == np.array(want).tobytes(), k
    assert seen == {"1xk", "kx1", "2x2", "other"}


def test_laid_out_batch_equals_flat_game_value_bitwise():
    """Any batch of blocks, repeats and padding included, goes through the same dispatch."""
    rng = np.random.default_rng(23)
    seen = set()
    for k in range(40):
        m = make_contraction(seed=700 + k, n_states=int(rng.integers(1, 8)), max_controls=int(rng.integers(1, 5)))
        shapes = [m.state_block(i)[1:] for i in range(1, m.n + 1)]
        blocks = rng.integers(0, m.n, size=int(rng.integers(0, 30)))
        width = max(nu * nv for nu, nv in shapes) + int(rng.integers(0, 3))
        flat = rng.integers(-2, 3, size=len(blocks) * width).astype(float)
        flat[flat == 0.0] *= rng.choice([1.0, -1.0], size=int((flat == 0.0).sum()))
        want = []
        for b, p in enumerate(blocks.tolist()):
            nu, nv = shapes[p]
            seen.add("1xk" if nu == 1 else "kx1" if nv == 1 else "2x2" if (nu, nv) == (2, 2) else "other")
            want.append(flat_game_value(flat[b * width : b * width + nu * nv].tolist(), nu, nv))
        got = game_values(flat, m.shape_groups.laid_out(blocks, width))
        assert got.tobytes() == np.array(want).tobytes(), k
    assert seen == {"1xk", "kx1", "2x2", "other"}


def _dispatch_per_call(vals, nu, nv):
    """The per-call shape dispatch that the block kernels replaced, as the oracle."""
    if nu == 1:
        return max(vals)
    if nv == 1:
        return min(vals)
    if nu == 2 and nv == 2:
        return matgame.value_2x2(*vals)
    return matgame._simplex(vals, nu, nv)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_block_kernel_reads_the_table_as_the_dispatch_did(nu, nv):
    """Random blocks scattered over a table, ties and signed zeros included; the padding
    of a position row is out of range, so a kernel that read it would raise."""
    rng = np.random.default_rng(nu * 10 + nv)
    kernel, size = block_kernel(nu, nv), nu * nv
    for k in range(150):
        if k % 3:
            vals = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=size)
        else:
            vals = rng.uniform(-10, 10, size=size)
        table = rng.uniform(-10, 10, size=3 * size).tolist()
        at = rng.permutation(len(table))[:size]
        for x, v in zip(at.tolist(), vals.tolist()):
            table[x] = v
        at = at.tolist() + [10**9] * (16 - size)
        want = _dispatch_per_call(vals.tolist(), nu, nv)
        assert np.float64(kernel(table, at)).tobytes() == np.float64(want).tobytes(), (k, vals)
        assert np.float64(flat_game_value(vals.tolist(), nu, nv)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 2)])
def test_kernel_signed_zero_ties(shape):
    # every table over {-1, -0.0, 0.0, 1}: ties between signed zeros pick the same one
    nu, nv = shape
    tables = [list(t) for t in itertools.product([-1.0, -0.0, 0.0, 1.0], repeat=nu * nv)]
    groups = ShapeGroups.from_blocks([(k * nu * nv, nu, nv) for k in range(len(tables))])
    got = game_values(np.array(tables).ravel(), groups)
    want = np.array([flat_game_value(t, nu, nv) for t in tables])
    assert got.tobytes() == want.tobytes()


def test_kernel_rejects_bad_tables(everett):
    with pytest.raises(ValueError, match="finite"):
        sspg.values_from_q(everett, [0.0, np.inf, 1.0, 2.0])
    empty = sspg.GameModel(["1"], {"1": ["a"]}, {"1": []}, {})
    with pytest.raises(ValueError, match="matrix"):
        game_values(np.zeros(0), empty.shape_groups)


def mixed_lp_batch(rng, kind, count=24):
    """Blocks of shapes from 2 x 3 up to 9 x 9 laid out in one flat table."""
    shapes = [(2, 3), (3, 2), (8, 9), (9, 8)] + [tuple(int(x) for x in rng.integers(2, 10, size=2))
                                                 for _ in range(count - 4)]
    offsets = np.cumsum([0] + [a * b for a, b in shapes])
    size = int(offsets[-1])
    if kind == "integer":  # small-integer ties, signed zeros included
        q = rng.integers(-2, 3, size=size).astype(float)
        q[q == 0.0] *= rng.choice([1.0, -1.0], size=int((q == 0.0).sum()))
    else:
        q = rng.uniform(-10, 10, size=size) * {"continuous": 1.0, "large": 2.0**40, "small": 2.0**-40}[kind]
    return q, [(int(off), a, b) for off, (a, b) in zip(offsets, shapes)]


def scalar_outcome(q, off, a, b):
    try:
        return matgame._simplex(q[off : off + a * b].tolist(), a, b)
    except RuntimeError as e:
        return str(e)


@pytest.mark.parametrize("kind", ["continuous", "integer", "large", "small"])
def test_stacked_simplex_equals_scalar_simplex_bitwise(kind, monkeypatch):
    rng = np.random.default_rng({"continuous": 1, "integer": 2, "large": 3, "small": 4}[kind])
    slow = 0
    for _ in range(6):
        q, blocks = mixed_lp_batch(rng, kind)
        # a block the scalar simplex rejects raises the same error in the stacked one, alone
        outcomes = [scalar_outcome(q, *block) for block in blocks]
        for block, out in zip(blocks, outcomes):
            if isinstance(out, str):
                with pytest.raises(RuntimeError) as err:
                    game_values(q, ShapeGroups.from_blocks([block]))
                assert str(err.value) == out
        blocks = [block for block, out in zip(blocks, outcomes) if not isinstance(out, str)]
        _, idx, nu, nv = ShapeGroups.from_blocks(blocks, closed_2x2=False).other
        values, x, y = matgame._stacked_simplex(q, idx, nu, nv)
        want = [matgame._simplex(q[off : off + a * b].tolist(), a, b) for off, a, b in blocks]
        assert values.tobytes() == np.array(want).tobytes()
        assert game_values(q, ShapeGroups.from_blocks(blocks)).tobytes() == np.array(
            [flat_game_value(q[off : off + a * b].tolist(), a, b) for off, a, b in blocks]).tobytes()
        # strategies: the batch normalizes each block over its own entries only
        for sol, (off, a, b) in zip(matgame.solve_blocks(q, blocks), blocks):
            one = sspg.solve_matrix_game(q[off : off + a * b].reshape(a, b))
            assert (sol.value, sol.row_strategy.tobytes(), sol.col_strategy.tobytes()) == (
                one.value, one.row_strategy.tobytes(), one.col_strategy.tobytes())
        # blocks that need 5 or more pivots hit a cap of 5 in both solvers
        with monkeypatch.context() as patch:
            patch.setattr(matgame, "_MAX_PIVOTS", 5)
            capped = [out for out in (scalar_outcome(q, *block) for block in blocks) if isinstance(out, str)]
            slow += len(capped)
            assert set(capped) <= {"matrix game LP did not terminate"}
            if capped:
                with pytest.raises(RuntimeError, match="^matrix game LP did not terminate$"):
                    matgame._stacked_simplex(q, idx, nu, nv)
            else:
                assert matgame._stacked_simplex(q, idx, nu, nv)[0].tobytes() == values.tobytes()
    assert slow > 0


@pytest.mark.parametrize("block,message", [
    ([-1e308] * 6, "matrix game LP unbounded; input not positive?"),
    ([-1e308, -1e308, 1e308, -1e308, -1e308, 1e308], "matrix game LP returned a degenerate solution"),
])
def test_stacked_simplex_keeps_the_scalar_errors(block, message):
    # a 2 x 3 block whose shifted entries overflow, batched with an ordinary 3 x 3 block
    q = np.array(block + np.arange(9.0).tolist())
    with pytest.raises(RuntimeError) as scalar:
        matgame._simplex(block, 2, 3)
    assert str(scalar.value) == message
    groups = ShapeGroups.from_blocks([(0, 2, 3), (6, 3, 3)])
    with pytest.raises(RuntimeError) as stacked:
        game_values(q, groups)
    assert str(stacked.value) == message
    with pytest.raises(ValueError, match=r"^matrix game needs a 2-D m x n matrix, got shape \(0, 2\)$"):
        matgame.solve_blocks(q, [(0, 2, 3), (6, 0, 2)])
