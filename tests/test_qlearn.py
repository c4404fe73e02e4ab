import bisect
import dataclasses
import hashlib

import numpy as np
import pytest

import sspg
from conftest import make_contraction, make_terminal_only
from sspg.matgame import block_kernel, flat_game_value
from sspg.model import counter_uniform
from sspg.qlearn import (_CHUNK, MetricsRow, ReplayCore, _index_dtype, _replay, _stepsize_table, derived_columns,
                         pair_delay_offsets)


@pytest.fixture(scope="module")
def recorded_run():
    m = make_contraction(seed=30, n_states=4, max_controls=2)
    cfg = sspg.QLearnConfig(seed=9, max_iters=4000, scheduler="uniform-random:1",
                            delay_model=("uniform", 5), record_full_history=True)
    q, run = sspg.run_qlearning(m, cfg)
    return m, cfg, q, run


def _offsets(run, m):
    """The delay offsets of a recorded run's events, one row per event, by the run's delay rule."""
    ev = run.events
    return ReplayCore(m, run.config.delay_model, run.config.seed).offsets(ev.t, ev.ell, ev.count, ev.j)


def test_zero_iterations_returns_q0():
    m = make_contraction(seed=32)
    q0 = np.arange(m.n_triplets, dtype=float)
    cfg = sspg.QLearnConfig(seed=1, max_iters=0)
    q, run = sspg.run_qlearning(m, cfg, q0)
    assert (q == q0).all()
    assert run.counts.sum() == 0


def test_carry_over_bit_identical(recorded_run):
    m, cfg, q, run = recorded_run
    ev = run.events
    # replay assignments: untouched components never change
    q_now = run.q0.copy()
    for k in range(len(ev)):
        before = q_now.copy()
        q_now[ev.ell[k]] = ev.new_q[k]
        untouched = np.ones(m.n_triplets, dtype=bool)
        untouched[ev.ell[k]] = False
        assert (q_now[untouched] == before[untouched]).all()
        if k > 200:
            break
    assert (q == q_now).all() or len(ev) > 201  # full check when short


def test_determinism_digest(recorded_run):
    m, cfg, q, run = recorded_run
    q2, run2 = sspg.run_qlearning(m, cfg)
    assert (q == q2).all()
    assert run.digest() == run2.digest()


def test_seed_changes_run(recorded_run):
    m, cfg, q, run = recorded_run
    cfg2 = sspg.QLearnConfig(seed=10, max_iters=cfg.max_iters, scheduler=cfg.scheduler,
                             delay_model=cfg.delay_model, record_full_history=True)
    _, run2 = sspg.run_qlearning(m, cfg2)
    assert run.digest() != run2.digest()


def test_delay_validity(recorded_run):
    m, cfg, q, run = recorded_run
    ev, offsets = run.events, _offsets(run, m)
    d_bound = 5
    for k in range(len(ev)):
        offs = offsets[k]
        used = offs[offs >= 0]
        if used.size:
            assert used.max() <= min(d_bound, int(ev.t[k]))  # tau <= t and t - tau <= D


def test_stepsize_sums(self_loop):
    # the divergent-sum side dominates the square-summable side on long runs
    cfg = sspg.QLearnConfig(seed=0, max_iters=50_000, scheduler="all")
    _, run = sspg.run_qlearning(self_loop, cfg)
    assert (run.counts == 50_000).all()
    assert (run.sum_gamma >= 10 * run.sum_gamma_sq).all()


def test_engine_matches_sample_transition(recorded_run):
    """Recorded successors and costs are the linear scan of the kernel row at the
    counter-based uniform of (seed, component, update count)."""
    m, cfg, q, run = recorded_run
    ev = run.events
    u = counter_uniform(cfg.seed, ev.ell.astype(np.uint64), ev.count.astype(np.uint64)).tolist()
    cost = derived_columns(m, cfg, ev)[0]
    for k in range(0, len(ev), 97):
        ell = int(ev.ell[k])
        idx = np.flatnonzero(m.P[ell] > 0.0)
        cum = np.cumsum(m.P[ell, idx]).tolist()
        pos = next(p for p, c in enumerate(cum) if c >= u[k])
        assert int(ev.j[k]) == idx[pos]
        assert float(cost[k]) == m.C[ell, idx[pos]]


def test_engine_matches_public_update(recorded_run):
    """Rebuild each event's delayed view from full past tables and re-apply the relaxation."""
    m, cfg, q, run = recorded_run
    ev, offsets = run.events, _offsets(run, m)
    cost, gammas = derived_columns(m, cfg, ev)
    depth = cfg.delay_model[1] + 1  # tables at the start of iterations t - D .. t
    q_now = run.q0.tolist()
    ring = [q_now[:] for _ in range(depth)]
    t_prev = -1
    checked = {True: 0, False: 0}  # by whether the successor is terminal
    for k in range(min(len(ev), 600)):
        t = int(ev.t[k])
        for tt in range(t_prev + 1, t + 1):
            ring[tt % depth] = q_now[:]
        t_prev = max(t_prev, t)
        ell, j, gamma = int(ev.ell[k]), int(ev.j[k]), float(gammas[k])
        val = 0.0
        if j != 0:
            off, nu, nv = m.state_block(j)
            offs = offsets[k].tolist()
            val = flat_game_value([ring[(t - offs[kk]) % depth][off + kk] for kk in range(nu * nv)], nu, nv)
        assert (1.0 - gamma) * q_now[ell] + gamma * (float(cost[k]) + val) == float(ev.new_q[k])
        checked[j == 0] += 1
        q_now[ell] = float(ev.new_q[k])
    assert checked[True] >= 50 and checked[False] >= 100


def test_delay_offsets_pure_function():
    a = pair_delay_offsets(7, 16, 4, 3, 11, 2, 4, 5)
    b = pair_delay_offsets(7, 16, 4, 3, 11, 2, 4, 5)
    assert a.shape == (1, 4) and (a == b).all()
    assert ((0 <= a) & (a <= 5)).all()
    assert pair_delay_offsets(7, 16, 4, 3, 11, 2, 4, 0).tolist() == [[0, 0, 0, 0]]


def test_uniform_delay_bound_is_what_the_16_bit_draw_covers():
    """Offsets scale a 16-bit draw into [0, D]: at D = 65535 every value of [0, 65535] can be drawn.
    A larger bound would leave values out, and is refused (test_config_types_named)."""
    offs = pair_delay_offsets(7, 16, 4, np.arange(16), np.arange(4000)[:, None], 2, 4, 65535)
    assert offs.min() == 0 and offs.max() == 65535
    assert len(np.unique(offs)) > 60_000  # 256k draws of 65536 values
    assert sspg.QLearnConfig(delay_model=("uniform", 65535)).delay_model == ("uniform", 65535)


def test_replay_core_reads_match_full_tables():
    """The reader answers every delayed read as full tables at the start of each
    iteration would: gaps between iterations, chunks that split an iteration,
    delays that reach back past several chunks, the terminal state."""
    m = make_contraction(seed=44, n_states=5, max_controls=3)
    nR = m.n_triplets
    blocks = [(0, 0)] + [(off, nu * nv) for off, nu, nv in (m.state_block(i) for i in range(1, m.n + 1))]
    width = max(size for _, size in blocks)
    rng = np.random.default_rng(8)
    for bound in (0, 1, 4, 30):
        # events: iterations with gaps, each component written at most once per iteration
        ts, ells, t = [], [], -1
        for _ in range(300):
            t += int(rng.choice([1, 1, 1, 2, bound + 3]))
            writes = rng.permutation(nR)[: rng.integers(0, 6)].tolist()
            ts += [t] * len(writes)
            ells += writes
        t_arr, ell = np.array(ts, dtype=np.int64), np.array(ells, dtype=np.int64)
        j = rng.integers(0, m.n + 1, len(ts))
        count = rng.integers(0, 10**6, len(ts))
        core = ReplayCore(m, ("uniform", bound), 0)
        offs = core.offsets(t_arr, ell, count, j)
        assert offs.shape == (len(ts), width) and (offs <= np.minimum(bound, t_arr)[:, None]).all()
        if bound == 30:
            assert offs.max() == 30  # delays reach back past several chunks
        table = rng.random(nR).tolist()  # the live values, then the values the window's writes replaced
        starts, begun, lo = {}, -1, 0  # iteration -> the full table at its start
        while lo < len(ts):
            hi = min(lo + int(rng.integers(1, 40)), len(ts))
            refs = core.reads(table, t_arr[lo:hi], ell[lo:hi], count[lo:hi], j[lo:hi])
            assert len(refs) == hi - lo and (core.window[1] >= ts[lo] - bound).all()
            for e in range(lo, hi):
                for w in range(begun + 1, ts[e] + 1):
                    starts[w] = table[:nR]
                begun = ts[e]
                first, size = blocks[j[e]]
                want = [starts[ts[e] - d][first + k] for k, d in enumerate(offs[e, :size].tolist())]
                assert [table[x] for x in refs[e - lo][:size]] == want
                c = ells[e]
                table.append(table[c])
                table[c] = float(rng.random())
            lo = hi


def test_fixed_delay_schedule():
    m = make_contraction(seed=41, n_states=3, max_controls=2)
    schedule = (0, 2, 1, 4)
    cfg = sspg.QLearnConfig(seed=6, max_iters=1500, scheduler="uniform-random:1",
                            delay_model=("fixed", schedule), record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    ev, offsets = run.events, _offsets(run, m)
    for k in range(len(ev)):
        t = int(ev.t[k])
        offs = offsets[k]
        used = offs[offs >= 0]
        if used.size:
            want = min(schedule[t % len(schedule)], t)
            assert (used == want).all()  # the scheduled offset, every pair
    # recorded runs with fixed delays replay cleanly through both consumers
    w = sspg.noise_decomposition(run, m)
    assert np.isfinite(w).all()
    report = sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, 2), run)
    assert report.ok


def test_uniform_zero_delay_matches_zero_mode():
    m = make_contraction(seed=42)
    base = sspg.QLearnConfig(seed=5, max_iters=800, scheduler="uniform-random:1",
                             delay_model="zero", record_full_history=True)
    alt = sspg.QLearnConfig(seed=5, max_iters=800, scheduler="uniform-random:1",
                            delay_model=("uniform", 0), record_full_history=True)
    qa, run_a = sspg.run_qlearning(m, base)
    qb, run_b = sspg.run_qlearning(m, alt)
    assert (qa == qb).all()
    assert run_a.digest() == run_b.digest()


def test_terminal_only_converges_to_stage_costs():
    m = make_terminal_only(seed=33)
    cfg = sspg.QLearnConfig(seed=1, max_iters=10_000, scheduler="all")
    q, run = sspg.run_qlearning(m, cfg)
    assert np.abs(q - m.g).max() <= 1e-2


def test_terminal_only_shift_equivariance():
    m = make_terminal_only(seed=34)
    beta = 2.75
    shifted = sspg.GameModel(
        m.states, m.controls1, m.controls2,
        {t: [(j, p, c + beta) for j, p, c in row] for t, row in m.transitions.items()},
    )
    cfg = sspg.QLearnConfig(seed=4, max_iters=3000, scheduler="uniform-random:2")
    q0 = np.zeros(m.n_triplets)
    qa, _ = sspg.run_qlearning(m, cfg, q0)
    qb, _ = sspg.run_qlearning(shifted, cfg, q0 + beta)
    assert np.allclose(qb, qa + beta, atol=0.0)  # pathwise-exact shift


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_abort():
    # huge stage cost added to a huge delayed value overflows the first target
    m = sspg.GameModel(["1"], {"1": ["a"]}, {"1": ["x"]},
                       {("1", "a", "x"): [("1", 1.0, 1e308)]})
    with pytest.raises(sspg.QLearnDivergenceError):
        sspg.run_qlearning(
            m, sspg.QLearnConfig(seed=0, max_iters=10), np.array([1e308])
        )


def test_library_ignores_env_seed(monkeypatch):
    # SSPG_SEED is a command-line feature: a library run's seed is its config's
    m = make_contraction(seed=36)
    cfg = sspg.QLearnConfig(seed=1, max_iters=500, scheduler="uniform-random:1",
                            record_full_history=True)
    _, run_base = sspg.run_qlearning(m, cfg)
    monkeypatch.setenv("SSPG_SEED", "77")
    _, run_env = sspg.run_qlearning(m, cfg)
    assert run_env.digest() == run_base.digest()
    _, run_77 = sspg.run_qlearning(m, dataclasses.replace(cfg, seed=77))
    assert run_77.digest() != run_base.digest()


def test_schedulers():
    m = make_contraction(seed=37)
    n = m.n_triplets
    # round-robin touches components cyclically
    cfg = sspg.QLearnConfig(seed=0, max_iters=n, scheduler="round-robin:1")
    _, run = sspg.run_qlearning(m, cfg)
    assert (run.counts == 1).all()
    # custom groups
    cfg = sspg.QLearnConfig(seed=0, max_iters=4, scheduler=("custom", [[0, 1], [2]]))
    _, run = sspg.run_qlearning(m, cfg)
    assert run.counts[0] == 2 and run.counts[1] == 2 and run.counts[2] == 2
    assert run.counts[3:].sum() == 0
    # "all" updates everything every iteration
    cfg = sspg.QLearnConfig(seed=0, max_iters=3, scheduler="all")
    _, run = sspg.run_qlearning(m, cfg)
    assert (run.counts == 3).all()


def test_config_validation():
    with pytest.raises(ValueError):
        sspg.QLearnConfig(stepsize=(1.0, 1.0, 0.5))  # p too small
    with pytest.raises(ValueError):
        sspg.QLearnConfig(stepsize=(0.0, 1.0, 0.75))
    with pytest.raises(ValueError):
        sspg.QLearnConfig(scheduler="sometimes")
    with pytest.raises(ValueError):
        sspg.QLearnConfig(delay_model=("uniform", -1))
    with pytest.raises(ValueError):
        sspg.QLearnConfig(delay_model="uniform:-1")
    # k < 1 in the string form, as in the tuple form: such a run would make no update
    for sched in ("round-robin:0", "uniform-random:0", "round-robin:-2", "uniform-random:-1",
                  ("round-robin", 0)):
        with pytest.raises(ValueError, match="k >= 1"):
            sspg.QLearnConfig(scheduler=sched)


@pytest.mark.parametrize("kwargs,err", [
    (dict(stepsize=(1, 2)), "stepsize must be three numbers (a, b, p), got (1, 2)"),
    (dict(stepsize=("a", 1, 0.75)), "stepsize must be three numbers (a, b, p), got ('a', 1, 0.75)"),
    (dict(stepsize=(float("nan"), 1.0, 0.75)), "stepsize needs a > 0, b >= 0, p in (0.5, 1]"),
    (dict(max_iters=10.0), "max_iters must be an integer, got 10.0"),
    (dict(max_iters=True), "max_iters must be an integer, got True"),
    (dict(max_iters="10"), "max_iters must be an integer, got '10'"),
    (dict(metric_interval=2.5), "metric_interval must be an integer, got 2.5"),
    (dict(seed=None), "seed must be an integer, got None"),
    (dict(seed=False), "seed must be an integer, got False"),
    (dict(record_full_history="yes"), "record_full_history must be true or false, got 'yes'"),
    (dict(scheduler=5), "scheduler must be a string or a (kind, argument) pair, got 5"),
    (dict(scheduler=("round-robin",)), "scheduler must be a string or a (kind, argument) pair"),
    (dict(scheduler=("round-robin", None)), "scheduler 'round-robin' needs an integer, got None"),
    (dict(scheduler="round-robin:x"), "scheduler 'round-robin' needs an integer, got 'x'"),
    (dict(scheduler=("custom", [3])), "custom scheduler needs a list of groups of component indices"),
    (dict(scheduler=("custom", [[0, "a"]])), "custom scheduler needs an integer, got 'a'"),
    (dict(delay_model=5), "delay_model must be a string or a (kind, argument) pair, got 5"),
    (dict(delay_model=("uniform", 2.5)), "delay bound needs an integer, got 2.5"),
    (dict(delay_model=("fixed", 3)), "fixed delay schedule needs a list of offsets, got 3"),
    (dict(delay_model=("uniform", "3")), "delay bound needs an integer, got '3'"),
    (dict(delay_model=("uniform", True)), "delay bound needs an integer, got True"),
    (dict(delay_model=("fixed", ["1", "2"])), "fixed delay schedule needs an integer, got '1'"),
    (dict(scheduler=("round-robin", "2")), "scheduler 'round-robin' needs an integer, got '2'"),
    (dict(scheduler=("uniform-random", 1.0)), "scheduler 'uniform-random' needs an integer, got 1.0"),
    (dict(scheduler=("custom", [["0", "1"]])), "custom scheduler needs an integer, got '0'"),
    (dict(scheduler="uniform-random:2.0"), "scheduler 'uniform-random' needs an integer, got '2.0'"),
    (dict(metric_interval=True), "metric_interval must be an integer, got True"),
    (dict(metric_interval="5"), "metric_interval must be an integer, got '5'"),
    (dict(seed=1.0), "seed must be an integer, got 1.0"),
    (dict(seed="1"), "seed must be an integer, got '1'"),
    (dict(scheduler=("round-robin", True)), "scheduler 'round-robin' needs an integer, got True"),
    (dict(scheduler=("custom", [[0, 1.0]])), "custom scheduler needs an integer, got 1.0"),
    (dict(scheduler=("custom", [[True]])), "custom scheduler needs an integer, got True"),
    (dict(delay_model=("fixed", [1, 2.0])), "fixed delay schedule needs an integer, got 2.0"),
    (dict(delay_model=("fixed", [False])), "fixed delay schedule needs an integer, got False"),
    (dict(stepsize=(float("inf"), 1, 0.75)), "stepsize needs finite a and b, got (inf, 1, 0.75)"),
    (dict(stepsize=(1, float("inf"), 0.75)), "stepsize needs finite a and b, got (1, inf, 0.75)"),
    (dict(scheduler=("lottery", 2)), "unknown scheduler ('lottery', 2)"),
    (dict(delay_model=("poisson", 3)), "unknown delay model ('poisson', 3)"),
    (dict(delay_model=("fixed", [])), "fixed delay schedule must be nonempty and nonnegative"),
    (dict(delay_model=("fixed", [2, -1])), "fixed delay schedule must be nonempty and nonnegative"),
    (dict(max_iters=-1), "max_iters must be nonnegative"),
    (dict(metric_interval=0), "metric_interval must be positive"),
    (dict(delay_model=("uniform", 65536)),
     "uniform delay bound 65536 exceeds 65535: offsets are scaled from a 16-bit draw"),
])
def test_config_types_named(kwargs, err):
    """A value of the wrong type is a ValueError naming the field and the expected form."""
    with pytest.raises(ValueError) as exc:
        sspg.QLearnConfig(**kwargs)
    assert str(exc.value).startswith(err)


def test_config_accepts_numpy_scalars_and_lists():
    cfg = sspg.QLearnConfig(seed=np.int64(3), max_iters=np.int32(5), stepsize=[np.float64(1.0), 1, 0.75],
                            scheduler=["round-robin", 2], delay_model=["fixed", [0, 1]],
                            record_full_history=np.bool_(True))
    m = make_contraction(seed=37)
    assert len(sspg.run_qlearning(m, cfg)[1].events) == 10


def test_custom_scheduler_validated_before_running():
    m = make_contraction(seed=37)
    n = m.n_triplets
    for groups in ([[-1]], [[0], [n]], [[2, n + 5]]):
        with pytest.raises(ValueError, match="outside"):
            sspg.run_qlearning(m, sspg.QLearnConfig(max_iters=5, scheduler=("custom", groups)))
    with pytest.raises(ValueError, match="at least one group"):
        sspg.QLearnConfig(scheduler=("custom", []))
    # repeats within a group update once; empty groups are gaps
    cfg = sspg.QLearnConfig(max_iters=4, scheduler=("custom", [[1, 1, n - 1], []]))
    _, run = sspg.run_qlearning(m, cfg)
    assert run.counts[1] == run.counts[n - 1] == 2 and run.counts.sum() == 4


def test_pair_delay_offsets_batch_matches_scalar():
    rng = np.random.default_rng(4)
    ell, count, js = rng.integers(0, 40, 300), rng.integers(0, 10**6, 300), rng.integers(0, 30, 300)
    size, dmax = rng.integers(0, 10, 300), rng.integers(0, 9, 300)
    batch = pair_delay_offsets(11, 40, 29, ell, count, js, size, dmax)
    assert batch.shape == (300, size.max())
    for k in range(300):  # a single pair is a batch of one, as wide as its block
        one = pair_delay_offsets(11, 40, 29, int(ell[k]), int(count[k]), int(js[k]), int(size[k]), int(dmax[k]))
        assert one.shape == (1, size[k])
        assert batch[k].tolist() == one[0].tolist() + [-1] * (size.max() - size[k])


def test_recorded_run_with_delays_past_int16(tmp_path):
    """Delays longer than 32767 iterations: a recorded run digests, replays and traces end to end."""
    m = make_contraction(seed=31, n_states=3, max_controls=2)
    cfg = sspg.QLearnConfig(seed=4, max_iters=41_000, scheduler="uniform-random:1",
                            delay_model=("uniform", 40_000), record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    assert run.digest() == sspg.run_qlearning(m, cfg)[1].digest()
    assert int(_offsets(run, m).max()) > 32_767
    assert sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, sspg.PLAYER_MAX), run).ok
    assert sspg.noise_decomposition(run, m).tobytes() == _noise_oracle(run, m).tobytes()
    tr = sspg.run_trackers(m, run)
    assert np.isfinite(tr.q_hat).all() and np.isfinite(tr.g_tilde).all()
    run.to_csv(tmp_path / "run.csv", m)
    delays = [int(line.split(",")[5]) for line in (tmp_path / "run.csv").read_text().splitlines()[1:]]
    assert len(delays) == len(run.events) and max(delays) > 32_767


def test_replays_refuse_a_model_other_than_the_runs(tmp_path):
    m = make_contraction(seed=31, n_states=3, max_controls=2)
    # a game of the same shape: same states, controls and support, other probabilities and costs
    other = sspg.GameModel(m.states, m.controls1, m.controls2,
                           {k: [(j, 1.0 / len(row), 2.0 * c + 1.0) for j, _, c in row]
                            for k, row in m.transitions.items()})
    assert other != m and other.triplets == m.triplets
    cfg = sspg.QLearnConfig(seed=4, max_iters=300, scheduler="uniform-random:1",
                            delay_model=("uniform", 5), record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    nu = sspg.uniform_policy(other, sspg.PLAYER_MAX)
    replays = {
        "couple": lambda g: sspg.run_coupled_lower_process(g, nu, run),
        "noise": lambda g: sspg.noise_decomposition(run, g),
        "trackers": lambda g: sspg.run_trackers(g, run),
        "csv": lambda g: run.to_csv(tmp_path / "run.csv", g),
    }
    for replay in replays.values():
        with pytest.raises(ValueError, match="another model"):
            replay(other)
        replay(sspg.load_model(sspg.save_model(m)))  # an equal model is the run's


def test_metrics_series():
    m = make_contraction(seed=38)
    ref, _ = sspg.q_value_iteration(m, tol=1e-10)
    cfg = sspg.QLearnConfig(seed=3, max_iters=2000, scheduler="all",
                            reference_q=ref, metric_interval=500)
    _, run = sspg.run_qlearning(m, cfg)
    assert [row.iteration for row in run.metrics] == [0, 500, 1000, 1500, 2000]
    assert run.metrics[-1].sup_dist_to_ref <= run.metrics[0].sup_dist_to_ref
    assert all(row.max_abs_q <= run.max_abs_q for row in run.metrics)


@pytest.mark.parametrize("case", ["one-entry", "two-rows", "all-nan", "one-inf"])
def test_reference_validated_before_running(case):
    # a wrong shape used to broadcast silently, and a NaN table ran and reported nan
    m = make_contraction(seed=38)
    n = m.n_triplets
    ref = {"one-entry": [0.0], "two-rows": np.zeros((2, n)), "all-nan": np.full(n, np.nan),
           "one-inf": np.r_[np.zeros(n - 1), np.inf]}[case]
    with pytest.raises(ValueError, match=rf"reference_q needs shape \({n},\) and finite entries"):
        sspg.run_qlearning(m, sspg.QLearnConfig(max_iters=5, reference_q=ref))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_q0_must_be_finite(bad):
    # a NaN Q0 used to fail only at the first metric snapshot, inside the matrix-game kernel
    m = make_contraction(seed=38)
    q0 = np.r_[bad, np.zeros(m.n_triplets - 1)]
    with pytest.raises(ValueError, match=rf"^Q0 needs shape \({m.n_triplets},\) and finite entries$"):
        sspg.run_qlearning(m, sspg.QLearnConfig(max_iters=5), q0)


# ---------------------------------------------------------------------------
# noise decomposition
# ---------------------------------------------------------------------------


def test_noise_zero_for_deterministic_transitions():
    # every row has a single successor: the sampled target is its own mean
    m = sspg.GameModel(
        ["1", "2"], {"1": ["a", "b"], "2": ["a"]}, {"1": ["x"], "2": ["x", "y"]},
        {("1", "a", "x"): [("2", 1.0, 1.0)],
         ("1", "b", "x"): [("0", 1.0, 2.0)],
         ("2", "a", "x"): [("0", 1.0, 0.5)],
         ("2", "a", "y"): [("1", 1.0, -1.0)]},
    )
    cfg = sspg.QLearnConfig(seed=2, max_iters=400, scheduler="uniform-random:2",
                            delay_model=("uniform", 3), record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    w = sspg.noise_decomposition(run, m)
    assert np.abs(w).max() == 0.0


def test_noise_two_point_support(self_loop):
    """Two successors: w takes two view-dependent values with p-weighted mean 0."""
    cfg = sspg.QLearnConfig(seed=5, max_iters=200, record_full_history=True)
    _, run = sspg.run_qlearning(self_loop, cfg)
    w = sspg.noise_decomposition(run, self_loop)
    ev = run.events
    # reconstruct each event's delayed state value from the recorded history
    q_hist = [run.q0[0]] + ev.new_q.tolist()
    for k in range(len(ev)):
        t = int(ev.t[k])
        val = q_hist[t]  # zero delays, one component: view is last iterate
        w0 = 1.0 - (1.0 + 0.5 * val)  # terminal branch
        w1 = 1.0 + val - (1.0 + 0.5 * val)  # self-loop branch
        assert w[k] == pytest.approx(w0 if ev.j[k] == 0 else w1, abs=1e-12)
        assert 0.5 * w0 + 0.5 * w1 == pytest.approx(0.0, abs=1e-12)


def test_noise_monte_carlo_mean(self_loop):
    """At a fixed view, the empirical mean of w vanishes at the CLT rate."""
    view_value = 3.7
    backup = 1.0 + 0.5 * view_value
    tab = self_loop.sampling
    pos = tab.draw(np.zeros(10_000, dtype=np.int64), counter_uniform(8, 0, np.arange(10_000, dtype=np.uint64)))
    samples = self_loop.C[0, tab.succ[pos]] + np.where(tab.succ[pos] == 1, view_value, 0.0) - backup
    assert abs(samples.mean()) <= 3 * samples.std() / 100


def test_noise_requires_history():
    m = make_contraction(seed=39)
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(seed=0, max_iters=10))
    with pytest.raises(ValueError, match="history"):
        sspg.noise_decomposition(run, m)


def test_run_trace_csv(tmp_path, recorded_run):
    m, cfg, q, run = recorded_run
    path = tmp_path / "run.csv"
    run.to_csv(path, m)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "active_component", "j_sample", "cost", "gamma",
                      "max_delay_used", "sup_dist_to_ref", "max_abs_q"]
    n_lines = len(lines) - 1
    assert n_lines == len(run.events)


@pytest.mark.parametrize("scheduler", ["all", "uniform-random:1"])
def test_run_trace_csv_distance_is_full_recomputation(tmp_path, scheduler):
    """The running distance column equals max |Q - ref| recomputed after every event."""
    m = make_contraction(seed=38, n_states=5, max_controls=2)
    ref = np.random.default_rng(3).random(m.n_triplets)  # Q0 = 0: every gap shrinks at first
    cfg = sspg.QLearnConfig(seed=2, max_iters=150, scheduler=scheduler, reference_q=ref,
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    run.to_csv(tmp_path / "run.csv", m)
    got = [line.split(",")[6] for line in (tmp_path / "run.csv").read_text().splitlines()[1:]]
    q, want = run.q0.copy(), []
    for ell, new_q in zip(run.events.ell, run.events.new_q):
        q[ell] = new_q
        want.append(repr(float(np.abs(q - ref).max())))
    assert got == want and len(set(got)) > 20


# ---------------------------------------------------------------------------
# golden pins: recorded runs and their replays, bit for bit
# ---------------------------------------------------------------------------

# blocks 3x2 (LP), 1x2, 2x2 and 3x1: every closed form and the LP path
PIN_GAME = dict(seed=52, n_states=4, max_controls=3)
PIN_SCHEDULERS = {
    "uniform-random:1": "uniform-random:1",
    "round-robin:2": "round-robin:2",
    "all": "all",
    # six empty groups: a gap of 7 iterations, more than the D + 1 = 6 the history keeps at D=5
    "custom": ("custom", [[0, 4], [], [], [], [], [], [], [7, 12, 2], [14], [5, 5, 9]]),
    # draws that repeat a component within an iteration (|R| = 15)
    "uniform-random:3": "uniform-random:3",
    "round-robin:40": "round-robin:40",
}
PIN_DELAYS = {"zero": "zero", "uniform-5": ("uniform", 5), "fixed": ("fixed", (0, 2, 1, 3))}

GOLDEN_DIGESTS = {
    ("uniform-random:1", "zero", 1): "3f66b09e09a8d3e267a8c27996bde72eef4697367263e18bafc374a87a677d1d",
    ("uniform-random:1", "zero", 2): "3dc1c0dc27fcacc7ed9f9a31a11c617715bb86b4f2df0885811cc1f2abec3dae",
    ("uniform-random:1", "uniform-5", 1): "bd8424d39f73704c5d6f7b7aab72678a8a1d3767500836891e1e45f7422c368e",
    ("uniform-random:1", "uniform-5", 2): "2f5fcb81a6affb6c77f0804ff8e3cde9896ac52d21cf75dabab8b5194c6a1517",
    ("uniform-random:1", "fixed", 1): "c095aeee563fb578b96fd152dc4e745e70e8ebb333cfbff160770340e8726a17",
    ("uniform-random:1", "fixed", 2): "13d3d87eb4aa1395ba1a0e0f39d3095fd135cf3f30ac8f6f0a4d1922c59618b3",
    ("round-robin:2", "zero", 1): "b86b0bb55d649649d36222609d4d7f417e170b44828c0e0087649a8029f5e337",
    ("round-robin:2", "zero", 2): "c9321822874d2362402423dc50c2f76d64c22ec33be893198af441209a50cf1e",
    ("round-robin:2", "uniform-5", 1): "2faeece0ed4b75df4b9fd411c2ccd157b6ab4987fd7757d64544bb8d68193006",
    ("round-robin:2", "uniform-5", 2): "794a15187d71b154cba7e10f92968d87cd4ca13e4152850ec98c9c44a421beac",
    ("round-robin:2", "fixed", 1): "f2c8be44e987a783ae4cffcadc9297348b063e1a4a1e7c6ff451638713a9ce2f",
    ("round-robin:2", "fixed", 2): "f1df7eb42a1d3428f637c45d15ee9effa4eeff87b951a39dfbbc8e4785031d7b",
    ("all", "zero", 1): "3e8310026cd59e4971cc2b5ccadfbbfe42da34d074a68c96fae1265965672086",
    ("all", "zero", 2): "999f1d1513618d32dd2ed546d753aeebdfdd89ce1759f791c0171a97020f3e9b",
    ("all", "uniform-5", 1): "005da06272827ce2af7dfcc69af019b970a5e2dce3f0326674e3e6a0744c4a97",
    ("all", "uniform-5", 2): "f2b404cbe0524daa199e5380c84654f075c2b04a5280e1c0521a8661fc298854",
    ("all", "fixed", 1): "fcf388de914b227f14625e3f03869ffd54a1ed40e133c2031bd92a58a08748b5",
    ("all", "fixed", 2): "64c4400fc08c28edde048dbf470b2420036c849e6cd8f6ddbc6a06cce8d9b05e",
    ("custom", "zero", 1): "acaee2d70ca0e05f43e97e157e01189752c2fd1d0b63a3d6594b3802a41a6b61",
    ("custom", "zero", 2): "5c0b41f0b11d7869cc5c31e5f8a50ab1c75ebab909a452be633725099ca99378",
    ("custom", "uniform-5", 1): "a84f901f87b10b15b6befecc80e376405ac8a12bf691d59631c8b69c7e31fa4f",
    ("custom", "uniform-5", 2): "7b5b3a3a9e20e9d13580d7e4edae15f92b29699d3544695874d4458521fed5a6",
    ("custom", "fixed", 1): "fd1ec7429b7af7beee0a4516f8474d276faf7ab576389c029742e06f44748aa7",
    ("custom", "fixed", 2): "eff3320064276f6f123653dec6df68eead4ec18ae9601877be3d3799c8411ade",
}

# sha256 of (noise, coupling qhat_events + min_margin, trackers, to_csv bytes)
GOLDEN_REPLAYS = {
    ("uniform-random:1", "uniform-5", 1): (
        "9485570a3e5902dabcf401243da722006e7426daa468a9febc6c8367c68046ef",
        "5cba6a12bad7b52d0161c85f6faca85a2b610a7b9a0f8cdf604559a246ebb18d",
        "765b1f3ade7e57a9b97b42a8b67a80dcb755e7fad2374829f4672450c17ef1eb",
        "6728bd298dccabe051203ca8107e7885faf1f439bb8efd496013cec66e6b2466",
    ),
    ("round-robin:2", "fixed", 2): (
        "1004d67cd320c39451d17a1760a814c48dbc8a3aab70d5e03f0354ff56125dd3",
        "81cb798cd44cd5c493ce99fe5685a98da66e8a8a263a4a1319215992449aa7ac",
        "82cfc3e0746742ac0f6a56d6f2e4025029c71f9d4e92984d35cfbf6f28ae56ce",
        "8037a44701cde25cedef5a4b856c84ab69a725646f62b34dd3e49f51aa57ff2e",
    ),
    ("custom", "uniform-5", 1): (
        "85b81bb7152faa80131bcbcf76680c0f66e7f1b510dbab0c9f310c5d6a94060a",
        "feea0541aa2438287d33d3564e9829f0f18d6414126d986bd46003dbfe735797",
        "2a08b02d71f78f51927b2a7f38d4acbd08ffe7c9daef73444266421eec69e086",
        "0ecbdb674343c5f30d0efe67cedfe92cd882624d8b1bcc062c8646d684891ec0",
    ),
}


@pytest.fixture(scope="module")
def pin_game():
    return make_contraction(**PIN_GAME)


def _pin_run(m, key):
    sched, delay, seed = key
    cfg = sspg.QLearnConfig(seed=seed, max_iters=300, scheduler=PIN_SCHEDULERS[sched],
                            delay_model=PIN_DELAYS[delay], reference_q=np.arange(m.n_triplets) / 8.0,
                            record_full_history=True)
    return sspg.run_qlearning(m, cfg)[1]


def _sha(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_golden_digest(pin_game, key):
    assert _pin_run(pin_game, key).digest() == GOLDEN_DIGESTS[key]


def _replay_shas(m, run, tmp_path):
    noise = sspg.noise_decomposition(run, m)
    rep = sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, sspg.PLAYER_MAX), run)
    tr = sspg.run_trackers(m, run)
    run.to_csv(tmp_path / "run.csv", m)
    return (
        _sha(noise),
        _sha(rep.qhat_events, rep.min_margin),
        _sha(tr.g_tilde, tr.q_hat),
        hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("key", list(GOLDEN_REPLAYS), ids=lambda k: "-".join(map(str, k)))
def test_golden_replays(pin_game, key, tmp_path):
    assert _replay_shas(pin_game, _pin_run(pin_game, key), tmp_path) == GOLDEN_REPLAYS[key]


# Runs longer than several event-plan chunks (2048 events), with metric
# snapshots that fall inside chunks: (digest, sha256 of every other output).
LONG_ITERS = 6_250
GOLDEN_LONG = {
    ("uniform-random:1", "uniform-5", 1): (
        "7620f12be983088f7edef8739b3de22903b83bc324107129bbadb1d1fdbcd354",
        "c2ae9c7bba0c1e3db23e2d9f691969cb2ae4d421651263d7bb3ce3ea74443558",
    ),
    ("all", "fixed", 1): (
        "fa2fe08d15de42d9d844402e0bdd537550848febe0d98f75e464ea7e9a2f24ab",
        "f1bc5f043514aaf7f3fdba8110dbea4b1e2a1d916bd4ee8d5e216fda28edbc4c",
    ),
    ("custom", "uniform-5", 2): (
        "913aa7bde6f8a4f33b371e03fc84ab507ab75293574a5820ef4ae42563c293cb",
        "16b1b842e5ab9b5f4dc5e0310aea737dd741bc79d4582371a0726d3b792cacc7",
    ),
    ("round-robin:2", "zero", 1): (
        "621afc933c27acedb189989918ef203c8ef55162973bde41e29993bfc3413cb0",
        "0d809907343c968005544c69cb03af15d241595dd39a10eb27eba22c781b02be",
    ),
    ("uniform-random:3", "fixed", 1): (
        "edca8be0a64944bfdb1cdd229277f89221d7bcdcf8a8d3f46c26bd5e8efb3f4e",
        "98a892740888a53dab06da635010b69cf67d99aeac63d75cee606b7b21958869",
    ),
    ("round-robin:40", "uniform-5", 1): (
        "3e25d0c8bd7445b660673e29ead445315fc3620bb2a23bf9b2a4ab4dd99a5cc8",
        "7758b497c8009c01d249332c3ea49f7d20ffc45bc942e774e26867ea8f6ff634",
    ),
}
GOLDEN_LONG_REPLAYS = {
    ("uniform-random:1", "uniform-5", 1): (
        "3449e03a5a856f2b82d23a392392735760a8c6b9d5e40df9deda2517e62785eb",
        "bfc79bb98f23d046f3924af7247054526aca88f10e5755c545ec10cc9faa88f3",
        "9c7ae018c909fa511964ec96b1c948aad0e0161f6d123cc94360a3f2b62defab",
        "6338099a967f6d043774ae772fb5c94a65dc7b693681024491f5e7ca2864af3c",
    ),
    ("round-robin:2", "zero", 1): (
        "3a219df5152d0a1508ec8f183421066da082056da6bb8ac1b733b75a8f9b36e5",
        "8f556d17b9646fcc1209ea0782e5c22f209af140a3147d5eb7fb542d6a2f9910",
        "3d7167ba4e9b32ce47fd1e71dea563260e76c80341107ecc9bdc53684d95a235",
        "25b26c9c202698ec0e7a2433c769e5bc6c8de552465bcedf003b09a7c649fc44",
    ),
}


def _long_run(m, key):
    sched, delay, seed = key
    cfg = sspg.QLearnConfig(seed=seed, max_iters=LONG_ITERS, scheduler=PIN_SCHEDULERS[sched],
                            delay_model=PIN_DELAYS[delay], reference_q=np.arange(m.n_triplets) / 8.0,
                            metric_interval=700, record_full_history=True)
    return sspg.run_qlearning(m, cfg)[1]


def _outputs_sha(run) -> str:
    """Everything a run returns beyond its digest: stepsize sums, max |Q|, metric rows, event columns
    (the index columns as int64, the width logs once stored them at)."""
    rows = np.array([(r.iteration, r.sup_dist_to_ref, r.max_abs_q, r.residual) for r in run.metrics])
    ev = run.events
    return _sha(run.sum_gamma, run.sum_gamma_sq, np.array([run.max_abs_q]), rows,
                ev.t.astype(np.int64), ev.count.astype(np.int64), *derived_columns(run.model, run.config, ev))


@pytest.mark.parametrize("key", list(GOLDEN_LONG), ids=lambda k: "-".join(map(str, k)))
def test_golden_long_runs(pin_game, key):
    run = _long_run(pin_game, key)
    assert (run.digest(), _outputs_sha(run)) == GOLDEN_LONG[key]


@pytest.mark.parametrize("key", list(GOLDEN_LONG_REPLAYS), ids=lambda k: "-".join(map(str, k)))
def test_golden_long_replays(pin_game, key, tmp_path):
    run = _long_run(pin_game, key)
    assert _replay_shas(pin_game, run, tmp_path) == GOLDEN_LONG_REPLAYS[key]


# Delays that reach back past one chunk of the reader: 3000 iterations against
# chunks of 2048 at |R| = 9, and chunks of one iteration at |R| = 2303 (> 2048).
# (engine digest, sha256 of coupling qhat_events + min_margin, sha256 of noise)
GOLDEN_FAR = {
    "uniform-3000": (
        dict(seed=0, n_states=3, max_controls=3),
        dict(max_iters=12_000, scheduler="uniform-random:1", delay_model=("uniform", 3000)),
        ("4e25708c819980645d0098b8cc18090f0c2b18041c58882f083b1fe62a6ed05f",
         "e858943c3a25a276b5c6641d08b039a9132a2487d0571d4f1e369333f7adec20",
         "75bade6e91d582185b5b32b6f01ff948b9842dbb18a2c213b592ec4ff07b00ac"),
    ),
    "all-fixed": (
        dict(seed=0, n_states=1000, max_controls=2),
        dict(max_iters=5, scheduler="all", delay_model=("fixed", (0, 2, 1, 3))),
        ("5d7a531a8fa6a21a7342bfb5fcd15c54137dda7aa9a3042c8eb4589977fe0d37",
         "00dc5ca9a9cea8158cf31334587a1a81d23f96b65012cfdf938ec2a2debdc77f",
         "bda2d7c0763d30a7e741e8b8f965e434552a8c21f7f8ad3290115c10b1080264"),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_FAR))
def test_golden_delays_past_a_chunk(name):
    game, cfg, want = GOLDEN_FAR[name]
    m = make_contraction(**game)
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(seed=4, record_full_history=True, **cfg))
    per_iter = 1 if cfg["scheduler"] == "uniform-random:1" else m.n_triplets
    assert int(_offsets(run, m).max()) > max(1, _CHUNK // per_iter)  # a read reaches past its chunk
    rep = sspg.run_coupled_lower_process(m, sspg.uniform_policy(m, sspg.PLAYER_MAX), run)
    noise = sspg.noise_decomposition(run, m)
    assert (run.digest(), _sha(rep.qhat_events, rep.min_margin), _sha(noise)) == want


# Metric snapshots fall inside chunks, and metric_interval must change
# nothing else; the delay bounds reach past one _CHUNK of events.
CUT_RUNS = {
    "uniform-3000": (dict(seed=0, n_states=3, max_controls=3),
                     dict(max_iters=4500, scheduler="uniform-random:1", delay_model=("uniform", 3000))),
    "all-200": (dict(seed=0, n_states=1000, max_controls=2),
                dict(max_iters=40, scheduler="all", delay_model=("uniform", 200))),
}


def _snapshot_oracle(m, run):
    """Every metric row of a run rebuilt from its write log: at iteration s, Q0
    overwritten by each component's last recorded write before s."""
    ev, ref = run.events, run.config.reference_q
    q, top, k = run.q0.copy(), float(np.abs(run.q0).max()), 0
    for s in (row.iteration for row in run.metrics):
        while k < len(ev) and ev.t[k] < s:
            q[ev.ell[k]] = ev.new_q[k]
            top = max(top, abs(float(ev.new_q[k])))
            k += 1
        dist = None if ref is None else float(np.abs(q - ref).max())
        yield MetricsRow(s, dist, top, float(np.abs(q - sspg.q_bellman(m, q)).max()))


@pytest.mark.parametrize("name", list(CUT_RUNS))
def test_chunk_cuts_do_not_change_a_run(name):
    game, cfg = CUT_RUNS[name]
    m = make_contraction(**game)
    ref = np.linspace(-1.0, 1.0, m.n_triplets)
    runs = [sspg.run_qlearning(m, sspg.QLearnConfig(seed=2, metric_interval=k, reference_q=ref,
                                                    record_full_history=True, **cfg))[1]
            for k in (1, 7, 1000, 10**9)]
    first = runs[0]
    assert int(_offsets(first, m).max()) > _CHUNK // (1 if name == "uniform-3000" else m.n_triplets)
    rows = {r.iteration: r for r in first.metrics}
    assert sorted(rows) == list(range(cfg["max_iters"] + 1))
    assert first.metrics == list(_snapshot_oracle(m, first))  # every snapshot, most inside chunks
    for run in runs[1:]:
        assert run.digest() == first.digest()
        for field in ("q_final", "sum_gamma", "sum_gamma_sq"):
            assert getattr(run, field).tobytes() == getattr(first, field).tobytes()
        assert run.metrics[-1].iteration == cfg["max_iters"]
        assert all(r == rows[r.iteration] for r in run.metrics)


@pytest.mark.parametrize("interval", [1, 7, 10**9])
def test_reads_resolved_once_per_plan_chunk(monkeypatch, interval):
    """Snapshots pause the recursion inside a chunk; the chunk's reads stay resolved once."""
    game, cfg = CUT_RUNS["uniform-3000"]
    m = make_contraction(**game)
    starts, reads = [], ReplayCore.reads

    def counted(self, table, t, *args):
        starts.append(int(t[0]))
        return reads(self, table, t, *args)

    monkeypatch.setattr(ReplayCore, "reads", counted)
    sspg.run_qlearning(m, sspg.QLearnConfig(seed=2, metric_interval=interval, **cfg))
    assert starts == [0, 3000]  # a chunk covers the delay window: 3000 iterations of one event


# Sequential replays with the engine's own block value: CUT_RUNS, blocks up to
# 4x4 under fixed offsets, and every component at once without delays.
REPLAY_RUNS = {
    **CUT_RUNS,
    "blocks-4x4-fixed": (dict(seed=5, n_states=4, max_controls=4),
                         dict(max_iters=3000, scheduler="round-robin:3", delay_model=("fixed", (0, 3, 1)))),
    "all-zero": (dict(seed=3, n_states=5, max_controls=3), dict(max_iters=300, scheduler="all")),
}


@pytest.mark.parametrize("name", list(REPLAY_RUNS))
def test_replay_with_the_engine_kernel_gives_the_run_back(name):
    game, cfg = REPLAY_RUNS[name]
    m = make_contraction(**game)
    if name == "blocks-4x4-fixed":
        assert max(nu * nv for _, nu, nv in map(m.state_block, range(1, m.n + 1))) > 4
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(seed=2, record_full_history=True, **cfg))
    kernels = [None] + [block_kernel(*m.state_block(i)[1:]) for i in range(1, m.n + 1)]
    new_q, q_final = _replay(run, m, kernels)
    assert new_q.tobytes() == run.events.new_q.tobytes()
    assert q_final.tobytes() == run.q_final.tobytes()


def test_index_columns_are_int32_unless_the_run_needs_int64(recorded_run):
    top = np.iinfo(np.int32).max  # 2^31 - 1: the iteration past the last must fit too
    assert _index_dtype(top - 1, 12) is np.int32 and _index_dtype(10, top - 1) is np.int32
    assert _index_dtype(top, 12) is np.int64 and _index_dtype(10, top) is np.int64
    ev = recorded_run[3].events
    assert [col.dtype for col in vars(ev).values()] == [np.int32] * 4 + [np.float64]
    assert sum(col.nbytes for col in vars(ev).values()) == 24 * len(ev)


@pytest.mark.parametrize("delay", [("uniform", 5), ("fixed", (0, 3, 1))])
def test_reads_near_the_int32_limit_equal_int64_reads(delay):
    # a synthetic chunk at iterations just below 2^31 - 1, two events each, read through int32 and int64 columns
    m = make_contraction(seed=5, n_states=4, max_controls=3)
    rng = np.random.default_rng(3)
    t = np.repeat(np.arange(np.iinfo(np.int32).max - 40, np.iinfo(np.int32).max), 2)
    ell = rng.integers(0, m.n_triplets, len(t))
    count = rng.integers(2**31 - 10**6, 2**31 - 1, len(t))
    j = rng.integers(0, m.n + 1, len(t))
    refs = []
    for dtype in (np.int32, np.int64):
        core = ReplayCore(m, delay, 4)
        refs.append(core.reads([0.0] * m.n_triplets, *(x.astype(dtype) for x in (t, ell, count, j))))
    assert refs[0] == refs[1]
    assert max(map(max, refs[0])) >= m.n_triplets  # some reads find a write of the chunk


def test_digest_offsets_are_as_wide_as_the_widest_block():
    # nothing moves to state 1, the only state with a 2x2 block: no event reads it
    m = sspg.GameModel(
        ["1", "2"], {"1": ["a", "b"], "2": ["a"]}, {"1": ["x", "y"], "2": ["x"]},
        {**{("1", u, v): [("2", 1.0, 1.0)] for u in "ab" for v in "xy"},
         ("2", "a", "x"): [("2", 0.5, 1.0), ("0", 0.5, 0.0)]},
    )
    cfg = sspg.QLearnConfig(seed=1, max_iters=200, scheduler="uniform-random:2",
                            delay_model=("uniform", 3), record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    empty = sspg.run_qlearning(m, dataclasses.replace(cfg, max_iters=0))[1]
    for r in (run, empty):
        ev, offs = r.events, _offsets(r, m)
        assert offs.shape == (len(ev), 4)
        assert (offs[:, 1:] == -1).all() and (offs[ev.j == 2, 0] >= 0).all()
        # the digest hashes the offsets as int16 rows of that width, components and successors as int32
        cols = (r.q0, r.q_final, r.counts, ev.ell.astype(np.int32), ev.j.astype(np.int32), ev.new_q,
                offs.astype(np.int16))
        assert r.digest() == _sha(*cols)
    assert len(run.events) and not len(empty.events)


@pytest.mark.parametrize("spec", ["uniform:5", "uniform", "fixed:1", "Zero"])
def test_delay_strings_other_than_zero_are_refused(spec):
    with pytest.raises(ValueError, match=f"unknown delay model '{spec}'"):
        sspg.QLearnConfig(delay_model=spec)


# ---------------------------------------------------------------------------
# the batched noise decomposition against the sequential replay it replaced
# ---------------------------------------------------------------------------


def _noise_oracle(run, m):
    """The sequential noise replay that the batched one replaced: a delayed
    read and a game value per (event, successor) pair, read from full tables
    at the start of the last D + 1 iterations, each event's write made
    before the next event."""
    ev = run.events
    Q = run.q0.tolist()
    core = ReplayCore(m, run.config.delay_model, run.config.seed)  # the delay rule only
    depth = core.bound + 1
    ring, begun = [None] * depth, -1  # ring[s % depth]: the table at the start of iteration s
    tab = m.sampling
    row_len = np.diff(tab.start)
    g = m.g.tolist()
    span = max(1, 8 * _CHUNK // max(int(row_len.max(initial=1)), 1))
    w = np.empty(len(ev))
    for lo in range(0, len(ev), span):
        sl = slice(lo, lo + span)
        t, ell, cnt = ev.t[sl], ev.ell[sl].astype(np.int64), ev.count[sl]
        n = row_len[ell]
        pos = np.repeat(tab.start[ell] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        of = np.repeat(np.arange(len(ell)), n)
        js = tab.succ[pos]
        keep = js != 0
        of, js = of[keep], js[keep]
        js_l, p_l = js.tolist(), m.P[ell[of], js].tolist()
        offs_l = core.offsets(t[of], ell[of], cnt[of], js).tolist()
        ends = np.cumsum(np.bincount(of, minlength=len(ell))).tolist()
        a = 0
        cost, gamma = derived_columns(m, run.config, ev[sl])
        rows = zip(t.tolist(), ell.tolist(), ev.j[sl].tolist(), cost.tolist(),
                   gamma.tolist(), ev.new_q[sl].tolist(), ends)
        for k, (tt, l, j, cost, gamma, recorded, b) in enumerate(rows, lo):
            for s in range(max(begun + 1, tt + 1 - depth), tt + 1):
                ring[s % depth] = Q[:]
            begun = tt
            backup = g[l]
            val_j = 0.0
            for js_, p, offs_ in zip(js_l[a:b], p_l[a:b], offs_l[a:b]):
                off, nu, nv = m.state_block(js_)
                block = [ring[(tt - d) % depth][off + i] for i, d in enumerate(offs_[: nu * nv])]
                v = flat_game_value(block, nu, nv)
                if js_ == j:
                    val_j = v
                backup += p * v
            a = b
            target = cost + val_j
            new_q = (1.0 - gamma) * Q[l] + gamma * target
            if new_q != recorded:
                raise AssertionError(f"replay mismatch at event {k}: {new_q} != {recorded}")
            w[k] = target - backup
            Q[l] = new_q
    return w


NOISE_GAMES = {
    "pin": lambda: make_contraction(seed=52, n_states=4, max_controls=3),  # 3x2, 1x2, 2x2, 3x1
    "square": lambda: make_contraction(seed=65, n_states=5, max_controls=3),  # 1x1, 2x2, 1x2, 3x1, 3x3
    "terminal": lambda: make_terminal_only(seed=3, n_states=6, max_controls=3),  # no successor but 0
    "wide": lambda: make_contraction(seed=3, n_states=60, max_controls=2),  # rows of up to 54
    "broad": lambda: make_contraction(seed=3, n_states=150, max_controls=3),  # blocks up to 3x3, rows of up to 129
    "zero-cost": lambda: make_contraction(seed=65, n_states=5, max_controls=3, cost_range=(0.0, 0.0)),
}
NOISE_SCHEDULERS = ["uniform-random:1", "uniform-random:3", "all", "round-robin:2",
                    ("custom", [[0, 4], [], [], [], [], [], [], [7, 12, 2], [14], [5, 5, 9]])]


@pytest.fixture(scope="module", params=sorted(NOISE_GAMES))
def noise_game(request):
    return request.param, NOISE_GAMES[request.param]()


@pytest.mark.parametrize("delay", list(PIN_DELAYS.values()), ids=list(PIN_DELAYS))
@pytest.mark.parametrize("scheduler", NOISE_SCHEDULERS, ids=lambda s: s if isinstance(s, str) else s[0])
def test_noise_matches_sequential_oracle(noise_game, scheduler, delay):
    name, m = noise_game
    rng = np.random.default_rng(len(name))
    q0 = rng.uniform(-2.0, 2.0, m.n_triplets)
    q0[::4] = -0.0
    if name == "zero-cost":  # every value read and every sum is a signed zero
        q0[:] = -0.0
    # the wide game's runs span several chunks of about 300 events
    iters = (12 if scheduler == "all" else 1500) if name == "wide" else 150
    if name == "broad":  # 574 components, 113 successors a row: one iteration of "all" is 64,000 pairs
        iters = 1 if scheduler == "all" else 60
    cfg = sspg.QLearnConfig(seed=3, max_iters=iters, scheduler=scheduler, delay_model=delay,
                            record_full_history=True)
    for start in (None, q0):
        _, run = sspg.run_qlearning(m, cfg, start)
        got, want = sspg.noise_decomposition(run, m), _noise_oracle(run, m)
        assert got.tobytes() == want.tobytes()
    if name == "wide":
        assert len(run.events) > 3 * 8 * _CHUNK // int(np.diff(m.sampling.start).max())


def _chunk_mixes_fresh_and_stale(run, m, bound):
    """Whether some chunk of the noise replay (at most 8 * _CHUNK pairs) has a fresh pair,
    whose successor block had no write since ``bound`` iterations before the chunk's first,
    and a stale one, whose block had a write in the ``bound`` iterations before the pair's."""
    ev = run.events
    state = np.repeat(np.arange(1, m.n + 1), [m.state_block(i)[1] * m.state_block(i)[2] for i in range(1, m.n + 1)])
    writes = {i: [] for i in range(1, m.n + 1)}  # iterations of the writes to each state's block
    for t, ell in zip(ev.t.tolist(), ev.ell.tolist()):
        writes[int(state[ell])].append(t)
    span = max(1, 8 * _CHUNK // int(np.diff(m.sampling.start).max()))
    for lo in range(0, len(ev), span):
        b, kinds = max(int(ev.t[lo]) - bound, 0), set()
        for t, ell in zip(ev.t[lo : lo + span].tolist(), ev.ell[lo : lo + span].tolist()):
            for j in np.flatnonzero(m.P[ell, 1:] > 0.0) + 1:
                w = writes[j]
                if bisect.bisect_left(w, t) == bisect.bisect_left(w, b):
                    kinds.add("fresh")
                elif bisect.bisect_left(w, t) > bisect.bisect_left(w, max(t - bound, 0)):
                    kinds.add("stale")
        if kinds == {"fresh", "stale"}:
            return True
    return False


@pytest.mark.parametrize("name, delay, iters", [("broad", 5, 400), ("wide", 400, 1500)])
def test_noise_chunks_of_fresh_and_stale_pairs(name, delay, iters):
    """3 x 3 blocks read fresh, and a delay window longer than a chunk."""
    m = NOISE_GAMES[name]()
    q0 = np.random.default_rng(7).uniform(-2.0, 2.0, m.n_triplets)
    cfg = sspg.QLearnConfig(seed=5, max_iters=iters, scheduler="uniform-random:1", delay_model=("uniform", delay),
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg, q0)
    assert _chunk_mixes_fresh_and_stale(run, m, delay)
    assert sspg.noise_decomposition(run, m).tobytes() == _noise_oracle(run, m).tobytes()
    if name == "broad":
        assert max(m.state_block(i)[1:] for i in range(1, m.n + 1)) == (3, 3)
    else:
        assert delay > 8 * _CHUNK // int(np.diff(m.sampling.start).max())  # events a chunk, one per iteration


def test_noise_hashes_the_offsets_of_stale_pairs_alone(monkeypatch):
    m = NOISE_GAMES["broad"]()
    cfg = sspg.QLearnConfig(seed=3, max_iters=1000, scheduler="uniform-random:1", delay_model=("uniform", 5),
                            record_full_history=True)
    _, run = sspg.run_qlearning(m, cfg)
    hashed, real = [], sspg.qlearn.pair_delay_offsets

    def counting(*args):
        rows = real(*args)
        hashed.append(len(rows))
        return rows

    monkeypatch.setattr(sspg.qlearn, "pair_delay_offsets", counting)
    sspg.noise_decomposition(run, m)
    pairs = int((m.P[run.events.ell, 1:] > 0.0).sum())  # (event, successor) pairs, the terminal state left out
    assert 0 < sum(hashed) <= pairs / 10


def test_noise_of_empty_run():
    m = NOISE_GAMES["square"]()
    _, run = sspg.run_qlearning(m, sspg.QLearnConfig(max_iters=0, record_full_history=True),
                                np.arange(m.n_triplets, dtype=float))
    assert sspg.noise_decomposition(run, m).shape == (0,) == _noise_oracle(run, m).shape


@pytest.mark.parametrize("column", ["new_q", "cost"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_noise_reports_the_oracles_mismatch(pin_game, column, where):
    run = _pin_run(pin_game, ("uniform-random:1", "uniform-5", 1))
    k = {"first": 0, "middle": len(run.events) // 2, "last": len(run.events) - 1}[where]
    if column == "new_q":
        col = run.events.new_q.copy()
        col[k] = np.nextafter(col[k], np.inf)
    else:  # a log derives the realized cost C[ell, j]: move the successor to the next one of its row
        column, col, row = "j", run.events.j.copy(), np.flatnonzero(pin_game.P[run.events.ell[k]] > 0.0)
        col[k] = row[(np.searchsorted(row, col[k]) + 1) % len(row)]
    run = dataclasses.replace(run, events=dataclasses.replace(run.events, **{column: col}))
    messages = []
    for replay in (sspg.noise_decomposition, _noise_oracle):
        with pytest.raises(AssertionError, match=f"replay mismatch at event {k}: ") as err:
            replay(run, pin_game)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("sched", list(PIN_SCHEDULERS))
def test_uniform_delay_zero_is_the_zero_rule(pin_game, sched):
    digests = set()
    for delay in ("zero", ("uniform", 0)):
        cfg = sspg.QLearnConfig(seed=3, max_iters=300, scheduler=PIN_SCHEDULERS[sched], delay_model=delay,
                                record_full_history=True)
        digests.add(sspg.run_qlearning(pin_game, cfg)[1].digest())
    assert len(digests) == 1
    assert not ReplayCore(pin_game, ("uniform", 0), 0).hashed  # no offsets drawn


def test_stepsize_table_keeps_each_rule_apart_when_rules_alternate():
    for n in (5, 40, 3, 100, 7):
        for a, b, p in ((1.0, 1.0, 0.75), (2, 0, 1)):
            want = [min(a / (b + k) ** p if b + k > 0 else float("inf"), 1.0) for k in range(n)]
            assert _stepsize_table((a, b, p), n)[:n].tolist() == want, (a, b, p, n)
