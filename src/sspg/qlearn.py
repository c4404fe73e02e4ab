"""Totally asynchronous minimax Q-learning on a sampled game.

Each iteration activates a subset of state-control triplets, draws a random
transition for each, and relaxes the triplet's Q-value toward the realized
cost plus the matrix-game value of a *delayed* view of the Q-table at the
successor state.  Components outside the active set carry over bit-exactly.
Nothing here reads the model's probabilities except through sampling, so
the engine exercises exactly the information a model-free learner has.

Determinism contract: every random quantity is a pure function of
``(seed, component, counter)`` through the same counter-based hash used by
:func:`sspg.model.sample_transition`.  Transitions use component ``l`` with
the triplet's own update count as counter, delays use component ``|R| + l``,
the scheduler uses component ``2|R|``.  Identical ``(model, config, Q0)``
therefore give bit-identical runs, and recorded runs can be replayed
against coupled processes using literally the same draws.

Delay offsets are attached to ordered component pairs: the active triplet
``l`` reading component ``l~`` at iteration t sees the value from iteration
``t - d(l, count(l), l~)``, where ``d`` is a pure hash bounded by the delay
model (and by t, so no read precedes the start).  Because ``d`` never
depends on the sampled successor, stepsizes and delays are measurable
before the transition draw, as the update-noise analysis requires.

The engine and every replay of a recorded run share one replay core, so
they read the same delayed values by construction: :class:`ReplayCore` holds
the ring of past tables, the delay bound and the delayed block read,
:func:`pair_delay_offsets` is the only delay hash, and :meth:`QLearnRun.rows`
is the only event reader.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .matgame import flat_game_value
from .model import GameModel, counter_hash, counter_uniform
from .operators import q_bellman


class QLearnDivergenceError(RuntimeError):
    """A Q-value left the floating range; the run is aborted with context."""


def _parse_scheduler(spec):
    if spec == "all":
        return ("all", 0)
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        if name not in ("uniform-random", "round-robin"):
            raise ValueError(f"unknown scheduler {spec!r}")
        spec = (name, arg or 1)
    kind = spec[0]
    if kind in ("uniform-random", "round-robin"):
        k = int(spec[1])
        if k < 1:
            raise ValueError("scheduler needs k >= 1")
        return (kind, k)
    if kind == "custom":
        return ("custom", tuple(tuple(int(c) for c in group) for group in spec[1]))
    raise ValueError(f"unknown scheduler {spec!r}")


def _parse_delay(spec) -> tuple[bool, tuple[int, ...]]:
    """The delay rule as ``(hashed, cycle)``.

    The largest delay at iteration t is ``cycle[t % len(cycle)]``, capped at
    t.  Hashed offsets are drawn per pair in [0, that bound]; otherwise every
    pair reads exactly the bound.
    """
    if spec == "zero":
        return False, (0,)
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        if name != "uniform":
            raise ValueError(f"unknown delay model {spec!r}")
        spec = (name, arg)
    kind = spec[0]
    if kind == "uniform":
        d = int(spec[1])
        if d < 0:
            raise ValueError("delay bound must be nonnegative")
        return True, (d,)
    if kind == "fixed":
        sched = tuple(int(x) for x in spec[1])
        if not sched or min(sched) < 0:
            raise ValueError("fixed delay schedule must be nonempty and nonnegative")
        return False, sched
    raise ValueError(f"unknown delay model {spec!r}")


# recorded offsets are stored as int16
_MAX_RECORDED_OFFSET = int(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class QLearnConfig:
    """Run configuration.

    ``stepsize=(a, b, p)`` gives component stepsize ``a / (b + k)**p``
    (clamped into [0, 1]) at that component's k-th update, so the usual
    divergent-sum / square-summable conditions hold per component under any
    scheduler.  ``p`` must lie in (0.5, 1].

    ``scheduler``: ``"all"``, ``("uniform-random", k)``, ``("round-robin",
    k)`` or ``("custom", groups)`` with explicit component-index groups
    cycled over iterations.  String forms ``"uniform-random:k"`` etc. are
    accepted.  ``delay_model``: ``"zero"``, ``("uniform", D)`` or
    ``("fixed", offsets)`` (offsets cycled by iteration, applied to every
    pair).  The environment variable ``SSPG_SEED`` overrides ``seed``.
    """

    seed: int = 0
    max_iters: int = 10_000
    stepsize: tuple[float, float, float] = (1.0, 1.0, 0.75)
    scheduler: object = "all"
    delay_model: object = "zero"
    reference_q: object = None
    record_full_history: bool = False
    metric_interval: int = 1_000

    def __post_init__(self):
        a, b, p = self.stepsize
        if a <= 0 or b < 0 or not 0.5 < p <= 1.0:
            raise ValueError("stepsize needs a > 0, b >= 0, p in (0.5, 1]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.metric_interval < 1:
            raise ValueError("metric_interval must be positive")
        _parse_scheduler(self.scheduler)
        largest = min(max(_parse_delay(self.delay_model)[1]), self.max_iters - 1)
        if self.record_full_history and largest > _MAX_RECORDED_OFFSET:
            raise ValueError(
                f"recorded runs store delay offsets as int16: the largest offset, "
                f"{largest}, exceeds {_MAX_RECORDED_OFFSET}"
            )


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    sup_dist_to_ref: float | None
    max_abs_q: float
    residual: float


_ROWS_CHUNK = 1 << 10


@dataclass
class EventLog:
    """Per-update records, aligned arrays; offsets padded with -1."""

    t: np.ndarray
    ell: np.ndarray
    count: np.ndarray  # update count of ell before this event
    j: np.ndarray  # successor state index, 0 = terminal
    cost: np.ndarray
    gamma: np.ndarray
    new_q: np.ndarray
    offsets: np.ndarray  # (n_events, max_block) int16

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class QLearnRun:
    """Everything needed to audit, replay, and couple a recorded run."""

    config: QLearnConfig
    seed_used: int
    q0: np.ndarray
    q_final: np.ndarray
    counts: np.ndarray
    sum_gamma: np.ndarray
    sum_gamma_sq: np.ndarray
    max_abs_q: float
    metrics: list[MetricsRow]
    events: EventLog | None
    ring_depth: int

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.q0.tobytes())
        h.update(self.q_final.tobytes())
        h.update(self.counts.tobytes())
        if self.events is not None:
            for arr in (self.events.ell, self.events.j, self.events.new_q, self.events.offsets):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def rows(self, *names: str):
        """The named :class:`EventLog` columns as one tuple of Python scalars per event.

        One ``tolist()`` per column and chunk of events keeps numpy scalars out
        of the replays and memory bounded.  Raises at once without a history.
        """
        if self.events is None:
            raise ValueError("run was not recorded with full history")
        cols = [getattr(self.events, name) for name in names]
        return itertools.chain.from_iterable(
            zip(*(c[lo : lo + _ROWS_CHUNK].tolist() for c in cols))
            for lo in range(0, len(self.events), _ROWS_CHUNK)
        )

    def to_csv(self, path, m: GameModel) -> None:
        """Per-event trace; reference distances recomputed by replaying events."""
        rows = self.rows("t", "ell", "j", "cost", "gamma", "new_q", "offsets")
        ref = self.config.reference_q
        ref = None if ref is None else np.asarray(ref, dtype=float)
        q = self.q0.copy()
        running_max = float(np.abs(q).max()) if q.size else 0.0
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["t", "active_component", "j_sample", "cost", "gamma",
                 "max_delay_used", "sup_dist_to_ref", "max_abs_q"]
            )
            for t, ell, j, cost, gamma, new_q, offs in rows:
                q[ell] = new_q
                running_max = max(running_max, abs(new_q))
                dist = "" if ref is None else repr(float(np.abs(q - ref).max()))
                w.writerow([t, ell, j, repr(cost), repr(gamma), max([0, *offs]), dist, repr(running_max)])


def pair_delay_offsets(
    seed: int, nR: int, n_states: int, ell: int, count: int, js: int, block_size: int, dmax: int
) -> list[int]:
    """Uniform delay offsets in [0, dmax] for the components of state ``js``.

    The only delay hash: a pure function of its arguments that
    :class:`ReplayCore` evaluates for the engine and for every replay.  Four
    16-bit offsets come from each 64-bit word of component ``nR + ell``.
    """
    if dmax <= 0:
        return [0] * block_size
    base = (count * (n_states + 1) + js) * 8
    comp = nR + ell
    out = []
    word = 0
    for k in range(block_size):
        sub = k & 3
        if sub == 0:
            word = counter_hash(seed, comp, base + (k >> 2))
        out.append((((word >> (16 * sub)) & 0xFFFF) * (dmax + 1)) >> 16)
    return out


class ReplayCore:
    """Delayed views of one run: ring of past tables, delay rule, block read.

    ``tables[t % depth]`` is the Q-table at the start of iteration ``t`` for
    the last ``depth`` iterations.  The engine and every replay advance it
    with the table they build and read successor blocks only through it.
    """

    def __init__(self, m: GameModel, delay_model, seed: int, q: list):
        self.hashed, self.cycle = _parse_delay(delay_model)
        self.period = len(self.cycle)
        self.depth = max(self.cycle) + 1
        self.tables = [q[:] for _ in range(self.depth)]
        self.seed, self.nR, self.n_states = seed, m.n_triplets, m.n
        # (components, rows, columns) by state; the terminal state 0 has no block
        self.blocks = [None]
        for i in range(1, m.n + 1):
            off, nu, nv = m.state_block(i)
            self.blocks.append((list(range(off, off + nu * nv)), nu, nv))
        self.t = -1
        self.dmax = 0
        self.row = None

    def advance(self, q: list, t: int) -> None:
        """Store ``q`` for every iteration after the last stored one up to ``t``
        (a gap of ``depth`` or more refills the ring), and set the largest
        delay at ``t``, which never reaches back past iteration 0."""
        tables, depth = self.tables, self.depth
        # a plain counter, not max()/range(): the engine calls this every iteration
        tt = self.t
        if t - tt > depth:
            tt = t - depth
        while tt < t:
            tt += 1
            tables[tt % depth] = q[:]
        self.t = t
        d = self.cycle[t % self.period]
        self.dmax = d = d if d < t else t
        # one past table serves the whole block unless offsets are hashed per pair
        self.row = None if d and self.hashed else tables[(t - d) % depth]

    def read(self, j: int, offs) -> list[float]:
        """State ``j``'s block at the current iteration, entry k read ``offs[k]``
        iterations back; a recorded row's ``-1`` padding is never reached."""
        comps = self.blocks[j][0]
        row = self.row
        if row is not None:
            return [row[c] for c in comps]
        t, depth, tables = self.t, self.depth, self.tables
        return [tables[(t - d) % depth][c] for d, c in zip(offs, comps)]

    def value(self, ell: int, count: int, j: int) -> tuple[float, tuple[int, ...]]:
        """Game value of state ``j``'s block as the ``count``-th update of
        ``ell`` reads it now (zero at the terminal state), and the offsets."""
        if j == 0:
            return 0.0, ()
        _, nu, nv = self.blocks[j]
        if self.row is None:
            offs = pair_delay_offsets(self.seed, self.nR, self.n_states, ell, count, j, nu * nv, self.dmax)
            offs = tuple(offs)  # kept per event: the collector untracks int tuples, never lists
        else:
            offs = (self.dmax,) * (nu * nv)
        return flat_game_value(self.read(j, offs), nu, nv), offs


def _event_log(scalars: list, offsets: list[tuple]) -> EventLog:
    """Column arrays of seven scalars and one offsets tuple per event; offsets padded with -1."""
    width = max(map(len, offsets), default=0)
    pads = [(-1,) * (width - n) for n in range(width + 1)]
    padded = np.array([o + pads[len(o)] for o in offsets], dtype=np.int16)
    return EventLog(
        t=np.array(scalars[0::7], dtype=np.int64),
        ell=np.array(scalars[1::7], dtype=np.int32),
        count=np.array(scalars[2::7], dtype=np.int64),
        j=np.array(scalars[3::7], dtype=np.int32),
        cost=np.array(scalars[4::7], dtype=float),
        gamma=np.array(scalars[5::7], dtype=float),
        new_q=np.array(scalars[6::7], dtype=float),
        offsets=padded.reshape(len(offsets), width),
    )


def qlearning_update(
    m: GameModel, ell, q_old: float, delayed_view, j, realized_cost: float, gamma: float
) -> float:
    """One-component relaxation toward the sampled one-step target.

    ``delayed_view`` is the (possibly stale) Q-table the update reads;
    only the successor state's block matters.  ``j`` may be a state label or
    index; the terminal state contributes value zero.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    ji = j if isinstance(j, int) else m.state_index(j)
    if ji == 0:
        val = 0.0
    else:
        off, nu, nv = m.state_block(ji)
        q = np.asarray(delayed_view, dtype=float)
        val = flat_game_value(q[off : off + nu * nv].tolist(), nu, nv)
    return (1.0 - gamma) * q_old + gamma * (realized_cost + val)


def run_qlearning(m: GameModel, cfg: QLearnConfig, q0=None) -> tuple[np.ndarray, QLearnRun]:
    """Execute a configured run; returns the final Q-table and the record.

    Raises :class:`QLearnDivergenceError` if any component leaves the
    floating range (misconfiguration or genuine divergence).
    """
    nR = m.n_triplets
    seed = int(os.environ["SSPG_SEED"]) if os.environ.get("SSPG_SEED") else cfg.seed

    sched_kind, sched_arg = _parse_scheduler(cfg.scheduler)
    a, b, p = cfg.stepsize
    ref = None if cfg.reference_q is None else np.asarray(cfg.reference_q, dtype=float)

    q0_arr = np.zeros(nR) if q0 is None else np.array(q0, dtype=float)
    if q0_arr.shape != (nR,):
        raise ValueError(f"Q0 needs shape ({nR},)")

    # flat python structures for the hot loop
    succ = m._succ
    Q = q0_arr.tolist()
    core = ReplayCore(m, cfg.delay_model, seed, Q)
    advance, value = core.advance, core.value
    counts = [0] * nR
    sum_g = [0.0] * nR
    sum_g2 = [0.0] * nR

    # per event: seven scalars in one flat list and one tuple of offsets, so
    # the recording adds no container the garbage collector keeps scanning
    record = cfg.record_full_history
    scalars: list = []
    offsets: list[tuple] = []

    max_abs = float(np.abs(q0_arr).max()) if nR else 0.0
    metrics: list[MetricsRow] = []

    def snap_metrics(t_now: int) -> None:
        q_arr = np.array(Q)
        dist = None if ref is None else float(np.abs(q_arr - ref).max())
        resid = float(np.abs(q_arr - q_bellman(m, q_arr)).max())
        metrics.append(MetricsRow(t_now, dist, max_abs, resid))

    snap_metrics(0)
    sched_comp = 2 * nR
    uniform = counter_uniform
    chash = counter_hash

    for t in range(cfg.max_iters):
        advance(Q, t)

        if sched_kind == "all":
            active = range(nR)
        elif sched_kind == "uniform-random":
            drawn = []
            for r in range(sched_arg):
                h = chash(seed, sched_comp, t * sched_arg + r)
                c = (h * nR) >> 64
                if c not in drawn:
                    drawn.append(c)
            active = drawn
        elif sched_kind == "round-robin":
            active = []
            for r in range(sched_arg):
                c = (t * sched_arg + r) % nR
                if c not in active:
                    active.append(c)
        else:
            active = []
            for c in sched_arg[t % len(sched_arg)]:
                if c not in active:
                    active.append(c)

        for ell in active:
            cnt = counts[ell]
            gamma = a / (b + cnt) ** p if (b + cnt) > 0 else math.inf
            if gamma > 1.0:
                gamma = 1.0
            u = uniform(seed, ell, cnt)
            idx, cum, costs = succ[ell]
            pos = 0
            while cum[pos] < u:
                pos += 1
            j = idx[pos]
            cost = costs[pos]

            val, offs = value(ell, cnt, j)
            new_q = (1.0 - gamma) * Q[ell] + gamma * (cost + val)
            if not math.isfinite(new_q):
                raise QLearnDivergenceError(
                    f"non-finite Q at iteration {t}, component {m.triplets[ell]}"
                )
            Q[ell] = new_q
            counts[ell] = cnt + 1
            sum_g[ell] += gamma
            sum_g2[ell] += gamma * gamma
            if new_q > max_abs:
                max_abs = new_q
            elif -new_q > max_abs:
                max_abs = -new_q
            if record:
                scalars.extend((t, ell, cnt, j, cost, gamma, new_q))
                offsets.append(offs)

        if (t + 1) % cfg.metric_interval == 0 or t + 1 == cfg.max_iters:
            snap_metrics(t + 1)

    q_final = np.array(Q)
    run = QLearnRun(
        config=cfg,
        seed_used=seed,
        q0=q0_arr,
        q_final=q_final,
        counts=np.array(counts, dtype=np.int64),
        sum_gamma=np.array(sum_g),
        sum_gamma_sq=np.array(sum_g2),
        max_abs_q=max_abs,
        metrics=metrics,
        events=_event_log(scalars, offsets) if record else None,
        ring_depth=core.depth,
    )
    return q_final, run


def noise_decomposition(run: QLearnRun, m: GameModel) -> np.ndarray:
    """Per-event noise: realized one-step target minus its conditional mean.

    Recomputes, for every recorded update, the sampled target and the exact
    one-step backup of the same delayed view (expected stage cost plus
    probability-weighted successor game values), and returns the
    difference.  The recorded post-update value is re-derived along the way
    and must match bit-exactly, which guards the replay machinery itself.
    """
    rows = run.rows("t", "ell", "count", "j", "cost", "gamma", "new_q")
    succ = m._succ
    g = m.g
    P = m.P
    Q = run.q0.tolist()
    core = ReplayCore(m, run.config.delay_model, run.seed_used, Q)
    advance, value = core.advance, core.value
    t_prev = -1

    w = np.empty(len(run.events))
    for k, (t, ell, cnt, j, cost, gamma, recorded) in enumerate(rows):
        if t != t_prev:
            advance(Q, t)
            t_prev = t
        val_j = value(ell, cnt, j)[0]
        target = cost + val_j
        new_q = (1.0 - gamma) * Q[ell] + gamma * target
        if new_q != recorded:
            raise AssertionError(f"replay mismatch at event {k}: {new_q} != {recorded}")

        backup = float(g[ell])
        for js in succ[ell][0]:
            if js != 0:
                backup += float(P[ell, js]) * (val_j if js == j else value(ell, cnt, js)[0])
        w[k] = target - backup
        Q[ell] = new_q
    return w
