"""Totally asynchronous minimax Q-learning on a sampled game.

Each iteration activates a subset of state-control triplets, draws a random
transition for each, and relaxes the triplet's Q-value toward the realized
cost plus the matrix-game value of a *delayed* view of the Q-table at the
successor state.  Components outside the active set carry over bit-exactly.
Nothing here reads the model's probabilities except through sampling, so
the engine exercises exactly the information a model-free learner has.

Determinism contract: every random quantity is a pure function of
``(seed, component, counter)`` through the counter-based hash
:func:`sspg.model.counter_hash`.  Transitions use component ``l`` with the
triplet's own update count as counter, delays use component ``|R| + l``,
the scheduler uses component ``2|R|``.  Identical ``(model, config, Q0)``
therefore give bit-identical runs, and recorded runs can be replayed
against coupled processes using literally the same draws.

Delay offsets are attached to ordered component pairs: the active triplet
``l`` reading component ``l~`` at iteration t sees the value from iteration
``t - d(l, count(l), l~)``, where ``d`` is a pure hash bounded by the delay
model (and by t, so no read precedes the start).  Because ``d`` never
depends on the sampled successor, stepsizes and delays are measurable
before the transition draw, as the update-noise analysis requires.

None of these draws depends on Q (Tsitsiklis, *Machine Learning* 16, 1994;
Yu & Bertsekas, *Math. of OR*, 2013), so a run splits in two.  The *event
plan* is an :class:`EventLog` computed in numpy a chunk of iterations at a
time: the scheduler's picks, each event's update count and successor draw
(:meth:`sspg.model.SamplingTable.draw`).  Only the *Q recursion* runs event
by event: the delayed block reads, the game values and the relaxations,
which fill the chunk's ``new_q``; a recorded log is the chunks end to end.
Realized costs and stepsizes are derived, never stored (:func:`derived_columns`),
the stepsizes from one memoized table per rule (:func:`_stepsize_table`) whose ``cumsum`` gives their sums.

One replay core, :class:`ReplayCore`, holds the one delay rule (:func:`pair_delay_offsets`
is the only delay hash) and the one reader of delayed blocks.  The engine and the coupled
replay (:func:`_replay`) run one recursion, :func:`_relax`, through it, each with its own
block kernels, picked once per state (:func:`sspg.matgame.block_kernel` for the engine): the
reader gives each event a row of table positions, and the successor's kernel reads its block
from the table there.  A metric snapshot pauses the engine at its iteration and reads the live table.
The coupled replay, :meth:`QLearnRun.to_csv` and :meth:`QLearnRun.digest` cut the log where
the engine did.  The noise decomposition reads blocks untouched since a chunk's delay window
opened from one base view, the rest from the recorded write log, by (component, iteration)
as the reader does (:func:`_write_index`).  The trackers read the log one update level at a
time.  No table is ever copied, so an iteration costs what its events cost, whatever |R|.
The library reads no environment variable, the seed is the config's, and it keeps no module
state: a stepsize table is a pure function of its rule and its length, cached, read-only and shared.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .matgame import block_kernel, game_values
from .model import GameModel, _is_number, counter_hash, counter_uniform, mulhi
from .operators import q_bellman


class QLearnDivergenceError(RuntimeError):
    """A Q-value left the floating range; the run is aborted with context."""


def _pair(field: str, spec) -> tuple:
    """``spec`` as a ``(kind, argument)`` pair, or a ValueError naming the field."""
    if not isinstance(spec, (tuple, list)) or len(spec) != 2:
        raise ValueError(f"{field} must be a string or a (kind, argument) pair, got {spec!r}")
    return tuple(spec)


def _integer(field: str, x) -> int:
    """``x`` as an int: an integer, not a bool, a string or a float."""
    if _is_number(x, integer=True):
        return int(x)
    raise ValueError(f"{field} needs an integer, got {x!r}")


def _parse_scheduler(spec):
    if spec == "all":
        return ("all", 0)
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        if name not in ("uniform-random", "round-robin"):
            raise ValueError(f"unknown scheduler {spec!r}")
        try:
            spec = (name, int(arg or 1))
        except ValueError:
            raise ValueError(f"scheduler {name!r} needs an integer, got {arg!r}") from None
    kind, arg = _pair("scheduler", spec)
    if kind in ("uniform-random", "round-robin"):
        k = _integer(f"scheduler {kind!r}", arg)
        if k < 1:
            raise ValueError("scheduler needs k >= 1")
        return (kind, k)
    if kind == "custom":
        # repeats within a group update once, at their first position
        try:
            groups = tuple(tuple(dict.fromkeys(_integer("custom scheduler", c) for c in group)) for group in arg)
        except TypeError:
            raise ValueError(f"custom scheduler needs a list of groups of component indices, got {arg!r}") from None
        if not groups:
            raise ValueError("custom scheduler needs at least one group")
        return ("custom", groups)
    raise ValueError(f"unknown scheduler {spec!r}")


def _parse_delay(spec) -> tuple[bool, tuple[int, ...]]:
    """The delay rule as ``(hashed, cycle)``.

    The largest delay at iteration t is ``cycle[t % len(cycle)]``, capped at
    t.  Hashed offsets are drawn per pair in [0, that bound]; otherwise every
    pair reads exactly the bound.  A uniform bound of 0 is the zero rule; one
    above 65535 is refused, as :func:`pair_delay_offsets` scales a 16-bit draw.
    """
    if spec == "zero":
        return False, (0,)
    if isinstance(spec, str):
        raise ValueError(f"unknown delay model {spec!r}")
    kind, arg = _pair("delay_model", spec)
    if kind == "uniform":
        d = _integer("delay bound", arg)
        if d < 0:
            raise ValueError("delay bound must be nonnegative")
        if d > 0xFFFF:
            raise ValueError(f"uniform delay bound {d} exceeds 65535: offsets are scaled from a 16-bit draw")
        return d > 0, (d,)
    if kind == "fixed":
        try:
            sched = tuple(_integer("fixed delay schedule", x) for x in arg)
        except TypeError:
            raise ValueError(f"fixed delay schedule needs a list of offsets, got {arg!r}") from None
        if not sched or min(sched) < 0:
            raise ValueError("fixed delay schedule must be nonempty and nonnegative")
        return False, sched
    raise ValueError(f"unknown delay model {spec!r}")


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
    accepted.  ``delay_model``: ``"zero"``, ``("uniform", D)`` (D <= 65535) or
    ``("fixed", offsets)`` (offsets cycled by iteration, applied to every
    pair).  ``reference_q``: a finite (|R|,) table whose sup distance the
    metric rows (every ``metric_interval`` iterations and at the end) and
    :meth:`QLearnRun.to_csv` report.
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
        for name in ("seed", "max_iters", "metric_interval"):
            value = getattr(self, name)
            if not _is_number(value, integer=True):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy seed would overflow the hash
        if not isinstance(self.record_full_history, (bool, np.bool_)):
            raise ValueError(f"record_full_history must be true or false, got {self.record_full_history!r}")
        step = self.stepsize
        if not (isinstance(step, (tuple, list)) and len(step) == 3 and all(map(_is_number, step))):
            raise ValueError(f"stepsize must be three numbers (a, b, p), got {step!r}")
        a, b, p = step
        if not (a > 0 and b >= 0 and 0.5 < p <= 1.0):
            raise ValueError("stepsize needs a > 0, b >= 0, p in (0.5, 1]")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"stepsize needs finite a and b, got {step!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.metric_interval < 1:
            raise ValueError("metric_interval must be positive")
        _parse_scheduler(self.scheduler)
        _parse_delay(self.delay_model)


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    sup_dist_to_ref: float | None
    max_abs_q: float
    residual: float


# events per chunk of the engine and its sequential replays, at least, up to 4 *
# _CHUNK (_chunk_iterations); noise replays bound a chunk's (event, successor) pairs by 8 * _CHUNK
_CHUNK = 1 << 11


@dataclass
class EventLog:
    """Per-update records, aligned arrays, 24 bytes per event (index columns of :func:`_index_dtype`); delay
    offsets come from :meth:`ReplayCore.offsets`, realized costs and stepsizes from :func:`derived_columns`.

    A chunk of the engine's event plan is one too, its ``new_q`` filled by :func:`_relax`.
    """

    t: np.ndarray
    ell: np.ndarray
    count: np.ndarray  # update count of ell before this event
    j: np.ndarray  # successor state index, 0 = terminal
    new_q: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, sl: slice) -> "EventLog":
        """The events of a slice, every column a view."""
        return EventLog(*[col[sl] for col in vars(self).values()])

    def astype(self, dtype) -> "EventLog":
        """The events with index columns of ``dtype``: narrow to store them, int64 to index with them."""
        return EventLog(*(c.astype(dtype, copy=False) for c in (self.t, self.ell, self.count, self.j)), self.new_q)


def _index_dtype(max_iters: int, n_triplets: int) -> type:
    """The one width rule of a log's index columns: int32 if ``max_iters`` and |R| lie below 2^31 - 1."""
    return np.int32 if max(max_iters, n_triplets) < np.iinfo(np.int32).max else np.int64


@functools.lru_cache(maxsize=8, typed=True)  # typed: 1, 1.0 and np.float64(1.0) are three rules
def _gammas(a, b, p, n: int) -> np.ndarray:
    """``a / (b + k)**p`` in [0, 1] at counts k < n, by Python's ``**``: numpy's differs in the last bit; read-only."""
    gamma = np.array([min(a / (b + k) ** p if b + k > 0 else math.inf, 1.0) for k in range(n)])
    gamma.flags.writeable = False  # every caller shares it
    return gamma


def _stepsize_table(stepsize, n: int) -> np.ndarray:
    """Rule ``stepsize``'s shared table at counts k < n at least, one per power of two, as a doubling table grows."""
    return _gammas(*stepsize, 1 << (n - 1).bit_length())


def derived_columns(m: GameModel, cfg: QLearnConfig, ev: EventLog) -> tuple[np.ndarray, np.ndarray]:
    """The columns a log does not store, for events of a run of ``cfg`` on ``m``: each event's
    realized cost ``C[ell, j]``, read through one flat int64 index, and its stepsize at update count ``count``."""
    gamma = _stepsize_table(cfg.stepsize, int(ev.count.max(initial=-1)) + 1)
    return m.C.ravel()[ev.ell * np.int64(m.C.shape[1]) + ev.j], gamma[ev.count]


@dataclass
class QLearnRun:
    """Everything needed to audit, replay, and couple a recorded run, on its ``model``."""

    config: QLearnConfig
    model: GameModel
    q0: np.ndarray
    q_final: np.ndarray
    counts: np.ndarray
    sum_gamma: np.ndarray
    sum_gamma_sq: np.ndarray
    max_abs_q: float
    metrics: list[MetricsRow]
    events: EventLog | None

    def digest(self) -> str:
        """sha256 of Q0, Q_final, the counts and any events' components and successors
        as int32, values, and delay offsets as int16 rows as wide as the widest block."""
        h = hashlib.sha256()
        h.update(self.q0.tobytes())
        h.update(self.q_final.tobytes())
        h.update(self.counts.tobytes())
        if self.events is not None:
            ev = self.events
            for arr in (ev.ell.astype(np.int32), ev.j.astype(np.int32), ev.new_q):
                h.update(np.ascontiguousarray(arr).tobytes())
            core, chunks = self._chunks(self.model)
            for part in chunks:
                h.update(core.offsets(part.t, part.ell, part.count, part.j).astype(np.int16).tobytes())
        return h.hexdigest()

    def history(self, m: GameModel) -> EventLog:
        """The recorded events, to replay on ``m``; a ValueError if the run
        kept none or ran on another model."""
        if self.events is None:
            raise ValueError("run was not recorded with full history")
        if m is not self.model and m != self.model:
            raise ValueError(f"the run was recorded on another model than {m!r}")
        return self.events

    def _chunks(self, m: GameModel) -> tuple["ReplayCore", Iterator[EventLog]]:
        """A fresh :class:`ReplayCore` of the run on ``m`` and the recorded events cut where the engine cut them
        (:func:`_chunk_iterations`), for every sequential replay; a chunk's index columns are widened when reached."""
        ev = self.history(m)
        core = ReplayCore(m, self.config.delay_model, self.config.seed)
        span = _chunk_iterations(core, _parse_scheduler(self.config.scheduler))
        cuts = np.searchsorted(ev.t, range(span, int(ev.t.max(initial=0)) + 1, span)).tolist()
        return core, (ev[lo:hi].astype(np.int64) for lo, hi in zip([0, *cuts], [*cuts, len(ev)]))

    def to_csv(self, path, m: GameModel) -> None:
        """Per-event trace on the run's model ``m``; reference distances recomputed by replaying events.

        The distance is a running maximum of per-component gaps, rescanned only
        when the component holding it shrinks: exact, as a maximum of floats
        does not depend on order.
        """
        core, chunks = self._chunks(m)
        ref = self.config.reference_q
        if ref is not None:
            ref = np.asarray(ref, dtype=float)
            gaps, ref = np.abs(self.q0 - ref).tolist(), ref.tolist()
            top = max(gaps, default=0.0)
        running_max = float(np.abs(self.q0).max()) if self.q0.size else 0.0
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["t", "active_component", "j_sample", "cost", "gamma",
                 "max_delay_used", "sup_dist_to_ref", "max_abs_q"]
            )
            for part in chunks:
                cols = (part.t, part.ell, part.j, *derived_columns(m, self.config, part), part.new_q,
                        core.offsets(part.t, part.ell, part.count, part.j).max(axis=1, initial=0))
                for t, ell, j, cost, gamma, new_q, delay in zip(*(c.tolist() for c in cols)):
                    running_max = max(running_max, abs(new_q))
                    dist = ""
                    if ref is not None:
                        gap, old = abs(new_q - ref[ell]), gaps[ell]
                        gaps[ell] = gap
                        if gap >= top:
                            top = gap
                        elif old == top:
                            top = max(gaps)
                        dist = repr(top)
                    w.writerow([t, ell, j, repr(cost), repr(gamma), delay, dist, repr(running_max)])


def pair_delay_offsets(seed: int, nR: int, n_states: int, ell, count, js, block_size, dmax):
    """Uniform delay offsets in [0, dmax] for the components of state ``js``.

    The only delay hash: a pure function of its arguments that
    :class:`ReplayCore` evaluates for the engine's plan and for every replay.
    Four 16-bit offsets come from each 64-bit word of component ``nR + ell``.
    The arguments broadcast together, one entry per (event, successor) pair;
    the result has one row per pair, ``max(block_size)`` wide and padded with
    -1 past the pair's block.
    """
    args = (np.asarray(x, dtype=np.int64) for x in (ell, count, js, block_size, dmax))
    ell, count, js, size, dmax = (x.reshape(-1) for x in np.broadcast_arrays(*args))
    width = int(size.max(initial=0))
    k = np.arange(width)
    base = (count.astype(np.uint64) * np.uint64(n_states + 1) + js.astype(np.uint64)) * np.uint64(8)
    words = counter_hash(seed, (ell + nR).astype(np.uint64)[:, None],
                         base[:, None] + np.arange((width + 3) >> 2, dtype=np.uint64))
    bits = (words[:, k >> 2] >> (16 * (k & 3)).astype(np.uint64)) & np.uint64(0xFFFF)
    offs = (bits.astype(np.int64) * (dmax[:, None] + 1)) >> 16
    return np.where(k < size[:, None], offs, -1)


def _write_index(c: np.ndarray, it: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Writes sorted by (component, iteration), as keys ``c * span + it + 1`` and order.

    ``searchsorted(keys, c * span + s, side="right")`` finds component c's
    first write at iteration s or later, and just before it c's last write
    before s, if they exist (iterations below ``span - 1``).
    """
    key = c.astype(np.int64, copy=False) * span + it + 1
    order = np.argsort(key)
    return key[order], order


class ReplayCore:
    """Delayed views of one run: the delay rule and the reader of delayed blocks.

    At the start of iteration s, component c holds the value that c's first
    write at iteration s or later replaced, or its live value if no such
    write has happened yet (a component is written at most once per
    iteration).  So the core keeps a window, the writes of the last D
    iterations in write order (D the largest delay), and the table the values they replaced,
    appended by :func:`_relax` and dropped by :meth:`reads`.  No table is ever copied.
    """

    def __init__(self, m: GameModel, delay_model, seed: int):
        self.hashed, cycle = _parse_delay(delay_model)
        self.cycle = np.array(cycle, dtype=np.int64)
        self.bound = max(cycle)
        self.seed, self.nR, self.n_states, self.triplets = seed, m.n_triplets, m.n, m.triplets
        # first component and size of each state's block; the terminal state 0 has none
        blocks = [(0, 0, 0)] + [m.state_block(i) for i in range(1, m.n + 1)]
        self.first = np.array([off for off, _, _ in blocks], dtype=np.int64)
        self.block_size = np.array([nu * nv for _, nu, nv in blocks], dtype=np.int64)
        self.width = int(self.block_size.max())
        self.window = np.empty(0, np.int64), np.empty(0, np.int64)  # (component, iteration) per write

    def offsets(self, t: np.ndarray, ell: np.ndarray, count: np.ndarray, js: np.ndarray) -> np.ndarray:
        """Delay offsets of a batch of (event, successor) pairs, one row per pair.

        Rows are padded with -1 past the successor's block to the widest block
        (all of the row at the terminal state).  Hashed offsets are drawn per
        pair in [0, bound], otherwise every pair reads the bound, capped at t.
        """
        dmax = np.minimum(self.cycle[t % len(self.cycle)], t)
        size = self.block_size[js]
        if not self.hashed:
            return np.where(np.arange(self.width) < size[:, None], dmax[:, None], -1)
        offs = pair_delay_offsets(self.seed, self.nR, self.n_states, ell, count, js, size, dmax)
        if offs.shape[1] < self.width:  # no pair of the batch reads a widest block
            offs = np.concatenate((offs, np.full((len(offs), self.width - offs.shape[1]), -1)), axis=1)
        return offs

    def reads(self, table: list, t: np.ndarray, ell: np.ndarray, count: np.ndarray, j: np.ndarray) -> list:
        """Where the events of a chunk read their successor blocks in ``table``, with one ``searchsorted``.

        ``table`` holds the |R| live values, then the values the window's writes replaced.
        The chunk's writes join the window; those before iteration ``t[0] - D`` leave it and
        ``table``.  Returns one list per event, as wide as the widest block: the table position
        of each block entry, component c read at offset d (:meth:`offsets`), is |R| + w if window
        write w, c's first at iteration t - d or later, precedes the event, and c (its live value)
        otherwise; the padding past the block is 0 and no kernel reads it.
        """
        if not len(t):
            return []
        offs = self.offsets(t, ell, count, j)
        wc, wt = self.window
        drop = int(np.searchsorted(wt, t[0] - self.bound))
        del table[self.nR : self.nR + drop]
        wc, wt = self.window = np.concatenate((wc[drop:], ell)), np.concatenate((wt[drop:], t))
        before = len(wc) - len(t)  # window writes made before the chunk
        span = int(t[-1]) + 2
        key, order = _write_index(wc, wt, span)
        e, k = np.nonzero(offs >= 0)
        c = self.first[j[e]] + k
        pos = np.searchsorted(key, c * span + t[e] - offs[e, k], side="right")
        w = order[np.minimum(pos, len(order) - 1)]
        refs = np.zeros_like(offs)
        refs[e, k] = np.where((pos < len(order)) & (wc[w] == c) & (w < before + e), self.nR + w, c)
        return refs.tolist()


def _relax(core: ReplayCore, table: list, kernels: list, ev: EventLog, refs: list, cost, gamma) -> np.ndarray:
    """The Q recursion over events whose reads :meth:`ReplayCore.reads` resolved, with their
    :func:`derived_columns` ``cost`` and ``gamma``; each event's new value.

    ``q[ell] <- (1 - gamma) * q[ell] + gamma * (cost + kernels[j](table, ref))``, zero in place
    of the kernel at the terminal state; ``table`` gets the replaced value.  ``kernels[j]``, state
    j's block kernel picked once per run, reads the block at ``ref``, the event's row of positions.
    Without hashed offsets every read of iteration t sees the table at the start of t, so a block's
    value is computed once per iteration.  Raises :class:`QLearnDivergenceError` if not finite.
    """
    hashed, memo, isfinite, new_qs = core.hashed, {}, math.isfinite, []
    cols = (ev.t.tolist(), ev.ell.tolist(), ev.j.tolist(), cost.tolist(), gamma.tolist(), refs)
    for t, ell, j, cost, gamma, ref in zip(*cols):
        if not j:
            v = 0.0
        elif hashed:
            v = kernels[j](table, ref)
        else:
            v = memo.get((t, j))
            if v is None:
                v = memo[t, j] = kernels[j](table, ref)
        old = table[ell]
        new = (1.0 - gamma) * old + gamma * (cost + v)
        if not isfinite(new):
            raise QLearnDivergenceError(f"non-finite Q at iteration {t}, component {core.triplets[ell]}")
        table.append(old)
        table[ell] = new
        new_qs.append(new)
    return np.array(new_qs)


def _replay(run: QLearnRun, m: GameModel, kernels: list) -> tuple[np.ndarray, np.ndarray]:
    """A recorded run's recursion on its model ``m`` with the block kernels ``kernels[j]`` of the
    states j (:func:`_relax`), in the engine's chunks: each event's new value and the final table."""
    core, chunks = run._chunks(m)
    table = run.q0.tolist()
    new_q = [_relax(core, table, kernels, ev, core.reads(table, ev.t, ev.ell, ev.count, ev.j),
                    *derived_columns(m, run.config, ev)) for ev in chunks]
    return np.concatenate(new_q), np.array(table[: m.n_triplets])


def _picks(sched, nR: int, seed: int, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Iteration and component of every event of iterations [t0, t1), in
    order; a component drawn twice in one iteration updates once."""
    kind, arg = sched
    its = np.arange(t0, t1)
    if kind == "all":
        return np.repeat(its, nR), np.tile(np.arange(nR), len(its))
    if kind == "custom":
        flat = np.array([c for group in arg for c in group], dtype=np.int64)
        sizes = np.array([len(group) for group in arg], dtype=np.int64)
        g = its % len(arg)
        n = sizes[g]
        first = np.repeat(np.cumsum(sizes)[g] - n - (np.cumsum(n) - n), n)
        return np.repeat(its, n), flat[first + np.arange(n.sum())]
    ctr = np.arange(t0 * arg, t1 * arg, dtype=np.uint64)
    if kind == "uniform-random":
        comps = mulhi(counter_hash(seed, 2 * nR, ctr), nR).astype(np.int64)
    else:
        comps = (ctr % np.uint64(nR)).astype(np.int64)
    t = np.repeat(its, arg)
    if arg > 1:
        c = comps.reshape(-1, arg)
        keep = np.ones(c.shape, dtype=bool)
        for r in range(1, arg):
            keep[:, r] = (c[:, :r] != c[:, r : r + 1]).all(axis=1)
        keep = keep.reshape(-1)
        t, comps = t[keep], comps[keep]
    return t, comps


def _counts_before(ell: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each event's update count of its component; advances ``counts`` past the batch."""
    order = np.argsort(ell, kind="stable")
    se = ell[order]
    new = np.ones(len(se), dtype=bool)
    new[1:] = se[1:] != se[:-1]
    first = np.flatnonzero(new)
    runs = np.diff(np.append(first, len(se)))
    cnt = np.empty_like(ell)
    cnt[order] = counts[se] + np.arange(len(se)) - np.repeat(first, runs)
    counts[se[first]] += runs
    return cnt


def _event_plan(m: GameModel, sched, seed: int, counts: np.ndarray, t0: int, t1: int) -> EventLog:
    """The events of iterations [t0, t1), index columns int64; ``new_q`` is left to the recursion."""
    t, ell = _picks(sched, m.n_triplets, seed, t0, t1)
    cnt = _counts_before(ell, counts)
    tab = m.sampling
    pos = tab.draw(ell, counter_uniform(seed, ell.astype(np.uint64), cnt.astype(np.uint64)))
    return EventLog(t, ell, cnt, tab.succ[pos], np.empty(len(t)))


def _chunk_iterations(core: ReplayCore, sched) -> int:
    """Iterations per chunk of the engine and every sequential replay: a chunk covers the delay
    window, so the reader sorts about as many writes as the chunk adds, up to 4 * _CHUNK events."""
    kind, arg = sched
    per_iter = max(core.nR if kind == "all" else max(map(len, arg)) if kind == "custom" else arg, 1)
    return max(1, min(max(_CHUNK, core.bound * per_iter), 4 * _CHUNK) // per_iter)


def run_qlearning(m: GameModel, cfg: QLearnConfig, q0=None) -> tuple[np.ndarray, QLearnRun]:
    """Execute a configured run; returns the final Q-table and the record.

    Raises :class:`QLearnDivergenceError` if any component leaves the
    floating range (misconfiguration or genuine divergence).
    """
    nR, seed = m.n_triplets, cfg.seed

    sched = _parse_scheduler(cfg.scheduler)
    if sched[0] == "custom":
        bad = [c for group in sched[1] for c in group if not 0 <= c < nR]
        if bad:
            raise ValueError(f"custom scheduler component {bad[0]} outside [0, {nR})")
    ref = None if cfg.reference_q is None else np.asarray(cfg.reference_q, dtype=float)
    if ref is not None and (ref.shape != (nR,) or not np.isfinite(ref).all()):
        raise ValueError(f"reference_q needs shape ({nR},) and finite entries")

    q0_arr = np.zeros(nR) if q0 is None else np.array(q0, dtype=float)
    if q0_arr.shape != (nR,) or not np.isfinite(q0_arr).all():
        raise ValueError(f"Q0 needs shape ({nR},) and finite entries")

    Q = q0_arr.tolist()  # the live values, then the values the reader's window writes replaced
    core = ReplayCore(m, cfg.delay_model, seed)
    kernels = [None] + [block_kernel(*m.state_block(i)[1:]) for i in range(1, m.n + 1)]

    counts = np.zeros(nR, dtype=np.int64)
    chunks, narrow = [], _index_dtype(cfg.max_iters, nR)  # the recorded chunks, and the dtype of their index columns
    max_abs = float(np.abs(q0_arr).max()) if nR else 0.0

    def snap(s: int, q: np.ndarray, top: float) -> MetricsRow:
        dist = None if ref is None else float(np.abs(q - ref).max())
        return MetricsRow(s, dist, top, float(np.abs(q - q_bellman(m, q)).max()))

    metrics = [snap(0, q0_arr, max_abs)]
    span, interval, end = _chunk_iterations(core, sched), cfg.metric_interval, cfg.max_iters

    for t0 in range(0, max(end, 1), span):  # one chunk at least, empty, so that a log has its columns
        t1 = min(t0 + span, end)
        plan = _event_plan(m, sched, seed, counts, t0, t1)
        cost, gamma = derived_columns(m, cfg, plan)
        refs = core.reads(Q, plan.t, plan.ell, plan.count, plan.j)
        due = list(range(t0 + interval - t0 % interval, t1 + 1, interval))
        if t1 == end and end % interval:
            due.append(end)
        # relaxed in pieces that end at the snapshots: the live table is the one at iteration s
        cuts = np.searchsorted(plan.t, due).tolist()
        for s, lo, hi in zip([*due, None], [0, *cuts], [*cuts, len(plan)]):
            plan.new_q[lo:hi] = _relax(core, Q, kernels, plan[lo:hi], refs[lo:hi], cost[lo:hi], gamma[lo:hi])
            max_abs = float(np.abs(plan.new_q[lo:hi]).max(initial=max_abs))
            if s is not None:
                metrics.append(snap(s, np.array(Q[:nR]), max_abs))
        if cfg.record_full_history:
            chunks.append(plan.astype(narrow))

    q_final = np.array(Q[:nR])
    gamma = _stepsize_table(cfg.stepsize, top := int(counts.max(initial=0)))[:top]
    # cumsum adds in sequence, as a running sum would
    sums, squares = (np.concatenate(([0.0], np.cumsum(x))) for x in (gamma, gamma * gamma))
    run = QLearnRun(
        config=cfg,
        model=m,
        q0=q0_arr,
        q_final=q_final,
        counts=counts,
        sum_gamma=sums[counts],
        sum_gamma_sq=squares[counts],
        max_abs_q=max_abs,
        metrics=metrics,
        events=EventLog(*(np.concatenate([getattr(c, f.name) for c in chunks]) for f in dataclasses.fields(EventLog)))
        if cfg.record_full_history else None,
    )
    return q_final, run


def noise_decomposition(run: QLearnRun, m: GameModel) -> np.ndarray:
    """Per-event noise: realized one-step target minus its conditional mean.

    Recomputes, for every recorded update, the sampled target and the exact
    one-step backup of the same delayed view (expected stage cost plus
    probability-weighted successor game values, added in row order), and
    returns the difference.  The table at the start of iteration s is Q0
    overwritten by each component's last recorded write before s.  No read of
    a chunk precedes b = t[0] - D (D the largest delay): a *fresh* pair, whose
    successor block had no write in [b, t), reads its value at b from a
    per-state ``base`` refreshed only where writes dirtied it, and a pair
    whose block was last written before t - D reads it as that write left it.
    Only the other, *stale* pairs take :meth:`ReplayCore.offsets` and read the
    log by one ``searchsorted`` over the writes sorted by (component,
    iteration) (:func:`_write_index`); one :func:`sspg.matgame.game_values`
    call per chunk values every block read.

    ``m`` must be the run's model (a ValueError otherwise).  Each recorded
    value must equal (1 - gamma) * (the recorded value it replaced) + gamma *
    target bit for bit, which guards the replay itself.
    This finds the first mismatch a sequential replay finds, with the same
    value, by induction: if events 0..k-1 match, event k reads and replaces
    only values written before it, which equal the sequential replay's.
    """
    ev = run.history(m)
    core = ReplayCore(m, run.config.delay_model, run.config.seed)
    nR, tab, first, D = m.n_triplets, m.sampling, core.first, core.bound
    row_len = np.diff(tab.start)
    # events per chunk, so that a chunk has at most 8 * _CHUNK pairs
    span = max(1, 8 * _CHUNK // max(int(row_len.max(initial=1)), 1))
    # every write, Q0 as writes before iteration 0
    K = int(ev.t.max(initial=-1)) + 2
    key, order = _write_index(np.concatenate((np.arange(nR), ev.ell)), np.concatenate((np.full(nR, -1), ev.t)), K)
    written, ranks = np.concatenate((run.q0, ev.new_q))[order], np.empty_like(order)
    ranks[order] = np.arange(len(order))  # each write's place in that order: just after the write it replaced
    state, entry = np.repeat(np.arange(m.n + 1), core.block_size)[ev.ell], np.arange(core.width)  # per write
    base, dirty, since = np.zeros(m.n + 1), np.ones(m.n + 1, dtype=bool), 0  # block values at the start of since

    def table(c, s):
        """Components ``c`` at the start of iterations ``s``: their last writes before ``s``."""
        return written[np.searchsorted(key, c * K + s, side="right") - 1]

    w = np.empty(len(ev))
    for lo in range(0, len(ev), span):
        sl = slice(lo, lo + span)
        part = ev[sl].astype(np.int64)  # the chunk's index columns, int64 to index with
        t, ell = part.t, part.ell
        # every (event, successor) pair of the chunk, the terminal state left out
        n = row_len[ell]
        of = np.repeat(np.arange(len(ell)), n)
        js = tab.succ[(tab.start[ell] - np.cumsum(n) + n)[of] + np.arange(len(of))]
        of, js = of[js != 0], js[js != 0]
        tp = t[of]
        b = max(int(t[0]) - D, 0)  # the earliest iteration the chunk reads
        a, z = np.searchsorted(ev.t, np.array((since, b), ev.t.dtype))  # of the log's dtype: the log is not cast
        dirty[state[a:z]], since = True, b  # the writes of [since, b) leave base's blocks stale
        sw, tw = state[z : lo + len(t)], ev.t[z : lo + len(t)].astype(np.int64)  # the writes of [b, t[-1]]
        first_w = np.full(m.n + 1, K)  # each block's first write in [b, t[-1]]
        np.minimum.at(first_w, sw, tw)  # of one dtype: ufunc.at's fast path
        fresh = first_w[js] >= tp  # no write in [b, t): the block as base holds it
        fresh &= np.count_nonzero(fresh) * 16 >= len(js)  # too few to pay for subsets: read them as stale
        sel, ver, lw, need = slice(None), *np.zeros((3, 0), dtype=np.int64)
        if fresh.any():
            hot, hk = np.flatnonzero(~fresh), np.sort(sw * K + tw)
            lw = hk[np.searchsorted(hk, js[hot] * K + tp[hot]) - 1] - js[hot] * K  # the block's last write before t
            quiet = lw + D < tp[hot]  # none since t - D: the pair reads the block as lw left it
            sel, ver, lw = hot[~quiet], hot[quiet], lw[quiet]
            need = np.flatnonzero(np.bincount(js[fresh & dirty[js]], minlength=m.n + 1))
        vkey, inv = np.unique(js[ver] * K + lw + 1, return_inverse=True)  # a block just after a write
        # one batch: the stale pairs' delayed reads, then the blocks of need at b and of vkey after lw
        sj, st, rj = js[sel], tp[sel], np.concatenate((need, vkey // K))
        offs = core.offsets(st, ell[of[sel]], part.count[of[sel]], sj)
        vals = np.zeros((len(sj) + len(rj), core.width))
        live = offs >= 0
        vals[: len(sj)][live] = table((first[sj, None] + entry)[live], (st[:, None] - offs)[live])
        live = entry < core.block_size[rj, None]
        rs = np.concatenate((np.full(len(need), b), vkey % K))
        vals[len(sj) :][live] = table((first[rj, None] + entry)[live], np.repeat(rs, core.block_size[rj]))
        out = game_values(vals.ravel(), m.shape_groups.laid_out(np.concatenate((sj, rj)) - 1, core.width))
        base[need], dirty[need] = out[len(sj) : len(sj) + len(need)], False
        v = base[js]
        v[sel], v[ver] = out[: len(sj)], out[len(sj) + len(need) :][inv]
        # g + p1 v1 + p2 v2 + ..., left to right: a running sum read at each row's last successor
        n = np.bincount(of, minlength=len(ell))
        terms = np.zeros((len(ell), int(n.max(initial=0)) + 1))
        terms[:, 0] = m.g[ell]
        terms[of, np.arange(len(of)) - (np.cumsum(n) - n)[of] + 1] = m.P.ravel()[ell[of] * m.P.shape[1] + js] * v
        backup = np.cumsum(terms, axis=1)[np.arange(len(ell)), n]
        val_j = np.zeros(len(ell))
        hit = js == part.j[of]
        val_j[of[hit]] = v[hit]
        cost, gamma = derived_columns(m, run.config, part)
        target, recorded = cost + val_j, part.new_q
        new_q = (1.0 - gamma) * written[ranks[nR:][sl] - 1] + gamma * target
        bad = np.flatnonzero(new_q != recorded)
        if bad.size:
            k = int(bad[0])
            raise AssertionError(f"replay mismatch at event {lo + k}: {float(new_q[k])} != {float(recorded[k])}")
        w[sl] = target - backup
    return w
