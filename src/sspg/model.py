"""Finite two-player zero-sum stochastic shortest path game models.

A game lives on states ``"1" .. "n"`` plus an implicit cost-free absorbing
termination state ``"0"`` (never stored).  At each state the minimizing
player (player 1) picks a control from a finite set ``U(i)`` and the
maximizing player (player 2) picks from ``V(i)``; the pair ``(u, v)``
determines a probability vector over successors in ``S ∪ {0}`` and a
transition cost for every successor with positive probability.

Internally, state-control triplets ``(i, u, v)`` are enumerated in a fixed
canonical order (state order, then ``U(i)`` order, then ``V(i)`` order);
that index set is used by the Q-table code throughout the package.  Control
labels are strings and list order is meaningful: it pins the canonical
triplet order, trace columns, and all tie-breaking.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np

from .matgame import PROB_TOL, ShapeGroups, _not_distributions

TERMINAL = "0"
PLAYER_MIN = 1
PLAYER_MAX = 2

class ModelFormatError(ValueError):
    """Raised when a game document cannot be parsed into a model."""


class ModelValidationError(ValueError):
    """Raised when a parsed game document violates model invariants."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("invalid model:\n" + str(report))


class PolicyMismatchError(ValueError):
    """Raised when a policy does not fit the model or the expected player."""


# ---------------------------------------------------------------------------
# Counter-based random draws
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD & _M64
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53 & _M64
    return z ^ (z >> 33)


def counter_hash(seed: int, component, counter):
    """64-bit hash of (seed, component, counter); pure and platform-stable.

    ``component`` and ``counter`` may be ``uint64`` arrays (broadcast
    together): numpy's wrapping arithmetic is the ``& _M64`` of the scalar
    form, so each entry equals the scalar call bit for bit.
    """
    h = _mix64(_mix64((seed & _M64) ^ 0x9E3779B97F4A7C15) ^ (component & _M64))
    h = _mix64(h ^ (counter & _M64))
    return h


def counter_uniform(seed: int, component, counter):
    """Uniform draw in [0, 1) determined entirely by (seed, component, counter); arrays as in :func:`counter_hash`."""
    return (counter_hash(seed, component, counter) >> 11) * 2.0**-53


def mulhi(h, n: int):
    """``(h * n) >> 64`` for ``uint64`` arrays ``h`` and ``0 < n <= 2**31``: a hash mapped into ``range(n)``.

    Exact by a 32-bit split, since the full product does not fit 64 bits.
    """
    n = np.uint64(n)
    lo = (h & np.uint64(0xFFFFFFFF)) * n
    return ((h >> np.uint64(32)) * n + (lo >> np.uint64(32))) >> np.uint64(32)


# ---------------------------------------------------------------------------
# The game model
# ---------------------------------------------------------------------------

Triplet = tuple[str, str, str]
NextEntry = tuple[str, float, float]  # (successor label, probability, cost)


@dataclass(frozen=True, eq=False)
class ControlLayout:
    """Flat numbering of each player's controls (state order, then list order).

    Entry ``p - 1`` of each tuple belongs to player p: ``index`` maps every
    triplet to its player-p control, ``offsets`` holds each state's first
    player-p control, ``order`` permutes the triplets so that those sharing
    a player-p control are contiguous, and ``starts`` marks where each
    control's run begins in that order.  ``blocks``: each state's first triplet.
    """

    index: tuple[np.ndarray, np.ndarray]
    offsets: tuple[np.ndarray, np.ndarray]
    order: tuple[np.ndarray, np.ndarray]
    starts: tuple[np.ndarray, np.ndarray]
    blocks: np.ndarray

    @classmethod
    def from_blocks(cls, blocks: Sequence[tuple[int, int, int]]) -> "ControlLayout":
        first = np.array([b[0] for b in blocks], dtype=np.intp)
        sizes = np.array([b[1:] for b in blocks], dtype=np.intp).reshape(-1, 2)
        offsets = np.cumsum(sizes, axis=0) - sizes
        state = np.repeat(np.arange(len(blocks)), sizes[:, 0] * sizes[:, 1])
        pos = np.arange(len(state)) - first[state]
        nv = sizes[state, 1]
        index = (offsets[state, 0] + pos // nv, offsets[state, 1] + pos % nv)
        order = (np.arange(len(state)), np.argsort(index[1], kind="stable"))
        starts = tuple(
            np.searchsorted(index[p][order[p]], np.arange(sizes[:, p].sum())) for p in (0, 1)
        )
        return cls(index, (offsets[:, 0], offsets[:, 1]), order, starts, first)

    def group(self, y: np.ndarray, player: int, reduce: np.ufunc = np.add):
        """Reduce the triplet rows of ``y`` over each control of ``player``.

        Returns one row per control of ``player`` and each state's first row.
        """
        p = player - 1
        return reduce.reduceat(y[self.order[p]], self.starts[p], axis=0), self.offsets[p]


@dataclass(frozen=True, eq=False)
class SamplingTable:
    """The support successors of every triplet, flattened for batched draws.

    Row ``k`` is ``[start[k], start[k + 1])`` of ``succ`` (successor state
    indices in increasing order) and ``cum`` (cumulative probabilities).
    The cost of a drawn successor ``j`` of triplet ``k`` is ``C[k, j]``.
    """

    start: np.ndarray
    succ: np.ndarray
    cum: np.ndarray

    @classmethod
    def from_kernel(cls, P: np.ndarray) -> "SamplingTable":
        live = P > 0.0
        # a running sum over the whole row adds 0.0 off the support, so each
        # entry equals the cumulative sum over the support alone, bit for bit
        cum = np.cumsum(np.where(live, P, 0.0), axis=1)[live]
        start = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
        return cls(start, np.nonzero(live)[1], cum)

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Flat position of the successor that uniform ``u[e]`` draws in row ``rows[e]``.

        The one draw rule: the first entry whose cumulative probability
        reaches ``u``, which is ``bisect_left`` on the row and equals a
        linear scan.  One branchless bisection serves the whole batch.
        """
        base = self.start[rows]
        n = self.start[rows + 1] - base
        if (n == 0).any():
            raise ValueError(f"triplet {int(rows[np.argmin(n)])} has no transition row")
        cum = self.cum
        # the answer lies in [base, base + n]; halve the window until one entry is left
        for _ in range(int(n.max(initial=1) - 1).bit_length()):
            half = n >> 1
            base = np.where(cum[base + half] < u, base + half, base)
            n -= half
        pos = base + (cum[base] < u)
        short = pos == self.start[rows + 1]
        if short.any():
            raise ValueError(f"no successor of triplet {int(rows[np.argmax(short)])} reaches the draw")
        return pos


class GameModel:
    """Immutable finite SSP game.

    The kernel arrays :attr:`P` and :attr:`C`, with a read-only mask of the
    entries the rows listed (zero-probability and NaN entries included), are
    the representation; every other array and :attr:`transitions` are
    derived from them.  The private :meth:`_from_arrays` builds a model from
    ``P`` and ``C`` alone, listing the entries of ``P > 0``.

    The one checker of labels, numbers and rows, for a game document too
    (:func:`load_model` checks only its shape): every label is a string and
    every probability and cost a number a float can hold, never coerced; a
    fault is a :class:`ModelFormatError` worded as for the document,
    ``transitions[k]`` naming the row at position ``k`` of the ``transitions``
    mapping.

    Parameters
    ----------
    states:
        Non-terminal state labels in order.  ``"0"`` is reserved for the
        termination state and must not appear.
    controls1, controls2:
        Ordered control label lists per state for the minimizer / maximizer;
        every state needs an entry, and every entry's labels are checked.
    transitions:
        Mapping ``(i, u, v) -> sequence of (j, p, cost)`` rows; every entry
        is listed, zero-probability and NaN ones included.  Construction is
        permissive about probability mass and missing rows so that
        :func:`validate_model` can report findings; downstream operators
        assume a validated model.
    """

    def __init__(
        self,
        states: Sequence[str],
        controls1: Mapping[str, Sequence[str]],
        controls2: Mapping[str, Sequence[str]],
        transitions: Mapping[Triplet, Sequence[NextEntry]],
    ):
        self._set_labels(states, controls1, controls2)
        flat = []  # (triplet, successor, p, cost) of every listed entry
        for k, (key, entries) in enumerate(transitions.items()):
            _row_key(key, k)
            if key not in self._tidx:
                raise ModelFormatError(f"transition row for unknown triplet {key}")
            t, row = self._tidx[key], []
            for e, (j, p, cost) in enumerate(entries):
                if _label(j, 'transitions[{}] ({},{},{}): entry {}: "j"', k, *key, e) not in self._sidx:
                    raise ModelFormatError(f"unknown successor {j!r} in row {key}")
                try:  # an int too large for a float is no number either
                    row.append((t, self._sidx[j], _real(p), _real(cost)))
                except (TypeError, OverflowError):
                    raise ModelFormatError(f'transitions[{k}] ({",".join(key)}): entry {e}: "p" and "cost" '
                                           "must be numbers") from None
            if len({e[1] for e in row}) != len(row):
                raise ModelFormatError(f"duplicate successor entries in row {key}")
            flat += row
        P, C = np.zeros((2, self.n_triplets, self.n + 1))
        listed = np.zeros(P.shape, dtype=bool)
        if flat:
            t, j, p, c = zip(*flat)
            P[t, j], C[t, j], listed[t, j] = p, c, True
        self._set_kernel(P, C, listed)

    @classmethod
    def _from_arrays(cls, states, controls1, controls2, P: np.ndarray, C: np.ndarray) -> "GameModel":
        """A model from float arrays of shape (|R|, n+1) over the canonical triplets, listing ``P > 0``."""
        m = cls.__new__(cls)
        m._set_labels(states, controls1, controls2)
        m._set_kernel(P, C, P > 0.0)
        return m

    def _set_labels(self, states, controls1, controls2) -> None:
        states = tuple(_label(s, '"states" entry {}', k) for k, s in enumerate(states))
        if TERMINAL in states:
            raise ModelFormatError('termination state "0" must not appear in "states"')
        if len(set(states)) != len(states):
            raise ModelFormatError("duplicate state labels")
        self.states = states
        for name, given in (("controls1", controls1), ("controls2", controls2)):
            for s in states:
                if s not in given:
                    raise ModelFormatError(f'"{name}" has no entry for state {s}')
            for s, labels in given.items():  # a key that is not a state too
                for k, c in enumerate(labels):
                    _label(c, '"{}" entry for state {}: control {}', name, s, k)
        self.controls1, self.controls2 = ({s: tuple(given[s]) for s in states} for given in (controls1, controls2))
        for s in states:
            for labels in (self.controls1[s], self.controls2[s]):
                if len(set(labels)) != len(labels):
                    raise ModelFormatError(f"duplicate control labels at state {s}")

        self._sidx = {s: k for k, s in enumerate((TERMINAL,) + states)}
        self.n = len(states)

        # canonical triplet enumeration
        trips: list[Triplet] = []
        blocks: list[tuple[int, int, int]] = []  # (offset, nu, nv) per state
        for s in states:
            us, vs = self.controls1[s], self.controls2[s]
            blocks.append((len(trips), len(us), len(vs)))
            for u in us:
                for v in vs:
                    trips.append((s, u, v))
        self.triplets = tuple(trips)
        self.n_triplets = len(trips)
        self._blocks = tuple(blocks)
        self.control_layout = ControlLayout.from_blocks(blocks)  # for fixed-policy averages
        self._tidx = {t: k for k, t in enumerate(trips)}

    def _set_kernel(self, P: np.ndarray, C: np.ndarray, listed: np.ndarray) -> None:
        with np.errstate(invalid="ignore"):  # 0 * inf on an unvalidated row: nan, which validation reports
            self._P, self._C, self._listed, self._g = P, C, listed, (P * C).sum(axis=1)
        for a in (P, C, listed, self._g):
            a.setflags(write=False)
        self.sampling = SamplingTable.from_kernel(P)

    # -- accessors ----------------------------------------------------------

    @functools.cached_property
    def transitions(self) -> Mapping[Triplet, tuple[NextEntry, ...]]:
        """Rows ``(i, u, v) -> ((j, p, cost), ...)`` of the listed entries in successor order, built on first use."""
        labels = (TERMINAL,) + self.states
        succ = np.nonzero(self._listed)[1].tolist()
        entries = list(zip([labels[j] for j in succ], self._P[self._listed].tolist(), self._C[self._listed].tolist()))
        at = [0, *np.cumsum(self._listed.sum(axis=1)).tolist()]
        return {t: tuple(entries[a:b]) for t, a, b in zip(self.triplets, at, at[1:])}

    @functools.cached_property
    def shape_groups(self) -> ShapeGroups:
        """The states grouped by block shape for the batched value kernel, built on first use."""
        return ShapeGroups.from_blocks(self._blocks)

    @property
    def P(self) -> np.ndarray:
        """Transition matrix over triplets, shape (|R|, n+1); column 0 is terminal."""
        return self._P

    @property
    def C(self) -> np.ndarray:
        """Transition costs aligned with :attr:`P` (zero where p is zero)."""
        return self._C

    @property
    def g(self) -> np.ndarray:
        """Expected stage cost per triplet."""
        return self._g

    def state_index(self, label: str) -> int:
        """Internal index of a state label (terminal is 0, states are 1..n)."""
        try:
            return self._sidx[label]
        except KeyError:
            raise ValueError(f"unknown state {label!r}") from None

    def state_label(self, index: int) -> str:
        return TERMINAL if index == 0 else self.states[index - 1]

    def triplet_index(self, t: Triplet) -> int:
        try:
            return self._tidx[tuple(t)]
        except KeyError:
            raise ValueError(f"unknown state-control triplet {tuple(t)!r}") from None

    def state_block(self, label_or_index: str | int) -> tuple[int, int, int]:
        """(offset, |U(i)|, |V(i)|) of a state's triplet block; u-major layout."""
        i = label_or_index if isinstance(label_or_index, int) else self.state_index(label_or_index)
        if not 1 <= i <= self.n:
            raise ValueError(f"state index {i} out of range")
        return self._blocks[i - 1]

    def q_block(self, q: np.ndarray, state: str | int) -> np.ndarray:
        """View of a Q-table restricted to one state, shaped (|U(i)|, |V(i)|)."""
        off, nu, nv = self.state_block(state)
        return np.asarray(q)[off : off + nu * nv].reshape(nu, nv)

    def __eq__(self, other) -> bool:
        # the labels, the listed entries and P and C on them; a model with a NaN entry equals only itself
        return other is self or (isinstance(other, GameModel) and self.states == other.states
                                 and self.controls1 == other.controls1 and self.controls2 == other.controls2
                                 and np.array_equal(self._listed, other._listed)
                                 and np.array_equal(self._P[self._listed], other._P[self._listed])
                                 and np.array_equal(self._C[self._listed], other._C[self._listed]))

    def __repr__(self) -> str:
        return f"GameModel(n_states={self.n}, n_triplets={self.n_triplets})"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.location}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.findings) if self.findings else "ok"

    def to_json(self) -> dict:
        return {"valid": self.ok, "findings": [asdict(f) for f in self.findings]}


def _empty_controls(m: GameModel) -> list[Finding]:
    """The ``empty-controls`` findings of :func:`validate_model`: a state where a player has no control."""
    return [Finding("empty-controls", f"state {s}", f"empty control set for player {k}")
            for s in m.states for k, ctrl in ((1, m.controls1), (2, m.controls2)) if not ctrl[s]]


def validate_model(m: GameModel) -> ValidationReport:
    """Check every model invariant and report all violations.

    Never raises: an empty report means the model is valid.
    """
    found: list[Finding] = []
    if not m.states:
        found.append(Finding("no-states", "states", "the game has no states"))
    found += _empty_controls(m)
    for t in m.triplets:
        loc = f"({t[0]},{t[1]},{t[2]})"
        row = m.transitions[t]
        if not row:
            found.append(Finding("missing-row", loc, "no transition row"))
            continue
        mass = 0.0
        for j, p, cost in row:
            if not math.isfinite(p) or p < 0.0:
                found.append(Finding("bad-probability", loc, f"probability {p} to {j}"))
                continue
            if p == 0.0:
                found.append(
                    Finding("cost-on-zero-edge", loc, f"cost defined on zero-probability edge to {j}")
                )
            if not math.isfinite(cost):
                found.append(Finding("bad-cost", loc, f"non-finite cost {cost} to {j}"))
            mass += p
        if abs(mass - 1.0) > PROB_TOL:
            found.append(Finding("bad-mass", loc, f"probability mass {mass:.12g}"))
    return ValidationReport(tuple(found))


# ---------------------------------------------------------------------------
# Model operations
# ---------------------------------------------------------------------------


def expected_stage_cost(m: GameModel, t: Triplet) -> float:
    """Expected one-stage cost at triplet ``t``: sum_j p_ij(u,v) * cost(i,u,v,j)."""
    return float(m.g[m.triplet_index(t)])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _is_number(x, integer: bool = False) -> bool:
    """Whether ``x`` is a number (an integer with ``integer``) as JSON writes one: never a bool or a string."""
    if type(x) is float:  # the common case: spare the abstract-class check
        return not integer
    return isinstance(x, numbers.Integral if integer else numbers.Real) and not isinstance(x, bool)


def _real(x) -> float:
    """``x`` as a float if it is a number; a TypeError for a bool, a string or anything else."""
    if not _is_number(x):
        raise TypeError(f"not a number: {x!r}")
    return float(x)


def _label(x, where: str, *args) -> str:
    """``x`` if it is a string, as every label in a game document is; else a ModelFormatError
    naming the field ``where.format(*args)``, formatted only then (a game has a "j" per entry)."""
    if not isinstance(x, str):
        raise ModelFormatError(f"{where.format(*args)} must be a string, got {x!r}")
    return x


def _row_key(key, k: int) -> None:
    """Refuse a row key ``(i, u, v)`` that is not three strings, naming the row's position ``k``."""
    for f, x in zip("iuv", key):
        _label(x, 'transitions[{}]: "{}"', k, f)


def load_model(text: str) -> GameModel:
    """Parse a game document, renormalize near-unit probability rows, validate.

    The loader checks the document's shape (JSON, objects and lists, required
    fields, no repeated row); :class:`GameModel` checks every label, number
    and row, ``transitions[k]`` naming the document's k-th row.  Raises
    :class:`ModelFormatError` on either (with field context) and
    :class:`ModelValidationError` listing every violated invariant otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("document root must be an object")
    for field_name in ("states", "controls1", "controls2", "transitions"):
        if field_name not in doc:
            raise ModelFormatError(f'missing field "{field_name}"')
    for field_name in ("states", "transitions"):
        if not isinstance(doc[field_name], list):
            raise ModelFormatError(f'"{field_name}" must be a list')
    for name in ("controls1", "controls2"):
        if not isinstance(doc[name], dict):
            raise ModelFormatError(f'"{name}" must be an object')
        for s, labels in doc[name].items():
            if not isinstance(labels, list):
                raise ModelFormatError(f'"{name}" entry for state {s} must be a list')

    transitions = {}
    for k, row in enumerate(doc["transitions"]):
        if not isinstance(row, dict) or not {"i", "u", "v", "next"} <= row.keys():
            raise ModelFormatError(f'transitions[{k}]: needs fields "i", "u", "v", "next"')
        key, entries = (row["i"], row["u"], row["v"]), row["next"]
        try:
            repeated = key in transitions
        except TypeError:  # a list or an object as a label cannot key a row: name it
            _row_key(key, k)
        loc = f"transitions[{k}] ({key[0]},{key[1]},{key[2]})"
        if repeated:
            raise ModelFormatError(f"{loc}: duplicate transition row")
        if not isinstance(entries, list):
            raise ModelFormatError(f'{loc}: "next" must be a list')
        for e, entry in enumerate(entries):
            if not isinstance(entry, dict) or not {"j", "p", "cost"} <= entry.keys():
                raise ModelFormatError(f'{loc}: entry {e} needs fields "j", "p", "cost"')
        transitions[key] = [(e["j"], e["p"], e["cost"]) for e in entries]

    model = GameModel(doc["states"], doc["controls1"], doc["controls2"], transitions)
    rescaled = {}
    for key, entries in transitions.items():
        mass = sum(float(p) for _, p, _ in entries)  # the constructor took every p: each is a number
        # a row of k entries within k * 2**-52 of unit mass is kept as it is: a
        # rescaled row lands there, so loading a saved model changes nothing
        if math.isfinite(mass) and mass > 0 and len(entries) * sys.float_info.epsilon < abs(mass - 1.0) <= PROB_TOL:
            rescaled[key] = [(j, float(p) / mass, c) for j, p, c in entries]
    if rescaled:  # rare: only a document not written by save_model has such rows
        model = GameModel(doc["states"], doc["controls1"], doc["controls2"], transitions | rescaled)
    report = validate_model(model)
    if not report.ok:
        raise ModelValidationError(report)
    return model


def save_model(m: GameModel) -> str:
    """Serialize to the canonical game document; inverse of :func:`load_model`."""
    rows = [{"i": i, "u": u, "v": v, "next": [{"j": j, "p": p, "cost": c} for j, p, c in entries]}
            for (i, u, v), entries in m.transitions.items()]  # in canonical triplet order
    return json.dumps({"states": list(m.states), "controls1": {s: list(m.controls1[s]) for s in m.states},
                       "controls2": {s: list(m.controls2[s]) for s in m.states}, "transitions": rows}, indent=2)


def load_bundled_model(name: str) -> GameModel:
    """Load one of the example games shipped with the package.

    Available names: ``everett``, ``zerocost``, ``pursuit``.
    """
    text = resources.files("sspg").joinpath("data", f"{name}.json").read_text()
    return load_model(text)


# ---------------------------------------------------------------------------
# Decision rules and stationary policies
# ---------------------------------------------------------------------------


def decision_rule(probs: Iterable[float]) -> np.ndarray:
    """A probability vector over one state's control list."""
    r = np.asarray(list(probs), dtype=float)
    if r.ndim != 1 or _not_distributions(r, np.zeros(r.size, dtype=np.intp), 1)[0]:
        raise ValueError(f"not a probability vector: {r}")
    return r


@dataclass(frozen=True)
class StationaryPolicy:
    """One player's stationary randomized policy: a decision rule per state.

    ``rules[s]`` is a probability vector aligned with the player's control
    list at state ``s`` (player 1: ``controls1``, player 2: ``controls2``).
    """

    player: int
    rules: Mapping[str, np.ndarray]

    def rule(self, state: str) -> np.ndarray:
        return self.rules[state]

    def to_json(self, m: GameModel) -> dict:
        ctrl = m.controls1 if self.player == PLAYER_MIN else m.controls2
        return {
            "player": "I" if self.player == PLAYER_MIN else "II",
            "rules": {
                s: {c: float(p) for c, p in zip(ctrl[s], self.rules[s])} for s in m.states
            },
        }


def policy_from_json(m: GameModel, doc: Mapping) -> StationaryPolicy:
    if not isinstance(doc, dict):
        raise PolicyMismatchError("policy document must be an object")
    label = doc.get("player")
    names = {"I": PLAYER_MIN, "II": PLAYER_MAX, 1: PLAYER_MIN, 2: PLAYER_MAX}
    player = names.get(label) if isinstance(label, str) or _is_number(label, integer=True) else None
    if player is None:
        raise PolicyMismatchError('policy "player" must be "I" or "II"')
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    tables = doc.get("rules", {})
    if not isinstance(tables, dict):
        raise PolicyMismatchError('policy "rules" must be an object')
    extra = [s for s in tables if s not in m.states]
    if extra:
        raise PolicyMismatchError(f"policy has a rule for state {extra[0]}, which the game does not have")
    rules = {}
    for s in m.states:
        if s not in tables:
            raise PolicyMismatchError(f"policy has no rule for state {s}")
        if not isinstance(tables[s], dict):
            raise PolicyMismatchError(f"rule at state {s} must map control labels to probabilities")
        extra = [c for c in tables[s] if c not in ctrl[s]]
        if extra:
            raise PolicyMismatchError(f"rule at state {s} names control {extra[0]!r}, which the state does not have")
        try:
            probs = [_real(tables[s].get(c, 0.0)) for c in ctrl[s]]
        except (TypeError, ValueError, OverflowError):  # an integer no float holds: 10**400
            raise PolicyMismatchError(f"rule at state {s} must map control labels to probabilities") from None
        try:
            rules[s] = decision_rule(probs)
        except ValueError:
            raise PolicyMismatchError(f"rule at state {s} is not a distribution: {probs}") from None
    return StationaryPolicy(player, rules)


def uniform_policy(m: GameModel, player: int) -> StationaryPolicy:
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    return StationaryPolicy(
        player, {s: np.full(len(ctrl[s]), 1.0 / len(ctrl[s])) for s in m.states}
    )


def pure_policy(m: GameModel, player: int, picks: Mapping[str, str]) -> StationaryPolicy:
    """Deterministic policy given a control label per state."""
    ctrl = m.controls1 if player == PLAYER_MIN else m.controls2
    rules = {}
    for s in m.states:
        r = np.zeros(len(ctrl[s]))
        try:
            r[ctrl[s].index(picks[s])] = 1.0
        except (KeyError, ValueError):
            raise PolicyMismatchError(f"no control {picks.get(s)!r} for state {s}") from None
        rules[s] = r
    return StationaryPolicy(player, rules)


def policy_arrays(m: GameModel, policy: StationaryPolicy, player: int | None = None) -> np.ndarray:
    """Validated decision rules as one flat vector in state order; raises on any mismatch.

    The rule of the k-th state starts at entry
    ``m.control_layout.offsets[policy.player - 1][k]``.
    """
    if player is not None and policy.player != player:
        raise PolicyMismatchError(f"expected a player-{player} policy, got player {policy.player}")
    if policy.player not in (PLAYER_MIN, PLAYER_MAX):
        raise PolicyMismatchError(f"unknown player {policy.player}")
    ctrl = m.controls1 if policy.player == PLAYER_MIN else m.controls2
    rules = []
    for s in m.states:
        if s not in policy.rules:
            raise PolicyMismatchError(f"policy has no rule for state {s}")
        r = np.asarray(policy.rules[s], dtype=float)
        if r.shape != (len(ctrl[s]),):
            raise PolicyMismatchError(
                f"rule at state {s} has {r.size} entries, control set has {len(ctrl[s])}"
            )
        rules.append(r)
    flat = np.concatenate(rules) if rules else np.zeros(0)
    owner = np.repeat(np.arange(m.n), [r.size for r in rules])  # state of each entry
    bad = _not_distributions(flat, owner, m.n)
    if bad.any():
        k = int(bad.argmax())
        raise PolicyMismatchError(f"rule at state {m.states[k]} is not a distribution: {rules[k]}")
    return flat


def policy_average(
    m: GameModel, x, mu: StationaryPolicy | None = None, nu: StationaryPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Average a per-triplet array, shape (|R|,) or (|R|, k), over fixed decision rules.

    With ``mu`` alone, row w is sum_u mu(u|i) x(i,u,w) for each player-2
    control w of each state i; with ``nu`` alone, sum_v nu(v|i) x(i,w,v)
    for each player-1 control w; with both, one row per state,
    sum_{u,v} mu(u|i) nu(v|i) x(i,u,v).  Returns the rows and each state's
    first row.  At least one policy must be given.
    """
    lay = m.control_layout
    w = np.ones(m.n_triplets)
    if mu is not None:
        w *= policy_arrays(m, mu, PLAYER_MIN)[lay.index[0]]
    if nu is not None:
        w *= policy_arrays(m, nu, PLAYER_MAX)[lay.index[1]]
    x = np.asarray(x, dtype=float)
    y = (w[:, None] if x.ndim == 2 else w) * x
    if mu is not None and nu is not None:
        return np.add.reduceat(y, lay.blocks, axis=0), np.arange(m.n)
    return lay.group(y, PLAYER_MIN if mu is None else PLAYER_MAX)
