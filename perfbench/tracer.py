"""Outside-in tracing of the ``sspg`` layers for the traced benchmark run.

The tracer replaces each layer's public functions with timing wrappers in
every ``sspg`` module that looks them up (``sspg.operators.solve_matrix_game``,
``sspg.solve.bellman``, ``sspg.qlearn.counter_hash``, the package namespace,
...), and puts the originals back on :meth:`Tracer.restore`.  Nothing in
``src/`` changes.

Ordinary calls become spans: name, start, end and parent span; a span's
self time is its duration minus its children's.  Hot per-event functions
(``counter_hash``, ``value_2x2``, ``flat_game_value``,
``pair_delay_offsets``) are too frequent for one span each, so they only add
to a per-name call count and total time, and stay inside the self time of
the span that called them.  Spans stay in compact in-memory arrays until
:meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

# layer -> (module, attribute) pairs traced as one span per call
SPAN_TARGETS = {
    "matgame": [("matgame", "solve_matrix_game")],
    "operators": [
        ("operators", name)
        for name in (
            "bellman", "bellman_maximin", "bellman_min_fixed", "bellman_max_fixed",
            "bellman_pair", "q_bellman", "values_from_q", "q_from_values",
            "greedy_policies",
        )
    ],
    "solve": [
        ("solve", name)
        for name in (
            "value_iteration", "q_value_iteration", "policy_iteration",
            "evaluate_vs_best_response", "refine_fixed_point", "evaluate_pair",
        )
    ],
    "structure": [
        ("structure", name)
        for name in (
            "check_ssp_game_assumption", "classify_chain", "induce_chain",
            "forall_termination", "exists_termination", "reach_probability_one",
            "recurrent_class_gains", "is_essentially_proper", "build_sspa",
            "check_single_player_ssp",
        )
    ],
    "qlearn": [("qlearn", "run_qlearning"), ("qlearn", "noise_decomposition")],
    "diagnostics": [
        ("diagnostics", name)
        for name in ("run_coupled_lower_process", "run_trackers", "build_contraction_certificate")
    ],
    "model": [("model", "load_model"), ("model", "save_model")],
    "generate": [("generate", "generate_model")],
}

# hot per-event functions: aggregate count and time only
AGG_TARGETS = [
    ("model", "counter_hash"),
    ("matgame", "value_2x2"),
    ("matgame", "flat_game_value"),
    ("qlearn", "pair_delay_offsets"),
]

MODULES = (
    "sspg", "sspg.matgame", "sspg.model", "sspg.operators", "sspg.solve",
    "sspg.structure", "sspg.qlearn", "sspg.diagnostics", "sspg.generate", "sspg.cli",
)


def _shape(nu: int, nv: int) -> str:
    if nu == 1 or nv == 1:
        return "pure"
    return "2x2" if (nu, nv) == (2, 2) else "gt2x2"


def _lp_shape(args, kwargs) -> str:
    shape = getattr(args[0] if args else kwargs["matrix"], "shape", None)
    return _shape(*shape) if shape is not None and len(shape) == 2 else "other"


# span names that carry a per-call shape tag: name -> tagger
SPAN_TAGS = {"matgame.solve_matrix_game": _lp_shape}
AGG_TAGS = {"matgame.flat_game_value": lambda args: _shape(args[1], args[2])}


class Tracer:
    """Installs wrappers, records spans and aggregates, restores originals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.aggs: dict[str, list[int]] = {}  # name -> [calls, total ns]
        self.prolonging = 0  # classify_chain results flagged prolonging
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- names ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        tagger = SPAN_TAGS.get(name)
        fixed_id = self.name_id(name)
        s_name, s_parent, s_start, s_end, stack = self.s_name, self.s_parent, self.s_start, self.s_end, self._stack
        is_classify = name == "structure.classify_chain"

        def wrapper(*args, **kwargs):
            nid = fixed_id if tagger is None else self.name_id(f"{name}[{tagger(args, kwargs)}]")
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0)
            stack.append(idx)
            s_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf_counter_ns()
                stack.pop()
            if is_classify and result.prolonging:
                self.prolonging += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _agg(self, name: str, fn):
        """Count and total time only; an exception propagates uncounted."""
        tagger = AGG_TAGS.get(name)
        aggs = self.aggs
        cell = None if tagger else aggs.setdefault(name, [0, 0])

        def wrapper(*args):
            t0 = perf_counter_ns()
            result = fn(*args)
            dt = perf_counter_ns() - t0
            c = cell if tagger is None else aggs.setdefault(f"{name}[{tagger(args)}]", [0, 0])
            c[0] += 1
            c[1] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore -----------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> int:
        sites = 0
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    sites += 1
        return sites

    def install(self) -> None:
        """Wrap every target at every module-level lookup site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in SPAN_TARGETS.items():
            for modname, attr in targets:
                original = getattr(importlib.import_module(f"sspg.{modname}"), attr)
                if not self._patch_everywhere(original, self._span(f"{layer}.{attr}", original)):
                    raise RuntimeError(f"no lookup site for sspg.{modname}.{attr}")
        for modname, attr in AGG_TARGETS:
            original = getattr(importlib.import_module(f"sspg.{modname}"), attr)
            self._patch_everywhere(original, self._agg(f"{modname}.{attr}", original))
        # GameModel construction: wrap the constructor on the class itself
        model = importlib.import_module("sspg.model")
        init = model.GameModel.__init__
        self._patches.append((model.GameModel, "__init__", init))
        model.GameModel.__init__ = self._span("model.GameModel", init)

    def restore(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        for obj, attr, original in self._patches:
            if getattr(obj, attr) is not original:
                raise RuntimeError(f"failed to restore {attr}")
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def mark(self) -> tuple[int, dict, int]:
        """Position to diff against later: span count, aggregate cells, prolonging count."""
        return len(self.s_name), {k: tuple(v) for k, v in self.aggs.items()}, self.prolonging

    def dump(self, path) -> None:
        """Write every span and aggregate (names, ns timestamps) as npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.s_start, dtype=np.int64),
            end_ns=np.frombuffer(self.s_end, dtype=np.int64),
            agg_names=np.array(sorted(self.aggs)),
            agg_calls=np.array([self.aggs[k][0] for k in sorted(self.aggs)], dtype=np.int64),
            agg_total_ns=np.array([self.aggs[k][1] for k in sorted(self.aggs)], dtype=np.int64),
        )


class SpanView:
    """Spans of one index range with durations, self times and LP subtotals."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.t = tracer
        self.lo, self.hi = lo, hi
        n = hi - lo
        dur = [tracer.s_end[lo + k] - tracer.s_start[lo + k] for k in range(n)]
        child = [0] * n
        lp_sub = [0] * n  # LP span time in the subtree, own LP calls included
        lp_ids = {i for i, nm in enumerate(tracer.names) if nm.startswith("matgame.solve_matrix_game")}
        for k in range(n - 1, -1, -1):  # a child always has a higher index
            i = lo + k
            if tracer.s_name[i] in lp_ids:
                lp_sub[k] += dur[k]
            p = tracer.s_parent[i] - lo
            if p >= 0:
                lp_sub[p] += lp_sub[k]
                child[p] += dur[k]
        self.dur = dur
        self.self_ns = [dur[k] - child[k] for k in range(n)]
        self.lp_sub = lp_sub

    def indices(self, prefix: str) -> list[int]:
        """Local indices of spans whose name equals ``prefix`` or ``prefix[tag]``."""
        ids = {i for i, nm in enumerate(self.t.names) if nm == prefix or nm.startswith(prefix + "[")}
        return [k for k in range(self.hi - self.lo) if self.t.s_name[self.lo + k] in ids]

    def durations(self, prefix: str) -> list[int]:
        return [self.dur[k] for k in self.indices(prefix)]

    def children(self, k: int, prefix: str) -> list[int]:
        """Local indices of direct children of span ``k`` named ``prefix``."""
        return [c for c in self.indices(prefix) if self.t.s_parent[self.lo + c] == self.lo + k]
