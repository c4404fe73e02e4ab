"""Workload inputs and the timed legs of the benchmark.

Every workload runs the same four legs (solve, verify, cli, qlearn) on its
own inputs, one operation at a time; only the sizes differ, so each
workload puts its weight on different layers:

``exact``
    Big solve, verify and CLI legs; a small Q-learning probe.
``qlearn-replay``
    The acceptance-fixture shape (|R| = 12): Q-learning runs and their
    replays dominate; the exact legs are small probes.
``qlearn-wide``
    One n=500 game (|R| ~ 1150, blocks at most 2x2): Q-learning cost per
    iteration grows with |R|; the exact legs are the same small probes.

All inputs are pure functions of the workload seed (generator seeds are
derived from it); the program under test only ever sees the generated
games.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import sspg
from sspg.structure import count_pure_policies

WORKLOADS = ("exact", "qlearn-replay", "qlearn-wide")
AGREE_TOL = 1e-6
SOLVE_TOL = 1e-8
STEPSIZE = (1.0, 1.0, 0.75)


def derive_seed(seed: int, *tags) -> int:
    """Generator seed derived from the workload seed and a label."""
    text = ":".join(str(x) for x in (seed, *tags)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def closest_game(seed: int, tag: str, count: int, distance, **cfg) -> sspg.GameModel:
    """Of ``count`` generated games (seeds derived from ``seed`` and ``tag``), the one nearest the target shape.

    ``distance`` measures how far a game is from the shape a workload wants.
    The number of candidates is fixed, so set-up makes the same number of
    generator calls for every seed.
    """
    games = [sspg.generate_model(sspg.GeneratorConfig(seed=derive_seed(seed, tag, k), **cfg)) for k in range(count)]
    return min(games, key=distance)


def pure_pairs(m: sspg.GameModel) -> int:
    return count_pure_policies(m, sspg.PLAYER_MIN) * count_pure_policies(m, sspg.PLAYER_MAX)


def pairs_near(target: float):
    """Distance of a game's pure-pair count from ``target``, as a ratio (the counts are products)."""
    return lambda m: abs(math.log(pure_pairs(m) / target))


def lp_states(m: sspg.GameModel) -> int:
    """States where both players have two or more controls: the ones a backup solves by LP."""
    return sum(1 for i in range(1, m.n + 1) if min(m.state_block(i)[1:]) > 1)


def lp_states_near(target: float):
    return lambda m: abs(lp_states(m) - target)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class RunSpec:
    label: str
    game: str
    seed: int
    iters: int
    scheduler: object
    delay: object
    config: str  # scheduler-delay name used by the per-layer engine metric
    record: bool = True
    metric_interval: int = 10**9
    reference: bool = False


@dataclass
class Inputs:
    games: dict[str, sspg.GameModel]
    solve: list[str] = field(default_factory=list)
    verify: list[tuple[str, bool]] = field(default_factory=list)  # (game, run the proper-policy checks)
    cli: list[tuple[str, Path]] = field(default_factory=list)
    cli_values: dict[str, np.ndarray] = field(default_factory=dict)
    cli_reports: dict[str, dict] = field(default_factory=dict)
    runs: list[RunSpec] = field(default_factory=list)
    reference_q: dict[str, np.ndarray] = field(default_factory=dict)
    noise_segment: int | None = None
    # How many times a leg's list runs per cycle.  A leg much shorter than
    # the others repeats, so that its operations are timed at several points
    # of the run, where a slow or fast spell of the machine weighs less.
    repeats: dict[str, int] = field(default_factory=lambda: {"verify": 3})


def _write_game(workdir: Path, label: str, m: sspg.GameModel) -> Path:
    path = workdir / f"{label}.json"
    path.write_text(sspg.save_model(m))
    return path


def _support(m: sspg.GameModel) -> int:
    """Successor entries over all sampling rows (what one sweep of draws scans at most)."""
    return int((m.P > 0).sum())


def _fixture_game(seed: int, tag: str) -> sspg.GameModel:
    """Acceptance-fixture shape: n=4, |R|=12 (two 2x2 blocks), about 49 successor entries."""
    return closest_game(seed, tag, 100, lambda m: 100 * abs(m.n_triplets - 12) + abs(_support(m) - 49),
                        n_states=4, max_controls=2, family="contraction")


def _probes(seed: int, workdir: Path) -> dict:
    """The exact-layer probes of the Q-learning workloads: two solve games, two verify games."""
    games = {}
    for k in range(2):
        # nearest 15 of the 60 states with 2x2 blocks, the expected count: VI time follows it
        games[f"probe{k}"] = closest_game(seed, f"probe{k}", 4, lp_states_near(15), n_states=60,
                                          max_controls=2, termination_floor=0.1, family="contraction")
        games[f"small{k}"] = closest_game(seed, f"small{k}", 60, pairs_near(550), n_states=6,
                                          max_controls=2, family="contraction")
    return dict(
        games=games,
        solve=["probe0", "probe1"],
        verify=[("small0", True), ("small1", True)],
        cli=[("small0", _write_game(workdir, "small0", games["small0"]))],
    )


def build_inputs(workload: str, seed: int, root: Path, workdir: Path, expected: dict) -> Inputs:
    """Generate every input of a workload from its seed (the set-up work)."""
    if workload == "exact":
        bundled = ("everett", "zerocost", "pursuit")
        games = {name: sspg.load_bundled_model(name) for name in bundled}
        solve = [f"solve{k}" for k in range(3)]
        for label in solve:
            # VI time follows the number of states that need the LP: 53.3 expected of 120
            games[label] = closest_game(seed, label, 2, lp_states_near(53.3), n_states=120, max_controls=3,
                                        termination_floor=0.1, family="contraction")
        games["loopy"] = closest_game(seed, "loopy", 60, pairs_near(1000), n_states=8,
                                      max_controls=2, cost_range=(0.1, 1.0), family="loopy")
        games["sequential"] = closest_game(seed, "sequential", 60, pairs_near(1152),
                                           n_states=9, max_controls=3, family="sequential")
        games["contraction"] = closest_game(seed, "contraction", 60, pairs_near(1000),
                                            n_states=5, max_controls=3, family="contraction")
        games["qprobe0"] = _fixture_game(seed, "qprobe0")
        games["qprobe1"] = _fixture_game(seed, "qprobe1")
        data = root / "src" / "sspg" / "data"
        inp = Inputs(
            games=games,
            solve=solve,
            verify=[(name, False) for name in bundled + ("loopy", "sequential")] + [("contraction", True)],
            repeats={"verify": 3, "qlearn": 3},
            cli=[(name, data / f"{name}.json") for name in bundled],
            runs=[
                spec
                for g in ("qprobe0", "qprobe1")
                for spec in (
                    RunSpec(f"{g}-uniform", g, 1, 5_000, "uniform-random:1", ("uniform", 5), "uniform-random-1-d5"),
                    RunSpec(f"{g}-all", g, 1, 100, "all", "zero", "all-d0"),
                    RunSpec(f"{g}-rr", g, 1, 1_000, "round-robin:2", ("fixed", (0, 2, 1, 3)), "round-robin-2-fixed"),
                )
            ],
        )
    elif workload == "qlearn-replay":
        probes = _probes(seed, workdir)
        games = {"g0": _fixture_game(seed, "g0"), "g1": _fixture_game(seed, "g1"), **probes.pop("games")}
        runs = [
            RunSpec(f"g{k}-uniform-s{s}", f"g{k}", s, 25_000, "uniform-random:1", ("uniform", 5),
                    "uniform-random-1-d5")
            for k in range(2) for s in (1, 2)
        ]
        runs.append(RunSpec("g0-all", "g0", 1, 1_000, "all", "zero", "all-d0"))
        runs.append(RunSpec("g1-rr", "g1", 1, 5_000, "round-robin:2", ("fixed", (0, 2, 1, 3)),
                            "round-robin-2-fixed"))
        inp = Inputs(games=games, runs=runs, **probes)
    elif workload == "qlearn-wide":
        probes = _probes(seed, workdir)
        wide = sspg.generate_model(sspg.GeneratorConfig(
            n_states=500, max_controls=2, termination_floor=0.1,
            family="contraction", seed=derive_seed(seed, "wide")))
        qstar, trace = sspg.q_value_iteration(wide, tol=SOLVE_TOL)
        if trace.outcome != sspg.CONVERGED:
            raise RuntimeError("reference Q-value iteration did not converge")
        runs = [
            RunSpec(f"wide-uniform-s{s}", "wide", s, 20_000, "uniform-random:1", ("uniform", 5),
                    "uniform-random-1-d5", record=s == 1, metric_interval=1000, reference=True)
            for s in (1, 2, 3)
        ]
        # the other two configurations, small and unrecorded, for the engine metric
        runs.append(RunSpec("wide-all", "wide", 1, 2, "all", "zero", "all-d0", record=False))
        runs.append(RunSpec("wide-rr", "wide", 1, 1_000, "round-robin:2", ("fixed", (0, 2, 1, 3)),
                            "round-robin-2-fixed", record=False))
        inp = Inputs(games={"wide": wide, **probes.pop("games")}, runs=runs,
                     reference_q={"wide": qstar}, noise_segment=250, **probes)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    # library-side answers the CLI output is compared against
    for name, _ in inp.cli:
        m = inp.games[name]
        if name in expected["bundled"]:
            inp.cli_values[name] = np.array(expected["bundled"][name]["values"])
        else:
            v, _ = sspg.value_iteration(m, tol=SOLVE_TOL)
            inp.cli_values[name] = sspg.refine_fixed_point(m, v)[0]
        inp.cli_reports[name] = sspg.check_ssp_game_assumption(m).to_json(m)
    return inp


def warm_up(inp: Inputs, env: dict, root: Path) -> None:
    """One small pass over every code path before timing (interpreter, caches, imports)."""
    m = sspg.load_bundled_model("pursuit")
    sspg.value_iteration(m, tol=SOLVE_TOL)
    sspg.check_ssp_game_assumption(m)
    g = inp.games[inp.runs[0].game]
    cfg = sspg.QLearnConfig(seed=99, max_iters=2_000, stepsize=STEPSIZE, scheduler="uniform-random:1",
                            delay_model=("uniform", 5), record_full_history=True, metric_interval=10**9)
    _, run = sspg.run_qlearning(g, cfg)
    sspg.run_coupled_lower_process(g, sspg.uniform_policy(g, sspg.PLAYER_MAX), run)
    sspg.noise_decomposition(truncate(run, 20), g)
    sspg.run_trackers(g, run)
    subprocess.run([sys.executable, "-m", "sspg.cli", "validate", "--model", str(inp.cli[0][1])],
                   cwd=root, env=env, capture_output=True, timeout=120, check=True)


def truncate(run: sspg.QLearnRun, k: int) -> sspg.QLearnRun:
    """The first ``k`` recorded events of a run, replayable from its Q0."""
    ev = run.events
    cut = sspg.EventLog(*(getattr(ev, f.name)[:k] for f in dataclasses.fields(ev)))
    return dataclasses.replace(run, events=cut)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class OpFailed(Exception):
    """An operation raised or failed its output check."""


class Skip(Exception):
    """A step's inputs are missing because an earlier step of its chain failed."""


# Reference speed: the machine speed at which calibration_loop() returns exactly this.
CALIBRATION_REF_S = 1.5e-4
_CAL_TABLE = {i: i for i in range(512)}
_CAL_A = np.random.default_rng(0).random((40, 40))
_CAL_X = np.ones(40)
_CAL_LIST = list(range(20_000))
_CAL_BIG = np.random.default_rng(1).random(200_000)


def _object_pass() -> None:
    acc = []
    for i in range(1500):
        acc.append(_CAL_TABLE[i & 511])
        if len(acc) > 64:
            acc.clear()


def _small_numpy_pass() -> None:
    for _ in range(60):
        y = _CAL_A @ _CAL_X
        float(np.abs(y - _CAL_X).max())


def _list_copy_pass() -> None:
    for _ in range(10):
        _CAL_LIST[:]


def _memory_pass() -> None:
    _CAL_BIG.sum()


def calibration_loop() -> float:
    """The machine's speed right now, as the time of a fixed piece of benchmark code.

    On a shared machine the speed available to one process drifts by up to
    2.5x in spells of several seconds.  Every timing is scaled to the
    reference speed with the calibration measured just before and after it.
    The calibration covers the kinds of work the library does: Python object
    handling, small numpy operations, list copies and a sweep over a large
    array.  It is the geometric mean of the median of five passes of each;
    the median drops passes hit by a preemption.
    """
    logs = []
    for fn in (_object_pass, _small_numpy_pass, _list_copy_pass, _memory_pass):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(times)))
    return math.exp(sum(logs) / len(logs))


def at_reference_speed(seconds: float, loop_before: float, loop_after: float) -> float:
    return seconds * CALIBRATION_REF_S / (0.5 * (loop_before + loop_after))


def mismatches(what: str, first: dict, current: dict) -> list[str]:
    """One message per key whose current value differs from the first one seen.

    Every determinism check of the benchmark goes through here: a later
    execution against the first within a run, a traced cycle against the
    untraced one, and a run against earlier runs of the same code and seed.
    """
    return [f"determinism: {key} was {first[key]!r} {what}, now {current[key]!r}"
            for key in sorted(first.keys() & current.keys()) if first[key] != current[key]]


class Recorder:
    """Timing samples, work counts, observables and failures, per operation key.

    An operation is one timed call into the program (or one CLI process).  Its
    key names what it does on which input, so repeated executions of the same
    operation pool their samples and must repeat their work counts and
    outputs exactly.  ``samples`` are at the reference speed, ``raw`` as
    measured.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self._loop = calibration_loop()
        self.kind: dict[str, str] = {}
        self.work: dict[str, dict[str, int]] = {}
        self.observed: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.runs: list[tuple[str, int, int, int]] = []  # (config, events, iterations, |R|)
        self.event_log_bytes = 0
        self._op_failed = False

    def timed(self, kind: str, key: str, fn, *args, **kwargs):
        self.attempted += 1
        self._op_failed = False
        before = self._loop
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # any exception from the program is a failed operation
            self.fail(f"{key}: {type(e).__name__}: {e}")
            raise OpFailed from e
        elapsed = time.perf_counter() - t0
        self._loop = calibration_loop()
        self.samples.setdefault(key, []).append(at_reference_speed(elapsed, before, self._loop))
        self.raw.setdefault(key, []).append(elapsed)
        self.kind[key] = kind
        return result

    def fail(self, msg: str) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        self.failures.append(msg)

    def check(self, ok, msg: str) -> None:
        if not ok:
            self.fail(msg)
            raise OpFailed

    def observe(self, key: str, value) -> None:
        """Record an exact outcome; a different value on a later execution fails the operation."""
        for msg in mismatches("on its first execution", self.observed, {key: value}):
            self.fail(msg)
        self.observed.setdefault(key, value)

    def compare(self, what: str, first: dict, current: dict) -> None:
        """Determinism checks between two sets of exact outcomes: one operation per shared key, one failure per mismatch."""
        msgs = mismatches(what, first, current)
        self.attempted += len(first.keys() & current.keys())
        self.failed += len(msgs)
        self.failures.extend(msgs)

    def add(self, key: str, name: str, n: int) -> None:
        self.work.setdefault(key, {})[name] = int(n)
        self.observe(f"work:{key}:{name}", int(n))

    # -- summaries (one execution of every operation, each at its median) -----

    def op_time(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def kind_time(self, kind: str) -> float:
        return sum(self.op_time(k) for k, kd in self.kind.items() if kd == kind)

    def kind_work(self, kind: str, name: str) -> int:
        return sum(self.work.get(k, {}).get(name, 0) for k, kd in self.kind.items() if kd == kind)

    def total_work(self, name: str) -> int:
        return sum(w.get(name, 0) for w in self.work.values())

    def executed_work(self, name: str) -> int:
        """Work summed over every execution, where ``total_work`` counts each operation once."""
        return sum(w.get(name, 0) * len(self.samples[k]) for k, w in self.work.items())

    def wall(self) -> float:
        return sum(self.op_time(k) for k in self.samples)


def need(st: dict, *keys):
    if any(k not in st for k in keys):
        raise Skip
    return [st[k] for k in keys]


def _max_diff(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _rules(doc: dict | None) -> dict | None:
    return None if doc is None else doc["rules"]


# -- solve leg ---------------------------------------------------------------


def _vi(g, r: Recorder):
    g.st.clear()
    v, tr = r.timed("vi", f"vi:{g.name}", sspg.value_iteration, g.m, tol=SOLVE_TOL)
    r.observe(f"iterations:vi:{g.name}", len(tr.rows))
    r.add(f"vi:{g.name}", "vi_iterations", len(tr.rows))
    r.check(tr.outcome == sspg.CONVERGED, f"{g.name}: VI {tr.outcome}")
    g.st["v"] = v


def _qvi(g, r: Recorder):
    q, tr = r.timed("qvi", f"qvi:{g.name}", sspg.q_value_iteration, g.m, tol=SOLVE_TOL)
    r.observe(f"iterations:qvi:{g.name}", len(tr.rows))
    r.add(f"qvi:{g.name}", "qvi_iterations", len(tr.rows))
    r.check(tr.outcome == sspg.CONVERGED, f"{g.name}: QVI {tr.outcome}")
    g.st["q"] = q
    g.st["vq"] = r.timed("qvi", f"values_from_q:{g.name}", sspg.values_from_q, g.m, q)


def _pi(g, r: Recorder, player: int):
    start = g.start1 if player == sspg.PLAYER_MIN else g.start2
    x, _, tr = r.timed("pi", f"pi{player}:{g.name}", sspg.policy_iteration, g.m, player, start, tol=SOLVE_TOL)
    r.observe(f"iterations:pi{player}:{g.name}", len(tr.rows))
    r.add(f"pi{player}:{g.name}", "pi_outer_iterations", len(tr.rows))
    r.check(tr.outcome == sspg.CONVERGED, f"{g.name}: PI player {player} {tr.outcome}")
    g.st[f"x{player}"] = x
    if player == sspg.PLAYER_MAX:
        v, vq, x1 = need(g.st, "v", "vq", "x1")
        worst = max(_max_diff(v, vq), _max_diff(v, x1), _max_diff(v, x))
        r.check(worst <= AGREE_TOL, f"{g.name}: VI/QVI/PI disagree by {worst:.2e}")


def _refine(g, r: Recorder):
    (v,) = need(g.st, "v")
    xr, accepted = r.timed("refine", f"refine:{g.name}", sspg.refine_fixed_point, g.m, v)
    r.observe(f"refined:{g.name}", bool(accepted))
    if g.pinned_refined is not None:
        r.check(accepted == g.pinned_refined, f"{g.name}: refine {'accepted' if accepted else 'declined'}, "
                                              "unlike the recorded run")
    # declining is allowed: the VI residual at 1e-8 can leave the polished point just outside 1e-9
    if accepted:
        r.check(_max_diff(xr, v) <= AGREE_TOL, f"{g.name}: refined values moved by {_max_diff(xr, v):.2e}")
    else:
        r.check(np.array_equal(xr, v), f"{g.name}: refine declined but changed the values")


def _greedy(g, r: Recorder):
    (q,) = need(g.st, "q")
    g.st["pair"] = r.timed("greedy", f"greedy:{g.name}", sspg.greedy_policies, g.m, q)


def _evaluate_pair(g, r: Recorder):
    (pair,) = need(g.st, "pair")
    ev = r.timed("evaluate_pair", f"evaluate_pair:{g.name}", sspg.evaluate_pair, g.m, *pair)
    r.check(not ev.prolonging and np.isfinite(ev.values).all(), f"{g.name}: greedy pair prolonging or infinite")


def solve_steps(inp: Inputs, pinned_refined: dict | None) -> list:
    steps = []
    for name in inp.solve:
        m = inp.games[name]
        g = SimpleNamespace(
            name=name, m=m, st={}, pinned_refined=None if pinned_refined is None else pinned_refined.get(name),
            start1=sspg.uniform_policy(m, sspg.PLAYER_MIN), start2=sspg.uniform_policy(m, sspg.PLAYER_MAX),
        )
        steps += [partial(_vi, g), partial(_qvi, g), partial(_pi, g, player=sspg.PLAYER_MIN),
                  partial(_pi, g, player=sspg.PLAYER_MAX), partial(_refine, g),
                  partial(_greedy, g), partial(_evaluate_pair, g)]
    return steps


# -- verify leg --------------------------------------------------------------


def _analyze(g, r: Recorder):
    key = f"analyze:{g.name}"
    rep = r.timed("analyze", key, sspg.check_ssp_game_assumption, g.m)
    r.add(key, "pairs", pure_pairs(g.m))
    doc = rep.to_json(g.m)
    prolong = doc["clauses"]["prolonging_pairs"]
    verdict = [doc["overall"], _rules(prolong.get("witness_mu")), _rules(prolong.get("witness_nu"))]
    r.observe(f"verdict:{g.name}", verdict)
    if g.bundled is not None:
        r.check(doc["overall"] == g.bundled["overall"], f"{g.name}: verdict {doc['overall']}")
        if "witness_mu" in g.bundled:
            r.check(verdict[1:] == [g.bundled["witness_mu"], g.bundled["witness_nu"]],
                    f"{g.name}: prolonging witness differs from the acceptance suite")
    elif g.must_hold:
        r.check(doc["overall"] == "holds", f"{g.name}: verdict {doc['overall']}")
    if g.pinned is not None:
        r.check(verdict == g.pinned, f"{g.name}: verdict differs from the recorded one")
    if prolong["status"] == "violated":
        w = rep.clause_prolonging
        gains = [x for _, x in sspg.recurrent_class_gains(sspg.induce_chain(g.m, w.witness_mu, w.witness_nu))]
        r.check(any(abs(x) <= 1e-9 for x in gains), f"{g.name}: witness has no zero-gain class")


def _proper(g, r: Recorder, player: int):
    pol = sspg.uniform_policy(g.m, player)
    rep = r.timed("verify_extra", f"proper{player}:{g.name}", sspg.is_essentially_proper, g.m, pol)
    r.check(rep.verdict == "yes", f"{g.name}: uniform policy of player {player} essentially proper: {rep.verdict}")


def _certificate(g, r: Recorder):
    nu = sspg.uniform_policy(g.m, sspg.PLAYER_MAX)
    cert = r.timed("verify_extra", f"certificate:{g.name}", sspg.build_contraction_certificate, g.m, nu)
    r.check(0.0 <= cert.beta < 1.0, f"{g.name}: certificate modulus {cert.beta}")


def _sspa(g, r: Recorder):
    nu = sspg.uniform_policy(g.m, sspg.PLAYER_MAX)
    sspa = r.timed("verify_extra", f"build_sspa:{g.name}", sspg.build_sspa, g.m, nu)
    verdict = r.timed("verify_extra", f"sspa_check:{g.name}", sspg.check_single_player_ssp, sspa)
    r.check(verdict.status == "holds", f"{g.name}: SSP(A) {verdict.status}")


def verify_steps(inp: Inputs, expected: dict, pinned: dict | None) -> list:
    steps = []
    for name, proper_checks in inp.verify:
        g = SimpleNamespace(
            name=name, m=inp.games[name], bundled=expected["bundled"].get(name),
            # contraction and sequential games satisfy every clause by construction
            must_hold=name != "loopy",
            pinned=None if pinned is None else pinned.get(name),
        )
        steps.append(partial(_analyze, g))
        if proper_checks:
            steps += [partial(_proper, g, player=sspg.PLAYER_MIN), partial(_proper, g, player=sspg.PLAYER_MAX),
                      partial(_certificate, g), partial(_sspa, g)]
    return steps


# -- cli leg -----------------------------------------------------------------


def _cli(c, r: Recorder):
    proc = r.timed("cli", f"cli-{c.cmd}:{c.name}", subprocess.run,
                   [sys.executable, "-m", "sspg.cli", c.cmd, "--model", str(c.path)],
                   cwd=c.root, env=c.env, capture_output=True, text=True, timeout=120)
    r.check(proc.returncode == 0, f"{c.name} {c.cmd}: exit code {proc.returncode}: {proc.stderr[-300:]}")
    try:
        doc = json.loads(proc.stdout)
        if c.cmd == "solve-vi":
            values = np.array([doc["values"][s] for s in c.m.states])
            diff = _max_diff(values, c.values)
            r.check(doc["outcome"] == sspg.CONVERGED and diff <= AGREE_TOL,
                    f"{c.name} solve-vi: {doc['outcome']}, off by {diff:.2e}")
        else:
            r.check(doc == c.report, f"{c.name} analyze: JSON differs from the library report")
    except (json.JSONDecodeError, KeyError) as e:
        r.fail(f"{c.name} {c.cmd}: unreadable output: {e}")


def cli_steps(inp: Inputs, env: dict, root: Path) -> list:
    return [
        partial(_cli, SimpleNamespace(name=name, path=path, cmd=cmd, m=inp.games[name], env=env, root=root,
                                      values=inp.cli_values[name], report=inp.cli_reports[name]))
        for name, path in inp.cli
        for cmd in ("solve-vi", "analyze")
    ]


# -- qlearn leg --------------------------------------------------------------


def _qlearn(q, r: Recorder):
    q.st.clear()
    s = q.spec
    key = f"qlearn:{s.label}"
    qt, run = r.timed("qlearn", key, sspg.run_qlearning, q.m, q.cfg)
    events = int(run.counts.sum())
    r.add(key, "events", events)
    r.add(key, "iterations", s.iters)
    r.runs.append((s.config, events, s.iters, q.m.n_triplets))
    if s.record:
        r.event_log_bytes += sum(getattr(run.events, f.name).nbytes for f in dataclasses.fields(run.events))
        q.st["run"] = run
    digest = run.digest()
    r.observe(f"digest:{s.label}", digest)
    if q.digest is not None and digest != q.digest:
        r.fail(f"{s.label}: digest {digest[:12]} differs from the recorded one")
    r.check(np.isfinite(qt).all(), f"{s.label}: non-finite Q")


def _couple(q, r: Recorder):
    (run,) = need(q.st, "run")
    key = f"couple:{q.spec.label}"
    rep = r.timed("couple", key, sspg.run_coupled_lower_process, q.m, q.nu, run)
    r.add(key, "couple_events", len(run.events))
    r.add(key, "couple_violations", len(rep.violations))
    r.check(rep.ok, f"{q.spec.label}: {len(rep.violations)} coupling violations")


def _noise(q, r: Recorder):
    (run,) = need(q.st, "run")
    seg = run if q.segment is None else truncate(run, q.segment)
    key = f"noise:{q.spec.label}"
    w = r.timed("noise", key, sspg.noise_decomposition, seg, q.m)  # raises on a replay mismatch
    r.add(key, "noise_events", len(seg.events))
    r.check(np.isfinite(w).all(), f"{q.spec.label}: non-finite noise")


def _trackers(q, r: Recorder):
    (run,) = need(q.st, "run")
    key = f"trackers:{q.spec.label}"
    tr = r.timed("trackers", key, sspg.run_trackers, q.m, run)
    r.add(key, "trackers_events", len(run.events))
    r.check(np.isfinite(tr.q_hat).all() and np.isfinite(tr.g_tilde).all(), f"{q.spec.label}: non-finite trackers")


def qlearn_steps(inp: Inputs, digests: dict | None) -> list:
    steps = []
    for s in inp.runs:
        m = inp.games[s.game]
        cfg = sspg.QLearnConfig(
            seed=s.seed, max_iters=s.iters, stepsize=STEPSIZE, scheduler=s.scheduler,
            delay_model=s.delay, record_full_history=s.record, metric_interval=s.metric_interval,
            reference_q=inp.reference_q.get(s.game) if s.reference else None,
        )
        q = SimpleNamespace(spec=s, m=m, cfg=cfg, st={}, nu=sspg.uniform_policy(m, sspg.PLAYER_MAX),
                            segment=inp.noise_segment, digest=None if digests is None else digests.get(s.label))
        steps.append(partial(_qlearn, q))
        if s.record:
            steps += [partial(_couple, q), partial(_noise, q), partial(_trackers, q)]
    return steps


def legs(inp: Inputs, env: dict, root: Path, expected: dict, pins: dict | None) -> list[list]:
    """The four legs as lists of steps; ``pins`` holds the recorded outputs, if any."""
    named = {
        "solve": solve_steps(inp, None if pins is None else pins["refined"]),
        "verify": verify_steps(inp, expected, None if pins is None else pins["verdicts"]),
        "cli": cli_steps(inp, env, root),
        "qlearn": qlearn_steps(inp, None if pins is None else pins["digests"]),
    }
    return [steps * inp.repeats.get(name, 1) for name, steps in named.items()]


def run_step(step, r: Recorder) -> None:
    try:
        step(r)
    except (OpFailed, Skip):
        pass


def run_cycle(all_legs: list[list], r: Recorder) -> None:
    """Every step once, leg after leg."""
    for leg in all_legs:
        for step in leg:
            run_step(step, r)


def run_interleaved(all_legs: list[list], r: Recorder, seconds: float) -> int:
    """Run the legs' steps in turn, keeping every leg at the same share of its cycle.

    The run ends once ``seconds`` have passed and every leg has completed a
    cycle.  Keeping the legs in step spreads each operation's executions over
    the whole run, so a slow spell of the machine touches every metric alike
    instead of one.  Returns the number of steps executed.
    """
    legs_ = [leg for leg in all_legs if leg]
    done = [0] * len(legs_)
    start = time.perf_counter()
    while True:
        k = min(range(len(legs_)), key=lambda i: done[i] / len(legs_[i]))
        run_step(legs_[k][done[k] % len(legs_[k])], r)
        done[k] += 1
        if time.perf_counter() - start >= seconds and all(d >= len(leg) for d, leg in zip(done, legs_)):
            return sum(done)


def support_scan_len(inp: Inputs) -> float:
    """Expected positions scanned per successor draw, averaged over the sampled triplets.

    Computed from the transition rows, not measured: sampling scans a row's
    support in successor order, so a draw that lands on the k-th entry
    (probability ``p_k``) scans ``k`` entries.
    """
    lens = []
    for g in sorted({r.game for r in inp.runs}):
        for row in inp.games[g].P:
            p = row[row > 0]
            lens.append(float((p * np.arange(1, len(p) + 1)).sum()))
    return float(np.mean(lens))


def env_for_children(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SSPG_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    return env
