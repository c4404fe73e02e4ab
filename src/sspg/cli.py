"""Command-line front end.

Subcommands: validate, matgame, solve-vi, solve-qvi, solve-pi,
evaluate-pair, analyze, sspa-build, certificate, qlearn, couple, gen.
Primary output is JSON on stdout (or ``--out``); ``--csv`` writes
plot-ready trace files.  Each subcommand is registered once, with its
handler; a handler returns its document (or None) and exit code, and
:func:`main` writes the document, the one place primary output leaves.
Exit codes: 0 success, 1 usage error, 2 validation failure, 3 solver
non-convergence, 4 assumption-check violation under ``--strict``.

Every subcommand registers only the flags it reads, and is deterministic
given its flags and seed.  Each ``--config`` key sets the flag it names, so a
run is built from its flags alone.  The environment variable ``SSPG_SEED``,
read only here, then overrides the seed when set.  What counts as a number
or an integer in any input is decided in :mod:`sspg.model`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import diagnostics, generate, qlearn, solve, structure
from .matgame import solve_matrix_game
from .operators import values_from_q
from .model import (
    GameModel,
    ModelFormatError,
    ModelValidationError,
    PolicyMismatchError,
    StationaryPolicy,
    ValidationReport,
    load_model,
    policy_from_json,
    save_model,
    uniform_policy,
    _real,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ASSUMPTION = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_model(path: str) -> GameModel:
    with open(path) as f:
        return load_model(f.read())


def _read_policy(m: GameModel, path: str) -> StationaryPolicy:
    with open(path) as f:
        return policy_from_json(m, json.load(f))


def _emit(doc, args) -> None:
    """Primary output, a JSON document or text, to ``--out`` or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _number(x) -> float | None:
    return float(x) if math.isfinite(x) else None  # JSON has no NaN or Infinity


def _values_doc(m: GameModel, values) -> dict:
    return {s: _number(v) for s, v in zip(m.states, values)}


def _q_doc(m: GameModel, q) -> list:
    return [
        {"i": i, "u": u, "v": v, "q": _number(x)} for (i, u, v), x in zip(m.triplets, q)
    ]


# --delay's default: no delays, told apart from any --delay given, 0 too, or --config "delay" null
_NO_DELAY = object()
# the flags several subcommands share, by name; each subcommand lists the ones it reads
_FLAGS = {
    "model": dict(required=True, help="game file (JSON)"),
    "seed": dict(type=int, default=0),
    "tol": dict(type=float, default=1e-8),
    "max-iters": dict(type=int, default=100_000),
    "out": dict(help="write primary JSON output here instead of stdout"),
    "csv": dict(help="write trace CSV here"),
    "nu": dict(help="player-II policy JSON (default: uniform)"),
    "iters": dict(type=int, default=10_000),
    "stepsize": dict(default="1,1,0.75", help="a,b,p"),
    "scheduler": dict(default="uniform-random:1"),
    "delay": dict(type=int, default=_NO_DELAY, help="uniform delay bound D (default 0: no delays)"),
    "delay-schedule": dict(help="CSV of fixed delay offsets, one per line"),
    "config": dict(help="JSON config file; each key sets the flag it names"),
}
_SOLVE = ("model", "tol", "out", "csv")
_QLEARN = ("model", "seed", "out", "csv", "iters", "stepsize", "scheduler", "delay", "delay-schedule", "config")
# each --config key and the flag it sets; a subcommand reads the keys whose flags it has
_CONFIG_FLAGS = {"seed": "seed", "max_iters": "iters", "stepsize": "stepsize", "scheduler": "scheduler",
                 "delay": "delay", "record_full_history": "record"}


def _command(sub, name: str, handler, help_text: str, *flags: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(handler=handler)
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    return p


def build_parser() -> _Parser:
    top = _Parser(prog="sspg", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    _command(sub, "validate", _cmd_validate, "check a game file against the model invariants", "model", "out")

    p = _command(sub, "matgame", _cmd_matgame, "solve a zero-sum matrix game", "out")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="inline JSON matrix, e.g. [[1,-1],[-1,1]]")
    group.add_argument("--file", help="JSON file holding the matrix")

    for name, handler, help_text in (
        ("solve-vi", _cmd_solve_vi, "value iteration on state values (with fixed-point refinement)"),
        ("solve-qvi", _cmd_solve_qvi, "value iteration on the Q-table"),
    ):
        _command(sub, name, handler, help_text, *_SOLVE, "max-iters")

    p = _command(sub, "solve-pi", _cmd_solve_pi, "policy iteration for one player", *_SOLVE)
    p.add_argument("--player", choices=["I", "II"], default="I")
    p.add_argument("--start", help="start policy JSON (default: uniform)")
    p.add_argument("--max-outer", type=int, default=50)

    p = _command(sub, "evaluate-pair", _cmd_evaluate_pair, "classify the chain of a policy pair", "model", "out")
    p.add_argument("--mu", required=True, help="player-I policy JSON")
    p.add_argument("--nu", required=True, help="player-II policy JSON")

    p = _command(sub, "analyze", _cmd_analyze, "check the structural game assumptions", "model", "out")
    p.add_argument("--strict", action="store_true", help="exit 4 when the assumption is violated")

    _command(sub, "sspa-build", _cmd_sspa_build, "induced single-player problem for a fixed player-II policy",
             "model", "out", "nu")
    _command(sub, "certificate", _cmd_certificate, "weighted sup-norm contraction certificate",
             "model", "out", "nu")

    p = _command(sub, "qlearn", _cmd_qlearn, "run asynchronous Q-learning", *_QLEARN)
    p.add_argument("--ref", help="reference Q* file (JSON list as emitted by solve-qvi)")
    p.add_argument("--record", action="store_true", help="record full event history")

    _command(sub, "couple", _cmd_couple, "run Q-learning and replay its coupled lower process", *_QLEARN, "nu")

    p = _command(sub, "gen", _cmd_gen, "generate a random game", "seed", "out")
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--max-controls", type=int, default=2)
    p.add_argument("--family", choices=list(generate.FAMILIES), default="contraction")
    p.add_argument("--kappa", type=float, default=0.1, help="termination floor per triplet")
    p.add_argument("--cost-range", default="0,1", help="lo,hi")
    return top


def _apply_config(args) -> None:
    """Set the flag each ``--config`` key names; a key whose flag the subcommand lacks is refused."""
    with open(args.config) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("--config must hold a JSON object")
    keys = [key for key, flag in _CONFIG_FLAGS.items() if hasattr(args, flag)]
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"--config key {unknown[0]!r} is not one of {', '.join(keys)}")
    if "delay" in doc and args.delay_schedule:
        raise ValueError("--config key 'delay' and --delay-schedule both set the delays; give one")
    for key, value in doc.items():
        setattr(args, _CONFIG_FLAGS[key], value)


def _read_reference(m: GameModel, path: str) -> np.ndarray:
    """The ``--ref`` table: rows as ``solve-qvi`` prints them, each triplet once with a finite ``q``."""
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ModelFormatError("--ref must hold a list of triplet rows")
    ref = np.full(m.n_triplets, np.nan)
    for k, row in enumerate(rows):
        try:
            ell, q = m.triplet_index((row["i"], row["u"], row["v"])), _real(row["q"])
        except (KeyError, TypeError, ValueError):
            raise ModelFormatError(f'--ref row {k} needs a triplet "i", "u", "v" of the game and a number "q"') from None
        if not math.isfinite(q):
            raise ModelFormatError(f'--ref row {k}: "q" must be finite')
        if not math.isnan(ref[ell]):
            raise ModelFormatError(f"--ref row {k} repeats triplet {m.triplets[ell]}")
        ref[ell] = q
    if np.isnan(ref).any():
        raise ModelFormatError(f"--ref has no row for triplet {m.triplets[int(np.argmax(np.isnan(ref)))]}")
    return ref


def _read_delay_schedule(path: str) -> tuple[int, ...]:
    """The ``--delay-schedule`` offsets, one integer per line; blank lines are skipped."""
    offsets = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    offsets.append(int(line))
                except ValueError:
                    raise ValueError(f"--delay-schedule line {n} needs an integer, got {line.strip()!r}") from None
    return tuple(offsets)


def _qlearn_config(args, m: GameModel) -> qlearn.QLearnConfig:
    stepsize = args.stepsize
    try:
        a, b, p = (float(x) for x in stepsize.split(",")) if isinstance(stepsize, str) else map(_real, stepsize)
    except (TypeError, ValueError):
        raise ValueError(f"stepsize needs three comma-separated numbers a,b,p, got {stepsize!r}") from None
    if args.delay_schedule:
        if args.delay is not _NO_DELAY:
            raise ValueError("--delay and --delay-schedule both set the delays; give one")
        delay = ("fixed", _read_delay_schedule(args.delay_schedule))
    elif args.delay is _NO_DELAY:
        delay = "zero"
    else:
        delay = ("uniform", args.delay)  # QLearnConfig refuses a negative or non-integer bound
    reference = _read_reference(m, args.ref) if getattr(args, "ref", None) else None
    record = getattr(args, "record", True)  # couple always records
    if args.csv and not record:
        raise ValueError("--csv needs the event history: pass --record or set record_full_history in --config")
    cfg = qlearn.QLearnConfig(  # checks the types of the --config values
        seed=args.seed, max_iters=args.iters, stepsize=(a, b, p), scheduler=args.scheduler,
        delay_model=delay, reference_q=reference, record_full_history=record,
    )
    # the CLI prints only the final metric row, the snapshot at the end
    return dataclasses.replace(cfg, metric_interval=max(1, cfg.max_iters))


def _solver_exit(trace) -> int:
    return EXIT_OK if trace.outcome == solve.CONVERGED else EXIT_NO_CONVERGENCE


def _cmd_validate(args) -> tuple[object, int]:
    try:
        _read_model(args.model)  # which validates
    except ModelValidationError as e:
        return e.report.to_json(), EXIT_INVALID
    return ValidationReport(()).to_json(), EXIT_OK


def _cmd_matgame(args) -> tuple[object, int]:
    if args.matrix:
        matrix = json.loads(args.matrix)
    else:
        with open(args.file) as f:
            matrix = json.load(f)
    try:
        matrix = [[_real(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError(f"matrix game needs a list of rows of numbers, got {matrix!r}") from None
    sol = solve_matrix_game(matrix)
    return {
        "value": sol.value,
        "row_strategy": [float(x) for x in sol.row_strategy],
        "col_strategy": [float(x) for x in sol.col_strategy],
    }, EXIT_OK


def _cmd_solve_vi(args) -> tuple[object, int]:
    m = _read_model(args.model)
    values, trace = solve.value_iteration(m, tol=args.tol, max_iter=args.max_iters)
    refined = False
    if trace.outcome == solve.CONVERGED:
        values, refined = solve.refine_fixed_point(m, values)
    if args.csv:
        trace.to_csv(args.csv)
    return {
        "values": _values_doc(m, values),
        "outcome": trace.outcome,
        "iterations": len(trace.rows),
        "final_residual": _number(trace.final_residual),
        "refined": refined,
    }, _solver_exit(trace)


def _cmd_solve_qvi(args) -> tuple[object, int]:
    m = _read_model(args.model)
    q, trace = solve.q_value_iteration(m, tol=args.tol, max_iter=args.max_iters)
    if args.csv:
        trace.to_csv(args.csv)
    return {
        "q": _q_doc(m, q),
        "values": _values_doc(m, values_from_q(m, q)),
        "outcome": trace.outcome,
        "iterations": len(trace.rows),
        "final_residual": _number(trace.final_residual),
    }, _solver_exit(trace)


def _cmd_solve_pi(args) -> tuple[object, int]:
    m = _read_model(args.model)
    player = 1 if args.player == "I" else 2
    start = _read_policy(m, args.start) if args.start else uniform_policy(m, player)
    values, policies, trace = solve.policy_iteration(
        m, player, start, tol=args.tol, max_outer=args.max_outer
    )
    if args.csv:
        trace.to_csv(args.csv)
    clause = structure.check_ssp_game_assumption(m).clause_prolonging if trace.outcome == solve.ITERATION_CAP else None
    if clause is not None and clause.status == "violated":  # the one clause with "violated" verdicts
        trace.note = (f"the game violates the SSP game assumption: {clause.note}; "
                      f"so player {args.player} may have no optimal stationary policy")
    return {
        "values": _values_doc(m, values),
        "outcome": trace.outcome,
        "outer_iterations": len(trace.rows),
        "final_residual": _number(trace.final_residual),
        "final_policy": policies[-1].to_json(m),
        "note": trace.note,
    }, _solver_exit(trace)


def _cmd_evaluate_pair(args) -> tuple[object, int]:
    m = _read_model(args.model)
    mu = _read_policy(m, args.mu)
    nu = _read_policy(m, args.nu)
    return solve.evaluate_pair(m, mu, nu).to_json(m), EXIT_OK


def _cmd_analyze(args) -> tuple[object, int]:
    m = _read_model(args.model)
    report = structure.check_ssp_game_assumption(m)
    if report.overall == "violated":
        print("assumption check: violated", file=sys.stderr)
        if args.strict:
            return report.to_json(m), EXIT_ASSUMPTION
    return report.to_json(m), EXIT_OK


def _cmd_sspa_build(args) -> tuple[object, int]:
    m = _read_model(args.model)
    nu = _read_policy(m, args.nu) if args.nu else uniform_policy(m, 2)
    return structure.build_sspa(m, nu).to_json(), EXIT_OK


def _cmd_certificate(args) -> tuple[object, int]:
    m = _read_model(args.model)
    nu = _read_policy(m, args.nu) if args.nu else uniform_policy(m, 2)
    try:
        cert = diagnostics.build_contraction_certificate(m, nu)
    except diagnostics.ImproperPolicyError as e:
        print(f"error: {e}", file=sys.stderr)
        return None, EXIT_INVALID
    return cert.to_json(m), EXIT_OK


def _cmd_qlearn(args) -> tuple[object, int]:
    m = _read_model(args.model)
    cfg = _qlearn_config(args, m)
    q, run = qlearn.run_qlearning(m, cfg)
    if args.csv:
        run.to_csv(args.csv, m)
    last = run.metrics[-1]
    return {
        "q": _q_doc(m, q),
        "iterations": cfg.max_iters,
        "events": int(run.counts.sum()),
        "max_abs_q": run.max_abs_q,
        "final_residual": last.residual,
        "final_sup_dist_to_ref": last.sup_dist_to_ref,
        "digest": run.digest(),
    }, EXIT_OK


def _cmd_couple(args) -> tuple[object, int]:
    m = _read_model(args.model)
    nu = _read_policy(m, args.nu) if args.nu else uniform_policy(m, 2)
    cfg = _qlearn_config(args, m)
    _, run = qlearn.run_qlearning(m, cfg)
    report = diagnostics.run_coupled_lower_process(m, nu, run)
    if args.csv:
        report.to_csv(args.csv, m)
    return {
        "events": len(run.events),
        "violations": len(report.violations),
        "min_margin": float(report.min_margin.min()) if m.n_triplets else 0.0,
        "coupled_final": _q_doc(m, report.qhat_final),
    }, EXIT_OK


def _cmd_gen(args) -> tuple[object, int]:
    try:
        lo, hi = (float(x) for x in args.cost_range.split(","))
    except ValueError:
        raise ValueError(f"cost-range needs two comma-separated numbers lo,hi, got {args.cost_range!r}") from None
    cfg = generate.GeneratorConfig(
        n_states=args.states,
        max_controls=args.max_controls,
        termination_floor=args.kappa,
        cost_range=(lo, hi),
        family=args.family,
        seed=args.seed,
    )
    return save_model(generate.generate_model(cfg)), EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # precedence: SSPG_SEED over the --config seed over --seed
        if getattr(args, "config", None):
            _apply_config(args)
        env = os.environ.get("SSPG_SEED")
        if env and hasattr(args, "seed"):
            args.seed = int(env)
        doc, code = args.handler(args)
        if doc is not None:
            _emit(doc, args)
        return code
    except (FileNotFoundError, ModelFormatError, ModelValidationError, PolicyMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
