"""Run one sspg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of an untraced run, with ``--trace 1`` the per-layer
metrics of a traced run.  A copy with the environment record, every
operation's times and the timing tails goes to ``.perfbench_out/``.  See
``perfbench/README.md``.
"""

import os

# one BLAS / OpenMP thread in this process and in every CLI process it starts;
# must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SSPG_SEED", None)  # the library lets it override every seed

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
TRACED_CYCLES = 2


def load_program():
    """Import sspg from this checkout's ``src/``, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "sspg" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/sspg", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import sspg

    if Path(sspg.__file__).resolve().parent != (src / "sspg").resolve():
        print(f"perfbench: imported sspg from {sspg.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly, never from a parent directory."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def code_hash() -> str:
    """Digest of the program and benchmark sources: "the same code" for the determinism gate."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "sspg").rglob("*.py")) + sorted((ROOT / "src" / "sspg" / "data").glob("*.json"))
    files += sorted(HERE.glob("*.py")) + [HERE / "expected.json"]
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def timing(samples) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else 0.0, "n": n}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out["tail_pct"] = pct
            out["tail"] = xs[min(n - 1, int(round(pct / 100.0 * n)))]
            break
    return out


def against_earlier_runs(path: Path, values: dict, rec) -> None:
    """Check this run's exact outcomes against earlier runs of the same code and seed, then merge them in."""
    values = json.loads(json.dumps(values))  # as they read back from the file
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    rec.compare("in an earlier run of the same code and seed", earlier, values)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **values}, sort_keys=True))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(rec, setup_times) -> dict:
    """End-to-end metrics of an untraced run: each operation counts once, at its median time."""

    def rate(kind, work):
        t = rec.kind_time(kind)
        return rec.kind_work(kind, work) / t if t else 0.0

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": rec.wall(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vi_s": rec.kind_time("vi"),
        "qvi_s": rec.kind_time("qvi"),
        "pi_s": rec.kind_time("pi"),
        "analyze_pairs_per_s": rate("analyze", "pairs"),
        "cli_s": rec.kind_time("cli"),
        "qlearn_events_per_s": rate("qlearn", "events"),
        "couple_events_per_s": rate("couple", "couple_events"),
        "noise_events_per_s": rate("noise", "noise_events"),
        "trackers_events_per_s": rate("trackers", "trackers_events"),
    }


def _calls(aggs, name):
    return aggs.get(name, (0, 0))[0]


TRACE_COUNTS = {
    # per-cycle counts read from the tracer; all must repeat exactly
    "matgame.lp_calls": lambda v, a: len(v.indices("matgame.solve_matrix_game")),
    "matgame.closed_form_calls": lambda v, a: _calls(a, "matgame.value_2x2")
    + _calls(a, "matgame.flat_game_value[pure]"),
    "operators.bellman_calls": lambda v, a: len(v.indices("operators.bellman")),
    "operators.q_bellman_calls": lambda v, a: len(v.indices("operators.q_bellman")),
    "solve.best_response_calls": lambda v, a: len(v.indices("solve.evaluate_vs_best_response")),
    "structure.classify_chain_calls": lambda v, a: len(v.indices("structure.classify_chain")),
    # pairs the enumeration classified, not the input's pair count: pruning lowers it
    "structure.pairs_enumerated": lambda v, a: sum(
        len(v.children(k, "structure.classify_chain")) for k in v.indices("structure.check_ssp_game_assumption")),
    "model.hash_draws": lambda v, a: _calls(a, "model.counter_hash"),
    "qlearn.snapshot_calls": lambda v, a: sum(
        len(v.children(k, "operators.q_bellman")) for k in v.indices("qlearn.run_qlearning")),
}


def layer_metrics(traced, setup_views, inp, untraced_wall, cli_main, import_s) -> dict:
    """Per-layer metrics; ``traced`` holds (Recorder, SpanView, aggregates, prolonging) per cycle."""
    from workloads import support_scan_len

    ms, us = 1e-6, 1e-3
    pooled: dict[str, list[float]] = {}
    per_cycle: dict[str, list[float]] = {}

    def pool(name, values, scale):
        pooled.setdefault(name, []).extend(x * scale for x in values)

    def per_unit(v, span, rec, work):
        return sum(v.durations(span)) * us / max(rec.executed_work(work), 1)

    for rec, v, aggs, prolonging in traced:
        counts = {name: fn(v, aggs) for name, fn in TRACE_COUNTS.items()}
        lp = v.durations("matgame.solve_matrix_game")
        pure, two = v.durations("matgame.solve_matrix_game[pure]"), v.durations("matgame.solve_matrix_game[2x2]")
        pool("matgame.lp_us.pure", pure, us)
        pool("matgame.lp_us.2x2", two, us)
        pool("matgame.lp_us.gt2x2", v.durations("matgame.solve_matrix_game[gt2x2]"), us)
        bell = v.indices("operators.bellman")
        pool("operators.bellman_ms", [v.dur[k] for k in bell], ms)
        pool("operators.bellman_self_ms", [v.dur[k] - v.lp_sub[k] for k in bell], ms)
        pool("operators.q_bellman_ms", v.durations("operators.q_bellman"), ms)
        pool("operators.greedy_ms", v.durations("operators.greedy_policies"), ms)
        pool("solve.best_response_ms", v.durations("solve.evaluate_vs_best_response"), ms)
        pool("solve.refine_ms", v.durations("solve.refine_fixed_point"), ms)
        pool("solve.evaluate_pair_ms", v.durations("solve.evaluate_pair"), ms)
        pool("structure.classify_chain_us", v.durations("structure.classify_chain"), us)
        pool("structure.induce_chain_us", v.durations("structure.induce_chain"), us)
        pool("structure.termination_fixpoint_us",
             v.durations("structure.forall_termination") + v.durations("structure.exists_termination")
             + v.durations("structure.reach_probability_one"), us)
        pool("diagnostics.certificate_ms", v.durations("diagnostics.build_contraction_certificate"), ms)
        # engine time per event, run by run, without the metric snapshots
        snap_total = run_total = 0
        for k, (config, events, _, _) in zip(v.indices("qlearn.run_qlearning"), rec.runs):
            snap = sum(v.dur[c] for c in v.children(k, "operators.q_bellman"))
            snap_total += snap
            run_total += v.dur[k]
            pool(f"qlearn.engine_us_per_event.{config}", [(v.dur[k] - snap) / max(events, 1)], us)
        hash_calls, hash_ns = aggs.get("model.counter_hash", (0, 0))
        counts.update({
            "matgame.lp_busy_s": sum(lp) * 1e-9,
            "matgame.lp_le2x2_share": (len(pure) + len(two)) / len(lp) if lp else 0.0,
            "structure.prolonging_share": prolonging / max(counts["structure.classify_chain_calls"], 1),
            "structure.analyze_us_per_pair": per_unit(v, "structure.check_ssp_game_assumption", rec, "pairs"),
            "qlearn.snapshot_share": snap_total / run_total if run_total else 0.0,
            "qlearn.noise_us_per_event": per_unit(v, "qlearn.noise_decomposition", rec, "noise_events"),
            "model.hash_us": hash_ns * us / max(hash_calls, 1),
            "diagnostics.couple_us_per_event": per_unit(v, "diagnostics.run_coupled_lower_process", rec,
                                                        "couple_events"),
            "diagnostics.trackers_us_per_event": per_unit(v, "diagnostics.run_trackers", rec, "trackers_events"),
            "solve.vi_iterations": rec.total_work("vi_iterations"),
            "solve.qvi_iterations": rec.total_work("qvi_iterations"),
            "solve.pi_outer_iterations": rec.total_work("pi_outer_iterations"),
            "qlearn.events": rec.total_work("events"),
            "qlearn.iterations": rec.total_work("iterations"),
            "qlearn.event_log_bytes": rec.event_log_bytes,
            "diagnostics.couple_violations": rec.total_work("couple_violations"),
            # computed: every iteration copies the table's |R| list pointers into the ring
            "qlearn.ring_bytes_per_event": 8.0 * sum(it * nr for _, _, it, nr in rec.runs)
            / max(sum(ev for _, ev, _, _ in rec.runs), 1),
        })
        for name, value in counts.items():
            per_cycle.setdefault(name, []).append(value)

    per_cycle["model.build_s"] = [sum(v.durations("model.GameModel")) * 1e-9 for v in setup_views]
    per_cycle["generate.model_s"] = [sum(v.durations("generate.generate_model")) * 1e-9 for v in setup_views]
    per_cycle["model.support_scan_len"] = [support_scan_len(inp)]
    per_cycle["cli.import_s"] = import_s
    # both sides at the reference speed, so a slow spell of the machine does not read as overhead
    per_cycle["trace.overhead_frac"] = [statistics.median(rec.wall() for rec, *_ in traced) / untraced_wall - 1.0]
    for sub, samples in cli_main.items():
        pooled[f"cli.main_ms.{sub}"] = samples

    details = {name: timing(xs) for name, xs in pooled.items()}
    details.update({name: {"median": statistics.median(xs), "n": len(xs), "per_cycle": xs}
                    for name, xs in per_cycle.items()})
    for name in ("qlearn.ring_bytes_per_event", "model.support_scan_len"):
        details[name]["computed"] = True
    return details


def self_time_by_span(view) -> dict:
    """Seconds of self time (duration minus child spans) per span name in one traced cycle."""
    out: dict[str, float] = {}
    for k, ns in enumerate(view.self_ns):
        name = view.t.names[view.t.s_name[view.lo + k]]
        out[name] = out.get(name, 0.0) + ns * 1e-9
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def metric_units(kind: str) -> dict:
    """Units of the ``end_to_end`` or ``per_layer`` metrics, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def traced_run(wl, tracer, all_legs, inp, env):
    """One untraced cycle, then traced cycles and traced in-process CLI calls."""
    import contextlib
    import io

    import sspg.cli
    from tracer import SpanView

    cycles = [wl.Recorder()]
    wl.run_cycle(all_legs, cycles[0])
    untraced_wall = cycles[0].wall()
    traced, cli_main = [], {}
    tracer.install()
    try:
        for _ in range(TRACED_CYCLES):
            lo, aggs, prolonging = tracer.mark()
            rec = wl.Recorder()
            wl.run_cycle(all_legs, rec)
            hi, aggs2, prolonging2 = tracer.mark()
            diff = {k: (c - aggs.get(k, (0, 0))[0], t - aggs.get(k, (0, 0))[1]) for k, (c, t) in aggs2.items()}
            traced.append((rec, SpanView(tracer, lo, hi), diff, prolonging2 - prolonging))
            cycles.append(rec)
        for _, path in inp.cli:
            for cmd in ("solve-vi", "analyze"):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    sspg.cli.main([cmd, "--model", str(path)])
                    cli_main.setdefault(cmd, []).append((time.perf_counter() - t0) * 1e3)
    finally:
        tracer.restore()
    probe = "import time; t = time.perf_counter(); import sspg; print(time.perf_counter() - t)"
    import_s = [float(subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True,
                                     text=True, timeout=120, check=True).stdout) for _ in range(3)]
    return cycles, traced, untraced_wall, cli_main, import_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="write this run's digests and verdicts into expected.json (default seed only)")
    args = ap.parse_args(argv)

    load_program()
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"work-{args.workload}-", dir=OUT) as workdir:
        return measure(args, wl, Path(workdir))


def measure(args, wl, workdir: Path) -> int:
    """Set up, run the workload (traced or not), check, and print the result line."""
    from tracer import SpanView, Tracer

    expected = json.loads((HERE / "expected.json").read_text())
    pins = None
    if args.seed == expected["default_seed"] and not args.record_expected:
        pins = expected["workloads"][args.workload]
    env = wl.env_for_children(ROOT)
    tracer = Tracer() if args.trace else None

    # set-up, several times; the last one's inputs are used
    setup_times, setup_raw, setup_views = [], [], []
    if tracer:
        tracer.install()
    try:
        for _ in range(SETUP_REPS):
            mark = len(tracer.s_name) if tracer else 0
            loop_before = wl.calibration_loop()
            t0 = time.perf_counter()
            inp = wl.build_inputs(args.workload, args.seed, ROOT, workdir, expected)
            wl.warm_up(inp, env, ROOT)
            elapsed = time.perf_counter() - t0
            setup_raw.append(elapsed)
            setup_times.append(wl.at_reference_speed(elapsed, loop_before, wl.calibration_loop()))
            if tracer:
                setup_views.append(SpanView(tracer, mark, len(tracer.s_name)))
    finally:
        if tracer:
            tracer.restore()
    all_legs = wl.legs(inp, env, ROOT, expected, pins)

    if tracer:
        cycles, traced, untraced_wall, cli_main, import_s = traced_run(wl, tracer, all_legs, inp, env)
        for rec in cycles[1:]:
            cycles[0].compare("in the untraced cycle", cycles[0].observed, rec.observed)
        counts = [{name: fn(v, a) for name, fn in TRACE_COUNTS.items()} for _, v, a, _ in traced]
        for c in counts[1:]:
            cycles[0].compare("in the first traced cycle", counts[0], c)
        signature = {**cycles[0].observed, **{f"trace:{k}": v for k, v in counts[0].items()}}
    else:
        cycles = [wl.Recorder()]
        steps = wl.run_interleaved(all_legs, cycles[0], args.seconds)
        signature = cycles[0].observed
    against_earlier_runs(OUT / "determinism" / f"{args.workload}-seed{args.seed}-{code_hash()}.json",
                         signature, cycles[0])

    attempted = sum(r.attempted for r in cycles)
    failures = [f for r in cycles for f in r.failures]
    failed = sum(r.failed for r in cycles)

    if args.record_expected:
        if failed or args.seed != expected["default_seed"]:
            print("perfbench: not recording: failures or not the default seed", file=sys.stderr)
            return 1
        obs = cycles[0].observed
        expected["workloads"][args.workload] = {
            "digests": {k[7:]: v for k, v in sorted(obs.items()) if k.startswith("digest:")},
            "verdicts": {k[8:]: v for k, v in sorted(obs.items())
                         if k.startswith("verdict:") and k[8:] not in expected["bundled"]},
            "refined": {k[8:]: v for k, v in sorted(obs.items()) if k.startswith("refined:")},
        }
        (HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")

    env_record = environment()
    if tracer:
        details = layer_metrics(traced, setup_views, inp, untraced_wall, cli_main, import_s)
        units = metric_units("per_layer")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        self_times = self_time_by_span(traced[0][1])
        shape = f"cycles: 1 untraced, {TRACED_CYCLES} traced"
    else:
        self_times = {}
        details = {k: {"median": v} for k, v in end_to_end(cycles[0], setup_times).items()}
        units = metric_units("end_to_end")
        counts = [len(xs) for xs in cycles[0].samples.values()]
        shape = f"steps={steps} executions per operation={min(counts)}-{max(counts)}"
    metrics = {name: {"value": d["median"], "unit": units.get(name, "")} for name, d in sorted(details.items())}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_record, "code_hash": code_hash(),
        "setup_s": setup_times, "setup_raw_s": setup_raw,
        "operations": {k: {"kind": cycles[0].kind[k], "samples_s": xs, "raw_s": cycles[0].raw[k],
                           "work": cycles[0].work.get(k, {})} for k, xs in cycles[0].samples.items()},
        "details": details, "self_time_s": self_times, "failures": failures[:200],
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} set-ups={len(setup_times)} {shape}")
    print("environment: " + json.dumps(env_record))
    for name, m in metrics.items():
        d = details[name]
        tail = f"  p{d['tail_pct']:g}={d['tail']:.6g}" if "tail" in d else ""
        n = f"  n={d['n']}" if "n" in d else ""
        computed = "  (computed)" if d.get("computed") else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{tail}{n}{computed}")
    for name, sec in list(self_times.items())[:12]:
        print(f"  self time, first traced cycle: {name:<40} {sec:10.4f} s")
    print(f"  {'fail_rate':<48} {failed / attempted:>14.6g} failed/attempted ({failed}/{attempted})")
    for f in failures[:20]:
        print("  FAILED: " + f)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
