"""Run the benchmark over workloads and seeds, summarise, and compare result files.

    python3 perfbench/suite.py run --runs 10 --out bench-a.json
    python3 perfbench/suite.py run --trace 1 --runs 1 --out layers.json
    python3 perfbench/suite.py compare bench-a.json bench-b.json

``run`` starts one ``perfbench/run.py`` process for every workload in
BENCHMARK.json and every seed 1..runs, for ``run_seconds`` each, one after
another, then prints, per workload and metric, the median, the quartiles and
the spread (interquartile range as a share of the median) with the run
count.  ``compare`` reads two such files and reports, per workload and
metric, the change of the median against the bound in BENCHMARK.json; it
refuses files that were not made with the same seeds, seconds, trace
setting and workloads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0,
            "runs": len(values), "values": values}


def cmd_run(args) -> int:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    out = {"trace": args.trace, "seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in names:
        results = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
                print(f"{w} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr)
        metrics = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = s
        out["workloads"][w] = {
            "runs": results,
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        print(f"\n{w}: {len(results)} runs, fail_rate {out['workloads'][w]['failed']}/"
              f"{out['workloads'][w]['attempted']}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else ("  steady" if s["spread"] <= bound / 3 else
                                             "  within bound" if s["spread"] <= bound else "  SPREAD > BOUND")
            print(f"  {name:<48} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f}{'' if bound is None else f' (bound {bound})'} {s['unit']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


def cmd_compare(args) -> int:
    bench = benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    made_with = ("trace", "seconds", "seeds")
    if ([base.get(k) for k in made_with] != [new.get(k) for k in made_with]
            or base["workloads"].keys() != new["workloads"].keys()):
        print("suite: the two files were not made with the same seeds, seconds, trace setting and workloads",
              file=sys.stderr)
        return 2
    worst = 0
    for w, b in base["workloads"].items():
        n = new["workloads"][w]
        print(f"{w}: base fail {b['failed']}/{b['attempted']}, new fail {n['failed']}/{n['attempted']}")
        for name, bm in b["metrics"].items():
            nm = n["metrics"].get(name)
            m = spec.get(name)
            if nm is None or m is None or not bm["median"]:
                continue
            ratio = nm["median"] / bm["median"]
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if bm["spread"] > bound:
                    verdict = "unresolved (base spread above bound)"
                elif worse > bound:
                    verdict = "REGRESSION"
                    worst = 1
                else:
                    verdict = "within bound"
            print(f"  {name:<48} {bm['median']:<12.6g} -> {nm['median']:<12.6g} ratio {ratio:.3f} "
                  f"({'worse' if worse > 0 else 'better'} by {abs(worse):.3f}) {verdict}")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every workload with seeds 1..runs and summarise")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", help="write runs and summaries here (JSON)")
    c = sub.add_parser("compare", help="compare two files written by run --out")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
