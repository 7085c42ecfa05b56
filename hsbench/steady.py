"""Steadiness check: run each workload n times and summarise every metric.

    python3 hsbench/steady.py --runs 10 [--seed0 1000]

Runs ``hsbench/run.py`` untraced for BENCHMARK.json's ``run_seconds`` once
per (workload, seed), one process at a time, over every workload in
BENCHMARK.json, with seeds seed0, seed0+1, ... . For each metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``), the min and max, and the
quartile spread as a share of the median next to the metric's bound in
BENCHMARK.json. It also checks that every run attempted whole operations
with the same share failed. The summary goes to
``.hsbench_runs/steady-seed<seed0>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "runs": args.runs, "seed0": args.seed0, "workloads": {}}
    ok = True
    for name in names:
        results = []
        for k in range(args.runs):
            seed = args.seed0 + k
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res["wall_s"] = wall
            results.append(res)
            print(f"{name} seed {seed}: {wall:.1f} s wall, attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        stats = {}
        print(f"\n{name}: {args.runs} runs, failed share {sorted(shares)}, all correct: {correct}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
              f"{'spread':>7} {'bound':>6}")
        for metric in results[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in results]
            s = summarise(vals)
            s["unit"] = results[0]["metrics"][metric]["unit"]
            bound = bounds.get(metric)
            s["bound"] = bound
            stats[metric] = s
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  above bound/3"
            print(f"{metric:34} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['min']:12.6g} {s['max']:12.6g} {s['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        summary["workloads"][name] = {"metrics": stats, "failed_shares": sorted(shares),
                                      "correct": correct, "wall_s": [r["wall_s"] for r in results]}
    os.makedirs(".hsbench_runs", exist_ok=True)
    path = os.path.join(".hsbench_runs", f"steady-seed{args.seed0}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsummary written to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
