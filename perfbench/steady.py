#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload, then reports,
for every end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
distance between the quartiles as a share of the median. The spread is
compared with the metric's bound.

    python3 perfbench/steady.py --runs 10 --first-seed 100 --out set-a.json
    python3 perfbench/steady.py --runs 10 --first-seed 200 --out set-b.json
    python3 perfbench/steady.py --compare set-a.json set-b.json

Run it from the root of the repository. --workload restricts the run to
some workloads; --trace 1 runs the traced variant instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their check\n{proc.stdout[-3000:]}")
    return result, elapsed


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def measure(args):
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    out = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(bench, workload, seed, args.trace)
            runs.append({"seed": seed, "process_s": elapsed, "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: {elapsed:.1f} s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        names = runs[0]["metrics"].keys()
        summary = {n: summarise([r["metrics"][n]["value"] for r in runs]) for n in names}
        out["workloads"][workload] = {"runs": runs, "summary": summary}
    report(bench, out)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def report(bench, data):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, entry in data["workloads"].items():
        print(f"\n{workload} ({len(entry['runs'])} runs)")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, s in entry["summary"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<18} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bound if bound is not None else '-':>6}{flag}")


def compare(paths):
    bench = load_benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open(paths[0]) as f:
        first = json.load(f)
    with open(paths[1]) as f:
        second = json.load(f)
    ok = True
    for workload, entry in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        print(f"\n{workload}")
        for name, s in entry["summary"].items():
            m1, m2 = s["median"], other["summary"][name]["median"]
            worse = (m2 - m1) / m1 if better.get(name) == "lower" else (m1 - m2) / m1
            bound = bounds.get(name, float("nan"))
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"  {name:<18} {m1:>12.6g} -> {m2:>12.6g}  worse by {worse:+.4f} (bound {bound}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(args.compare) else 1)
    measure(args)


if __name__ == "__main__":
    main()
