#!/usr/bin/env python3
"""Run-to-run spread of bench_e2e's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload, with
--trace 0, and reports for every end-to-end metric its median and its
spread: the distance between the first and third quartiles of the runs
(statistics.quantiles(values, n=4)) as a share of the median. The bounds
in BENCHMARK.json are set against these spreads; a run whose output check
fails stops the script.

Run from the repository root:

    python3 bench_e2e/spread.py --runs 10 --sets 2 --seed 1 --out bench_e2e/spread.json

--workload NAME (repeatable) restricts the workloads. Exits 1 when a
metric other than setup_s spreads wider than its bound, or when a later
set's median is worse than the first set's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{proc.stdout[-4000:]}")
    host = next((l.strip() for l in lines if l.strip().startswith("host:")), "host: unknown")
    return result, wall, host


def measure(command, workloads, first_seed, runs, seconds, bounds, hosts):
    """One set: `runs` seeds per workload. Returns {workload: {metric: stats}}
    and whether every spread but setup_s's is within its bound."""
    report, within_all = {}, True
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            result, wall, host = run_once(command, workload, seed, seconds)
            hosts.add(host)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        report[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            within = name == "setup_s" or spread <= bounds[name]
            within_all &= within
            report[workload][name] = {"median": median, "spread": spread,
                                      "bound": bounds[name], "values": vals}
            print(f"{workload} {name}: median {median:.5g}, spread {spread:.3f} "
                  f"(bound {bounds[name]}){'' if within else '  OVER BOUND'}", flush=True)
    return report, within_all


def main():
    parser = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, on consecutive seeds")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workload", action="append", help="workload to run (repeatable)")
    parser.add_argument("--out", help="write the spreads and every value as JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sets, hosts, ok = [], set(), True
    for i in range(args.sets):
        first = args.seed + i * args.runs
        report, within = measure(bench["command"], workloads, first, args.runs,
                                 bench["run_seconds"], bounds, hosts)
        sets.append({"first_seed": first, "workloads": report})
        ok &= within
    # A later set's median may not be worse than the first's by more than the bound.
    for later in sets[1:]:
        for workload, metrics in later["workloads"].items():
            for name, m in metrics.items():
                base = sets[0]["workloads"][workload][name]["median"]
                worse = (m["median"] - base) / base
                if better[name] == "higher":
                    worse = -worse
                if worse > bounds[name]:
                    ok = False
                    print(f"{workload} {name}: median {worse:.1%} worse than the first set's  "
                          f"OVER BOUND", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"hosts": sorted(hosts), "run_seconds": bench["run_seconds"],
                       "runs": args.runs, "sets": sets}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
