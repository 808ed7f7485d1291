#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `perfbench/run.py` once per seed on one workload (`--trace 0`, the
run length from `BENCHMARK.json`) and prints, for each end-to-end metric,
the median and quartiles of its values and their spread (q3 - q1) / median
beside the metric's bound. A benchmark is steady when every spread except
`setup_s`'s is below a third of its bound. From the root of the repository:

    python3 perfbench/spread.py --workload graph_dab --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} of {result['attempted']} jobs failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, m, q3 = run.quartiles(xs)
        steady = "" if metric["name"] == "setup_s" or run.spread(xs) < metric["bound"] / 3 else "  NOT STEADY"
        print(f"{metric['name']:<16} {m:>12.5g} {q1:>12.5g} {q3:>12.5g} {run.spread(xs):>8.4f} "
              f"{metric['bound'] / 3:>8.4f}{steady}")


if __name__ == "__main__":
    main()
