#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 pipebench/spread.py --workload ner-tag --seeds 1-10

It makes untraced runs only, since only the end-to-end metrics have
bounds. For every metric it prints the median over the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median. It also prints the share of failed
operations and compares each spread with the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, failed, attempted = {}, 0, 0
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{proc.stderr}")
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        probes = [line for line in proc.stdout.splitlines() if line.startswith("machine probe")]
        brief = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {brief}\n  " + " | ".join(probes), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, failed {failed}/{attempted}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        note = "" if bound is None else f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
        print(f"  {name:36s} median {med:14.6g} spread {spread:7.4f}{note}")


if __name__ == "__main__":
    main()
