#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median,
quartiles and spread (quartile distance over median) against its bound.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--trace 0|1] [--out FILE]

Run from the repository root. Each run is the command in BENCHMARK.json
with --workload/--seed/--seconds/--trace appended; the result line of every
run is appended to --out (JSON lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    section = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    values = {name: [] for name in bounds}
    failed_shares = set()
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        started = time.monotonic()
        run = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - started
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{run.stdout}")
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed} ({took:.0f} s): " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    print(f"failed share: {sorted(failed_shares)}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
