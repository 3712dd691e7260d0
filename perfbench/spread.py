#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
run-to-run spread: the distance between the first and third quartile of
its values as a share of their median, next to the metric's bound from
BENCHMARK.json.

    python3 perfbench/spread.py --workload fb-lasmq --seeds 1,2,3,4,5 [--trace 1]

Run it from the repository root; it uses the command and run length
that BENCHMARK.json names.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace == "1" else "end_to_end"]}
    values = {}
    units = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", seed,
            "--seconds", str(args.seconds or bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            print(f"seed {seed}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected))}, "
                  f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}",
                  file=sys.stderr)
            return 1
        zero = sorted(name for name, m in result["metrics"].items() if m["value"] == 0)
        if zero:
            print(f"seed {seed}: metrics reading 0: {zero}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.3f}"
        else:
            spread = "-"
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread != "-" and float(spread) > bound / 3:
            flag = "  > bound/3"
        print(f"{name:40} {med:14.6g} {spread:>8} {bound if bound is not None else '':>6} "
              f"{units[name]}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
