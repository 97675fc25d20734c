"""Repeat the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed N] [--out FILE]

For every workload in BENCHMARK.json it runs `run.py --trace 0` once per
seed (1..runs, or --first-seed onwards), then gives for each end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread, which is the distance between the quartiles as a share of the
median. A spread above a third of the metric's bound in BENCHMARK.json is
flagged, and then the exit status is 1. The report is printed and, with
--out, written as JSON.
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


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    flagged = 0
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit status {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        rows = {name: summarize(vals) for name, vals in values.items()}
        report["workloads"][workload] = rows
        for name, row in rows.items():
            flag = ""
            if row["spread"] > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                flagged += 1
            print(
                f"{workload:10s} {name:16s} median {row['median']:12.6g}  "
                f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  "
                f"spread {row['spread']:7.2%}  bound {bounds[name]:.0%}{flag}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
