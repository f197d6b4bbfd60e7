#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs one workload in two halves of N runs each, every run with another
seed (1..N, then N+1..2N) and `run_seconds` long, and prints per
end-to-end metric the median and quartiles over all runs, each half's
median and spread (quartile distance over median), and the change of the
second half's median against the first in the metric's worse direction.
A metric is flagged when a half's spread exceeds its bound or the second
half is worse than the first by more than the bound; spreads above a
third of the bound are marked as tight.

    python3 perfbench/steady.py --workload fleet-1k --runs 10

Run it from anywhere; it runs the benchmark command from the repository
root. Exit status 1 when a metric is flagged or a run fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    noise = next((l for l in lines if l.startswith("noise:")), "")
    return result, noise


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0, q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per half")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}

    halves = []
    failed_runs = 0
    for h in range(2):
        runs = []
        for r in range(args.runs):
            seed = 1 + h * args.runs + r
            try:
                result, noise = run_once(bench, args.workload, seed)
            except RuntimeError as e:
                print(f"RUN FAILED: {e}", flush=True)
                failed_runs += 1
                continue
            if not result["correct"] or result["failed"]:
                failed_runs += 1
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append(values)
            shown = " ".join(f"{k}={values[k]:.6g}" for k in specs if k in values)
            print(f"half {h + 1} seed {seed}: correct={result['correct']} {shown} | {noise}", flush=True)
        halves.append(runs)

    flagged = False
    print()
    print(f"{'metric':<16}{'q1':>13}{'median':>13}{'q3':>13}  "
          + "".join(f"{'half%d med' % (h + 1):>13}{'spread':>9}" for h in range(2))
          + f"{'change':>9}{'bound':>7}  verdict")
    for name, spec in specs.items():
        series = [[run[name] for run in half if name in run] for half in halves]
        if not all(series):
            continue
        _, q1, med, q3 = spread(series[0] + series[1])
        bound = spec["bound"]
        row = f"{name:<16}{q1:>13.6g}{med:>13.6g}{q3:>13.6g}  "
        flags, tight = [], []
        meds = []
        for half in series:
            s, _, m, _ = spread(half)
            meds.append(m)
            row += f"{m:>13.6g}{s:>9.4f}"
            if s > bound:
                flags.append(f"spread {s:.4f} > bound")
            elif s > bound / 3:
                tight.append(f"spread {s:.4f} > bound/3")
        change = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
        if spec["better"] == "higher":
            change = -change
        if change > bound:
            flags.append(f"half 2 worse by {change:.4f} > bound")
        row += f"{change:>+9.4f}{bound:>7}  "
        if flags:
            flagged = True
            row += "FLAG " + "; ".join(flags + tight)
        else:
            row += "; ".join(tight) or "ok"
        print(row)
    if failed_runs:
        print(f"{failed_runs} runs failed or reported failed checks")
    sys.exit(1 if flagged or failed_runs else 0)


if __name__ == "__main__":
    main()
