#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 _perfbench/steadiness.py --workloads predict-batch,fit-fleet --seeds 1-10

For every workload and metric it prints the median of the runs and the
spread: the distance between the first and third quartile (Python's
statistics.quantiles, n=4) as a share of the median, which is how the
benchmark's bounds in BENCHMARK.json are judged.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            cmd = ["bash", "_perfbench/run.sh", "--workload", w, "--seed", str(s),
                   "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {s}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {s}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
            runs.append(res)
            print(f"{w} seed {s} done", file=sys.stderr)
        names = sorted(runs[0]["metrics"])
        print(f"\n{w} ({len(runs)} seeds)")
        print("| metric | unit | median | spread | values |")
        print("|---|---|---|---|---|")
        for n in names:
            vals = [r["metrics"][n]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            shown = " ".join(f"{v:.4g}" for v in vals)
            print(f"| {n} | {runs[0]['metrics'][n]['unit']} | {med:.6g} | {spread:.3f} | {shown} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
