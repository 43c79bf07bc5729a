#!/usr/bin/env python3
"""Runs every workload of the benchmark several times, each time with another
seed, and prints per (workload, end-to-end metric) the median, the quartiles
and the quartile spread as a share of the median -- the figure the bounds in
BENCHMARK.json are judged against -- and the same for the readings a report
prints ungated (bound "-"). CALIBRATION.md is this script's output.

    python3 bench/calibrate.py                 # 10 runs a workload, seeds 1..10
    python3 bench/calibrate.py -n 10 -first-seed 11 wire-durable restart

Run it from the repository root; it uses the command in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10, help="runs per workload")
    ap.add_argument("-first-seed", type=int, default=1)
    ap.add_argument("-trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("-raw", help="also write every run's values to this JSON file")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bm = json.load(f)
    names = args.workloads or [w["name"] for w in bm["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bm["end_to_end"]}

    print("| workload | metric | unit | median | q1 | q3 | spread | bound | wall s |")
    print("|---|---|---|---|---|---|---|---|---|")
    raw = {}
    for name in names:
        values, units, walls = {}, {}, []
        raw[name] = values
        for i in range(args.n):
            cmd = bm["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                                   "--seconds", str(bm["run_seconds"]), "--trace", str(args.trace)]
            start = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            if out.returncode != 0:
                sys.exit("%s failed (%d):\n%s%s" % (" ".join(cmd), out.returncode, out.stdout, out.stderr))
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit("%s: not correct:\n%s" % (" ".join(cmd), out.stdout))
            for metric, r in res["metrics"].items():
                values.setdefault(metric, []).append(r["value"])
                units[metric] = r["unit"]
            # The readings an end-to-end report prints below the gated ones.
            for line in out.stdout.splitlines():
                f = line.split()
                if line.endswith("(not gated)") and len(f) >= 3:
                    values.setdefault(f[0], []).append(float(f[1]))
                    units[f[0]] = f[2]
        for metric in values:
            v = values[metric]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.1f%% | %s | %.1f |" % (
                name, metric, units[metric], med, q1, q3, 100 * spread,
                ("%.0f%%" % (100 * bounds[metric])) if metric in bounds else "-",
                statistics.median(walls)))
        sys.stdout.flush()
        if args.raw:
            with open(args.raw, "w") as f:
                json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
