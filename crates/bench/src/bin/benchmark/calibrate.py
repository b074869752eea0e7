#!/usr/bin/env python3
"""Calibrates the benchmark against its own bounds.

Runs the command from BENCHMARK.json on every workload with seeds 1..N,
cycling through the workloads seed by seed, for several sets. For each
(end-to-end metric, workload) it reports every set's median, quartiles
(statistics.quantiles(values, n=4)) and spread (q3 - q1) / median, and
how much worse the last set's median is than the first's, as a share of
the first. A bound holds when every spread except setup_s's stays within
it and no median moves by more than it; the aim is spreads under a third
of the bound. With --traced it also makes one traced run per workload.

Run from anywhere; the command runs at the repository root:

    python3 crates/bench/src/bin/benchmark/calibrate.py [--sets 2] [--seeds 10] [--traced]

Results go to calibration.json beside this script.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[4]


def run(cmd):
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.monotonic() - started
    if out.returncode != 0 or not out.stdout.strip():
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), took


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    sets = []
    for s in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                cmd = bench["command"] + [
                    "--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0"
                ]
                res, took = run(cmd)
                if not res["correct"] or res["failed"]:
                    sys.exit(f"{w} seed {seed}: checks failed: {res}")
                for m in metrics:
                    values[w][m].append(res["metrics"][m]["value"])
                print(f"set {s + 1} seed {seed:2} {w:13} {took:5.1f} s  " + "  ".join(
                    f"{m}={res['metrics'][m]['value']:.6g}" for m in metrics), flush=True)
        sets.append({w: {m: summary(v) for m, v in values[w].items()} for w in workloads})

    verdict = {}
    for m, spec in metrics.items():
        bound = spec["bound"]
        for w in workloads:
            first, last = sets[0][w][m]["median"], sets[-1][w][m]["median"]
            worse = (first - last) / first if spec["better"] == "higher" else (last - first) / first
            spreads = [st[w][m]["spread"] for st in sets]
            verdict.setdefault(m, {})[w] = {
                "bound": bound,
                "spreads": spreads,
                "median_worse_by": worse,
                "spread_ok": m == "setup_s" or max(spreads) <= bound,
                "drift_ok": worse <= bound,
                "under_a_third": max(spreads) < bound / 3,
            }

    traced = {}
    if args.traced:
        for w in workloads:
            res, took = run(bench["command"] + ["--workload", w, "--trace", "1"])
            traced[w] = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"traced {w} in {took:.1f} s", flush=True)

    record = {
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "sets": sets,
        "verdict": verdict,
        "traced": traced,
    }
    (HERE / "calibration.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"\n{'metric':15} {'workload':13} {'bound':>6} {'spreads':>17} {'worse by':>9}  ok")
    for m, per in verdict.items():
        for w, v in per.items():
            spreads = " ".join(f"{s:7.4f}" for s in v["spreads"])
            ok = v["spread_ok"] and v["drift_ok"]
            print(f"{m:15} {w:13} {v['bound']:6.3f} {spreads:>17} {v['median_worse_by']:9.4f}  "
                  f"{'yes' if ok else 'NO'}{'' if v['under_a_third'] else ' (spread >= bound/3)'}")


if __name__ == "__main__":
    main()
