"""Repeat benchmark runs of one checkout and summarise each metric.

    python3 perfbench/repeat.py                        # all workloads, 10 seeds
    python3 perfbench/repeat.py --workloads tower_cli --runs 5 --seed-start 100
    python3 perfbench/repeat.py --runs 1               # one run of every workload
    python3 perfbench/repeat.py --trace 1 --runs 2     # per-layer figures

Runs perfbench/run.py once per (workload, seed), one after another, and prints
for every workload the ops attempted and failed in each run, then each
metric's median, first and third quartile (statistics.quantiles, n=4) and the
relative spread (Q3 - Q1) / median; with --trace 0 also for the metrics as
timed, before scaling to the reference host speed.  The raw results go to
.perfbench-out/repeat-<workloads>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS

TIMED = "as timed: "


def run_seconds() -> int:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 30


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    raw = {}
    for workload in workloads:
        results = []
        for seed in range(args.seed_start, args.seed_start + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed with exit {proc.returncode}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            for line in lines:
                if line.startswith(TIMED):
                    result["timed"] = json.loads(line[len(TIMED):])
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        raw[workload] = results
        report(workload, results)

    out = ROOT / ".perfbench-out" / f"repeat-{'-'.join(workloads)}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


def report(workload: str, results) -> None:
    if not results:
        return
    print(f"\n{workload}: {len(results)} runs")
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
    print(f"  failed/attempted per run: {', '.join(shares)}")
    print(f"  {'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in results[0]["metrics"].items():
        line(name, first["unit"], [r["metrics"][name]["value"] for r in results])
    if all("timed" in r for r in results):
        print("  as timed:")
        for name in results[0]["timed"]:
            line(name, "", [r["timed"][name] for r in results])


def line(name: str, unit: str, values) -> None:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    print(f"  {name:36} {unit:6} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")


if __name__ == "__main__":
    sys.exit(main())
