"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload tower_survey --seed 1 --seconds 30 --trace 0

Run from the root of a smallcover checkout.  The workload runs in a fresh
interpreter (worker.py) with PYTHONHASHSEED=0 and single-threaded numeric
libraries, using the package from ./src.  With --trace 0 the last line of
output is a JSON object with the end-to-end metrics; set-up time is the median
over several fresh interpreters.  With --trace 1 it holds the per-layer
metrics of one traced round, and the spans go to
.perfbench-out/trace-<workload>-<seed>.jsonl.

End-to-end times are given at the reference speed of a shared host whose
speed drifts by a quarter within minutes.  Each interpreter times a fixed
loop (worker.host_probe) between ops; a timing t becomes
t * REFERENCE_PROBE_S / median probe, and ops_per_s the inverse.  The line
before the result gives the metrics as timed and the probe's median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("tower_survey", "tower_cli", "random_covers")
SETUP_RUNS = 5  # set-up-only interpreters, besides the measuring one
REFERENCE_PROBE_S = 0.002  # worker.host_probe's time on the reference host
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    env.pop("SMALLCOVER_EXACT_BUDGET", None)  # the workloads use the default budget
    return env


def spawn(args, mode: str, deadline: float, extra=()) -> tuple:
    """Run worker.py once; returns (seconds from spawn to first op, result)."""
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{mode}"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
           *extra]
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode} in {mode} mode")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smallcover" / "__init__.py").is_file():
        print(f"no smallcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            trace_file = ROOT / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.jsonl"
            _, result = spawn(args, "trace", deadline, ["--trace-file", str(trace_file)])
            metrics = result["metrics"]
        else:
            setups = [spawn(args, "setup", deadline) for _ in range(SETUP_RUNS)]
            setup, result = spawn(args, "measure", deadline)
            setups.append((setup, result))
            timed = dict(result["metrics"],
                         setup_s=statistics.median(seconds for seconds, _ in setups))
            metrics = at_reference_speed(result, setups)
            print("as timed:", json.dumps(dict(timed, probe_ms=1000.0 * result["probe_s"])))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()  # each worker removed its own subdirectory
        except OSError:
            pass
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def at_reference_speed(result: dict, setups) -> dict:
    """End-to-end metrics with each timing scaled by its interpreter's probe."""
    slowdown = result["probe_s"] / REFERENCE_PROBE_S
    timed = result["metrics"]
    return {
        "setup_s": statistics.median(seconds * REFERENCE_PROBE_S / worker["probe_s"]
                                     for seconds, worker in setups),
        "ops_per_s": timed["ops_per_s"] * slowdown,
        "latency_p50_ms": timed["latency_p50_ms"] / slowdown,
        "latency_tail_ms": timed["latency_tail_ms"] / slowdown,
        "cpu_ms_per_op": timed["cpu_ms_per_op"] / slowdown,
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
