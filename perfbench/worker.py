"""One workload in one fresh interpreter; started by run.py.

Modes:
  setup    import smallcover, build the first round's inputs, report when
           the first op could start, time the host probe, and exit;
  measure  the same set-up, then max(1, round(seconds / round_seconds))
           whole rounds;
  trace    one untraced round, then the same round with tracer.Tracer
           installed; reports the per-layer figures and the overhead.

Every mode times `host_probe`, a fixed loop that never calls smallcover:
between ops at most every PROBE_EVERY_S seconds, and in set-up mode
PROBE_COUNT times once the first op could start.  run.py scales the timings
by the probe's median (see its docstring).  Metrics are printed as timed.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import KNOWN_FAULT, WORKLOADS  # imports smallcover: part of set-up

TAIL_PERCENTILE = 90  # every round has >= 100 ops, so >= 10 samples lie beyond it
PROBE_EVERY_S = 0.05
PROBE_COUNT = 15


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop, about 2 ms: the host's speed now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s = (s * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.latencies = []  # wall seconds of ops that returned
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []
        self.probes = []  # seconds of host_probe() runs between ops
        self._last_probe = float("-inf")

    def probe(self) -> None:
        now = time.perf_counter()
        if now - self._last_probe >= PROBE_EVERY_S:
            self.probes.append(host_probe())
            self._last_probe = time.perf_counter()

    def note(self, message: str) -> None:
        if len(self.messages) < 5:
            self.messages.append(message)


def run_round(workload, items, tally: Tally, tracer=None) -> None:
    for op_id, item in enumerate(items):
        if tracer is not None:
            tracer.op_id = op_id
        error = None
        tally.probe()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = workload.op(item)
        except Exception as exc:  # an op that raises is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.op_id = None
        tally.attempted += 1
        tally.wall += t1 - t0
        tally.cpu += c1 - c0
        if error is not None:
            tally.failed += 1
            tally.note(error)
            continue
        tally.latencies.append(t1 - t0)
        problem = workload.check(item, result)
        if problem:
            tally.failed += 1
            tally.wrong += not problem.startswith(KNOWN_FAULT)
            tally.note(problem)


def nearest_rank(values, percentile: int) -> float:
    ordered = sorted(values)
    rank = -(-percentile * len(ordered) // 100)  # ceil
    return ordered[max(rank, 1) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workload.make_round(args.seed, 0, args.workdir)
        ready = time.perf_counter()
        out = {"ready": ready}
        if args.mode == "setup":
            out["probe_s"] = statistics.median(host_probe() for _ in range(PROBE_COUNT))
        elif args.mode == "measure":
            # a fixed number of whole rounds, about --seconds long on the
            # reference host: stopping on the clock would let a fast first
            # round buy a second one and bias the run towards fast phases
            rounds = max(1, round(args.seconds / workload.round_seconds))
            tally = Tally()
            for index in range(rounds):
                if index:
                    items = workload.make_round(args.seed, index, args.workdir)
                run_round(workload, items, tally)
            out.update(summary(tally, rounds))
        elif args.mode == "trace":
            out.update(trace(workload, items, args))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def summary(tally: Tally, rounds: int) -> dict:
    for message in tally.messages:
        print("op failed:", message, file=sys.stderr)
    lat = tally.latencies
    ok = bool(lat)
    return {
        "rounds": rounds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.wrong == 0,
        "samples": len(lat),
        "probe_s": statistics.median(tally.probes),
        "metrics": {
            "ops_per_s": len(lat) / tally.wall if ok else 0.0,
            "latency_p50_ms": 1000.0 * statistics.median(lat) if ok else 0.0,
            "latency_tail_ms": 1000.0 * nearest_rank(lat, TAIL_PERCENTILE) if ok else 0.0,
            "cpu_ms_per_op": 1000.0 * tally.cpu / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def trace(workload, items, args) -> dict:
    from tracer import Tracer

    plain = Tally()
    run_round(workload, items, plain)
    tracer = Tracer()
    tracer.install()
    traced = Tally()
    run_round(workload, workload.make_round(args.seed, 0, args.workdir), traced, tracer)
    out = summary(traced, 1)
    untraced_rate = len(plain.latencies) / plain.wall
    traced_rate = out["metrics"]["ops_per_s"]
    metrics = tracer.layer_metrics(traced.attempted)
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    out["metrics"] = metrics
    out["attempted"] += plain.attempted
    out["failed"] += plain.failed
    out["correct"] = out["correct"] and plain.wrong == 0
    if args.trace_file is not None:
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.trace_file)
    return out


if __name__ == "__main__":
    sys.exit(main())
