"""Benchmark for indematch: four workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each workload runs in fresh processes:
a few that only set up (import, input generation, one warm-up), whose
median is setup_s, and one that sets up and then measures.  With --trace 0
the measuring process runs the package untouched and the end-to-end metrics
are printed; with --trace 1 it alternates untraced and traced rounds and
the per-layer metrics are printed, with every kept span written under
perfbench/out.  The last line of standard output is one JSON object.  The
exit code is 1 when any output was wrong, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

SETUP_PROBES = 4
DEADLINE_S = 170
PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def op_latencies(durations: list[float], width: int) -> list[float]:
    """One latency per operation of the round: the mean of its repeats.
    A shared host alternates fast and slow spells that last seconds.  The
    mean over the repeats averages them, where the median of a few repeats
    would pick one spell, and single spells would set the tail."""
    return [statistics.fmean(durations[i::width]) for i in range(width)]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest nearest-rank
    percentile with at least TAIL_BEYOND samples above it; the maximum
    (percentile 100) when there are too few samples for any."""
    ordered = sorted(latencies)
    count = len(ordered)
    for p in PERCENTILES:
        rank = max(math.ceil(p / 100 * count), 1)
        if count - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, count - rank
    return ordered[-1], 100.0, 0


class ChildFailed(RuntimeError):
    pass


def _child(mode: str, args: argparse.Namespace, name: str, deadline: float) -> dict:
    """Run one fresh process; return the JSON object on its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        # The census may have pool workers of its own: end the whole group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} process for {name} passed the {DEADLINE_S} s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process for {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, args: argparse.Namespace, deadline: float) -> dict:
    """Print one workload's lines; return its verdict and metrics."""
    setups = [_child("setup", args, name, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    mode = "trace" if args.trace else "measure"
    res = _child(mode, args, name, deadline)
    setups.append(res["setup_s"])
    print(f"workload: {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"inputs: {res['inputs']}")
    rounds = f"{res['rounds']} untraced + {res['rounds']} traced" if args.trace else res["rounds"]
    print(f"operations: {res['attempted']} in {rounds} round(s), {res['items']} items")
    failed_ratio = res["failed"] / res["attempted"]
    raised = ", ".join(f"{k}={v}" for k, v in sorted(res["raised"].items())) or "none"
    print(f"failed_ratio = {failed_ratio:.6g}  (raised: {raised}; wrong outputs: {len(res['wrong'])})")
    for problem in res["wrong"][:20]:
        print(f"  WRONG {problem}")
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        for key, value in res["layers"].items():
            metrics[key] = (value, tracing.layer_unit(key))
        print(f"trace: {res['trace_file']}  spans kept={res['spans_kept']} "
              f"dropped={res['spans_dropped']}  census jobs={res['jobs']}")
    else:
        latencies = op_latencies(res["durations"], res["ops_per_round"])
        value, p, beyond = tail(latencies)
        values = {
            "items_per_s": res["items"] / res["busy_s"],
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": value * 1e3,
            "ok_ratio": 1 - failed_ratio,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        print(f"op latency: mean of {res['rounds']} repeats of each of {len(latencies)} "
              f"operations; op_tail_ms is their p{p:g}, {beyond} beyond it; "
              f"setup_s is the median of {len(setups)} processes")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.child == "setup":
        print(json.dumps({"setup_s": workloads.setup(args.workload, args.seed)[3]}))
        return 0
    if args.child is not None:
        step = workloads.measure if args.child == "measure" else workloads.trace
        print(json.dumps(step(args.workload, args.seed, args.seconds)))
        return 0

    if not (ROOT / "src" / "indematch" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'indematch'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"{platform.machine()} {platform.system()}")
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args, time.monotonic() + DEADLINE_S)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
