"""One run of the ffvojta benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the library from src/.
Every op runs in a single closed loop: one caller, each op starting when
the previous one has returned.  Each process it starts is a fresh
interpreter (see worker.py) and is waited for.

--trace 0 prints the end-to-end metrics.  COLD_STARTS - 1 processes only
set up, half before and half after one more that makes the timed ops;
setup_s is the median of the set-up times of all of them.  The op times
and throughput are scaled to the reference speed of speed.py (setup_s is
not); the raw figures go to stderr.
--trace 1 prints the per-layer metrics.  One process makes the workload's
``trace_rounds`` rounds untraced, a second makes the same rounds traced;
``trace.throughput_ratio`` is the traced throughput over the untraced one,
both scaled to the reference speed.

A table of every metric goes to stderr.  The last line on stdout is one
JSON object with the keys correct, attempted, failed and metrics.  When
the library is missing, or a process fails, it exits non-zero without one.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 9
TIME_LIMIT_S = 170


def throughput(run: dict) -> float:
    """Ops completed per second of wall time of the timed phase."""
    return run["completed"] / run["wall_s"]


def scaled_throughput(run: dict) -> float:
    """``throughput`` at the reference speed of speed.py."""
    return throughput(run) / speed.factor(run["cal_ms"])


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [str(ROOT / "src")]
                            + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def spawn(self, mode: str, amount=None) -> dict:
        args = [sys.executable, str(HERE / "worker.py"), self.workload,
                str(self.seed), mode]
        if amount is not None:
            args.append(str(amount))
        t0 = time.monotonic()
        proc = subprocess.run(args, cwd=ROOT, env=self.env, text=True,
                              capture_output=True,
                              timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        return result


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    wl = WORKLOADS[runner.workload]
    # half the cold starts before the timed process and half after it, so
    # that they do not all fall into one slow or fast stretch of the host
    before = (COLD_STARTS - 1) // 2
    starts = [runner.spawn("setup") for _ in range(before)]
    timed = runner.spawn("timed", seconds)
    starts.append(timed)
    starts += [runner.spawn("setup") for _ in range(COLD_STARTS - 1 - before)]
    cal = timed["cal_ms"]
    raw = timed["latencies_ms"]
    lat = speed.scaled_latencies(raw, cal)
    metrics = {
        "throughput_ops_per_s": (scaled_throughput(timed), "ops/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (nearest_rank(lat, wl.tail_pct), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in starts), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    print(f"op_tail_ms is p{wl.tail_pct} of {len(lat)} ops; setup_s is the "
          f"median of {len(starts)} cold starts. Raw, unscaled: throughput "
          f"{throughput(timed):.3f} ops/s, op_p50 {statistics.median(raw):.3f}"
          f" ms, op_tail {nearest_rank(raw, wl.tail_pct):.3f} ms; "
          f"calibration loop {statistics.mean(cal):.4f} ms against "
          f"{speed.REF_CAL_MS} ms", file=sys.stderr)
    return metrics, timed


def per_layer(runner: Runner) -> tuple[dict, dict]:
    wl = WORKLOADS[runner.workload]
    plain = runner.spawn("fixed", wl.trace_rounds)
    traced = runner.spawn("traced", wl.trace_rounds)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.throughput_ratio"] = (
        scaled_throughput(traced) / scaled_throughput(plain), "ratio")
    traced["report_ok"] = traced["report_ok"] and plain["report_ok"]
    if plain["outputs_digest"] != traced["outputs_digest"]:
        traced["report_ok"] = False
        print("traced and untraced outputs differ", file=sys.stderr)
    traced["failed"] += plain["failed"]
    traced["problems"] += plain["problems"]
    traced["latencies_ms"] += plain["latencies_ms"]
    return metrics, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "ffvojta" / "__init__.py").is_file():
        print(f"no ffvojta package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile once here, so that no cold start pays for bytecode compilation
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(str(tree), quiet=1)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, run = per_layer(runner)
        else:
            metrics, run = end_to_end(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(run["latencies_ms"])
    for problem in run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:46} {value:14.6f} {unit}",
              file=sys.stderr)
    print(f"{args.workload:14} {'failed_ratio':46} "
          f"{run['failed'] / attempted:14.6f} ratio", file=sys.stderr)
    print(f"{args.workload:14} kinds {run['kinds']}; outputs digest "
          f"{run['outputs_digest']}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0 and run["report_ok"],
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
