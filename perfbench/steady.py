"""Steadiness check: run every workload repeatedly and compare sets of runs.

    python3 perfbench/steady.py

Each of SETS sets runs every workload of BENCHMARK.json once per seed
(seeds 1 .. RUNS, the same seeds in every set) with --trace 0 and the
run_seconds of BENCHMARK.json.  For each set it prints every end-to-end
metric's median and quartiles (``statistics.quantiles(n=4)``) and their
spread, the distance between the quartiles as a share of the median.  A
spread is steady below a third of the metric's bound.  The spread of
setup_s is printed but not gated: set-up time is not scaled to a reference
speed (see speed.py), so it carries the host's drift, and it is checked
only by the next test.  For every metric it states whether the second
set's median is worse than the first set's by no more than the bound.

It then runs --trace 1 twice on seed 1 of each workload and checks that
every per-layer count and ratio repeats exactly (times and
``trace.throughput_ratio`` are measurements and may differ).

Raw results go to .bench_out/steady-<unix time>.json.  Exits 1 if a run
failed or was incorrect, or a check did not hold.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS, SETS = 10, 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, RUNS + 1)
    seconds = bench["run_seconds"]
    ok = True

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for seed in seeds:
            for w in workloads:
                res = one_run(w, seed, seconds, 0)
                results[w][s].append(res)
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"{w} seed {seed}: incorrect ({res['failed']} of "
                          f"{res['attempted']} ops failed)")

    print(f"{'workload':14} {'metric':22} set {'median':>12} {'q1':>12} "
          f"{'q3':>12} spread  bound  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                med, q1, q3, rel = spread(values)
                medians.append(med)
                if name == "setup_s":
                    verdict = "not gated"
                elif rel < bound / 3:
                    verdict = "steady"
                else:
                    verdict = "within bound" if rel <= bound else "TOO WIDE"
                    ok = False
                print(f"{w:14} {name:22} {s + 1:3} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {rel:6.3f} {bound:6.3f}  {verdict}")
            worse = worse_by(medians[0], medians[1], metric["better"])
            agree = worse <= bound
            ok = ok and agree
            print(f"{w:14} {name:22} set 2 vs 1: worse by {worse:+.3f} "
                  f"(bound {bound}) {'agree' if agree else 'DISAGREE'}")

    traces = {}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in workloads:
        runs = [one_run(w, 1, seconds, 1) for _ in range(2)]
        traces[w] = runs
        differ = [
            name for name, unit in units.items()
            if unit in ("calls/op", "ratio")
            and name != "trace.throughput_ratio"
            and runs[0]["metrics"][name] != runs[1]["metrics"][name]]
        ok = ok and not differ and all(r["correct"] for r in runs)
        print(f"{w:14} trace counters "
              f"{'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")

    out = ROOT / ".bench_out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": list(seeds), "runs": results,
                               "traces": traces}, indent=1))
    print(f"raw results in {out.relative_to(ROOT)}; "
          f"{'all checks hold' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
