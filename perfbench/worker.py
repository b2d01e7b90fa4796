"""One cold benchmark process: set a workload up, make its ops, print one
JSON result line.

    python3 perfbench/worker.py <workload> <seed> setup
    python3 perfbench/worker.py <workload> <seed> timed <seconds>
    python3 perfbench/worker.py <workload> <seed> fixed <rounds>
    python3 perfbench/worker.py <workload> <seed> traced <rounds>

run.py starts it with src/ on PYTHONPATH and a fixed PYTHONHASHSEED.  Each
run gets a fresh interpreter, so the library's lru caches start cold as in
a CLI invocation.  ``setup`` stops at the first op and reports when it got
there; ``timed`` makes whole rounds until <seconds> have passed and at
least the workload's ``min_rounds`` are done; ``fixed`` and ``traced`` make
exactly <rounds> rounds, the latter with the tracing wrappers installed.
Every mode but ``setup`` also times the calibration loop of speed.py before
every op and after the last, so that run.py can scale op times and
throughput to the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from workloads import WORKLOADS, canonical, digest, load_golden, rounds

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> None:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    amount = float(argv[3]) if len(argv) > 3 else 0.0
    wl = WORKLOADS[name]
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl.setup()
    golden = load_golden(name)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    expected = [op[0] for op in golden["ops"]]
    ref_ms = [op[1] for op in golden["ops"]]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    latencies, outputs, problems = [], [], []
    cal_ms: list[float] = []
    kinds: Counter = Counter()
    raised = 0
    # digest of the ops every mode makes, to compare commits on any seed
    outputs_digest = hashlib.sha256()
    clock = time.perf_counter
    start = clock()
    for done, picks in enumerate(rounds(ref_ms, wl.strata, name, seed), 1):
        for index in picks:
            if tracer:
                tracer.set_op(len(latencies))
            cal_ms.append(speed.calibrate())
            t0 = clock()
            try:
                out = wl.op(index)
            except Exception as exc:  # a failed op is counted; the run goes on
                latencies.append(clock() - t0)
                raised += 1
                problems.append(f"pool op {index}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(clock() - t0)
            text = canonical(out)
            if digest(text) != expected[index]:
                problems.append(f"pool op {index}: output differs from golden")
            if done <= wl.trace_rounds:
                outputs_digest.update(text.encode())
            outputs.append(out)
            kinds[wl.kind(out)] += 1
        if mode == "timed":
            if done >= wl.min_rounds and clock() - start >= amount:
                break
        elif done >= amount:
            break
    cal_ms.append(speed.calibrate())
    if tracer:
        tracer.set_op(tracing.REPORT)
    report = wl.finish(outputs, out_dir)
    # the wall time of the timed phase, less the time spent in the loop
    wall = clock() - start - sum(cal_ms) / 1000

    result = {
        "ready": ready,
        "wall_s": wall,
        "latencies_ms": [x * 1000 for x in latencies],
        "cal_ms": cal_ms,
        "completed": len(latencies) - raised,
        "failed": len(problems),
        "problems": problems[:5],
        "report_ok": report == golden["report"],
        "kinds": dict(kinds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs_digest": outputs_digest.hexdigest()[:16],
    }
    if tracer:
        tracer.close()
        result["layers"] = tracing.layer_metrics(tracer, len(latencies), kinds)
        tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.tsv.gz")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
