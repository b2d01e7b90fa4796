"""Record the golden outputs of one workload's op pool.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_golden.py <workload>

Runs every pool op once, in index order, in one process, and writes
``perfbench/golden/<workload>.json``: per op the digest of its canonical
output and the milliseconds it took (which only ranks ops into strata), and
the digests the run's report is gated on.  The committed files were made on
the commit that introduced the benchmark; regenerating them on a later
commit would turn the gate off for whatever that commit changed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import GOLDEN_DIR, WORKLOADS, canonical, digest

ROOT = Path(__file__).resolve().parent.parent


def main(name: str) -> None:
    wl = WORKLOADS[name]
    wl.setup()
    ops, outputs = [], []
    for index in range(wl.pool_size):
        t0 = time.perf_counter()
        out = wl.op(index)
        ms = (time.perf_counter() - t0) * 1000
        ops.append([digest(canonical(out)), round(ms, 3)])
        outputs.append(out)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = wl.finish(outputs, out_dir)
    kinds = {}
    for out in outputs:
        kinds[wl.kind(out)] = kinds.get(wl.kind(out), 0) + 1
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "kinds": kinds, "report": report,
                   "ops": ops}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{name}: {len(ops)} ops, kinds {kinds}")


if __name__ == "__main__":
    main(sys.argv[1])
