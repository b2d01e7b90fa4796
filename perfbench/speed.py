"""The host's speed, measured with a fixed calibration loop, and the scaling
of measured times to a reference speed.

On a shared host the same single-threaded Python code runs 10-50% slower
for stretches of seconds to minutes, and CPU time slows with it (contention
for the core, not preemption).  The benchmark therefore times a fixed loop
of pure-Python integer, dict and list work (``calibrate``) around every op
and reports each op time, and the throughput, scaled by
``REF_CAL_MS / (the loop's time around it)``: the time the work would have
taken on a host where the loop takes ``REF_CAL_MS``.  The loop does not
touch ffvojta, so a change to the library moves the scaled times and a
change in host speed mostly does not.  The raw times are printed on stderr
next to the scaled ones.  Set-up times are not scaled: set-up is CPU-bound
too, but its time does not follow the loop (correlation about 0.27 across
runs), and scaling widened the spread of single cold starts from 0.14 to
0.22.
"""

from __future__ import annotations

import time

# the loop's time, in ms, that op times are scaled to; it is about
# what the loop took on the machine the benchmark was written on
REF_CAL_MS = 0.5
# an op's time is scaled by the mean of the loop times within WINDOW ops of it
WINDOW = 5


def calibrate() -> float:
    """Time the fixed loop once; return milliseconds."""
    clock = time.perf_counter
    t0 = clock()
    d: dict = {}
    s = 0
    acc = []
    for i in range(1, 1500):
        s += (i * 12345678901234567) % 1000003
        d[i % 31] = d.get(i % 31, 0) + s
        acc.append(s // i)
    return (clock() - t0) * 1000


def factor(cal_ms: list[float]) -> float:
    """Scale factor from raw to reference time for the given loop times."""
    return REF_CAL_MS * len(cal_ms) / sum(cal_ms)


def scaled_latencies(latencies_ms: list[float], cal_ms: list[float]) -> list[float]:
    """Scale each op's time by the loop times around it.

    ``cal_ms[i]`` is the loop timed just before op i, and ``cal_ms[-1]`` the
    one after the last op, so there is one more loop time than ops.
    """
    return [lat * factor(cal_ms[max(0, i - WINDOW):i + WINDOW + 2])
            for i, lat in enumerate(latencies_ms)]
