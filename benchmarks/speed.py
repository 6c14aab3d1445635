"""Gauges of the machine's speed, independent of fracseries.

A shared 2-core host runs the same code at speeds up to about 1.6 apart,
and switches between them from one second to the next as well as for
tens of minutes at a time; CPU time slows as much as wall time. No
statistic over a 15-second run steadies that. What does is timing a fixed
piece of work right next to each measurement and rescaling the
measurement to the speed at which that work takes a reference time.

Two gauges, each matched to what it rescales on that machine:
`gauge`, a pure-Python loop read between ops, for op latencies (rescaled,
the medians of 20-op windows of a crosscheck loop varied by 2-4% where
the raw ones varied by 17-19%); and `start_reading`, the start of a bare
interpreter, for set-up times, which are mostly process start and
imports and follow the loop less closely (over 49 set-up probes, the
coefficient of variation fell from 0.20 to 0.11 with this gauge, and only
to 0.18 with the loop).

Neither gauge touches fracseries code, so a change to the program moves
the rescaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

#: The gauge's time at the reference speed: about its time in the slower,
#: more common mode of the 2-core machine the baseline was recorded on,
#: so rescaled figures read close to raw ones there.
REFERENCE_S = 0.0017
#: Iterations of the gauge loop (about 1.0-1.7 ms on that machine).
LOOPS = 5000
#: The bare interpreter start at the reference speed (36-64 ms there).
START_REFERENCE_S = 0.060


def gauge() -> float:
    """Seconds taken by a fixed loop of float, libm and dict work."""
    t0 = perf_counter()
    acc, d = 0.0, {}
    for i in range(1, LOOPS):
        x = i * 0.001
        acc += math.lgamma(x + 1.0) / (1.0 + x * x)
        d[i & 255] = acc
    return perf_counter() - t0


def start_reading(n: int = 3) -> float:
    """Median wall time of n starts of a bare interpreter (`-I -c pass`)."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", "pass"], check=True, timeout=60)
        times.append(perf_counter() - t0)
    return sorted(times)[n // 2]


def start_scale(before: float, after: float) -> float:
    """Factor that rescales a set-up time taken between two start readings
    to the reference speed."""
    return 2.0 * START_REFERENCE_S / (before + after)


def rescale(times: list[float], gauges: list[float]) -> list[float]:
    """Rescale each time of a loop to the reference speed by the median
    gauge reading of the five ops around it; gauges[i] is the mean of the
    readings on either side of op i. The median over neighbours damps the
    noise of single readings and still follows a change of speed within a
    second."""
    half = 2
    out = []
    for i, t in enumerate(times):
        near = sorted(gauges[max(0, i - half):i + half + 1])
        out.append(t * REFERENCE_S / near[len(near) // 2])
    return out
