"""Small statistics and host probes shared by the workloads.

Standard library only: ``run.py`` imports this module before the timed
imports of a workload, so it must not pull in numpy.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: candidate tail percentiles, lowest first
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)
#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, n)`` of the highest ladder percentile that has
    at least ``TAIL_MIN_BEYOND`` samples beyond it (nearest-rank).

    Non-finite samples (misses) sort last.  Returns ``(nan, nan, n)`` when
    even the median has fewer than ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (math.nan, math.nan, n)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * n / 100 - 1e-9)
        if rank < 1 or n - rank < TAIL_MIN_BEYOND:
            break
        best = (pct, float(ordered[rank - 1]), n)
    return best


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: nominal duration of :func:`spin_ms`: calibrated host times read as if
#: the kernel had taken this long next to them
SPIN_REF_MS = 15.0


def spin_ms(iterations: int = 200_000) -> float:
    """Pure-Python calibration kernel, run between units of work.

    The host's speed drifts in phases of seconds to minutes (shared
    cores); a kernel run right before and after a unit samples the phase
    the unit ran in."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


def calibrated(seconds: float, spins) -> float:
    """``seconds`` of host time scaled to the nominal host speed, using the
    calibration kernel times (ms) measured around the work."""
    spins = list(spins)
    return seconds * SPIN_REF_MS * len(spins) / sum(spins)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    #: output checks made (outside the timed intervals) and how many failed
    attempted: int
    failed: int
    #: end-to-end metrics measured by the workload (``run.py`` adds set-up and memory)
    e2e: dict[str, float]
    #: per-layer metrics; those of layers the workload bypasses are left out
    layers: dict[str, float]
    #: human-readable report lines
    lines: list[str] = field(default_factory=list)
