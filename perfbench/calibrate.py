"""Two fixed references that measure how fast the machine runs right now.

On a shared 2-core box the same code runs 10-30% slower or faster from
one 20-second window to the next, even in CPU time.  The benchmark
interleaves samples of a reference with the measured work and reports
times scaled by (reference time) / (median sample time of the run),
which cancels most of that drift.

- `sample` is a fixed Python workload that imitates eqlab's in-process
  mix: thousands of small frozen dataclasses checked in __post_init__,
  dictionary inserts and float math over a working set of a few hundred
  kilobytes.  A tight loop over a few objects tracked eqlab's speed about
  half as well.
- `interpreter_start` is the time from spawning a bare `python -c` to
  its first statement.  It tracks the cost of fresh processes (start-up,
  unmarshalling, page faults), which the loop above follows poorly.

Neither shares code with eqlab, so a change to eqlab cannot move them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

# median sample times on the box the bounds were set on; only unit choices
REFERENCE_S = 0.005
START_REFERENCE_S = 0.06
# calibration time per unit of measured time
SHARE = 0.05
_OBJECTS = 3000


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0.0:
            raise ValueError("y must be positive")


def sample() -> float:
    """Seconds taken by one fixed unit of work (a few milliseconds)."""
    start = perf_counter()
    points = [_Point(i * 0.001, 1.0 + (i % 97) * 0.01) for i in range(_OBJECTS)]
    index = {}
    total = 0.0
    for k, p in enumerate(points):
        q = points[(k * 7919) % _OBJECTS]
        total += math.hypot(p.x - q.x, p.y - q.y) / (p.y * q.y)
        index[(k % 500, k % 3)] = p
    return perf_counter() - start


def interpreter_start() -> float:
    """Seconds from spawning a bare interpreter to its first statement."""
    spawned = perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", "from time import perf_counter; print(repr(perf_counter()))"],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout) - spawned


class Clock:
    """Calibration samples interleaved with the measured work."""

    def __init__(self, sample, reference_s: float):
        self.sample = sample
        self.reference_s = reference_s
        self.owed = 0.0
        self.samples: list[float] = []

    def after(self, measured_s: float) -> None:
        """Sample until calibration has taken SHARE of the time measured so far."""
        self.owed += SHARE * measured_s
        while self.owed > 0.0 or not self.samples:
            t = self.sample()
            self.samples.append(t)
            self.owed -= t

    def scale(self) -> float:
        """Factor that turns times measured in this run into reference-speed times."""
        return self.reference_s / statistics.median(self.samples)
