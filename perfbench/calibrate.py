"""Host speed reference for normalizing timings.

The benchmark's host is shared: its speed switches between levels about
1.6x apart, for seconds to minutes at a time, so a raw wall time says as
much about the neighbours as about heartbn.  ``calibrate`` times a fixed
piece of work, independent of heartbn, with the same mix the program runs:
interpreted Python over dicts and tuples, numpy dispatch on small arrays,
and bincount over a 20,000-element array.  A timing taken next to it is
scaled to the host speed at which ``calibrate`` takes ``REFERENCE_S``:

    normalized = seconds * REFERENCE_S / calibration

Program changes move ``seconds`` and leave ``calibration`` alone, so the
normalized value still moves with the program, and no longer with the
host's speed level.
"""

from __future__ import annotations

import time

import numpy as np

# calibrate() on the reference host in its faster state (2-vCPU Intel Xeon VM).
REFERENCE_S = 0.0040

_SMALL = [np.arange(12.0).reshape(3, 4) + k for k in range(8)]
_CODES = np.arange(20_000, dtype=np.int64) * 7919 % 16


def _work() -> float:
    counts: dict[tuple[int, int], int] = {}
    total = 0.0
    for i in range(600):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
        total += float(np.einsum("ij,ij->", _SMALL[i % 8], _SMALL[(i + 3) % 8]))
        total += sum(x * 0.5 for x in range(12))
    for shift in range(12):
        total += float(np.bincount((_CODES + shift) % 16, minlength=16)[0])
    return total


def calibrate() -> float:
    """Median seconds of three runs of the fixed reference work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def normalized(seconds: float, calibration: float) -> float:
    """``seconds`` scaled to the host speed at which calibrate() takes REFERENCE_S."""
    return seconds * REFERENCE_S / calibration


class SpeedClock:
    """The host's current calibration, refreshed at most every EVERY_S."""

    EVERY_S = 0.5

    def __init__(self):
        self.calibration = 0.0
        self._at = float("-inf")

    def current(self) -> float:
        if time.perf_counter() - self._at > self.EVERY_S:
            self.calibration = calibrate()
            self._at = time.perf_counter()
        return self.calibration
