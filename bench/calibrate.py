"""Speed calibration: a fixed kernel timed between ops, and the
normalization that divides machine drift out of op wall times.

The sandbox's speed drifts by tens of percent over minutes (process CPU
time tracks wall, so it is the machine, not scheduling).  The kernel
below has the program's own instruction mix -- a pure-Python
dict/tuple/int loop plus small int64 numpy outer products and
``gcd.reduce`` -- and is independent of ``repro``, so a change to the
program cannot move it.  An op's speed-normalized seconds are

    wall * CAL_REF_S / median(the calibration samples around the op)

where ``CAL_REF_S`` is the kernel's median on the defining machine.
"""

from __future__ import annotations

import bisect
import time
from math import gcd
from statistics import median
from typing import List, Sequence, Tuple

import numpy as np

#: Median seconds of :func:`kernel` on the machine that defined the
#: benchmark (2 cores, Python 3.11.7, numpy 2.4.6).  A constant: every
#: normalized time is "seconds on that machine".
CAL_REF_S = 0.0036

#: An op is normalized by the calibration samples within this many
#: seconds of it, and by no fewer than the nearest ``NEAREST``.
NEAR_S = 0.15
NEAREST = 5

#: Outside this range of ``speed_index`` the machine differs enough
#: from the defining one that normalized times deserve distrust.
TRUSTED_SPEED_INDEX = (0.7, 1.5)

_A = np.arange(1, 65, dtype=np.int64)
_B = np.arange(3, 99, 3, dtype=np.int64)


def kernel() -> int:
    """~4 ms of dict/tuple/int Python plus small-array int64 numpy."""
    table = {}
    acc = 0
    for i in range(12000):
        key = (i & 63, i % 7)
        value = table.get(key)
        if value is None:
            table[key] = value = (i * 2654435761) & 0xFFFF
        acc += gcd(value + i, 360) + len(key)
    for _ in range(60):
        combos = np.multiply.outer(_A, _B) + acc % 7
        acc += int(np.gcd.reduce(combos, axis=1).sum())
    return acc


def sample() -> Tuple[float, float]:
    """One timed kernel run: ``(midpoint timestamp, seconds)``."""
    start = time.perf_counter()
    kernel()
    end = time.perf_counter()
    return (start + end) / 2.0, end - start


def local_speed(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Median kernel seconds around the op interval ``[start, end]``.

    Uses every sample within ``NEAR_S`` of the interval (a long op is
    flanked by bursts of them), and at least the ``NEAREST`` closest.
    ``samples`` must be sorted by timestamp (they are recorded in order).
    """
    stamps = [stamp for stamp, _ in samples]
    low = bisect.bisect_left(stamps, start - NEAR_S)
    high = bisect.bisect_right(stamps, end + NEAR_S)
    if high - low < NEAREST:
        middle = (start + end) / 2.0
        pivot = bisect.bisect_left(stamps, middle)
        window = sorted(
            samples[max(0, pivot - NEAREST):pivot + NEAREST], key=lambda s: abs(s[0] - middle)
        )[:NEAREST]
    else:
        window = samples[low:high]
    return median(seconds for _, seconds in window)


def normalize(
    ops: Sequence[Tuple[float, float]],
    samples: Sequence[Tuple[float, float]],
    ref_s: float = CAL_REF_S,
) -> List[float]:
    """Speed-normalized seconds for each ``(start, end)`` op interval."""
    return [
        (end - start) * ref_s / local_speed(samples, start, end)
        for start, end in ops
    ]


def speed_index(samples: Sequence[Tuple[float, float]], ref_s: float = CAL_REF_S) -> float:
    """median(kernel seconds) / reference: > 1 means a slower machine."""
    return median(seconds for _, seconds in samples) / ref_s
