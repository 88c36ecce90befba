"""Machine-speed probe for timing on a shared host.

On a small shared VM the speed of identical work drifts by up to 1.5-2x
over seconds to minutes.  So every timing is taken between two probes of
a fixed kernel, and scaled by

    REFERENCE_PROBE_S / probe time around the timing

The result reads as the time the work would take on a machine where the
probe takes REFERENCE_PROBE_S; the raw times are printed as well.  A
fixed reference, rather than the fastest probe of each run, keeps one
lucky probe from moving every metric of a run.  The probe mixes
interpreted Python with small numpy row operations, the two kinds of work
homcob's layers do, and takes well under a millisecond.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the fastest the probe ran on the 2-core x86-64 VM the benchmark
# was built on, so that scaled times there read as times at full speed
REFERENCE_PROBE_S = 100e-6
# the first runs after the process slept (waiting for a child) are slow
PROBE_WARM = 2
PROBE_REPS = 5


def _kernel(a: np.ndarray) -> int:
    s = 0
    for i in range(300):
        s += i * i
        if a[i % 24, i % 13]:
            a[i % 24, :] ^= a[(i + 1) % 24, :]
    return s


def probe() -> float:
    """Median seconds of PROBE_REPS runs of the fixed kernel, after
    PROBE_WARM untimed ones."""
    times = []
    for _ in range(PROBE_WARM + PROBE_REPS):
        t0 = time.perf_counter()
        a = np.zeros((24, 24), dtype=np.uint8)
        a[::3, ::2] = 1
        _kernel(a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[PROBE_WARM:])


def scaled(raw: float, around: float) -> float:
    """A timing taken between probes averaging `around`, at the reference
    speed."""
    return raw * REFERENCE_PROBE_S / around
