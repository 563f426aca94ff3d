"""Host-speed calibration: a fixed kernel, timed before every job.

The benchmark runs on a few cores of a shared host. The speed of those
cores drifts with the load of other tenants: on a 2-core x86 VM the same
corpus ran 1.5x slower a few minutes after an earlier run, and such
phases last minutes. The drift moves every timing of a run alike, so no
run length averages it out of a set of runs.

So each run times this kernel before every job. The kernel does the
kinds of work lqhv's jobs are made of: Fraction arithmetic, dict and
tuple traffic, numpy reductions and a JSON round trip. It never calls
lqhv, so a change to lqhv moves the job times and leaves the kernel
alone. A run reports its times scaled by `factor()`: seconds on a host
where the kernel takes NOMINAL_S. The raw times stay in the result file.

On that VM, two 10-minute runs cycled through the jobs of all three
workloads with this kernel timed before each job. Over 20 s windows,
each workload's median job speed followed the kernel with correlation
0.85-0.93. The windows' quartile spread fell from 0.05-0.12 raw to
0.02-0.04 scaled, and their range from 1.27-1.46x to 1.08-1.20x.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's median time on a 2-core x86 VM (Intel Xeon) in a quiet
# phase; fixed, so scaled times compare across runs and commits.
NOMINAL_S = 0.005

_ARRAY = np.random.default_rng(0).random((64, 64, 16))


def _kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i * i + 1)
    counts: dict = {}
    for i in range(3000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    total = 0.0
    for _ in range(10):
        total += _ARRAY.sum(axis=(0, 2)).max() + (_ARRAY * _ARRAY).sum()
    json.loads(json.dumps({str(i): [j / 7 for j in range(16)] for i in range(50)}))


class HostSpeed:
    """Kernel times of one run."""

    def __init__(self):
        _kernel()  # first call pays for lazy set-up; not a sample
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Multiply a time of this run by this to get nominal-host seconds."""
        return NOMINAL_S / self.median_s()
