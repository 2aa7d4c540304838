"""Host-speed pacing: a fixed reference kernel timed between pieces of a run.

On a shared host the speed of a core swings by up to 2x, over seconds
and over minutes, for every program alike (a spin loop reads 0.09 to
0.18 s on a 2-vCPU KVM guest within minutes, with no steal time, so CPU
time swings as much as wall time).  Raw timings then report the host,
not the program.  The benchmark therefore times a fixed reference
kernel -- interpreter work and a little numpy, the mix the simulators
run -- between pieces of every run, outside the pieces' own timers, and
scales the run's times by ``NOMINAL_S / mean(kernel samples)``: seconds
at the nominal speed at which the kernel takes ``NOMINAL_S``.  A change
to the program moves the scaled times as it moves the raw ones; a
change of host speed during a run moves the kernel too, and mostly
cancels.  On that guest, over runs of one seed in fresh processes, the
scaling cut the coefficient of variation of a run's time from 0.17 to
0.06 (packet-path-churn), 0.09 to 0.05 (packet-cbr-flood) and 0.06 to
0.03 (fluid-internet).  The simulators still slow down more than the
kernel when the host is slow, so what is left is mostly the host.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The kernel's time, in seconds, at the nominal speed: about its time
#: on a 2-vCPU x86-64 KVM guest (Xeon) with Python 3.11 and numpy 2.4.
NOMINAL_S = 0.005

_ARRAY = np.arange(16_384, dtype=np.float64)


def kernel() -> float:
    """The reference work: dict updates and integer arithmetic, then
    vectorised float arithmetic over a 128 KiB array."""
    table: dict = {}
    acc = 0
    for i in range(12_000):
        key = i & 511
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    total = float(acc)
    for _ in range(40):
        total += float(np.sqrt(_ARRAY * 1.5 + 2.0).sum())
    return total


class Pacer:
    """Kernel samples taken during one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(times):
            start = clock()
            kernel()
            self.samples.append(clock() - start)

    def factor(self) -> float:
        """Host seconds -> seconds at the nominal speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
