"""Host time, corrected for the speed of a shared machine.

Every timed call is measured in the CPU time of the process, summed over
its threads.  On a shared virtual machine, wall time also counts the time
the hypervisor gives the vCPU to other guests (steal) and the time other
processes hold it; the kernel leaves both out of CPU time.

CPU time still follows the speed of the physical core, and on a shared host
that changes by up to 1.9x within seconds (sibling hyperthreads and caches
busy with other guests).  So a fixed yardstick runs before and after every
timed call, and the call's CPU time is scaled by `REFERENCE_S / y`, where
`y` is the median of the four yardstick readings nearest the call, two on
each side: the result is the call's time on a machine where the yardstick
takes `REFERENCE_S`.  One reading alone is too noisy for calls that take
half a second.  The yardstick is benchmark code only and calls nothing in
spikecore.  Its mix follows the program's: interpreter loops, pointer
chasing through a list of a few MB, and small numpy calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.003   # about the yardstick's CPU time on a 2-vCPU Xeon VM

host_clock = time.process_time

_rng = np.random.default_rng(0)
_FLOATS = _rng.random(1 << 17).tolist()
_ORDER = _rng.permutation(1 << 17)[:5000].tolist()
_PLANE = _rng.integers(-99, 99, (256, 128)).astype(np.int32)
_SPIKES = _rng.random(256) < 0.1
_WEIGHTS = _rng.random((128, 64))
_VMEM = _rng.random(128)


def yardstick() -> float:
    """A fixed amount of work, about 3 ms of CPU time."""
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    total = float(acc)
    for i in _ORDER:
        total += _FLOATS[i]
    for _ in range(15):
        act = _VMEM @ _WEIGHTS
        total += float(np.where(act > 3.0, act, 0.0)[0])
        total += float((_SPIKES.astype(np.int32) @ _PLANE)[0])
    return total


def _yardstick_s() -> float:
    a = host_clock()
    yardstick()
    return host_clock() - a


class Timer:
    """Times calls in CPU seconds, with a yardstick reading between calls."""

    def __init__(self):
        self.raw: list[float] = []       # CPU seconds per call
        self.yard: list[float] = []      # readings; yard[i] is just before call i

    def __call__(self, fn, *args):
        if not self.yard:
            self.yard.append(_yardstick_s())
        a = host_clock()
        out = fn(*args)
        b = host_clock()
        self.raw.append(b - a)
        self.yard.append(_yardstick_s())
        return out

    def scaled(self) -> list[float]:
        """Each call's seconds at the reference speed."""
        return [cpu * REFERENCE_S / statistics.median(self.yard[max(0, i - 1):i + 3])
                for i, cpu in enumerate(self.raw)]
