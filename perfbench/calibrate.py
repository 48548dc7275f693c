"""Host-speed calibration kernel, run in its own process by ``run.py``.

Each line read from standard input runs the kernel once and prints its wall
time.  The kernel uses no ``repro`` code, so no change to the library can
move it.  Timed next to each measurement, it tracks how fast the host runs
at that moment.  Its dictionary and array working set is large on purpose:
a small kernel that stays in cache misses the slow phases of a shared host.
It runs in a separate process so that its memory does not count towards the
benchmark process's peak RSS.
"""

import sys
import time

import numpy as np


def kernel_seconds() -> float:
    started = time.perf_counter()
    table = {}
    for i in range(400_000):
        table[(i * 7919) % 300_007] = i
    sorted(table, key=table.__getitem__)
    values = (np.arange(800_000, dtype=np.int64) * 2_654_435_761) % 1_000_003
    for _ in range(4):
        values = np.sort(values ^ 0x5555)
    return time.perf_counter() - started


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(kernel_seconds()), flush=True)
