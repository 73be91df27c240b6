"""Machine-speed gauges: fixed work timed in the benchmark's own process.

A shared machine's speed can change by 2x for minutes at a time (seen on
a 2-vCPU Xeon VM), and every child's time moves with it. Gauge readings
taken around a child measure the speed the child ran at; scaling the
child's time by ``NOMINAL_S[kind] / gauge time`` reports it as if the
machine had run at the speed where the gauge takes ``NOMINAL_S``.
The gauges use no equimean code, so a change to the package moves the
child's time and leaves the gauge alone.

``python`` is interpreter-bound work, like the dyadic, scalar and start-up
paths; ``numpy`` is elementwise array work, like the grid scan.
"""

from __future__ import annotations

import time

# gauge wall time at the nominal speed (about its median on a 2-vCPU Xeon VM)
NOMINAL_S = {"python": 0.03, "numpy": 0.02}


def _python_work() -> float:
    table = {}
    total = 0.0
    for i in range(100_000):
        item = (i, i * 0.5, float(i) ** 0.5)
        table[i & 1023] = item
        total += item[2] - item[1] * 1e-9
    return total


def _numpy_work() -> float:
    import numpy as np

    xs = np.arange(1.0, 1001.0)
    X, Y = xs[:, None], xs[None, :]
    P = np.sqrt(X * Y)
    R = np.maximum(np.abs(X - P), np.abs(Y - P)) / np.where(X != Y, np.abs(X - Y), 1.0)
    return float(R.max())


WORK = {"python": _python_work, "numpy": _numpy_work}


def measure(kind: str) -> float:
    """Wall time of one fixed unit of the gauge's work."""
    work = WORK[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
