"""A fixed numpy kernel that tells how fast the machine is right now.

The box the benchmark runs on is a small virtual machine whose speed
drifts by 5-20% over minutes (and by 80% in bad ones) with what its
neighbours do. A run that lands in a slow minute would read as a
regression of whatever commit it measured. The kernel below never
changes and touches nothing of ``repro``; it is timed right before and
right after every repeat, and the repeat's times are divided by how much
slower than :data:`REFERENCE_S` the kernel ran around it. What is left is
the time the repeat would have taken at the reference speed — the
quantity the end-to-end timing metrics report (raw times are kept beside
them). On the tuning box this cut the spread of ten runs of
``train_raster`` from 5% to 2% in a quiet quarter of an hour, and from 48%
to 6% in a noisy one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: what one pass of the kernel takes on the quiet tuning box
REFERENCE_S = 0.0065

_rng = np.random.default_rng(0)
_A = _rng.random((400, 400))
_X = _rng.random(300_000)
_IDX = _rng.integers(0, 300_000, size=200_000)


def _kernel() -> None:
    """Transcendentals, a sort, a gather, a scatter-add, a matmul and a
    scan: the operation mix of culling, rasterization and Adam."""
    np.exp(-_X).sum()
    np.argsort(_X[:100_000])
    y = _X[_IDX] * 2.0 + 1.0
    np.add.at(np.zeros(1000), _IDX[:50_000] % 1000, 1.0)
    (_A @ _A).sum()
    np.sqrt(y).cumsum()


def slowdown() -> float:
    """How many times slower than the reference the machine runs now
    (median of five timed passes of the kernel)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S
