"""Host-speed reference for calibrating throughputs on a shared host.

The host's other tenants slow its cores by up to 2x, in spells that come
and go per core within a second and sometimes last for minutes, on wall
and CPU clocks alike. Repetition within one run averages out the short
spells but not the long ones. The benchmark therefore times this fixed
loop, which does the kind of work the engine does (small numpy
operations driven from Python), in the same process just before each
round, and scales that round's times by ``metrics.NOMINAL_S`` over the
loop's time: what the program would take on a host where the loop takes
``NOMINAL_S``.

This file belongs to the benchmark: changing the loop or ``NOMINAL_S``
redefines every calibrated metric.
"""

from __future__ import annotations

import time

import numpy as np

_ROWS = np.linspace(0.0, 1.0, 400 * 100).reshape(400, 100)


def reference_seconds() -> float:
    """Time one pass of the reference loop."""
    v = np.zeros(100)
    started = time.perf_counter()
    for _ in range(64):
        for row in _ROWS:
            v += row
            np.clip(v, 0.0, 5.0, out=v)
    return time.perf_counter() - started
