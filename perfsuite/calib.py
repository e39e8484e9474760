"""Drift calibration: a fixed loop that measures how fast the host is now.

The host's speed drifts by tens of percent over minutes (shared cores,
frequency scaling), which swamps any code change worth measuring. Every
timed chunk of program work is therefore bracketed by this loop, run
while the program is idle, and the chunk's host time is rescaled to a
nominal loop speed:

    calibrated_s = raw_s * (rate / NOMINAL_RATE) ** ELASTICITY

where ``rate`` is the loop's speed (units per second) around the chunk.
A slow host stretches ``raw_s`` and shrinks ``rate``, so the product
stays put and the unit stays seconds. The program does not slow down
one for one with the loop, and the loop's own noise rides on every
rescale: over quiet stretches, regressing log chunk speed on log loop
rate gave elasticities of 0.39 to 0.69 by workload, and a full rescale
widened paper-grid's run-to-run quartile spread of sim_steps_per_s from
6.5% raw to 10.8%; over a stretch of slow drift the raw spread was
21.7% and a full rescale cut it to 10.4%. Over three ten-run sets,
ELASTICITY = 0.8 kept the worst spread lowest (10.6%, against 15.8% at
0.6 and 10.8% at 1.0).

The loop runs in two worker processes at once (``python3 calib.py``
serves one measurement per stdin line), so both of this 2-core host's
CPUs are busy, as they are while the program runs: the program keeps a
second thread spinning (OpenBLAS) or runs a server beside its load
generator. Measured on identical repeated chunks, the two-process rate
tracks the program's speed where a lone loop, whose neighbour CPU sits
idle, swings on its own and tracks it worse than no calibration.

The loop's work, ``UNIT_*``, ``NOMINAL_RATE`` and ``ELASTICITY`` must
never change: a change would rescale every calibrated number the
benchmark has recorded.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: Python bytecode iterations per calibration unit.
UNIT_PY_ITERS = 400
#: 49x49 einsum mat-vecs per calibration unit (49 = the cmp4 floorplan's
#: block count).
UNIT_EINSUMS = 8
#: Units per timed block, and blocks per calibration. The median block
#: rate ignores a short burst of interference inside one calibration.
UNITS_PER_BLOCK = 250
BLOCKS = 5
#: Calibration units per second that calibrated numbers are expressed
#: at: roughly this loop's speed on a 2-core x86-64 container.
NOMINAL_RATE = 12000.0
#: How far program speed follows the loop's speed (module docstring).
ELASTICITY = 0.8

_N = 49
_A = (np.arange(_N * _N, dtype=float).reshape(_N, _N) % 7.0 + 1.0) / (8.0 * _N)
_X0 = np.linspace(20.0, 90.0, _N)


def _unit() -> float:
    acc = 0
    for i in range(UNIT_PY_ITERS):
        acc += (i * 7) % 13
    x = _X0
    for _ in range(UNIT_EINSUMS):
        x = np.einsum("ij,j->i", _A, x)
    return acc + float(x[0])


def measure() -> float:
    """The loop's current speed in units per second (median of blocks)."""
    rates: List[float] = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_BLOCK):
            _unit()
        rates.append(UNITS_PER_BLOCK / (time.perf_counter() - t0))
    return statistics.median(rates)


def bracket_rate(before: float, after: float) -> float:
    """The speed credited to a chunk run between two calibrations."""
    return (before * after) ** 0.5


def scale(rate: float) -> float:
    """Factor turning raw host seconds at ``rate`` into nominal seconds."""
    return (rate / NOMINAL_RATE) ** ELASTICITY


def spread(rates: Sequence[float]) -> float:
    """Max-minus-min of ``rates`` as a share of their median."""
    if not rates:
        return 0.0
    mid = statistics.median(rates)
    return (max(rates) - min(rates)) / mid if mid else 0.0


if __name__ == "__main__":
    import sys

    for _line in sys.stdin:
        print(measure(), flush=True)
