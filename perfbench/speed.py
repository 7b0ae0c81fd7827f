"""Host-speed reference for the end-to-end times.

On a shared virtual machine the CPU's speed can drift a lot over minutes:
on a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz nominal) the same pass took
anywhere from 1.2 s to 2.3 s, and whole sweeps from 7.2 s to 13.1 s.  The
drift shows in CPU time as well as wall time, so no clock avoids it, and
runs of the same code made minutes apart differ by more than any useful
regression bound.

A calibration slice is a fixed piece of work that calls no varq code: small
numpy array operations and pure-Python calls, the same kinds of work that
dominate the scenarios.  After every scenario the benchmark runs slices for
about 2% of that scenario's time.  A pass's speed factor is
``REFERENCE_SLICE_S / mean(slice time)``; multiplying a raw time by it gives
seconds at the reference speed.  A change to varq changes the raw times but
not the slices, so normalised times move as raw times would on a host of
constant speed, as far as the slice tracks the workload's response to the
host's speed: closely for dispatch-bound work, less for LAPACK-heavy work.
Raw times are recorded beside them.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the slice time on the KVM guest above.  It only sets the scale of
# normalised times and must never change.
REFERENCE_SLICE_S = 1.0e-3
CALIBRATION_SHARE = 0.02

_X = np.linspace(0.0, 1.0, 1001)


def _f(x: float) -> float:
    return math.sqrt(x * x + 1.0) - 0.5 * x


def slice_seconds() -> float:
    """Time one calibration slice."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        y = np.sqrt(_X * _X + 1.0)
        d = np.diff(y) * 1000.0
        acc += float(np.sum(np.where(d > 0.5, d, 0.0))) + float(np.max(y))
    for i in range(1500):
        acc += _f(i * 0.001)
    return time.perf_counter() - t0


def calibrate_after(seconds: float) -> list:
    """Slice times for about CALIBRATION_SHARE of ``seconds`` (at least one)."""
    n = max(1, round(CALIBRATION_SHARE * seconds / REFERENCE_SLICE_S))
    return [slice_seconds() for _ in range(n)]


def factor(slices) -> float:
    """Speed factor: raw seconds times this gives reference seconds."""
    return REFERENCE_SLICE_S * len(slices) / sum(slices)
