"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared machine the same single-threaded Python and small-matrix numpy
work runs 20-60% slower for seconds to minutes at a time, and run-to-run
medians of raw wall time drift by about 20%.  The benchmark times this
kernel between iterations and rescales each iteration's wall time to the
host speed at which the kernel takes ``NOMINAL_S``.  The kernel has the same
profile as lieforge's hot loops (an interpreter loop around 4x4 complex
matrix products) and does not touch lieforge, so a change to the package
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 3000
NOMINAL_S = 0.015

_A = np.array([[0.1j * (i - j) + 0.05 * (i + j) for j in range(4)] for i in range(4)])
_EYE = np.eye(4, dtype=complex)


def kernel() -> float:
    m = _EYE
    total = 0.0
    for k in range(1, STEPS):
        m = m @ _A / k + _EYE
        total += float(np.linalg.norm(m))
    return total


def reference_s() -> float:
    """Wall time of one run of :func:`kernel`."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rescale(elapsed: float, ref_before: float, ref_after: float) -> float:
    """``elapsed`` at the host speed where the kernel takes ``NOMINAL_S``."""
    return elapsed * NOMINAL_S / (0.5 * (ref_before + ref_after))
