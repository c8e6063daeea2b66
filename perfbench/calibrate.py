"""A fixed reference kernel that measures the host's current speed.

Shared hosts drift.  On the 2-vCPU virtual machine this benchmark was
written on, identical passes of sweep-small took 2.6 s in one run and
5.1 s in another a few minutes later, and the kernel's time switched
between about 2 ms and 3.5 ms several times a second.  The runner times
this kernel between operations, and each set-up child times it before
and after its set-up; every end-to-end time is reported at a reference
speed, raw * REFERENCE_S / mean(kernel times).  Every run also records
its raw times and speed factors.

The kernel is a schoolbook product of two fixed degree-24 polynomials
over F_9, done by reference.py: the same kind of work as gfrecip's inner
loops (small-int arithmetic mod p, tuple building, list indexing,
method calls).  It does not use gfrecip, so no change to gfrecip can
move it, and this module imports nothing that gfrecip imports, so a
set-up child can time it before its set-up without warming that.
"""

from __future__ import annotations

import gc
import time

from reference import RefField

REFERENCE_S = 3e-3  # kernel time that defines the reference speed
INTERVAL_S = 0.3    # operation time between two samples

_F9 = RefField(3, 2, (2, 2, 1))
_F = [((3 * i + 1) % 3, (i * i) % 3) for i in range(25)]
_G = [((i + 1) % 3, (2 * i) % 3) for i in range(25)]


def kernel():
    return _F9.poly_mul(_F, _G)


def sample() -> float:
    """The middle of three kernel times, in seconds.  The cyclic garbage
    collector is off meanwhile: its pauses grow with the heap the
    workload left behind, which is not host speed."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[1]


def speed(kernel_times) -> float:
    """The factor that takes a raw time measured alongside these kernel
    times to the reference speed.  The host switches between a fast and
    a slow state many times a second, so a pass runs in a mix of both:
    the mean kernel time follows that mix, where the median would jump
    to whichever state held in more than half of the samples."""
    return REFERENCE_S * len(kernel_times) / sum(kernel_times)
