"""Timed calls scaled to a nominal host speed.

On a shared VM host each CPU runs at one of two speeds that lie about
1.6x apart, and switches between them every few seconds to minutes, on
each CPU independently, with the other tenants' load.  Compile times
follow it: one ten-run ``suite_sweep`` set read 15.8 to 22.9 compiles/s
on unchanged code.  Longer runs do not average it out, and a per-cell
median or minimum cannot tell a slow stretch from slow code.

So the benchmark pins itself to one CPU and runs a short fixed
reference kernel (pure Python and small complex matrix products, the
mix a compile does) right before and right after every timed call.  The
call's time is scaled by ``NOMINAL_REFERENCE_S`` over the mean of the
two reference times: the seconds the call would have taken at the speed
where the reference takes ``NOMINAL_REFERENCE_S``, this host's fast
speed.  The reference runs none of the program's code, so a change to
the program moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: The reference kernel's duration at the host's fast speed (2 vCPUs of
#: an Intel Xeon at 2.1 GHz, Python 3.11, numpy with OpenBLAS).
NOMINAL_REFERENCE_S = 0.0009

_MATRIX = np.random.default_rng(0).standard_normal((4, 4)) + 0j


def pin_to_one_cpu() -> None:
    """Run this process (and the processes it starts) on one CPU.

    The reference must run on the CPU the timed call ran on, since each
    CPU changes speed on its own.  The highest-numbered CPU is used.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_seconds() -> float:
    """Time one run of the fixed reference kernel.

    The time is this thread's CPU time, which tracks the CPU's speed as
    wall time does (within 2 % here) but leaves out the time other
    processes on the CPU take, such as an ``http_mix`` server finishing
    a request after its response.
    """
    started = time.thread_time()
    total = 0
    for i in range(8000):
        total += i * i % 7
    matrix = _MATRIX
    for _ in range(100):
        matrix = matrix @ _MATRIX
        matrix /= np.abs(matrix).max()
    return time.thread_time() - started


def at_nominal_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled by the reference runs taken ``before`` and ``after``."""
    return elapsed * NOMINAL_REFERENCE_S * 2.0 / (before + after)
