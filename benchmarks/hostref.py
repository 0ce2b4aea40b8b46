"""Host-speed reference: fixed work timed between operations.

On a shared host the same operation runs up to 1.5 times slower while other
tenants load the machine, in phases that come and go within seconds and
sometimes cover a whole run.  After every timed operation the benchmark runs
this fixed reference work for a set share of that operation's latency.  The
reference's mean unit time over a pass measures how fast the host ran while
the pass's operations ran, and their latencies are scaled by
``(REF_UNIT_S / mean unit time) ** elasticity``, the elasticity being how
far the workload's times follow the reference's.  rdwaves never runs this
code, so a change to rdwaves moves the operations' time and not the
reference's.
"""

from __future__ import annotations

import time

import numpy as np

# mean unit time on the machine the benchmark was defined on (2-vCPU Xeon,
# Python 3.11, numpy 2.4); it only sets the scale of the corrected figures
REF_UNIT_S = 1.25e-3
# reference time after each operation, as a share of its latency
REF_SHARE = 0.10

_GRID = np.linspace(-1.0, 1.0, 4096)


def reference_unit() -> float:
    """About 1.25 ms of ufunc work on a grid-sized array.  Of the kinds of
    work tried (small-array calls, float formatting, a pure-Python loop),
    this one slowed most nearly in step with the workloads' operations."""
    acc = 0.0
    for k in range(64):
        acc += float(np.exp(-np.square(_GRID * (1.0 + 0.02 * k))).sum())
    return acc


class HostReference:
    """Reference time gathered after each operation of a pass (or probe block)."""

    def __init__(self, elasticity: float = 1.0):
        self.elasticity = elasticity
        self.seconds = 0.0
        self.units = 0

    def sample(self, latency: float) -> None:
        """Run reference units for REF_SHARE of ``latency``, at least one."""
        budget = REF_SHARE * latency
        spent = 0.0
        while True:
            start = time.perf_counter()
            reference_unit()
            spent += time.perf_counter() - start
            self.units += 1
            if spent >= budget:
                break
        self.seconds += spent

    @property
    def unit_s(self) -> float:
        return self.seconds / self.units

    @property
    def correction(self) -> float:
        """Factor that brings the timings to the reference host speed."""
        return (REF_UNIT_S / self.unit_s) ** self.elasticity
