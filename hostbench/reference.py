"""A fixed reference computation, timed beside every unit to factor out host speed.

The host this benchmark was built on slows down by up to ~2x for stretches of tens
of seconds, for reasons outside the process (see README, *Machine noise*).  A unit's
raw time therefore measures the host as much as the program.  ``run.py`` times this
reference immediately before and after every unit; the host slows both alike, so
their ratio repeats where neither time does.

The reference is the benchmark's own code and never calls the program, so a change
to the program cannot move it.  It mixes the two kinds of work the workloads do: a
small event-driven batch simulation in pure Python (objects, dicts, float
arithmetic) and NumPy integer quantize-and-reduce passes over a 64 x 1024 array.
"""

from __future__ import annotations

import numpy as np

#: A fixed constant, about the time of one :func:`run_reference` call on the 2-vCPU
#: Xeon VM this was built on (CPython 3.11, NumPy 2.4).  ``run.py`` turns a time in
#: references into seconds with it: the reported rates are operations per second of
#: a host that runs the reference in this time.  It only sets the scale and must
#: never change.
NOMINAL_S = 0.015

_ARRAY = np.random.default_rng(20240607).normal(size=(64, 1024))
# Preallocated outputs: the NumPy passes allocate no large arrays, so their time does
# not depend on the allocator state the program left behind (a 512 KB temporary is
# mmapped afresh or reused from the heap depending on glibc's adaptive threshold,
# which the program's own allocations move; that alone changed this half's time
# about 3x between processes).
_SCALED = np.empty_like(_ARRAY)
_CODES = np.empty(_ARRAY.shape, dtype=np.int8)
_WIDE = np.empty(_ARRAY.shape, dtype=np.int32)


class _Job:
    __slots__ = ("left", "arrival")


# 400 jobs on a fixed schedule: (arrival time, id, length in decode steps).  The job
# objects are made once and reset by every call, so the simulation allocates almost
# nothing and its time, too, does not depend on the heap the program left behind.
_ARRIVALS = []
_state = 12345
for _i in range(400):
    _state = (_state * 1103515245 + 12345) & 0x7FFFFFFF
    _ARRIVALS.append((_i * 0.01, _i, 20 + _state % 200))
_JOBS = [_Job() for _ in _ARRIVALS]


def _simulate() -> float:
    """Jobs join as they arrive; each decode step shortens every active job by one."""
    for arrival, ident, length in _ARRIVALS:
        job = _JOBS[ident]
        job.left, job.arrival = length, arrival
    clock, latency, pending, active = 0.0, 0.0, 0, {}
    while pending < len(_ARRIVALS) or active:
        while pending < len(_ARRIVALS) and _ARRIVALS[pending][0] <= clock:
            ident = _ARRIVALS[pending][1]
            active[ident] = _JOBS[ident]
            pending += 1
        clock += 0.001 + 0.00001 * len(active)
        for ident in [k for k, job in active.items() if job.left <= 1]:
            latency += clock - active.pop(ident).arrival
        for job in active.values():
            job.left -= 1
    return latency


def _quantize() -> int:
    total = 0
    for _ in range(20):
        np.multiply(_ARRAY, 7.5, out=_SCALED)
        np.round(_SCALED, out=_SCALED)
        np.clip(_SCALED, -8, 7, out=_SCALED)
        np.copyto(_CODES, _SCALED, casting="unsafe")
        np.copyto(_WIDE, _CODES)
        total += int(_WIDE.reshape(64, 16, 64).max(axis=2).sum())
    return total


def run_reference() -> tuple:
    return _simulate(), _quantize()
