"""Host-speed calibration: scale measured times to a reference speed.

The benchmark runs on a shared virtual machine whose speed changes while
nothing else runs in it, in CPU time as much as in wall time: a fixed
task flips between about 1x and 1.6x its best time within a fraction of
a second, and whole minutes run slower than others.  No statistic over a
run filters that, so the benchmark times two fixed reference tasks
alongside the work it measures and scales each measured time by the
reference task's speed while it ran:

- ``kernel()``, a fraction-free (Bareiss) integer determinant in pure
  Python taking about 0.7 ms, runs in the worker three times before
  every in-process query and, from an interval timer, every
  ``SAMPLE_EVERY_S`` while the query runs (worker.py).  Of the kernels
  tried it tracked in-process cycloclass work best.
- ``SPAWN_CODE``, a fresh interpreter importing a fixed set of stdlib
  modules, is started between CLI invocations and set-up probes (run.py).
  It tracks process start-up, which an in-process kernel does not.

A time ``t`` becomes ``t * mean(ref / s)`` over the reference samples
``s`` taken while it ran, or the ``least`` nearest ones when fewer were
(``REFERENCES``): seconds at the host speed at which the reference task
takes ``ref``.
The constants were measured on the 2-core Intel Xeon host the benchmark
was written on; they fix only the scale, and a change to the program
moves the scaled times by the same share as the raw ones.  Raw times
stay in the run record.
"""

import time

# name: (ref, least)
REFERENCES = {"kernel": (0.0007, 3), "spawn": (0.16, 2)}
SPAWN_CODE = ("import fractions, decimal, json, email.parser, argparse, "
              "dataclasses, asyncio, unittest")

SAMPLE_EVERY_S = 0.02  # kernel samples while an in-process query runs
KERNEL_BEFORE = 3  # kernel samples before each in-process query

_N = 20
_MATRIX = [[(i * 31 + j * 17 + i * j) % 11 - 5 + 7 * (i == j)
            for j in range(_N)] for i in range(_N)]


def _det():
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        pivot = m[k][k] or 1
        for i in range(k + 1, _N):
            row, factor = m[i], m[i][k]
            for j in range(k + 1, _N):
                row[j] = (row[j] * pivot - factor * m[k][j]) // prev
        prev = pivot
    return m[-1][-1]


def kernel():
    """Time the in-process reference task once: [middle instant, s]."""
    start = time.monotonic()
    _det()
    end = time.monotonic()
    return [(start + end) / 2, end - start]


def scale(seconds, start, end, samples, reference):
    """`seconds`, measured from instant `start` to `end`, at the reference
    speed, from samples [middle instant, s] of the named reference task."""
    ref, least = REFERENCES[reference]
    near = [s for t, s in samples if start <= t <= end]
    if len(near) < least:
        def distance(sample):
            return max(start - sample[0], sample[0] - end, 0.0)
        near = [s for _, s in sorted(samples, key=distance)[:least]]
    return seconds * sum(ref / s for s in near) / len(near)
