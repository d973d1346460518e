"""The host's speed, read from a fixed kernel, to report times at a reference speed.

The benchmark runs on a few vCPUs of a shared host.  Their speed for
pure-Python work moves by a quarter or more, up or down, in states that
last from seconds to minutes.  On ``bilocal-n3-many``, whose verdicts are
per-call Python cost, ten runs of the same code spread 0.21 to 0.27
((q3 - q1) / median) in median verdict time, all of it host speed.

A fixed kernel of netnpa-like work (tuple keys counted in a dict, a sort
and a small LAPACK ``eigh``) slows down with the host.  A workload that
sets ``kernel_reps`` runs it between the items it times and scales each
item's operations by ``REFERENCE_S`` over the kernel's time around them.
A scaled time is in *reference seconds*: the time the operation would
take on a host where the kernel takes ``REFERENCE_S``.  On
``bilocal-n3-many`` five seeds spread 0.22 in wall time and 0.05 in
reference seconds.  A change to netnpa moves the scaled time as much as
the wall time; the kernel does not call netnpa.

The kernel does not track BLAS-bound work: on ``bilocal-infl22-quantum``
the scaled verdict times spread wider than the wall times, so the loops of
the two inflation workloads report wall seconds.  Set-up is imports and
pure-Python builds on every workload, so every workload scales it by a
kernel reading taken right after the build.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the reference host (2 vCPUs, Intel Xeon 2.1 GHz,
# Python 3.11, scipy-openblas on one thread)
REFERENCE_S = 0.00075

_KEYS = range(1500)
_MATRIX = (lambda a: a + a.T)(np.random.default_rng(0).standard_normal((32, 32)))


def kernel() -> float:
    """Seconds taken by one run of the kernel."""
    t = time.perf_counter()
    counts: dict[tuple, int] = {}
    for i in _KEYS:
        key = (i % 97, i % 13, "x")
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    np.linalg.eigh(_MATRIX)
    return time.perf_counter() - t


def kernel_s(reps: int) -> float:
    """Median time of ``reps`` kernel runs."""
    return statistics.median(kernel() for _ in range(reps))


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work that ran
    between two kernel readings."""
    return REFERENCE_S / ((before + after) / 2.0)
