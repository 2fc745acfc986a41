"""The host's current speed, from a fixed unit of pure-Python work.

The benchmark shares its host.  On a shared two-vCPU virtual machine,
passes of one seed have run 1.75 times slower for seconds to minutes at a
time, in CPU time as well as wall time, which no bound of 25% absorbs.  So the run times :func:`reference_work`
every few dozen milliseconds, and reports each timing scaled to a host on
which that work takes ``REFERENCE_S``: a change to repgrowth moves the
scaled figures, a slower host does not.  The raw figures go into the run
metadata.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 1e-3
REPEATS = 3


def reference_work() -> int:
    """About a millisecond of the tuple arithmetic, hashing, set and
    integer work that repgrowth spends its time on."""
    seen = set()
    w = (3, 1, 4, 1, 5)
    acc = 0
    for i in range(800):
        v = tuple(a - b for a, b in zip(w, (i % 3, 1, -1, 2, 0)))
        if v not in seen:
            seen.add(v)
        acc += sum(v) * i % 97
        w = v[1:] + (v[0] + 1,)
    return acc


def reference_seconds() -> float:
    """Best of a few timings of the reference work, now.  The collector is
    off meanwhile, so that the size of the caller's heap does not count."""
    best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = perf_counter()
            reference_work()
            best = min(best, perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best
