"""Host-speed calibration: a fixed loop timed next to every measurement.

On a shared virtual machine the CPU changes speed while a run goes on: on a
2-vCPU host, a fixed loop and a pass of solves both ran about 1.7 times
slower for stretches of a fraction of a second up to 20 s, longer than some
runs.  Timings taken in a slow stretch and in a fast one are made
comparable by dividing each by the time of `probe()` measured just before
and just after it, and multiplying by REF_S, the probe's time at the
reference speed.  Over a 75 s probe of dense_prob passes whose wall time
moved between 1.14 and 2.49 s, the calibrated pass time stayed within 7.8
and 8.9 k probe units.

The loop does the same kinds of work as a solve, on fixed data that does
not depend on the solver: interpreter work on sets, dicts and tuples (a
min-fill elimination of a small graph), and small numpy reductions,
arg-reductions and transposed copies.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The probe's time at the reference speed: its median between solves in the
# fast phases of the 2-vCPU virtual machine (Python 3.11, numpy 2.4) that the
# baseline was recorded on.  A calibrated time reads as seconds at that speed.
REF_S = 0.18e-3

# A 10-vertex graph: a ring with four chords.
_EDGES = tuple((i, (i + 1) % 10) for i in range(10)) + ((0, 5), (2, 7), (3, 8), (1, 6))
_TABLE = np.random.default_rng(0).random((4, 4, 4, 4))


def _eliminate() -> int:
    adj: dict[int, set[int]] = {v: set() for v in range(10)}
    for a, b in _EDGES:
        adj[a].add(b)
        adj[b].add(a)

    def fill(v: int) -> int:
        nb = sorted(adj[v])
        return sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a])

    todo = list(range(10))
    worst = 0
    while todo:
        x = min(todo, key=fill)
        nb = adj.pop(x)
        worst = max(worst, len(nb))
        for a in nb:
            adj[a].update(nb - {a})
            adj[a].discard(x)
        todo.remove(x)
    return worst


def probe() -> float:
    """Seconds taken by one run of the fixed loop."""
    start = perf_counter()
    _eliminate()
    for axis in range(4):
        _TABLE.sum(axis=axis)
        _TABLE.max(axis=axis)
        _TABLE.argmax(axis=axis)
        (_TABLE * _TABLE).transpose(3, 1, 0, 2).copy()
    return perf_counter() - start


def probes(n: int) -> list[float]:
    return [probe() for _ in range(n)]


def calibrated(seconds: float, around: list[float]) -> float:
    """`seconds` at the reference speed, given probe times taken around it."""
    return seconds * REF_S / statistics.median(around)
