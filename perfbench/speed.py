"""A fixed calibration kernel that measures how fast the machine is now.

A shared host runs the benchmark's vCPU at a speed that changes from
second to second and from minute to minute: the same pure-Python work
can take 1.7 times as long in one stretch as in the next. Reported times
are therefore scaled to a reference speed. Between groups of requests
the run times this kernel, and every time measured between two kernel
samples is multiplied by ``REFERENCE_MS`` over the mean of the two. A
change to the package leaves the kernel alone, so it moves the scaled
times as much as the raw ones.

The kernel does what the engine spends its time on: it rebuilds an
adjacency map without a set of dropped vertices, and enumerates the
simple paths of a fixed DAG, growing one tuple per step. Its input is
built once, from a fixed seed, when the module is imported.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

#: scaled times are those of a machine on which one kernel call takes
#: this long (in the fast stretches of a shared 2.1 GHz Xeon vCPU it takes
#: about 0.9 ms, in the slow ones about 1.6 ms)
REFERENCE_MS = 1.0
#: requests between two kernel samples take at least this much time
SLOT_NS = 20_000_000

_VERTICES = 1500
_MAX_PATH = 8


def _dag() -> dict[str, list[str]]:
    rng = random.Random("perfbench-speed-kernel")
    names = [f"v{i:05d}" for i in range(_VERTICES)]
    return {names[i]: sorted(names[j] for j in set(rng.sample(range(i), min(i, 2))))
            for i in range(_VERTICES)}


_ADJ = _dag()
_NAMES = sorted(_ADJ)
_DROPPED = frozenset(_NAMES[::7])
_EDGES = [(a, b) for a in _NAMES[300:1000] for b in _ADJ[a]]
_ROOTS = _NAMES[200::100]


def kernel() -> int:
    """The fixed work; returns a count that is the same on every call."""
    rebuilt: dict[str, list[str]] = {}
    for a, b in _EDGES:
        if a in _DROPPED or b in _DROPPED:
            continue
        rebuilt.setdefault(a, []).append(b)
    paths = 0
    for root in _ROOTS:
        stack = [(root,)]
        while stack:
            path = stack.pop()
            paths += 1
            if len(path) < _MAX_PATH:
                for nxt in _ADJ[path[-1]]:
                    if nxt not in path:
                        stack.append(path + (nxt,))
    return len(rebuilt) + paths


def sample() -> int:
    """Nanoseconds one kernel call takes now."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def scale(before_ns: int, after_ns: int) -> float:
    """The factor that turns a time measured between two kernel samples
    into a time at the reference speed."""
    return REFERENCE_MS * 2e6 / (before_ns + after_ns)
