"""Fixed reference computations that put the benchmark's times on one scale.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
virtual machine the same work ran 1.4-1.8x slower for stretches of 40 s
and more, in CPU time as well as in wall time, so no statistic over a run
of a few tens of seconds can tell such a stretch from a slower program.
A reference computation timed next to the package's own work slows down
with the machine. A time ``t`` measured while one reference call takes
``r`` seconds reads ``t * NOMINAL_SECONDS[kind] / r`` at reference speed:
the time the work would take on a machine where one call takes its
nominal time.

There are two kinds, because the two kinds of work the package does slow
down by different factors in the same slow stretch (about 1.7x and 1.5x
on the machine above), and each reference tracks the work it resembles:

- ``numpy``: softmax-regression SGD on a 5-way 1-shot-sized problem, the
  small-array numpy steps of head fitting, adaptation and scoring;
- ``python``: ancestor closures in a fixed random DAG, the pure-Python
  graph walking of d-separation.

The references use only numpy and the standard library, never the package,
so no change to the package can change them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds of one call on the machine the reference figures in README.md come
# from, in its fast spells.
NOMINAL_SECONDS = {"numpy": 0.0025, "python": 0.0025}

_rng = np.random.default_rng(20240611)
_X = _rng.standard_normal((5, 64))
_Y = np.eye(5)
_NODES = 400
_PARENTS = [
    [int(p) for p in _rng.choice(j, size=min(j, int(_rng.integers(0, 5))), replace=False)]
    for j in range(_NODES)
]


def _sgd(steps: int = 220) -> None:
    W = np.zeros((64, 5))
    for _ in range(steps):
        z = _X @ W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        W -= 0.1 * (_X.T @ (p - _Y))


def _ancestors(starts) -> int:
    seen = set(starts)
    stack = list(starts)
    while stack:
        for parent in _PARENTS[stack.pop()]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return len(seen)


def _walk() -> None:
    for start in range(_NODES - 230, _NODES):
        _ancestors((start, start // 2))


_KINDS = {"numpy": _sgd, "python": _walk}


def call(kind: str) -> float:
    """Run the reference of ``kind`` once and return its seconds."""
    work = _KINDS[kind]
    t0 = perf_counter()
    work()
    return perf_counter() - t0

