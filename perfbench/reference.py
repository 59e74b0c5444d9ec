"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same work takes 15-40 % longer in some minutes than
in others, and a slow phase can outlast a whole run. So the kernel runs
before every op and after the last, and each op's latency is scaled by
``REFERENCE_S`` over the kernel's median time around it: the op's time
at the speed where the kernel takes ``REFERENCE_S``. The kernel mixes what
the workloads do (interpreted loops over small numpy calls, small
Hermitian eigenproblems, one HiGHS solve, one pass over a strategy-sized
array) and uses no cyclesteer code, so a change to cyclesteer moves the
scaled times in full. Around a long op the kernel runs several times and
its median counts.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

# The kernel's typical time on the 2-vCPU host where the baseline was
# measured; it sets the scale of the reported times, not their spread.
REFERENCE_S = 0.015
WINDOW_S = 1.0

_rng = np.random.default_rng(2106)
_M = _rng.standard_normal((3, 3)) / 3
_H = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = _H @ _H.conj().T
_A = np.abs(_rng.standard_normal((24, 120)))
_B = _A @ np.abs(_rng.standard_normal(120)) / 120
_C = _rng.random(120)
_BITS = _rng.integers(0, 2, size=(1 << 16, 12))
_W = _rng.standard_normal(12)


def sample(runs: int = 1) -> tuple[float, float]:
    """(time at the middle of the sample, median kernel time of ``runs`` runs)."""
    t0 = perf_counter()
    k = statistics.median(_kernel_once() for _ in range(runs))
    return (t0 + perf_counter()) / 2, k


def _kernel_once() -> float:
    t0 = perf_counter()
    v = np.ones(3)
    for _ in range(1200):
        v = np.tanh(_M @ v) + 0.1
    for _ in range(400):
        np.linalg.eigvalsh(_H)
    res = linprog(_C, A_eq=_A, b_eq=_B, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    float(np.abs((_BITS * _W).sum(axis=1)).max())
    return perf_counter() - t0


def scaled(intervals: list[tuple[float, float]], samples: list[tuple[float, float]]) -> list[float]:
    """Scale each (start, latency) interval by REFERENCE_S over the median
    kernel time of the samples taken within WINDOW_S of it, always
    counting the samples just before and just after it.

    ``samples`` holds (time taken, kernel time) pairs: one before each
    interval and one after the last. Several samples around a short op
    smooth the kernel's own noise; a long op has only its two neighbours.
    """
    out = []
    for i, (start, latency) in enumerate(intervals):
        near = [k for j, (t, k) in enumerate(samples)
                if j in (i, i + 1) or start - WINDOW_S <= t <= start + latency + WINDOW_S]
        out.append(latency * REFERENCE_S / statistics.median(near))
    return out
