"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the speed of a core drifts by 20-40% over seconds to
minutes, as other tenants load the cores and caches it shares.  Every
operation then slows down together, with no steal time to show for it, and
the median of a run moves with the host rather than with the program.  The
benchmark therefore runs this computation just before and just after every
timed operation and scales the operation's wall time by `REFERENCE_S` over
the mean of the two: the time the operation would have taken at the speed at
which the baseline machine ran this computation.

Tight arithmetic loops track that drift poorly.  Code shaped like the
program's tracks it well, so this is a small simulation in the program's
style: a 2-d model stepped path by path on small arrays with a ball
projection, and a scalar model stepped as a vectorised ensemble over
per-path Philox streams.  It is the benchmark's own code and imports nothing
from the program, so a change to the program moves the scaled times and
never the reference.  Changing this file re-bases every recorded figure.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# median of `reference_s()` over the runs that recorded baseline.json
REFERENCE_S = 0.070

PATH_STEPS = 1000       # steps of the path-by-path part
ENSEMBLE = 512          # paths and steps of the ensemble part


def _drift(x):
    return x**3 - 4.0 * x**5


def _diffusion_col(x, j: int):
    col = np.zeros(2)
    col[j] = x[j] * x[j]
    return col


def _project(x, radius: float = 2.0):
    norm = float(np.linalg.norm(x))
    return x if norm <= radius else x * (radius / norm)


def reference_s() -> float:
    """Wall time of one pass of the reference computation.

    The cyclic garbage collector is off while it runs: the computation makes
    no cycles, and a collection started inside it would time the program's
    heap, not the machine.
    """
    gc.disable()
    try:
        return _timed_pass()
    finally:
        gc.enable()


def _timed_pass() -> float:
    t0 = perf_counter()
    rng = np.random.Generator(np.random.Philox(key=7))
    dB = 0.1 * rng.standard_normal((PATH_STEPS, 2))
    y = np.array([1.0, 1.0])
    for k in range(PATH_STEPS):
        z = _project(np.atleast_1d(np.asarray(y, dtype=float)))
        incr = np.broadcast_to(np.asarray(_drift(z), dtype=float), (2,)) * 0.01
        for j in range(2):
            incr = incr + _diffusion_col(z, j) * dB[k, j]
        y = y + incr
    draws = np.stack([np.random.Generator(np.random.Philox(key=i)).standard_normal(ENSEMBLE)
                      for i in range(ENSEMBLE)])
    x = np.ones(ENSEMBLE)
    for k in range(ENSEMBLE):
        z = np.clip(x, -2.0, 2.0)
        x = x + 0.01 * _drift(z) + 0.1 * z * z * draws[:, k]
    return perf_counter() - t0


def scaled(times: list, refs: list) -> list:
    """Each time scaled to the reference speed; `refs[i]` and `refs[i + 1]`
    are the reference runs just before and just after `times[i]`."""
    return [t * REFERENCE_S / (0.5 * (r0 + r1)) for t, r0, r1 in zip(times, refs, refs[1:])]
