"""Deterministic, refinable Brownian increment grids.

Each (master_seed, path_index) pair keys an independent Philox counter-based
stream, so ensemble members can be generated in any order, on any worker, and
regenerate bit-exactly.  Gaussians come from the inverse normal CDF applied to
numpy's uniforms, one 64-bit word each, moved half a step of their 2^-53 grid
off 0: the sample count per coordinate is fixed, so streams never desync.  A
stream is one fixed sequence, so the n-step grid of a path is a prefix of
every longer grid of the same path up to the sqrt(dt) scale.  A stream is
also resumable: any window of its steps can be drawn on its own, so step
ladders draw the longest grid a bounded window at a time.  Coarse grids are
exact block sums of the fine increments, which is what lets strong-error
experiments couple coarse and fine solutions on the same underlying path.
Batches are step-major in memory: the draws of one step across all paths are
contiguous, which is the row an ensemble step reads, and block sums keep that
layout.  `ndtri` is loaded from scipy's extension module alone, so importing
this module does not run `scipy.special`'s package init.
"""

from __future__ import annotations

import itertools
import os
import sys
import types
from dataclasses import dataclass

import numpy as np
import scipy


def _load_ndtri():
    """scipy's `ndtri` ufunc, taken from the private extension module
    `scipy.special._ufuncs` without running `scipy.special`'s `__init__`.

    That init imports scipy's array-API layer, and with it `numpy.f2py`,
    `numpy.testing` and `numpy.ma`: most of this package's import time.  A
    bare placeholder package with the real `__path__` stands in for
    `scipy.special` while the extension loads, and is removed again, so a
    later `import scipy.special` runs the real init and its `ndtri` is this
    same object.  Where `scipy.special` is already imported, or the private
    import fails, this is `from scipy.special import ndtri`.  Another thread
    that imports `scipy.special` during the one extension load could see the
    placeholder.
    """
    if "scipy.special" not in sys.modules:
        placeholder = types.ModuleType("scipy.special")
        placeholder.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
        sys.modules["scipy.special"] = placeholder
        try:
            from scipy.special._ufuncs import ndtri
            return ndtri
        except ImportError:
            pass
        finally:
            del sys.modules["scipy.special"]
            # vars(), not getattr: scipy's module __getattr__ imports the subpackage
            vars(scipy).pop("special", None)
    from scipy.special import ndtri
    return ndtri


ndtri = _load_ndtri()


@dataclass(frozen=True)
class BrownianGrid:
    m: int
    t_final: float
    n_fine: int
    dt_fine: float
    increments: np.ndarray      # (n_fine, m), N(0, dt_fine) each
    master_seed: int
    path_index: int

    def __post_init__(self) -> None:
        if self.increments.shape != (self.n_fine, self.m):
            raise ValueError("increment array shape does not match (n_fine, m)")


# values per block of work: it bounds the float scratch array of a block of
# paths' draws, and the pairwise-halving scratch of one block-sum slab
_BLOCK_DRAWS = 1 << 16


def _open_unit(u: np.ndarray) -> np.ndarray:
    """Move numpy's uniforms k 2^-53 in [0, 1) to (k + 1/2) 2^-53 in place.

    That rounds to 1.0 for the top word, k = 2^53 - 1, so the result is
    clamped to at most 1 - 2^-53 and lies in the open interval (0, 1).
    """
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def standard_normals(master_seed: int, path_indices, m: int, n: int, start: int = 0,
                     scale: float = 1.0) -> np.ndarray:
    """Steps [start, start + n) of each path's stream as N(0, scale^2) draws,
    shape (n_paths, n, m).

    A path's stream is the words of a fresh Philox(key=(master_seed mod 2^64,
    path_index)), one per uniform.  Philox is counter-based: one bit generator
    is reset for each path to its key and to the 4-word block holding word
    start * m, and the words before that one are dropped.  The reset goes
    through a state of plain lists, which the setter reads faster than numpy
    arrays.  A block of paths is scaled while it is in cache, then copied into
    step-major (n, n_paths, m) memory, and the result is a transposed view of
    it, so `z[:, k]`, the draws of step k across paths, is contiguous.
    """
    if n < 1:
        raise ValueError("n_fine must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if start < 0:
        raise ValueError("start must be nonnegative")
    paths = [int(p) for p in path_indices]
    if any(not 0 <= p < 2**64 for p in paths):
        raise ValueError("path_index must be nonnegative and below 2**64, a Philox key word")
    draws = n * m
    skip = start * m % 4
    z = np.empty((n, len(paths), m))
    bitgen = np.random.Philox(key=0)
    uniforms = np.random.Generator(bitgen)
    key = [master_seed & (2**64 - 1), 0]
    # Philox steps its counter before each block it draws, so counter c with
    # an empty buffer draws words 4c, 4c + 1, ... of the stream next
    state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0,
             "state": {"counter": [start * m // 4, 0, 0, 0], "key": key}}
    per_block = max(1, _BLOCK_DRAWS // draws)
    scratch = np.empty((min(per_block, len(paths)), skip + draws))
    for lo in range(0, len(paths), per_block):
        block = paths[lo:lo + per_block]
        for p, row in zip(block, scratch):
            key[1] = p
            bitgen.state = state
            uniforms.random(out=row)
        u = scratch[:len(block), skip:]
        ndtri(_open_unit(u), out=u)
        if scale != 1.0:
            u *= scale      # while the block is in cache
        z[:, lo:lo + len(block)] = u.reshape(len(block), n, m).transpose(1, 0, 2)
    return z.transpose(1, 0, 2)


def _step(t_final: float, n_fine: int) -> float:
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    if not t_final > 0:
        raise ValueError("t_final must be positive")
    return t_final / n_fine


def generate(master_seed: int, path_index: int, m: int, t_final: float, n_fine: int) -> BrownianGrid:
    """Fill an (n_fine, m) increment grid from the (seed, path) keyed stream."""
    dt = _step(t_final, n_fine)
    increments = standard_normals(master_seed, (path_index,), m, n_fine, scale=np.sqrt(dt))[0]
    increments.setflags(write=False)
    return BrownianGrid(m=m, t_final=t_final, n_fine=n_fine, dt_fine=dt,
                        increments=increments, master_seed=master_seed, path_index=path_index)


def block_sums(x: np.ndarray, factor: int, axis: int = 0) -> np.ndarray:
    """Sum adjacent blocks of `factor` entries along `axis` with a fixed
    reduction order.

    Power-of-two factors reduce by repeated pairwise halving, so coarsening by
    2 then 2 is bit-identical to coarsening by 4 directly; any odd residual
    factor is folded left to right.  The output is filled a slab of output
    steps at a time, so the halving scratch holds at most `_BLOCK_DRAWS`
    values whatever the size of `x`; where one output step's blocks are
    wider than that, a slab also covers only some of the other axes' columns.
    Each output entry's sum is the same whatever the slab, and the output has
    the layout of `x` (a step-major input gives a step-major output).
    """
    n = x.shape[axis]
    if factor < 1 or n % factor:
        raise ValueError(f"factor {factor} does not divide {n} fine steps")
    blocks = x.reshape(x.shape[:axis] + (n // factor, factor) + x.shape[axis + 1:])
    blocks = np.moveaxis(blocks, axis + 1, 0)   # entry i of every block is blocks[i]
    out = np.empty_like(blocks[0])
    # slab extents: the other axes whole, the last first, while the budget
    # lasts, then as many output steps as it still allows
    extent, room = [1] * out.ndim, max(1, _BLOCK_DRAWS // factor)
    for k in [k for k in reversed(range(out.ndim)) if k != axis] + [axis]:
        extent[k] = max(1, min(out.shape[k], room))
        room = max(1, room // extent[k])
    for corner in itertools.product(*(range(0, s, e) for s, e in zip(out.shape, extent))):
        slab = tuple(slice(c, c + e) for c, e in zip(corner, extent))
        part, f = blocks[(slice(None),) + slab], factor
        while f % 2 == 0:
            part = part[0::2] + part[1::2]
            f //= 2
        acc = out[slab]
        acc[...] = part[0]
        for i in range(1, f):
            acc += part[i]
    return out


def coarsen(grid: BrownianGrid, factor: int) -> BrownianGrid:
    """Exact partial-sum coarsening by an integer factor dividing n_fine."""
    if factor == 1:
        return grid
    inc = block_sums(grid.increments, factor)
    inc.setflags(write=False)
    n = grid.n_fine // factor
    return BrownianGrid(m=grid.m, t_final=grid.t_final, n_fine=n, dt_fine=grid.t_final / n,
                        increments=inc, master_seed=grid.master_seed, path_index=grid.path_index)


def generate_batch(master_seed: int, path_indices, m: int, t_final: float, n_fine: int) -> np.ndarray:
    """Per-path increment grids of shape (n_paths, n_fine, m), N(0, t_final/n_fine) each."""
    dt = _step(t_final, n_fine)
    return standard_normals(master_seed, path_indices, m, n_fine, scale=np.sqrt(dt))
