"""Deterministic Brownian grids: reproducibility, moments, exact coarsening."""

import hashlib
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

import truncmil as tm
from conftest import total_increment
from truncmil import brownian
from truncmil.brownian import _open_unit, block_sums, generate_batch, standard_normals


def test_regeneration_is_bit_exact():
    a = tm.generate(123, 7, 2, 1.0, 64)
    b = tm.generate(123, 7, 2, 1.0, 64)
    assert np.array_equal(a.increments, b.increments)
    assert a.dt_fine == 1.0 / 64


def test_different_paths_differ():
    a = tm.generate(123, 0, 1, 1.0, 256)
    b = tm.generate(123, 1, 1, 1.0, 256)
    assert not np.array_equal(a.increments, b.increments)


def test_streams_nearly_uncorrelated():
    n = 10**5
    a = tm.generate(9, 0, 1, 1.0, n).increments[:, 0]
    b = tm.generate(9, 1, 1, 1.0, n).increments[:, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_increment_moments():
    n = 10**6
    grid = tm.generate(42, 0, 1, 1.0, n)
    x = grid.increments[:, 0]
    dt = grid.dt_fine
    se_mean = math.sqrt(dt / n)
    assert abs(x.mean()) < 4 * se_mean
    var = x.var(ddof=1)
    se_var = dt * math.sqrt(2.0 / (n - 1))
    assert abs(var - dt) < 3 * se_var
    m4 = np.mean(x**4)
    se_m4 = dt**2 * math.sqrt(96.0 / n)   # Var(X^4) = 96 dt^4 for N(0, dt)
    assert abs(m4 - 3.0 * dt**2) < 5 * se_m4


def test_generate_validation():
    with pytest.raises(ValueError):
        tm.generate(1, 0, 1, 1.0, 0)
    with pytest.raises(ValueError):
        tm.generate(1, -1, 1, 1.0, 8)
    with pytest.raises(ValueError):
        tm.generate(1, 0, 1, 0.0, 8)


def test_increments_read_only():
    grid = tm.generate(1, 0, 1, 1.0, 8)
    with pytest.raises(ValueError):
        grid.increments[0, 0] = 0.0


def test_coarsen_identity_and_total():
    grid = tm.generate(3, 2, 2, 2.0, 16)
    assert tm.coarsen(grid, 1) is grid
    full = tm.coarsen(grid, 16)
    assert full.n_fine == 1
    assert np.array_equal(full.increments[0], total_increment(grid))


def test_coarsen_exact_block_sums():
    grid = tm.generate(3, 5, 1, 1.0, 32)
    coarse = tm.coarsen(grid, 4)
    assert coarse.n_fine == 8
    assert coarse.dt_fine == pytest.approx(4 * grid.dt_fine)
    # pairwise reduction of each block, computed independently
    inc = grid.increments.reshape(8, 4)
    manual = (inc[:, 0] + inc[:, 1]) + (inc[:, 2] + inc[:, 3])
    assert np.array_equal(coarse.increments[:, 0], manual)


def test_coarsen_composes_bit_exactly():
    grid = tm.generate(17, 3, 2, 1.0, 64)
    twice = tm.coarsen(tm.coarsen(grid, 2), 2)
    direct = tm.coarsen(grid, 4)
    assert np.array_equal(twice.increments, direct.increments)
    deep = tm.coarsen(tm.coarsen(grid, 8), 4)
    assert np.array_equal(deep.increments, tm.coarsen(grid, 32).increments)


def test_total_invariant_under_coarsening():
    grid = tm.generate(8, 0, 3, 1.0, 128)
    for factor in (2, 4, 16, 128):
        coarse = tm.coarsen(grid, factor)
        assert np.array_equal(total_increment(coarse), total_increment(grid))


def test_coarsen_rejects_non_divisor():
    grid = tm.generate(1, 0, 1, 1.0, 10)
    with pytest.raises(ValueError, match="does not divide"):
        tm.coarsen(grid, 3)


@given(exponents=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       odd=st.sampled_from([1, 3, 5]), axis=st.sampled_from([0, 1]), seed=st.integers(0, 10**6))
def test_block_sums_compose_over_power_of_two_chains(exponents, odd, axis, seed):
    # coarsening by 2^k1, then 2^k2, ... equals coarsening by their product at
    # once, on a path's (n_steps, m) grid and on a step-major batch alike
    total = 2 ** sum(exponents)
    x = generate_batch(seed, range(3), 2, 1.0, total * odd)
    if axis == 0:
        x = np.ascontiguousarray(x[0])
    chained = x
    for k in exponents:
        chained = block_sums(chained, 2**k, axis=axis)
    assert np.array_equal(chained, block_sums(x, total, axis=axis))


def _pairwise_reference(x, factor, axis):
    # the whole array reduced at once: halving while the factor is even, then
    # the odd rest folded left to right
    out = x.reshape(x.shape[:axis] + (x.shape[axis] // factor, factor) + x.shape[axis + 1:])
    out = np.moveaxis(out, axis + 1, 0)
    f = factor
    while f % 2 == 0:
        out = out[0::2] + out[1::2]
        f //= 2
    acc = out[0].copy()
    for i in range(1, f):
        acc += out[i]
    return acc


@given(bound=st.integers(1, 64), halvings=st.integers(0, 3), odd=st.sampled_from([1, 3, 5]),
       n_out=st.integers(1, 5), n_paths=st.integers(1, 6), m=st.integers(1, 3),
       axis=st.sampled_from([0, 1]), step_major=st.booleans(), seed=st.integers(0, 10**6))
def test_block_sums_across_slab_boundaries(bound, halvings, odd, n_out, n_paths, m, axis,
                                           step_major, seed):
    # a bound this small splits the output steps into many slabs, and a single
    # block (factor x paths x drivers) is often wider than it
    factor = 2**halvings * odd
    x = generate_batch(seed, range(n_paths), m, 1.0, n_out * factor)   # step-major
    if not step_major:
        x = np.ascontiguousarray(x)
    if axis == 0:
        x = x.transpose(1, 0, 2)        # (n_steps, n_paths, m)
    expected = _pairwise_reference(x, factor, axis)
    with mock.patch.object(brownian, "_BLOCK_DRAWS", bound):
        got = block_sums(x, factor, axis=axis)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    if step_major:
        assert all(np.moveaxis(got, axis, 0)[k].flags.c_contiguous for k in range(n_out))


def test_block_sums_odd_factor_left_to_right():
    inc = np.arange(12.0).reshape(12, 1)
    got = block_sums(inc, 3)
    expected = np.array([[3.0], [12.0], [21.0], [30.0]])
    assert np.array_equal(got, expected)


def test_block_sums_along_axis_one_match_rows():
    # the (n_paths, n_steps) batches of the experiments reduce each path's row
    # in the same order as that path's own (n_steps, 1) grid
    x = generate_batch(8, range(5), 1, 1.0, 48)[:, :, 0]
    for factor in (1, 2, 3, 6, 8, 12):
        got = block_sums(x, factor, axis=1)
        assert got.shape == (5, 48 // factor)
        for row, out in zip(x, got):
            assert np.array_equal(out, block_sums(row[:, None], factor)[:, 0])
    with pytest.raises(ValueError, match="does not divide"):
        block_sums(x, 5, axis=1)


def test_generate_batch_matches_single_paths():
    batch = generate_batch(55, range(4), 2, 1.0, 16)
    assert batch.shape == (4, 16, 2)
    for p in range(4):
        single = tm.generate(55, p, 2, 1.0, 16)
        assert np.array_equal(batch[p], single.increments)


def _reference_increments(seed, path_indices, m, t_final, n_fine):
    """The determinism contract, one freshly keyed Philox generator per path."""
    grids = []
    for p in path_indices:
        key = np.array([seed & (2**64 - 1), p], dtype=np.uint64)
        raw = np.random.Generator(np.random.Philox(key=key)).integers(
            0, 2**64, size=(n_fine, m), dtype=np.uint64)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        grids.append(ndtri(u) * np.sqrt(t_final / n_fine))
    return np.stack(grids)


@pytest.mark.parametrize("seed, paths, m, n_fine", [
    (55, [0, 1, 2, 3], 1, 16),
    (55, [0, 1, 2, 3], 2, 16),
    (7, [0, 5, 2], 1, 1),
    (2026, [9, 3, 7, 40], 2, 33),
    (2**63 + 5, [1, 0], 2, 8),
    (2**64 - 1, [2], 1, 8),
    (-3, [4, 1], 2, 8),
    (11, range(100), 1, 1000),      # more than one block of paths
])
def test_generate_matches_reference_stream(seed, paths, m, n_fine):
    ref = _reference_increments(seed, paths, m, 0.7, n_fine)
    assert np.array_equal(generate_batch(seed, paths, m, 0.7, n_fine), ref)
    for row, p in enumerate(paths):
        assert np.array_equal(tm.generate(seed, p, m, 0.7, n_fine).increments, ref[row])


def test_large_and_negative_seeds_keep_every_key_bit():
    # -1 wraps to 2**64 - 1, which must not collapse onto seed 0
    a, b, c, d = (tm.generate(s, 0, 1, 1.0, 8).increments
                  for s in (0, -1, 2**63, 2**63 + 1))
    assert not np.array_equal(a, b)
    assert not np.array_equal(c, d)


def test_normals_are_prefix_consistent():
    z = standard_normals(3, [4, 0], 2, 64)
    assert z.shape == (2, 64, 2)
    for n in (1, 5, 32):
        assert np.array_equal(standard_normals(3, [4, 0], 2, n), z[:, :n])
        assert np.array_equal(generate_batch(3, [4, 0], 2, 1.0, n), z[:, :n] * np.sqrt(1.0 / n))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("start", [0, 1, 3, 5, 64])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1, -3])
def test_normals_from_a_start_step_are_a_slice_of_the_full_draw(monkeypatch, seed, start, m):
    # paths out of order, and blocks of 3 paths, so the keys are reset
    # across more than one block
    monkeypatch.setattr(brownian, "_BLOCK_DRAWS", 3 * 9 * m)
    paths, n = [5, 0, 9, 2, 7, 1, 3], 9
    full = standard_normals(seed, paths, m, start + n)
    assert np.array_equal(standard_normals(seed, paths, m, n, start=start), full[:, start:])


def test_normals_start_must_be_nonnegative():
    with pytest.raises(ValueError, match="start"):
        standard_normals(1, [0], 1, 4, start=-1)


@pytest.mark.parametrize("path", [2**64, 2**70])
def test_path_indices_must_fit_a_philox_key_word(path):
    # a path index is the second Philox key word; 2**64 made the state setter
    # raise OverflowError
    assert np.isfinite(tm.generate(0, 2**64 - 1, 1, 1.0, 4).increments).all()
    with pytest.raises(ValueError, match=r"path_index must be nonnegative and below 2\*\*64"):
        tm.generate(0, path, 1, 1.0, 4)
    with pytest.raises(ValueError, match=r"below 2\*\*64"):
        standard_normals(0, [0, path], 2, 4, start=1)


@pytest.mark.parametrize("m", [0, -1])
def test_normals_need_a_driver(m):
    # m = 0 divided by zero in the block planner, m = -1 made a negative shape
    with pytest.raises(ValueError, match="m must be >= 1"):
        standard_normals(1, [0], m, 8)
    with pytest.raises(ValueError, match="m must be >= 1"):
        tm.generate(1, 0, m, 1.0, 8)


@pytest.mark.parametrize("m", [1, 2])
def test_generate_batch_scales_inside_the_draw_bitwise(m):
    # the sqrt(dt) scale is applied as each block is copied, the same single
    # multiply as scaling the normals afterwards
    for n in (1, 7, 100):
        want = standard_normals(31, [3, 0, 8], m, n) * np.sqrt(0.7 / n)
        assert np.array_equal(generate_batch(31, [3, 0, 8], m, 0.7, n), want)
        assert np.array_equal(tm.generate(31, 8, m, 0.7, n).increments, want[2])


def test_generate_batch_validation():
    with pytest.raises(ValueError):
        generate_batch(1, [0, -1], 1, 1.0, 8)
    with pytest.raises(ValueError):
        generate_batch(1, [0], 1, 1.0, 0)
    with pytest.raises(ValueError):
        generate_batch(1, [0], 1, -1.0, 8)


def test_standard_normals_are_step_major():
    # each step's draws across paths are one contiguous row of memory
    z = standard_normals(5, range(7), 2, 40)
    assert z.shape == (7, 40, 2)
    assert all(z[:, k, :].flags.c_contiguous for k in range(40))
    inc = generate_batch(5, range(7), 1, 1.0, 48)[:, :, 0]
    assert all(inc[:, k].flags.c_contiguous for k in range(48))
    for factor in (1, 2, 3, 4, 6, 16, 48):
        got = block_sums(inc, factor, axis=1)
        assert np.array_equal(got, block_sums(np.ascontiguousarray(inc), factor, axis=1))
        assert all(got[:, k].flags.c_contiguous for k in range(48 // factor))


def test_open_unit_map_clamps_only_the_top_word():
    # numpy's uniform of a word is k 2^-53 for k = word >> 11; (k + 1/2) 2^-53
    # rounds to 1.0 only for the top word, where ndtri would return +inf;
    # every other word keeps its value
    top_k = np.uint64(2**53 - 1)
    words = np.array([0, 2**11 - 1, 2**63 + 0x5A5A5A5A5A5, (2**53 - 2) << 11, 2**64 - 1],
                     dtype=np.uint64)
    unclamped = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert words[-1] >> np.uint64(11) == top_k and unclamped[-1] == 1.0
    u = _open_unit((words >> np.uint64(11)).astype(np.float64) * 2.0**-53)
    assert np.array_equal(u[:-1], unclamped[:-1])
    assert u[-1] == 1.0 - 2.0**-53
    assert np.all((0.0 < u) & (u < 1.0))
    assert np.all(np.isfinite(ndtri(u)))


# ndtri's three load orders, each run in a fresh interpreter before the draws
_NDTRI_LOADS = {
    # the lean load; a later scipy.special and scipy.stats still work
    "lean": """
import sys, scipy, truncmil
assert 'scipy.special' not in sys.modules and 'special' not in vars(scipy)
import scipy.special, scipy.stats
from truncmil import brownian
assert brownian.ndtri is scipy.special.ndtri
assert scipy.special.gamma(5.0) == 24.0
assert scipy.stats.qmc.Halton(d=2, scramble=False).random(4).shape == (4, 2)
""",
    "scipy.special already imported": """
import scipy.special, truncmil
from truncmil import brownian
assert brownian.ndtri is scipy.special.ndtri
""",
    # a finder refuses the private module once: brownian's own import of it
    "private import fails": """
import sys

class Refuse:
    refused = 0

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == 'scipy.special._ufuncs' and not cls.refused:
            cls.refused += 1
            raise ImportError(name)

sys.meta_path.insert(0, Refuse)
import truncmil
assert Refuse.refused == 1 and 'scipy.special' in sys.modules
import scipy.special
from truncmil import brownian
assert brownian.ndtri is scipy.special.ndtri
""",
}


_DRAWS_DIGEST = """
import hashlib
from truncmil.brownian import standard_normals
print(hashlib.sha256(standard_normals(7, range(64), 2, 300).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("load", list(_NDTRI_LOADS))
def test_every_load_order_of_ndtri_draws_the_same_normals(load):
    proc = subprocess.run([sys.executable, "-c", _NDTRI_LOADS[load] + _DRAWS_DIGEST],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    expected = hashlib.sha256(standard_normals(7, range(64), 2, 300).tobytes()).hexdigest()
    assert proc.stdout.split() == [expected]
