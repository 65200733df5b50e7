"""Rate fits, condition comparison, stability constants and decay ensembles."""

import contextlib
import functools
import hashlib
import inspect
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncmil as tm
from conftest import _diagonal_col, _pool_spy, config_for, quintic_nan_outside_model
from truncmil import cli, experiments
from truncmil.brownian import block_sums, generate_batch
from truncmil.experiments import (RateExperimentSpec, _directions,
                                  _golden_max, _map_chunks, _path_error_samples,
                                  _rate_chunk, _rung_increments, _stability_chunk,
                                  fit_rate)
from truncmil.model import register_model
from truncmil.scheme import _scalar_step, _simulate_batch, simulate


def test_fit_rate_synthetic_slope_one():
    # with q = 0.5 the fitted quantity is the error itself, so e = c * delta
    # must give slope exactly 1
    deltas = [0.02, 0.04, 0.08, 0.16]
    errors = [0.7 * d for d in deltas]
    fit = fit_rate(deltas, errors, q=0.5)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.slope_se == pytest.approx(0.0, abs=1e-9)


def test_fit_rate_rescale_invariance():
    deltas = [0.01, 0.02, 0.04, 0.08]
    errors = [3e-4, 1.1e-3, 4.2e-3, 1.8e-2]
    a = fit_rate(deltas, errors, q=1.0)
    b = fit_rate(deltas, [17.0 * e for e in errors], q=1.0)
    assert a.slope == pytest.approx(b.slope, rel=1e-12)


def test_fit_rate_validation():
    with pytest.raises(ValueError, match="3 step"):
        fit_rate([0.1, 0.2], [1.0, 2.0], q=1.0)
    with pytest.raises(ValueError, match="positive"):
        fit_rate([0.1, 0.2, 0.4], [1.0, 0.0, 2.0], q=1.0)
    with pytest.raises(ValueError, match="non-finite error at step.s. 0.2, 0.4$"):
        fit_rate([0.1, 0.2, 0.4], [1.0, math.nan, math.inf], q=1.0)
    with pytest.raises(ValueError, match="two distinct steps"):
        fit_rate([0.1, 0.1, 0.1], [1.0, 2.0, 3.0], q=1.0)
    # q = 0 divided by zero and q = nan gave a NaN slope; so did a negative
    # step, through log2
    for q in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"q = {q}: the moment exponent must be positive"):
            fit_rate([0.1, 0.2, 0.4], [1.0, 2.0, 3.0], q=q)
    for step in (-0.2, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"test step = {step}: a step must be positive"):
            fit_rate([0.1, step, 0.4], [1.0, 2.0, 3.0], q=1.0)
    # one standard error for three steps made a RateFit; two errors failed in
    # numpy's dot product
    with pytest.raises(ValueError, match="^1 standard errors for 3 steps: need one per step$"):
        fit_rate([0.1, 0.2, 0.4], [1.0, 2.0, 3.0], q=1.0, standard_errors=[1.0])
    with pytest.raises(ValueError, match="^2 errors for 3 steps: need one per step$"):
        fit_rate([0.1, 0.2, 0.4], [1.0, 2.0], q=1.0, standard_errors=[1.0, 1.0, 1.0])


def test_spec_validation(cubic_cfg):
    with pytest.raises(ValueError, match="integer multiple"):
        RateExperimentSpec(model_name="cubic_quintic", cfg=cubic_cfg,
                           scheme="truncated_milstein", q=1.0, t_final=1.0,
                           delta_ref=0.01, test_deltas=(0.015,), n_paths=10,
                           master_seed=0)
    with pytest.raises(ValueError, match="error_at"):
        RateExperimentSpec(model_name="cubic_quintic", cfg=cubic_cfg,
                           scheme="truncated_milstein", q=1.0, t_final=1.0,
                           delta_ref=0.01, test_deltas=(0.02,), n_paths=10,
                           master_seed=0, error_at="midpoint")
    spec = RateExperimentSpec(model_name="cubic_quintic", cfg=cubic_cfg,
                              scheme="truncated_milstein", q=1.0, t_final=1.0,
                              delta_ref=0.01, test_deltas=(0.02, 0.05, 0.1), n_paths=10,
                              master_seed=0)
    assert spec.n_fine == 100
    assert spec.factors == (2, 5, 10)
    # a standard error needs two samples
    with pytest.raises(ValueError, match="needs two paths"):
        replace(spec, n_paths=1)
    # 2.5 paths made a spec that failed in the rate chunk with a TypeError
    for n_paths in (2.5, 10.0, math.nan):
        with pytest.raises(ValueError, match=f"paths = {n_paths}: the number of paths must be "
                                             "an integer"):
            replace(spec, n_paths=n_paths)
    assert replace(spec, n_paths=np.int64(10)).n_paths == 10
    # the reference's own rung has error 0 by construction
    with pytest.raises(ValueError, match="test step 0.01 equals delta_ref"):
        replace(spec, test_deltas=(0.01, 0.02, 0.05))
    # an infinite horizon makes no whole number of steps
    with pytest.raises(ValueError, match="t_final = inf: the horizon must be positive"):
        replace(spec, t_final=math.inf)


def test_lipschitz_control_classical_milstein_order_one(wide_cfg):
    # well-understood linear problem: strong order 1 validates the harness
    spec = RateExperimentSpec(
        model_name="lipschitz_control", cfg=wide_cfg, scheme="classical_milstein",
        q=1.0, t_final=1.0, delta_ref=1.0 / 2048,
        test_deltas=(1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8),
        n_paths=1000, master_seed=7)
    fit = tm.run_rate_experiment(spec)
    assert 0.9 <= fit.slope <= 1.1
    assert fit.slope_se < 0.05


def test_rate_experiment_worker_count_invariance(cubic_cfg):
    spec = RateExperimentSpec(
        model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein",
        q=1.0, t_final=0.32, delta_ref=0.005, test_deltas=(0.02, 0.04, 0.08),
        n_paths=300, master_seed=3)
    one = tm.run_rate_experiment(spec, n_workers=1)
    four = tm.run_rate_experiment(spec, n_workers=4)
    assert np.array_equal(one.errors, four.errors)
    assert one.slope == four.slope


def test_rate_experiment_monotonicity_probe(cubic_cfg):
    spec = RateExperimentSpec(
        model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein",
        q=1.0, t_final=0.32, delta_ref=0.0025,
        test_deltas=(0.01, 0.02, 0.04, 0.08), n_paths=400, master_seed=9)
    fit = tm.run_rate_experiment(spec)
    for i in range(len(fit.deltas) - 1):
        se = fit.standard_errors[i] + fit.standard_errors[i + 1]
        assert fit.errors[i] <= fit.errors[i + 1] + 2.0 * se


def test_rate_experiment_sup_error_at_least_terminal(cubic_cfg):
    base = dict(model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein",
                q=1.0, t_final=0.32, delta_ref=0.005, test_deltas=(0.02, 0.04, 0.08),
                n_paths=100, master_seed=3)
    term = tm.run_rate_experiment(RateExperimentSpec(**base))
    sup = tm.run_rate_experiment(RateExperimentSpec(**base, error_at="sup"))
    assert np.all(sup.errors >= term.errors)


def test_reference_blowup_aborts(cubic_cfg):
    spec = RateExperimentSpec(
        model_name="cubic_quintic", cfg=cubic_cfg, scheme="classical_em",
        q=1.0, t_final=8.0, delta_ref=0.125, test_deltas=(0.25, 0.5, 1.0), n_paths=64,
        master_seed=0)
    with pytest.raises(RuntimeError, match="reference path blew up"):
        tm.run_rate_experiment(spec)


@pytest.mark.parametrize("test_deltas", [(0.02, 0.04), (0.02, 0.04, 0.04)])
def test_spec_with_fewer_than_three_distinct_steps_simulates_nothing(monkeypatch, cubic_cfg,
                                                                     test_deltas):
    def no_chunk(*args):
        raise AssertionError("a path was simulated")
    monkeypatch.setattr(experiments, "_rate_chunk", no_chunk)
    with pytest.raises(ValueError, match="at least 3 distinct test steps, got 2"):
        tm.run_rate_experiment(RateExperimentSpec(
            model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein",
            q=1.0, t_final=0.16, delta_ref=0.005, test_deltas=test_deltas, n_paths=500,
            master_seed=0))


def _chunk_plan(n_paths, n_workers):
    """The (lo, hi) chunks `_map_chunks` runs, in the order it returns them."""
    with mock.patch.object(experiments, "ProcessPoolExecutor", _InProcessPool):
        return _map_chunks(lambda lo, hi: (lo, hi), n_paths, n_workers)[1]


@given(n=st.integers(1, 5000), n_workers=st.integers(1, 8))
def test_chunk_plan_is_one_near_equal_chunk_per_worker(n, n_workers):
    chunks = _chunk_plan(n, n_workers)
    # [0, n) in order, no gap, no empty chunk
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    assert all(a < b for a, b in chunks)
    assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
    assert len(chunks) == min(n_workers, n)
    sizes = [b - a for a, b in chunks]
    assert max(sizes) - min(sizes) <= 1


def test_chunk_plans_of_the_cli_workloads():
    # the criterion-3 ladder, 4000 paths on 2 workers, and the criterion-5
    # decay ensemble, 1000 paths, run one chunk per worker
    assert _chunk_plan(4000, 2) == [(0, 2000), (2000, 4000)]
    assert _chunk_plan(1000, 2) == [(0, 500), (500, 1000)]


def test_rate_chunk_memory_matches_its_budget(cubic_cfg):
    # the criterion-3 ladder: a chunk's traced peak stays near its window of
    # fine increments, 8 n m per path (at 1000 paths the window is the whole
    # 1024-step grid)
    spec = RateExperimentSpec(
        model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein",
        q=1.0, t_final=1.28, delta_ref=0.01 / 8,
        test_deltas=tuple(0.01 * 2**i for i in range(1, 7)), n_paths=1000, master_seed=2026)
    model = tm.builtin_model("cubic_quintic")
    _rate_chunk(spec, model, 0, 2)
    tracemalloc.start()
    try:
        _rate_chunk(spec, model, 0, spec.n_paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * spec.n_fine * 1 * spec.n_paths


@pytest.mark.parametrize("error_at", ["terminal", "sup"])
def test_rate_chunk_peak_does_not_grow_with_the_grid(cubic_cfg, error_at):
    # 500 paths draw windows of 2048 fine steps (2^20 normals, cut to a
    # multiple of the rungs' lcm), so a grid of 8192 steps holds no more than
    # one of 2048 does; a chunk holding its whole grid peaked at four times it
    def peak(delta_ref):
        spec = RateExperimentSpec(
            model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein", q=1.0,
            t_final=1.0, delta_ref=delta_ref, test_deltas=(2.0**-5, 2.0**-6, 2.0**-7),
            n_paths=500, master_seed=1, error_at=error_at)
        return _traced_peak(_rate_chunk, spec, tm.builtin_model("cubic_quintic"), 0, 500)
    assert peak(2.0**-13) <= 1.1 * peak(2.0**-11)


def test_stability_chunk_peak_does_not_grow_with_the_horizon(quintic_cfg):
    # 2000 paths draw windows of 524 steps, and every path is recorded over
    # pieces of 131 steps (`_LADDER_VALUES` values): quadrupling the horizon
    # adds only the 10 recorded paths' magnitudes
    def peak(horizon):
        return _traced_peak(_stability_chunk, tm.builtin_model("stable_quintic"), quintic_cfg,
                            0.004, horizon, 1e-2, 5, 10, 0, 2000)
    assert peak(4000) <= 1.1 * peak(1000)


def _spy_draws(monkeypatch):
    """Record the (paths, steps, drivers) of each draw of standard normals, and
    refuse whole-grid draws."""
    draws, draw = [], experiments.brownian.standard_normals

    def spy(master_seed, path_indices, m, n, start=0, scale=1.0):
        draws.append((len(path_indices), n, m))
        return draw(master_seed, path_indices, m, n, start, scale)

    def whole_grid(*args):
        raise AssertionError("a whole grid was drawn")
    monkeypatch.setattr(experiments.brownian, "standard_normals", spy)
    monkeypatch.setattr(experiments.brownian, "generate_batch", whole_grid)
    return draws


@pytest.mark.parametrize("budget", [64, None])
def test_every_ensemble_draws_bounded_windows(monkeypatch, cubic_cfg, quintic_cfg, budget):
    # each draw holds at most the budget of normals, or one alignment unit:
    # the coarsest rung's 8 fine steps of a rate ladder, one step otherwise
    limit = budget or experiments._WINDOW_NORMALS
    if budget:
        monkeypatch.setattr(experiments, "_WINDOW_NORMALS", budget)
        monkeypatch.setattr(experiments, "_WINDOW_MIN_STEPS", 1)
    draws = _spy_draws(monkeypatch)
    model, deltas = tm.builtin_model("cubic_quintic"), [0.25, 0.125, 0.0625]
    runs = [(lambda: tm.run_rate_experiment(_small_rate_spec("sup")), 8),
            (lambda: tm.run_stability_ensemble(tm.builtin_model("stable_quintic"), quintic_cfg,
                                               delta=0.04, n_paths=30, horizon_steps=60,
                                               tol_stab=1e-2, record_paths=12), 1),
            (lambda: tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=16), 1)]
    for run, align in runs:
        draws.clear()
        run()
        assert len(draws) > (1 if budget else 0)
        assert all(paths * n * m <= limit or n == align for paths, n, m in draws)


def _small_rate_spec(error_at):
    return RateExperimentSpec(
        model_name="cubic_quintic", cfg=config_for("cubic_quintic"),
        scheme="truncated_milstein", q=1.0, t_final=0.16, delta_ref=0.005,
        test_deltas=(0.01, 0.02, 0.04), n_paths=24, master_seed=11, error_at=error_at)


def _window_budget(normals):
    """Patch the window rule to `normals` standard normals a window and no
    minimum length, so that at 1 each window is one alignment unit."""
    return mock.patch.multiple(experiments, _WINDOW_NORMALS=normals, _WINDOW_MIN_STEPS=1)


class _InProcessPool:
    """A stand-in for the process pool that maps in the calling process and
    counts how often it is created."""

    created = 0

    def __init__(self, max_workers):
        type(self).created += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@settings(max_examples=25)
@given(budget=st.integers(1, 3000), n_workers=st.integers(1, 5), lo=st.integers(0, 20),
       n=st.integers(1, 30), error_at=st.sampled_from(["terminal", "sup"]))
def test_rate_samples_independent_of_chunking(budget, n_workers, lo, n, error_at):
    spec = replace(_small_rate_spec(error_at), n_paths=max(2, lo + n))
    whole = _path_error_samples(spec, 1)
    # the paths [lo, lo + n) as one chunk give the same rows of the whole run
    model = tm.builtin_model(spec.model_name)
    assert np.array_equal(_rate_chunk(spec, model, lo, lo + n), whole[lo:lo + n])
    with _window_budget(budget), \
            mock.patch.object(experiments, "ProcessPoolExecutor", _InProcessPool):
        chunked = _path_error_samples(spec, n_workers)
    assert np.array_equal(chunked, whole)


def test_rate_workers_need_no_registry(monkeypatch, wide_cfg):
    # spawned workers start with an empty registry; they step the model the
    # parent resolved, so a registered model runs as it does in this process
    spec = replace(_small_rate_spec("terminal"), model_name="lipschitz_control", cfg=wide_cfg,
                   scheme="classical_milstein")
    whole = _path_error_samples(spec, 1)
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        functools.partial(experiments.ProcessPoolExecutor, mp_context=spawn))
    assert np.array_equal(_path_error_samples(spec, 2), whole)


def test_unknown_model_fails_before_any_pool(monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        mock.Mock(side_effect=AssertionError("a pool was created")))
    spec = replace(_small_rate_spec("terminal"), model_name="never_registered")
    with pytest.raises(ValueError, match="unknown model 'never_registered'"):
        tm.run_rate_experiment(spec, n_workers=2)


@pytest.mark.parametrize("n_workers,chunks", [(1, [(0, 10)]), (2, [(0, 5), (5, 10)]),
                                              (3, [(0, 3), (3, 6), (6, 10)])])
def test_map_chunks_calls_in_path_order_in_one_pool(monkeypatch, n_workers, chunks):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "created", 0)
    _, got = _map_chunks(lambda tag, lo, hi: (tag, lo, hi), 10, n_workers, "x")
    assert got == [("x", lo, hi) for lo, hi in chunks]
    assert _InProcessPool.created == (n_workers > 1)


def _chunked_results(quintic_cfg, n_workers):
    fits = [tm.run_rate_experiment(_small_rate_spec(e), n_workers=n_workers)
            for e in ("terminal", "sup")]
    stab = tm.run_stability_ensemble(tm.builtin_model("stable_quintic"), quintic_cfg,
                                     delta=0.04, n_paths=30, horizon_steps=60, tol_stab=1e-2,
                                     master_seed=5, n_workers=n_workers, record_paths=20)
    return ([f.errors for f in fits] + [f.standard_errors for f in fits]
            + [stab.decay_flags, stab.recorded_magnitudes])


# a budget of one normal draws a window per alignment unit: one step of a
# decay ensemble, whose 20 recorded paths straddle both chunks of 15, and
# the coarsest rung's 8 fine steps of a rate ladder; at 130 normals a decay
# chunk's windows are 8 steps, one of them straddling the tail start at 54
@pytest.mark.parametrize("n_workers,budget", [(1, 1), (2, 1), (2, 130), (2, None)])
def test_results_bitwise_equal_across_budgets_and_workers(quintic_cfg, n_workers, budget):
    reference = _chunked_results(quintic_cfg, 1)
    with _window_budget(budget) if budget else contextlib.nullcontext():
        results = _chunked_results(quintic_cfg, n_workers)
    for want, got in zip(reference, results):
        assert np.array_equal(got, want)


def _drift_2d(x):
    return x**3 - 4.0 * x**5


# the cubic_quintic problem in each coordinate of a 2-d diagonal-noise model
# without an analytic L-operator, so rate runs take the general branch
register_model(tm.SdeModel(d=2, m=2, drift=_drift_2d, diffusion_col=_diagonal_col,
                           initial_value=np.array([1.0, 1.0]), polynomial_degree_r=4.0,
                           name="test_diagonal_quintic_2d"))


def _rate_spec(model_name, error_at, test_deltas=(0.01, 0.02, 0.04), t_final=0.16, n_paths=10,
               q=1.0):
    return RateExperimentSpec(
        model_name=model_name, cfg=config_for("cubic_quintic"), scheme="truncated_milstein",
        q=q, t_final=t_final, delta_ref=0.005, test_deltas=test_deltas, n_paths=n_paths,
        master_seed=11, error_at=error_at)


@pytest.mark.parametrize("error_at", ["terminal", "sup"])
@pytest.mark.parametrize("n_workers,budget", [(1, 1), (1, 400), (2, 1), (2, None)])
def test_general_rate_samples_bitwise_across_budgets_and_workers(error_at, n_workers, budget):
    # at 1 the 32 fine steps come in 4 windows of the coarsest rung's 8, at
    # 400 normals (2 drivers of 10 paths) in 2 windows of 16
    spec = _rate_spec("test_diagonal_quintic_2d", error_at)
    whole = _path_error_samples(spec, 1)
    with _window_budget(budget) if budget else contextlib.nullcontext():
        assert np.array_equal(_path_error_samples(spec, n_workers), whole)


# sha256 of the fit's deltas, errors, standard errors and norm errors as
# little-endian float64 bytes; the bitwise tests above compare against
# references that share `project` and the finite-difference L-operator, so
# only these bytes catch a change there
_GENERAL_RATE_FIT_SHA256 = {
    "terminal": "9ea3b4d2b9a8bf7957811f6738863acde27051dd0ba8449d0c1374ff1730f649",
    "sup": "75e56478d517f58dbb68c270b22eb604495c548a9d050bd761016f03e67d43da",
}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("error_at", ["terminal", "sup"])
def test_general_rate_fit_bytes_are_pinned(error_at, n_workers):
    fit = tm.run_rate_experiment(_rate_spec("test_diagonal_quintic_2d", error_at),
                                 n_workers=n_workers)
    digest = hashlib.sha256(b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in (fit.deltas, fit.errors, fit.standard_errors, fit.norm_errors)))
    assert digest.hexdigest() == _GENERAL_RATE_FIT_SHA256[error_at]


@pytest.mark.parametrize("factors", [(3, 6, 12), (2, 4, 8, 16), (8, 1, 4, 2), (2, 6, 4, 12)])
def test_rung_increments_equal_fine_grid_sums_bitwise(factors):
    inc = generate_batch(4, range(7), 2, 0.48, 48)
    rungs = list(_rung_increments(inc, factors))
    assert sorted(i for i, _, _ in rungs) == list(range(len(factors)))
    assert [f for _, f, _ in rungs] == sorted(factors)
    for i, f, cinc in rungs:
        assert f == factors[i]
        assert np.array_equal(cinc, block_sums(inc, f, axis=1))


def _per_rung_samples(spec):
    """Samples with every rung summed from the fine grid: the ensemble for a
    scalar model, one path at a time through `simulate` for a vector one."""
    model = experiments.resolve_model(spec.model_name)
    p = 2.0 * spec.q
    out = np.empty((spec.n_paths, len(spec.factors)))
    if model.is_scalar:
        inc = generate_batch(spec.master_seed, range(spec.n_paths), 1, spec.t_final,
                             spec.n_fine)[:, :, 0]
        ref = _simulate_batch(spec.scheme, model, spec.cfg, inc[:, :, None], spec.delta_ref,
                              1.0, record=True)
        for i, f in enumerate(spec.factors):
            run = _simulate_batch(spec.scheme, model, spec.cfg,
                                  block_sums(inc, f, axis=1)[:, :, None], spec.delta_ref * f,
                                  1.0, record=True)
            diff = np.abs(ref.states[:, ::f, 0] - run.states[..., 0])
            out[:, i] = (diff[:, -1] if spec.error_at == "terminal" else diff.max(axis=1)) ** p
        return out
    for path in range(spec.n_paths):
        grid = tm.generate(spec.master_seed, path, model.m, spec.t_final, spec.n_fine)
        ref = simulate(spec.scheme, model, spec.cfg, grid)
        for i, f in enumerate(spec.factors):
            run = simulate(spec.scheme, model, spec.cfg, grid, coarsen_factor=f)
            if spec.error_at == "terminal":
                diff = np.linalg.norm(ref.terminal - run.terminal)
            else:
                diff = np.max(np.linalg.norm(ref.states[::f] - run.states, axis=1))
            out[path, i] = diff ** p
    return out


@pytest.mark.parametrize("q", [1.0, 1.5])
@pytest.mark.parametrize("error_at", ["terminal", "sup"])
@pytest.mark.parametrize("model_name", ["cubic_quintic", "test_diagonal_quintic_2d"])
@pytest.mark.parametrize("test_deltas", [(0.015, 0.03, 0.06), (0.01, 0.02, 0.04, 0.12)])
def test_rate_samples_equal_per_rung_fine_grid_sums(model_name, error_at, test_deltas, q):
    # factors 3, 6 and 12 are each summed from the fine grid; of 2, 4, 8 and 24,
    # 4 and 8 are summed from the rung before and 24 from the fine grid
    spec = _rate_spec(model_name, error_at, test_deltas, t_final=0.12 if 0.015 in test_deltas
                      else 0.24, n_paths=6, q=q)
    assert np.array_equal(_path_error_samples(spec, 1), _per_rung_samples(spec))


# ---------------------------------------------------------------------------
# step-size condition comparison


def test_compare_step_conditions_paper_setup(damped_cfg):
    comp = tm.compare_step_conditions(damped_cfg, q=1.0, p=42.0, r=4.0)
    assert comp.new_threshold == 1.0
    assert comp.old_threshold == pytest.approx(83.0 ** (-410.0 / 17.0), rel=1e-9)
    assert comp.dominant_rate == 1.6


def test_compare_step_conditions_no_restriction():
    cfg = tm.TruncationConfig(0.5, 3.0, 1.0, 0.1, 1.0)
    comp = tm.compare_step_conditions(cfg, q=1.0, p=42.0, r=4.0)
    assert comp.old_threshold == 1.0 == comp.new_threshold


def test_compare_step_conditions_precondition(damped_cfg):
    with pytest.raises(ValueError):
        tm.compare_step_conditions(damped_cfg, q=1.0, p=4.0, r=4.0)


# ---------------------------------------------------------------------------
# stability


def _decay_drift(x):
    return -x


def _no_noise(x, j):
    return 0.0 * x


def _no_l_op(x, j1, j2):
    return 0.0 * np.asarray(x, dtype=float)


def _linear_decay_model():
    # module-level coefficients, so a pool can pickle the model
    return tm.SdeModel(d=1, m=1, drift=_decay_drift, diffusion_col=_no_noise, l_op=_no_l_op,
                       initial_value=np.array([1.0]), polynomial_degree_r=0.0,
                       name="linear_decay_test")


def test_stability_constants_constant_ratio():
    # mu = -x against k(u) = u^2 on a radius-one ball: the ratio is exactly 1
    model = _linear_decay_model()
    cfg = tm.TruncationConfig(1.0, 1.0, 1.0, 0.1, 1.0)    # radius(1) = 1
    rep = tm.compute_stability_constants(model, cfg, tm.KFunction(1.0, 2.0),
                                         n_grid=2000)
    assert rep.H == pytest.approx(1.0, rel=1e-9)
    assert rep.delta_1 == pytest.approx(0.25, rel=1e-9)
    assert rep.paper_H is None


def test_stability_constants_stable_quintic(quintic_cfg):
    model = tm.builtin_model("stable_quintic")
    rep = tm.compute_stability_constants(model, quintic_cfg, tm.KFunction(2.0, 2.0))
    assert rep.radius_at_one == 1.0
    # ratio (u + 6u^3 + 4u^5)^2 / (2u^2) is increasing, so the sup sits at the
    # boundary u = 1 where it equals 121/2
    assert rep.H == pytest.approx(60.5, rel=1e-9)
    assert rep.argmax_norm == pytest.approx(1.0, rel=1e-6)
    assert rep.delta_1 == pytest.approx(1.0 / 121.0, rel=1e-9)
    assert rep.paper_H == 25.0
    assert rep.paper_delta_1 == 0.04
    assert rep.paper_discrepancy


def test_paper_constants_follow_the_drift_not_the_name(quintic_cfg):
    # the paper's constants belong to the stable quintic's drift: a model
    # that keeps the name with mu = -x is not compared with them, and one
    # that keeps the drift under another name is
    quintic, k_fn = tm.builtin_model("stable_quintic"), tm.KFunction(2.0, 2.0)
    rep = tm.compute_stability_constants(replace(quintic, drift=_decay_drift), quintic_cfg,
                                         k_fn, n_grid=2000)
    assert (rep.H, rep.delta_1) == (0.5, 1.0)
    assert rep.paper_H is None and rep.paper_delta_1 is None and not rep.paper_discrepancy
    rep = tm.compute_stability_constants(replace(quintic, name="renamed"), quintic_cfg, k_fn,
                                         n_grid=2000)
    assert (rep.paper_H, rep.paper_delta_1, rep.paper_discrepancy) == (25.0, 0.04, True)


def test_stability_ratio_cap_violation():
    # drift with mu(0) != 0 makes |mu|^2 / u^2 diverge as u -> 0
    model = tm.SdeModel(d=1, m=1, drift=lambda x: x - 1.0,
                        diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.array([1.0]), polynomial_degree_r=0.0)
    cfg = tm.TruncationConfig(1.0, 1.0, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="cap"):
        tm.compute_stability_constants(model, cfg, tm.KFunction(1.0, 2.0), n_grid=2000)


@pytest.mark.parametrize("n_grid", [0, -5])
def test_stability_constants_need_a_grid_radius(quintic_cfg, n_grid):
    # 0 indexed an empty grid, -5 reached numpy's logspace
    model, k_fn = tm.builtin_model("stable_quintic"), tm.KFunction(2.0, 2.0)
    with pytest.raises(ValueError, match=f"n_grid = {n_grid}: the search grid needs at least one"):
        tm.compute_stability_constants(model, quintic_cfg, k_fn, n_grid=n_grid)
    assert tm.compute_stability_constants(model, quintic_cfg, k_fn, n_grid=1).radius_at_one == 1.0


def _per_point_constants(model, cfg, k_fn, n_grid):
    """(H, delta_1, argmax_norm) from a search that evaluates one radius at a time."""
    radius1 = cfg.radius(1.0)
    dirs = _directions(model.d)

    def ratio(u):
        best = 0.0
        for e in dirs:
            mu = np.atleast_1d(np.asarray(model.drift(u * e), dtype=float))
            best = max(best, float(np.dot(mu, mu)))
        return best / float(k_fn(u))

    grid = np.logspace(-6, math.log10(radius1), n_grid)
    grid[-1] = radius1
    vals = np.array([ratio(u) for u in grid])
    i = int(np.argmax(vals))
    if 0 < i < len(grid) - 1:
        u_star = _golden_max(ratio, grid[i - 1], grid[i + 1])
        H = max(ratio(u_star), float(vals[i]))
    else:
        u_star, H = float(grid[i]), float(vals[i])
    delta_1 = min(1.0, 0.5 / H if H > 0 else 1.0, 0.25 * float(k_fn(radius1)) ** 2)
    return H, delta_1, u_star


_UNIT_RADIUS_CFG = tm.TruncationConfig(1.0, 1.0, 1.0, 0.1, 1.0)    # radius(1) = 1
# (u^3 - 4u^5)^2 / u^2 peaks at u = 1/sqrt(8), inside this radius-0.4 ball, so
# cubic_quintic with k(u) = u^2 runs the golden-section refinement
_INTERIOR_MAX_CFG = tm.TruncationConfig(2.5, 1.0, 1.0, 0.1, 1.0)


@pytest.mark.parametrize("name, cfg, k_fn", [
    ("stable_quintic", config_for("stable_quintic"), tm.KFunction(2.0, 2.0)),
    ("cubic_quintic", config_for("cubic_quintic"), tm.KFunction(1.0, 2.0)),
    ("cubic_quintic", _INTERIOR_MAX_CFG, tm.KFunction(1.0, 2.0)),
    ("strongly_damped_cubic", config_for("strongly_damped_cubic"), tm.KFunction(1.0, 2.0)),
    ("linear_decay", _UNIT_RADIUS_CFG, tm.KFunction(1.0, 2.0)),
])
def test_stability_constants_match_per_point_search(name, cfg, k_fn):
    model = _linear_decay_model() if name == "linear_decay" else tm.builtin_model(name)
    rep = tm.compute_stability_constants(model, cfg, k_fn, n_grid=10_000)
    assert (rep.H, rep.delta_1, rep.argmax_norm) == _per_point_constants(model, cfg, k_fn, 10_000)


def test_stability_constants_match_per_point_search_on_vector_models(fd_models):
    k_fn = tm.KFunction(1.0, 2.0)
    for model in fd_models:
        rep = tm.compute_stability_constants(model, _UNIT_RADIUS_CFG, k_fn, n_grid=24)
        assert (rep.H, rep.delta_1, rep.argmax_norm) == _per_point_constants(
            model, _UNIT_RADIUS_CFG, k_fn, 24)


def test_stability_ratio_nan_along_a_later_direction_raises():
    # a NaN drift along one direction, not the first, must fail the cap check
    # as it does for a scalar model
    e = _directions(2)[5]

    def drift(x):
        along_e = abs(x[0] * e[1] - x[1] * e[0]) <= 1e-12 * np.linalg.norm(x) and np.dot(x, e) > 0
        return np.full(2, np.nan) if along_e else -x

    model = tm.SdeModel(d=2, m=1, drift=drift, diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.array([1.0, 1.0]), polynomial_degree_r=0.0)
    with pytest.raises(ValueError, match="exceeds cap"):
        tm.compute_stability_constants(model, _UNIT_RADIUS_CFG, tm.KFunction(1.0, 2.0), n_grid=20)


def test_stability_constants_scalar_drift_calls():
    # one call per direction for each block of the grid, then two per
    # refinement step
    base = tm.builtin_model("cubic_quintic")
    calls = []

    def drift(x):
        signs = set(np.sign(x).ravel().tolist())
        assert len(signs) == 1          # a call holds radii along one direction
        calls.append((signs.pop(), np.shape(x)))
        return base.drift(x)

    rep = tm.compute_stability_constants(replace(base, drift=drift), _INTERIOR_MAX_CFG,
                                         tm.KFunction(1.0, 2.0))
    n_grid_calls = 2 * -(-100_000 // experiments._GRID_BLOCK)
    grid, refine = calls[:n_grid_calls], calls[n_grid_calls:]
    assert all(1 <= shape[0] <= experiments._GRID_BLOCK and shape[1:] == (1,)
               for _, shape in grid)
    assert [sign for sign, _ in grid] == [1.0, -1.0] * (n_grid_calls // 2)
    for direction in (1.0, -1.0):
        assert sum(shape[0] for sign, shape in grid if sign == direction) == 100_000
    assert refine and {shape for _, shape in refine} == {(1, 1)}
    assert len(refine) <= 98
    assert rep.argmax_norm == pytest.approx(8.0 ** -0.5, rel=1e-6)
    assert rep.H == pytest.approx(1.0 / 256.0, rel=1e-9)


def test_stability_constants_vector_model():
    # |mu(x)|^2 = 4 x1^2 + x2^2 against k(u) = u^2: the ratio peaks at 4 along x1
    model = tm.SdeModel(d=2, m=1, drift=lambda x: np.array([-2.0, -1.0]) * x,
                        diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.array([1.0, 1.0]), polynomial_degree_r=0.0)
    k_fn = tm.KFunction(1.0, 2.0)
    rep = tm.compute_stability_constants(model, _UNIT_RADIUS_CFG, k_fn, n_grid=200)
    assert (rep.H, rep.delta_1, rep.argmax_norm) == _per_point_constants(
        model, _UNIT_RADIUS_CFG, k_fn, 200)
    assert rep.H == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_stability_ensemble_deterministic_contraction(n_workers):
    # an unregistered model: the chunks step the model they are handed
    model = _linear_decay_model()
    cfg = tm.TruncationConfig(1.0, 1.0, 1.0, 0.1, 1.0)
    rep = tm.run_stability_ensemble(model, cfg, delta=0.1, n_paths=20, horizon_steps=300,
                                    tol_stab=1e-2, master_seed=4, n_workers=n_workers)
    assert rep.decay_fraction == 1.0
    assert rep.recorded_magnitudes.shape == (10, 301)
    assert np.all(rep.recorded_magnitudes[:, -1] < 1e-2)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_stability_ensemble_zero_fixed_point(quintic_cfg, n_workers):
    # under the builtin's name: the chunks step this model, not the builtin
    model = replace(tm.builtin_model("stable_quintic"), initial_value=np.array([0.0]))
    rep = tm.run_stability_ensemble(model, quintic_cfg, delta=0.01, n_paths=8,
                                    horizon_steps=50, tol_stab=1e-2, master_seed=1,
                                    n_workers=n_workers)
    assert np.all(rep.recorded_magnitudes == 0.0)
    assert rep.decay_fraction == 1.0


def test_stability_ensemble_warns_above_ceiling(quintic_cfg):
    model = tm.builtin_model("stable_quintic")
    k_fn = tm.KFunction(2.0, 2.0)
    with pytest.warns(UserWarning, match="exceeds"):
        rep = tm.run_stability_ensemble(model, quintic_cfg, delta=0.04, n_paths=8,
                                        horizon_steps=50, tol_stab=1e-2, master_seed=1,
                                        k_fn=k_fn)
    assert rep.constants == tm.compute_stability_constants(model, quintic_cfg, k_fn)


@pytest.mark.parametrize("delta", [0.0, -0.1, 2.0])
def test_stability_ensemble_rejects_step_outside_unit_interval(quintic_cfg, delta):
    model = tm.builtin_model("stable_quintic")
    with mock.patch.object(experiments, "ProcessPoolExecutor",
                           side_effect=AssertionError("no pool for a bad step")):
        with pytest.raises(ValueError, match=r"step size must lie in \(0, 1\]"):
            tm.run_stability_ensemble(model, quintic_cfg, delta=delta, n_paths=8,
                                      horizon_steps=50, tol_stab=1e-2, n_workers=2)


def test_stability_ensemble_worker_invariance(quintic_cfg):
    model = tm.builtin_model("stable_quintic")
    one = tm.run_stability_ensemble(model, quintic_cfg, delta=0.02, n_paths=600,
                                    horizon_steps=100, tol_stab=1e-2, master_seed=5,
                                    n_workers=1)
    four = tm.run_stability_ensemble(model, quintic_cfg, delta=0.02, n_paths=600,
                                     horizon_steps=100, tol_stab=1e-2, master_seed=5,
                                     n_workers=4)
    assert np.array_equal(one.decay_flags, four.decay_flags)
    assert np.array_equal(one.recorded_magnitudes, four.recorded_magnitudes)


def test_stability_chunks_record_only_the_recorded_prefix(quintic_cfg):
    # every chunk returns an array of magnitudes, empty past the recorded paths
    args = (tm.builtin_model("stable_quintic"), quintic_cfg, 0.02, 40, 1e-2, 5, 3)
    whole_flags, alive, whole = experiments._stability_chunk(*args, 0, 8)
    assert whole.shape == (3, 41) and alive.tolist() == [True] * 8
    flags, _, part = experiments._stability_chunk(*args, 2, 6)
    assert np.array_equal(flags, whole_flags[2:6]) and np.array_equal(part, whole[2:])
    assert experiments._stability_chunk(*args, 4, 8)[2].shape == (0, 41)
    model = tm.builtin_model("stable_quintic")
    for record_paths, shape in ((0, None), (3, (3, 41)), (50, (8, 41))):
        rep = tm.run_stability_ensemble(model, quintic_cfg, delta=0.02, n_paths=8,
                                        horizon_steps=40, tol_stab=1e-2, master_seed=5,
                                        record_paths=record_paths)
        got = rep.recorded_magnitudes
        assert (got is None) if shape is None else got.shape == shape


@pytest.mark.parametrize("paths, horizon", [(500, 1000), (2000, 1200)])
def test_stability_chunk_steps_in_ladder_pieces(monkeypatch, quintic_cfg, paths, horizon):
    # 500 paths draw one window of the whole horizon, 2000 paths windows of
    # 524 steps; the chunk is a one-rung ladder, so every driver call records
    # every path over `_LADDER_VALUES // paths` steps of one window (524 and
    # 131), less where the window ends, and the windows tile the horizon
    windows, calls, drive = _spy_windows(monkeypatch), [], experiments._simulate_batch

    def spy_drive(scheme, model, cfg, inc, *args, record=False):
        calls.append((len(windows) - 1, inc.shape[0], inc.shape[1], record))
        return drive(scheme, model, cfg, inc, *args, record=record)
    monkeypatch.setattr(experiments, "_simulate_batch", spy_drive)
    _stability_chunk(tm.builtin_model("stable_quintic"), quintic_cfg, 0.004, horizon, 1e-2, 5,
                     10, 0, paths)
    assert all(record is True and rows == paths for _, rows, _, record in calls)
    cap = max(1, experiments._LADDER_VALUES // paths)
    for i, (_, w) in enumerate(windows):
        pieces = [n for window, _, n, _ in calls if window == i]
        assert pieces == [cap] * (w // cap) + [w % cap] * (w % cap > 0)
    assert _covers(windows, horizon) and len(calls) > len(windows)


@pytest.mark.parametrize("cap", [1, 40, 100, None])
@pytest.mark.parametrize("window", [50, 40, 361],
                         ids=["tail-inside", "tail-on-first-step", "tail-on-last-step"])
@pytest.mark.parametrize("model", [tm.builtin_model("stable_quintic"),
                                   quintic_nan_outside_model()], ids=lambda m: m.name)
def test_stability_chunk_equals_a_whole_horizon_record(monkeypatch, quintic_cfg, model, window,
                                                       cap):
    # the tail of 400 steps starts at step 360: inside the window [350, 400)
    # of 50 steps, on the first step of [360, 400) of 40, on the last of
    # [0, 361) of 361; pieces of 1, 2 or 6 steps of the 16 paths (a cap of
    # 1, 40 or 100 values), or whole windows, put a piece edge on, before or
    # after it; a tail read from step 359, 360, 362 or 363 on flips a path's
    # flag at this tolerance; 5 of the 16 quintic_nan_outside paths blow up,
    # at step 1 or 2, two of them recorded
    lo, hi, delta, horizon, tol, seed = 3, 19, 0.004, 400, 0.07, 3
    monkeypatch.setattr(experiments, "_WINDOW_NORMALS", window * (hi - lo))
    monkeypatch.setattr(experiments, "_WINDOW_MIN_STEPS", 1)
    if cap:
        monkeypatch.setattr(experiments, "_LADDER_VALUES", cap)
    flags, alive, mags = _stability_chunk(model, quintic_cfg, delta, horizon, tol, seed, 9,
                                          lo, hi)
    z = experiments.brownian.standard_normals(seed, range(lo, hi), 1, horizon,
                                              scale=np.sqrt(delta * horizon / horizon))
    ref = _simulate_batch("truncated_milstein", model, quintic_cfg, z, delta,
                          model.initial_value, record=True)
    size = np.abs(ref.states[:, :, 0])
    assert np.array_equal(flags, np.all(size[:, 361:] < tol, axis=1))
    assert flags.any() and not flags.all()
    assert np.array_equal(alive, ref.alive) and alive.all() == (model.name == "stable_quintic")
    assert np.array_equal(mags, size[:6], equal_nan=True)


def test_stability_ensemble_reports_blown_up_paths(quintic_cfg):
    # the drift is NaN beyond |x| = 1.05, which some paths reach inside the
    # truncation ball of this step (radius about 1.32)
    model, delta, horizon = quintic_nan_outside_model(), 0.004, 200
    rep = tm.run_stability_ensemble(model, quintic_cfg, delta=delta, n_paths=32,
                                    horizon_steps=horizon, tol_stab=0.5, master_seed=2,
                                    n_workers=2)
    runs = [simulate("truncated_milstein", model, quintic_cfg,
                     tm.generate(2, p, 1, delta * horizon, horizon)) for p in range(32)]
    blew_up = np.array([run.blew_up for run in runs])
    assert 0 < blew_up.sum() < 32
    assert rep.blowup_fraction == blew_up.mean()
    assert not rep.decay_flags[blew_up].any() and rep.decay_flags[~blew_up].any()
    assert rep.constants is None


def test_stability_constants_traced_peak_is_block_bounded(quintic_cfg):
    # the whole-grid evaluation peaked at 5.6 MB: the drift's temporaries of
    # all 100 000 radii; in blocks they are block-sized beside the grid and
    # its ratios (1.6 MB)
    model, k_fn = tm.builtin_model("stable_quintic"), tm.KFunction(2.0, 2.0)
    tm.compute_stability_constants(model, quintic_cfg, k_fn, n_grid=100)
    tracemalloc.start()
    try:
        rep = tm.compute_stability_constants(model, quintic_cfg, k_fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8e6
    assert (rep.H, rep.delta_1, rep.argmax_norm) == (60.5, 1.0 / 121.0, 1.0)


def test_map_chunks_with_one_worker_runs_meanwhile_first():
    events = []
    _, got = _map_chunks(lambda lo, hi: events.append((lo, hi)), 10, 1,
                         meanwhile=lambda: events.append("meanwhile"))
    assert events[0] == "meanwhile" and len(got) == len(events) - 1


def _submit_spy(events):
    class SpyPool(experiments.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            events.append(future)
            return future
    return SpyPool


def test_stability_chunks_are_submitted_before_the_constants(monkeypatch, quintic_cfg):
    # a closure drift cannot be pickled to the workers, so the spy wraps the
    # constants, which run only in this process
    events, constants = [], experiments.compute_stability_constants
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _submit_spy(events))

    def spy(*args):
        events.append("constants")
        return constants(*args)
    monkeypatch.setattr(experiments, "compute_stability_constants", spy)
    quintic, k_fn = tm.builtin_model("stable_quintic"), tm.KFunction(2.0, 2.0)
    rep = tm.run_stability_ensemble(quintic, quintic_cfg, delta=0.004, n_paths=16,
                                    horizon_steps=40, tol_stab=1e-2, n_workers=2, k_fn=k_fn)
    first_constants = events.index("constants")
    assert first_constants == 2 and "constants" not in events[:2]
    assert rep.constants == tm.compute_stability_constants(quintic, quintic_cfg, k_fn)


# a worker with no chunk is a forked process that does nothing
@pytest.mark.parametrize("n_paths, pools", [(1, []), (3, [3])])
def test_a_pool_has_one_worker_per_chunk(monkeypatch, quintic_cfg, n_paths, pools):
    run = functools.partial(tm.run_stability_ensemble, tm.builtin_model("stable_quintic"),
                            quintic_cfg, delta=0.004, n_paths=n_paths, horizon_steps=40,
                            tol_stab=1e-2, master_seed=3, record_paths=n_paths)
    one = run(n_workers=1)
    sizes = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _pool_spy(sizes))
    eight = run(n_workers=8)
    assert sizes == pools
    assert np.array_equal(eight.decay_flags, one.decay_flags)
    assert np.array_equal(eight.recorded_magnitudes, one.recorded_magnitudes)
    assert eight.blowup_fraction == one.blowup_fraction


_CRITERION_6_LADDER = [2.0 ** -k for k in range(4, 11)]


@pytest.mark.parametrize("n_workers", [1, 2, 3, None])
def test_moments_are_bitwise_equal_for_any_worker_count(cubic_cfg, n_workers):
    # chunks of 683 paths, or 1024 and 1025 (the default on a host of two or
    # more CPUs); each rung's mean is taken over the joined terminal states
    model = tm.builtin_model("cubic_quintic")
    moments = tm.terminal_moment_probe(model, cubic_cfg, _CRITERION_6_LADDER, n_paths=2049,
                                       master_seed=11, n_workers=n_workers)
    assert np.array_equal(moments, _per_rung_moments(model, cubic_cfg, _CRITERION_6_LADDER,
                                                     2049, 1.0, 4.0, 11))


_BASELINE_KERNELS = "X86_V4 AVX512_ICL AVX512_SPR"


def _dispatches_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return (set(_BASELINE_KERNELS.split()) <= set(__cpu_dispatch__)
            and __cpu_features__.get("X86_V4", False))


@pytest.mark.skipif(not _dispatches_avx512(), reason="numpy does not dispatch AVX-512 kernels here")
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: float64 np.power rounds differently in "
                                       "numpy's AVX-512 and baseline kernels")
def test_moments_are_the_same_bytes_without_avx512_kernels():
    # one small moment probe in two fresh interpreters, the second with the
    # AVX-512 dispatch targets disabled; at 50 paths the two agree
    code = ("import hashlib, truncmil as tm\n"
            "m = tm.terminal_moment_probe(tm.builtin_model('cubic_quintic'),\n"
            "    tm.TruncationConfig(4.0, 5.0, 4.0, 0.1, 4.0), [2.0 ** -k for k in range(4, 9)],\n"
            "    200, master_seed=11, n_workers=1)\n"
            "print(hashlib.sha256(m.tobytes()).hexdigest())")
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    digests = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": _BASELINE_KERNELS}):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))


# one default worker per CPU, but at most one per `_MIN_CHUNK_PATHS` paths
@pytest.mark.parametrize("cpus, n_paths, pools", [(2, 2047, []), (2, 2048, [2]),
                                                  (8, 3072, [3]), (1, 4096, [])])
def test_default_workers_follow_the_cpus_and_the_paths(monkeypatch, cubic_cfg, cpus, n_paths,
                                                       pools):
    model, deltas = tm.builtin_model("cubic_quintic"), [0.25, 0.125]
    one = tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=n_paths, n_workers=1)
    _usable_cpus(monkeypatch, cpus)
    sizes = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _pool_spy(sizes))
    assert np.array_equal(tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=n_paths),
                          one)
    assert sizes == pools


def test_default_workers_count_the_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    assert experiments._default_workers(_sleep_chunk, 10_000, ()) == 3
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert experiments._default_workers(_sleep_chunk, 10_000, ()) == 1


def test_default_workers_stay_in_process_where_a_pool_cannot_run(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    assert experiments._default_workers(_sleep_chunk, 4096, (1.0,)) == 2
    # a chunk or an argument that does not pickle
    assert experiments._default_workers(lambda lo, hi: lo, 4096, ()) == 1
    assert experiments._default_workers(_sleep_chunk, 4096, (lambda x: x,)) == 1
    # a start method whose workers import the package afresh
    with mock.patch.object(multiprocessing, "get_start_method", return_value="spawn"):
        assert experiments._default_workers(_sleep_chunk, 4096, ()) == 1
    # a daemonic process may not have children
    with mock.patch.object(multiprocessing, "current_process",
                           return_value=mock.Mock(daemon=True)):
        assert experiments._default_workers(_sleep_chunk, 4096, ()) == 1


def test_default_workers_leave_the_start_method_unset():
    # reading the start method must not fix it: a later set_start_method, in a
    # process that has made no pool, still works
    code = ("import multiprocessing, os\n"
            "from truncmil import experiments\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "experiments._default_workers(experiments._moment_chunk, 4096, ())\n"
            "multiprocessing.set_start_method('spawn')\n"
            "assert experiments._default_workers(experiments._moment_chunk, 4096, ()) == 1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr


# modules only a pooled call or the command line needs; a fresh interpreter
# runs each check below, as pytest has loaded them all
_POOL_AND_CLI_MODULES = ("concurrent.futures", "multiprocessing", "argparse", "difflib",
                         "fractions")
_FRESH_RATE_RUN = (
    "import sys\n"
    "import truncmil as tm\n"
    "from truncmil import cli, experiments\n"
    "def loaded():\n"
    f"    return [name for name in {_POOL_AND_CLI_MODULES!r} if name in sys.modules]\n"
    "spec = tm.RateExperimentSpec(model_name='cubic_quintic',\n"
    "    cfg=tm.TruncationConfig(4.0, 5.0, 4.0, 0.1, 4.0), scheme='truncated_milstein', q=1.0,\n"
    "    t_final=0.16, delta_ref=0.005, test_deltas=(0.01, 0.02, 0.04), n_paths=24,\n"
    "    master_seed=11)\n"
    "def errors(n_workers):\n"
    "    return tm.run_rate_experiment(spec, n_workers=n_workers).errors.tolist()\n")


def _run_fresh(code):
    proc = subprocess.run([sys.executable, "-c", _FRESH_RATE_RUN + code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr


def test_runs_that_never_pool_leave_the_pool_and_cli_modules_unloaded(tmp_path):
    # a default-size (1000-path) stability run stays in-process
    config = tmp_path / "stability.cfg"
    config.write_text("kind = stability\nmodel = stable_quintic\nomega.coeff = 4\n"
                      "omega.power = 5\nh.coeff = 4\nh.power = 0.25\nh_bar = 4\nk.coeff = 2\n"
                      "k.power = 2\ndelta = 0.004\nhorizon_steps = 50\n")
    _run_fresh("assert loaded() == [], loaded()\n"
               "errors(1)\n"
               "assert loaded() == [], loaded()\n"
               f"assert cli.run({str(config)!r}, out={str(tmp_path / 'out')!r}) == 0\n"
               "assert loaded() == [], loaded()\n")


def test_the_first_pooled_call_loads_the_pool_and_keeps_the_rows():
    _run_fresh("one = errors(1)\n"
               "assert 'concurrent.futures.process' not in sys.modules\n"
               "assert errors(2) == one\n"
               "assert 'concurrent.futures.process' in sys.modules\n")


@pytest.mark.parametrize("stand_in", [
    # the benchmark's pool counter: a subclass of the class the module loads
    "class Pool(experiments.ProcessPoolExecutor):\n"
    "    def __init__(self, max_workers):\n"
    "        made.append(max_workers)\n"
    "        super().__init__(max_workers)\n",
    # a class that runs the chunks in this process, loading no pool
    "class Pool:\n"
    "    def __init__(self, max_workers):\n"
    "        made.append(max_workers)\n"
    "    def __enter__(self):\n"
    "        return self\n"
    "    def __exit__(self, *exc):\n"
    "        return False\n"
    "    def map(self, fn, *iterables):\n"
    "        return map(fn, *iterables)\n"], ids=["subclass", "in-process"])
def test_a_pool_class_set_before_the_first_pooled_call_is_the_one_that_runs(stand_in):
    _run_fresh("made = []\n"
               + stand_in
               + "experiments.ProcessPoolExecutor = Pool\n"
               "one = errors(1)\n"
               "assert errors(2) == one and made == [2], made\n"
               "assert experiments.ProcessPoolExecutor is Pool\n")


def test_every_ensemble_and_the_cli_default_to_the_one_worker_rule():
    # no worker count leaves the pool to `_default_workers`; rows are the
    # same for any count, so the default decides only speed
    for entry in (tm.run_rate_experiment, tm.run_stability_ensemble, tm.terminal_moment_probe):
        assert inspect.signature(entry).parameters["n_workers"].default is None
    assert cli._RUN_FIELDS["workers"] == (int, None)


def test_a_lambda_coefficient_model_runs_in_process_by_default(monkeypatch, cubic_cfg):
    drift = tm.builtin_model("cubic_quintic").drift
    model = replace(tm.builtin_model("cubic_quintic"), drift=lambda x: drift(x))
    one = tm.terminal_moment_probe(model, cubic_cfg, [0.25, 0.125], n_paths=2048, n_workers=1)
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        mock.Mock(side_effect=AssertionError("a pool was created")))
    assert np.array_equal(tm.terminal_moment_probe(model, cubic_cfg, [0.25, 0.125],
                                                   n_paths=2048), one)


@pytest.mark.parametrize("n_workers", [0, -3])
@pytest.mark.parametrize("entry", ["rate", "stability", "probe"])
def test_ensembles_refuse_fewer_than_one_worker(monkeypatch, cubic_cfg, quintic_cfg, entry,
                                                n_workers):
    # both ran one chunk; the refusal comes before any draw or pool
    monkeypatch.setattr(experiments.brownian, "standard_normals", None)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        mock.Mock(side_effect=AssertionError("a pool was created")))
    run = {"rate": lambda: tm.run_rate_experiment(_small_rate_spec("terminal"), n_workers),
           "stability": lambda: tm.run_stability_ensemble(
               tm.builtin_model("stable_quintic"), quintic_cfg, delta=0.04, n_paths=8,
               horizon_steps=20, tol_stab=1e-2, n_workers=n_workers),
           "probe": lambda: tm.terminal_moment_probe(
               tm.builtin_model("cubic_quintic"), cubic_cfg, [0.25, 0.125], n_paths=8,
               n_workers=n_workers)}[entry]
    with pytest.raises(ValueError, match=f"n_workers = {n_workers}: need at least one worker"):
        run()


def _sleep_chunk(lo, hi):
    time.sleep(0.05)
    return lo


def test_failing_meanwhile_propagates_once_the_chunks_end(monkeypatch):
    events = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _submit_spy(events))

    def fail():
        raise ValueError("constants failed")

    # one chunk per worker, each started at once, so none is left to cancel
    with pytest.raises(ValueError, match="constants failed"):
        _map_chunks(_sleep_chunk, 20, 2, meanwhile=fail)
    assert len(events) == 2
    assert all(future.done() and not future.cancelled() for future in events)
    assert multiprocessing.active_children() == []


def _pid_chunk(mode, lo, hi):
    """This worker's pid, or a chunk that fails: 'raise' in its first chunk,
    'exit' by ending its worker."""
    if mode == "raise" and lo == 0:
        raise ValueError("chunk failed")
    if mode == "exit":
        os._exit(1)
    return os.getpid()


@pytest.mark.parametrize("k", [2, 3])
def test_each_pooled_call_forks_k_fresh_workers_and_leaves_no_child(monkeypatch, k):
    sizes, seen = [], {os.getpid()}
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _pool_spy(sizes))
    for _ in range(2):
        got = set(_map_chunks(_pid_chunk, 6, k, "ok")[1])
        assert multiprocessing.active_children() == []
        assert got and not got & seen
        seen |= got
    assert sizes == [k, k]


def _drift_of(scale):
    quintic = tm.builtin_model("stable_quintic").drift

    def drift(x):
        return scale * quintic(x)
    drift.__qualname__ = drift.__name__ = "_rebindable_drift"     # pickled by this name
    return drift


_rebindable_drift = _drift_of(1.0)


def test_a_drift_rebound_between_pooled_runs_reaches_the_workers(monkeypatch, quintic_cfg):
    # a worker resolves the drift by name in the modules as they were at its
    # fork, so a rebound name must not reach a pool forked before it
    module = sys.modules[__name__]

    def run(n_workers):
        model = replace(tm.builtin_model("stable_quintic"), drift=module._rebindable_drift)
        return tm.run_stability_ensemble(model, quintic_cfg, delta=0.004, n_paths=16,
                                         horizon_steps=40, tol_stab=1e-2, master_seed=3,
                                         record_paths=16, n_workers=n_workers)
    before = run(2)
    monkeypatch.setattr(module, "_rebindable_drift", _drift_of(3.0))
    after, one = run(2), run(1)
    assert not np.array_equal(after.recorded_magnitudes, before.recorded_magnitudes)
    assert np.array_equal(after.recorded_magnitudes, one.recorded_magnitudes)
    assert np.array_equal(after.decay_flags, one.decay_flags)


_DRIFT_SCALE = 1.0
_quintic_drift = tm.builtin_model("stable_quintic").drift


def _scaled_drift(x):
    return _DRIFT_SCALE * _quintic_drift(x)


def _tripled_quintic_drift(x):
    return 3.0 * tm.builtin_model("stable_quintic").drift(x)


def _scaled_drift_run(cfg, n_workers):
    model = replace(tm.builtin_model("stable_quintic"), drift=_scaled_drift)
    return tm.run_stability_ensemble(model, cfg, delta=0.004, n_paths=16, horizon_steps=40,
                                     tol_stab=1e-2, master_seed=3, record_paths=16,
                                     n_workers=n_workers)


@pytest.mark.parametrize("name, value", [("_DRIFT_SCALE", 3.0),
                                         ("_quintic_drift", _tripled_quintic_drift)])
def test_a_name_the_drift_reads_rebound_between_pooled_runs_reaches_the_workers(
        monkeypatch, quintic_cfg, name, value):
    # the drift itself stays the same object; what it reads is rebound
    before = _scaled_drift_run(quintic_cfg, 2)
    monkeypatch.setattr(sys.modules[__name__], name, value)
    after, one = _scaled_drift_run(quintic_cfg, 2), _scaled_drift_run(quintic_cfg, 1)
    assert not np.array_equal(after.recorded_magnitudes, before.recorded_magnitudes)
    assert np.array_equal(after.recorded_magnitudes, one.recorded_magnitudes)
    assert np.array_equal(after.decay_flags, one.decay_flags)


_standard_normals = experiments.brownian.standard_normals


def _standard_normals_again(*args, **kwargs):
    return _standard_normals(*args, **kwargs)


@pytest.mark.parametrize("module, name, value", [
    (experiments, "_WINDOW_NORMALS", 1 << 10),
    (experiments.brownian, "standard_normals", _standard_normals_again)])
def test_a_package_name_a_chunk_reads_rebound_keeps_the_rows(monkeypatch, quintic_cfg,
                                                               module, name, value):
    before = _scaled_drift_run(quintic_cfg, 2)
    monkeypatch.setattr(module, name, value)
    after = _scaled_drift_run(quintic_cfg, 2)
    assert np.array_equal(after.recorded_magnitudes, before.recorded_magnitudes)


_SCALE = np.ones(1)


def _array_scaled_drift(x):
    return _SCALE[0] * _quintic_drift(x)


def test_an_array_the_drift_reads_changed_in_place_reaches_the_workers(quintic_cfg):
    # the name still holds the same object, so only workers forked after the
    # change see it; workers kept from the first run would step the old scale
    model = replace(tm.builtin_model("stable_quintic"), drift=_array_scaled_drift)
    run = functools.partial(tm.run_stability_ensemble, model, quintic_cfg, delta=0.004,
                            n_paths=16, horizon_steps=40, tol_stab=1e-2, master_seed=3,
                            record_paths=16)
    before = run(n_workers=2)
    _SCALE[0] = 3.0
    try:
        after, one = run(n_workers=2), run(n_workers=1)
    finally:
        _SCALE[0] = 1.0
    assert not np.array_equal(after.recorded_magnitudes, before.recorded_magnitudes)
    assert np.array_equal(after.recorded_magnitudes, one.recorded_magnitudes)
    assert np.array_equal(after.decay_flags, one.decay_flags)


def test_an_array_a_moment_chunk_reads_changed_in_place_reaches_the_workers(quintic_cfg):
    model = replace(tm.builtin_model("stable_quintic"), drift=_array_scaled_drift)
    run = functools.partial(tm.terminal_moment_probe, model, quintic_cfg, [2.0 ** -6, 2.0 ** -5],
                            n_paths=16, master_seed=3)
    before = run(n_workers=2)
    _SCALE[0] = 3.0
    try:
        after, one = run(n_workers=2), run(n_workers=1)
    finally:
        _SCALE[0] = 1.0
    assert not np.array_equal(after, before)
    assert np.array_equal(after, one)


@pytest.mark.parametrize("mode, error", [("raise", ValueError), ("exit", BrokenProcessPool)])
def test_a_failed_call_drops_the_pool_and_the_next_forks_a_new_one(mode, error):
    old = set(_map_chunks(_pid_chunk, 4, 2, "ok")[1])
    with pytest.raises(error):
        _map_chunks(_pid_chunk, 4, 2, mode)
    assert multiprocessing.active_children() == []
    assert not set(_map_chunks(_pid_chunk, 4, 2, "ok")[1]) & old


def test_an_interrupt_in_meanwhile_still_joins_the_workers():
    # a BaseException, not an Exception: the pool is shut down all the same
    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _map_chunks(_sleep_chunk, 20, 2, meanwhile=interrupt)
    assert multiprocessing.active_children() == []


def test_threads_share_the_pool_without_leaking_workers():
    # more threads than cores, alternating chunk counts: each call makes
    # and joins its own pool, under contention too
    errors, interval = [], sys.getswitchinterval()

    def run(i):
        try:
            for j in range(4):
                k = 2 + (i + j) % 2
                got = _map_chunks(_pid_chunk, 6, k, "ok")[1]
                assert len(got) == k and os.getpid() not in got
        except BaseException as exc:
            errors.append(exc)
    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(multiprocessing.active_children()) <= 3


def _pids_in_a_fork(conn):
    pids = _map_chunks(_pid_chunk, 4, 2, "ok")[1]
    conn.send((pids, len(multiprocessing.active_children())))


def test_a_forked_child_forks_and_joins_its_own_workers():
    # the child's workers are its own, and gone before the child sends
    parents = set(_map_chunks(_pid_chunk, 4, 2, "ok")[1])
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_pids_in_a_fork, args=(sender,))
    child.start()
    assert receiver.poll(60)
    in_child, live = receiver.recv()
    child.join(timeout=60)
    assert child.exitcode == 0 and live == 0
    assert len(in_child) == 2
    assert not set(in_child) & (parents | {os.getpid(), child.pid})


def test_a_pooled_call_joins_its_workers_before_it_returns():
    # in a fresh interpreter, with no fixture to clean up after it
    code = ("import multiprocessing, os\n"
            "from truncmil import experiments\n"
            "def pid(lo, hi):\n"
            "    return os.getpid()\n"
            "pids = experiments._map_chunks(pid, 4, 2)[1]\n"
            "print(len(multiprocessing.active_children()), *sorted(set(pids)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    live, *pids = [int(pid) for pid in proc.stdout.split()]
    assert live == 0 and pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# each tol_stab splits the 16 paths' tail maxima at that horizon
@pytest.mark.parametrize("horizon,tol", [(9, 0.4), (40, 0.16), (95, 0.06)])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_decay_flags_match_per_path_simulation(quintic_cfg, horizon, tol, n_workers):
    model, delta, seed = tm.builtin_model("stable_quintic"), 0.02, 5
    rep = tm.run_stability_ensemble(model, quintic_cfg, delta=delta, n_paths=16,
                                    horizon_steps=horizon, tol_stab=tol, master_seed=seed,
                                    n_workers=n_workers, record_paths=5)
    mags = [np.abs(simulate("truncated_milstein", model, quintic_cfg,
                            tm.generate(seed, p, 1, delta * horizon, horizon)).states[:, 0])
            for p in range(16)]
    tail = max(1, horizon // 10)
    flags = [bool(np.all(m[-tail:] < tol)) for m in mags]
    assert 0 < sum(flags) < 16
    assert rep.decay_flags.tolist() == flags
    assert np.array_equal(rep.recorded_magnitudes, mags[:5])


# ---------------------------------------------------------------------------
# probes


def test_half_step_gap_drift_only_bound():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: -np.tanh(x),
                        diffusion_col=lambda x, j: 0.0 * x,
                        l_op=lambda x, j1, j2: 0.0 * np.asarray(x, dtype=float),
                        initial_value=np.array([1.0]), polynomial_degree_r=1.0)
    cfg = tm.TruncationConfig(1.0, 1.0, 1.0, 0.1, 1.0)
    deltas = [0.25, 0.125]
    gaps = _per_rung_gaps(model, cfg, deltas, 16, 1.0, 0)
    # |mu| <= 1, so each half-step gap is at most delta / 2 deterministically
    for delta, gap in zip(deltas, gaps):
        assert gap <= (delta / 2.0) ** 2


def test_half_step_gap_scaling_exponent(cubic_cfg):
    deltas = [2.0 ** -k for k in range(4, 10)]
    gaps = _per_rung_gaps(tm.builtin_model("cubic_quintic"), cubic_cfg, deltas, 400, 1.0, 3)
    # raw mean-square gap should scale like delta^1 (within a generous window)
    x = np.log2(deltas)
    y = np.log2(gaps)
    xc = x - x.mean()
    raw_slope = float(np.dot(xc, y) / np.dot(xc, xc))
    assert 0.8 <= raw_slope <= 1.2


def test_terminal_moment_probe_bounded(cubic_cfg):
    deltas = [2.0 ** -k for k in range(4, 8)]
    moments = tm.terminal_moment_probe(tm.builtin_model("cubic_quintic"), cubic_cfg,
                                       deltas, n_paths=2000, master_seed=3)
    assert np.all(moments < 10.0)


def _per_rung_moments(model, cfg, deltas, n_paths, t_final, power, seed):
    """Reference: every rung regenerates its own increment grid."""
    out = []
    for delta in deltas:
        n = int(round(t_final / delta))
        inc = generate_batch(seed, range(n_paths), 1, t_final, n)
        res = _simulate_batch(tm.SchemeId.truncated_milstein, model, cfg, inc, delta,
                              float(model.initial_value[0]))
        out.append(float(np.mean(np.abs(res.finals[:, 0]) ** power)))
    return np.array(out)


def _per_rung_gaps(model, cfg, deltas, n_paths, t_final, seed):
    """The half-step gap E|Y(t_k + delta/2) - Y_k|^2 of each rung, largest step
    first: the rung steps on the pair sums of a grid of twice its steps, and
    each half step from a knot reuses the first of its pair."""
    out = []
    for delta in sorted(deltas, reverse=True):
        n = int(round(t_final / delta))
        inc = generate_batch(seed, range(n_paths), 1, t_final, 2 * n)[:, :, 0]
        res = _simulate_batch(tm.SchemeId.truncated_milstein, model, cfg,
                              block_sums(inc, 2, axis=1)[:, :, None], delta,
                              float(model.initial_value[0]), record=True)
        knots = res.states[:, :n, 0]
        radius = cfg.radius(delta / 2.0)
        stepped = _scalar_step(tm.SchemeId.truncated_milstein, model, delta / 2.0, knots,
                               inc[:, 0::2], radius, -radius,
                               [np.empty_like(knots) for _ in range(4)])
        out.append(float(np.mean((stepped - knots) ** 2)))
    return np.array(out)


_LADDERS = [
    [2.0 ** -k for k in range(2, 7)],
    [0.25, 0.2, 0.1],            # n = 4, 5, 10: step counts not nested
    [0.1, 0.25, 0.0625, 0.2],    # unsorted
    [0.1, 0.1, 0.25],            # a step twice
]


@pytest.mark.parametrize("deltas", _LADDERS)
def test_probes_match_per_rung_regeneration(cubic_cfg, deltas):
    model = tm.builtin_model("cubic_quintic")
    moments = tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=64, master_seed=7)
    assert np.array_equal(moments, _per_rung_moments(model, cubic_cfg, deltas, 64, 1.0, 4.0, 7))


@pytest.mark.parametrize("cap", [1, 40, 100])
def test_probes_split_ladder_segments_within_the_buffer_cap(monkeypatch, cubic_cfg, cap):
    # a cap this small splits every segment into pieces, and at 1 a piece is
    # one step wider than the cap; every path-step is stepped once, and the
    # probe still equals per-rung regeneration
    model, deltas, n_paths = tm.builtin_model("cubic_quintic"), [0.1, 0.25, 0.0625, 0.2], 8
    calls = []

    def spy(scheme, model, cfg, increments, delta, x0, record=False):
        calls.append(increments.shape)
        return _simulate_batch(scheme, model, cfg, increments, delta, x0, record)
    monkeypatch.setattr(experiments, "_LADDER_VALUES", cap)
    monkeypatch.setattr(experiments, "_simulate_batch", spy)
    moments = tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=n_paths, master_seed=7)
    assert np.array_equal(moments,
                          _per_rung_moments(model, cubic_cfg, deltas, n_paths, 1.0, 4.0, 7))
    assert sum(rows * steps for rows, steps, _ in calls) == n_paths * (10 + 4 + 16 + 5)
    assert len(calls) > len(deltas)
    assert all(rows * steps <= max(cap, rows) for rows, steps, _ in calls)


def _spy_windows(monkeypatch):
    """Record the (start, n) window of each draw of standard normals."""
    windows, draw = [], experiments.brownian.standard_normals

    def spy(master_seed, path_indices, m, n, start=0, scale=1.0):
        windows.append((start, n))
        return draw(master_seed, path_indices, m, n, start, scale)
    monkeypatch.setattr(experiments.brownian, "standard_normals", spy)
    return windows


def _covers(windows, n_draw) -> bool:
    """Windows that tile the draw: each starts where the one before ends, the
    first at 0, and the last ends at the last step."""
    starts = [0] + [start + n for start, n in windows]
    return [start for start, _ in windows] == starts[:-1] and starts[-1] == n_draw


@pytest.mark.parametrize("budget", [1, 7, 40, 2**20])
@pytest.mark.parametrize("deltas", _LADDERS)
def test_probes_drawn_in_windows_match_per_rung_regeneration(monkeypatch, cubic_cfg, deltas,
                                                             budget):
    # with no minimum length a window holds budget // n_paths steps, at least
    # one, so at 1, 7 and 40 normals the draw comes in several windows, and
    # at 2^20 in one; pieces of a few steps each (the piece buffer holds 64
    # values) are cut at the window ends too
    model, n_paths = tm.builtin_model("cubic_quintic"), 8
    want_moments = _per_rung_moments(model, cubic_cfg, deltas, n_paths, 1.0, 4.0, 7)
    monkeypatch.setattr(experiments, "_WINDOW_NORMALS", budget)
    monkeypatch.setattr(experiments, "_WINDOW_MIN_STEPS", 1)
    monkeypatch.setattr(experiments, "_LADDER_VALUES", 64)
    windows = _spy_windows(monkeypatch)
    n_fine = max(round(1.0 / d) for d in deltas)
    moments = tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=n_paths, master_seed=7)
    assert np.array_equal(moments, want_moments)
    assert _covers(windows, n_fine)
    assert (len(windows) == 1) == (budget == 2**20)


def test_probe_windows_keep_their_minimum_length(monkeypatch, cubic_cfg):
    # the criterion-6 ladder, 1024 steps, with a budget of one normal: the
    # windows are `_WINDOW_MIN_STEPS` steps long, and the moments are those
    # of one whole draw
    model, deltas = tm.builtin_model("cubic_quintic"), [2.0 ** -k for k in range(4, 11)]
    whole = tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=8, master_seed=3)
    monkeypatch.setattr(experiments, "_WINDOW_NORMALS", 1)
    windows = _spy_windows(monkeypatch)
    moments = tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=8, master_seed=3)
    assert np.array_equal(moments, whole)
    assert windows == [(0, 256), (256, 256), (512, 256), (768, 256)]


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moment_probe_memory_stays_near_its_normals(cubic_cfg):
    # the criterion-6 ladder: one draw of 1024 normals per path, and the rungs'
    # scaled increments in a buffer of bounded size beside it
    model, deltas = tm.builtin_model("cubic_quintic"), [2.0 ** -k for k in range(4, 11)]
    peak = _traced_peak(tm.terminal_moment_probe, model, cubic_cfg, deltas, n_paths=2500,
                        master_seed=11, n_workers=1)
    assert peak <= 1.3 * 8 * 1024 * 2500


def test_moment_probe_memory_is_below_its_normals(cubic_cfg):
    # the same ladder drawn in windows of `_WINDOW_NORMALS` normals (419 steps
    # at 2500 paths): one window and the piece buffer, not the whole draw
    model, deltas = tm.builtin_model("cubic_quintic"), [2.0 ** -k for k in range(4, 11)]
    peak = _traced_peak(tm.terminal_moment_probe, model, cubic_cfg, deltas, n_paths=2500,
                        master_seed=11, n_workers=1)
    assert peak <= 0.7 * 8 * 1024 * 2500


@pytest.mark.parametrize("probe", [tm.terminal_moment_probe])
def test_probes_reject_vector_model(cubic_cfg, probe):
    model = tm.SdeModel(d=2, m=1, drift=lambda x: -x,
                        diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.array([1.0, 1.0]), polynomial_degree_r=0.0)
    with pytest.raises(ValueError, match="scalar"):
        probe(model, cubic_cfg, [0.25], n_paths=2)


@pytest.mark.parametrize("deltas", [[0.3], [0.25, 0.3]])
def test_probes_reject_step_not_dividing_horizon(cubic_cfg, deltas):
    model = tm.builtin_model("cubic_quintic")
    with pytest.raises(ValueError, match="multiple of delta"):
        tm.terminal_moment_probe(model, cubic_cfg, deltas, n_paths=4)


@pytest.mark.parametrize("probe", [tm.terminal_moment_probe])
def test_probes_refuse_a_blow_up(quintic_cfg, probe):
    # paths of the NaN-outside drift blow up on the coarse rung
    with pytest.raises(RuntimeError, match="blow-up during"):
        probe(quintic_nan_outside_model(), quintic_cfg, [0.25, 0.125], n_paths=64)


@pytest.mark.parametrize("n_paths", [0, -3])
@pytest.mark.parametrize("probe", [tm.terminal_moment_probe])
def test_probes_need_a_path(monkeypatch, cubic_cfg, probe, n_paths):
    # 0 divided by zero in the piece planner, -3 made a negative shape
    monkeypatch.setattr(experiments.brownian, "standard_normals", None)
    with pytest.raises(ValueError, match=f"paths = {n_paths}: a .* probe needs at least one"):
        probe(tm.builtin_model("cubic_quintic"), cubic_cfg, [0.25, 0.125], n_paths=n_paths)


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
@pytest.mark.parametrize("probe", [tm.terminal_moment_probe])
def test_probes_refuse_a_horizon_that_is_not_finite(monkeypatch, cubic_cfg, probe, t_final):
    monkeypatch.setattr(experiments.brownian, "standard_normals", None)
    with pytest.raises(ValueError, match=f"t_final = {t_final}: the horizon must be positive"):
        probe(tm.builtin_model("cubic_quintic"), cubic_cfg, [0.25, 0.5], n_paths=4,
              t_final=t_final)


@pytest.mark.parametrize("deltas", [[0.0], [0.25, 0.0], []])
@pytest.mark.parametrize("probe", [tm.terminal_moment_probe])
def test_probes_reject_zero_step(cubic_cfg, probe, deltas):
    # an empty ladder returned an empty array of moments
    with pytest.raises(ValueError, match="step size"):
        probe(tm.builtin_model("cubic_quintic"), cubic_cfg, deltas, n_paths=4)


@pytest.mark.parametrize("power", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("probe", [tm.terminal_moment_probe])
def test_probes_refuse_a_power_that_is_not_positive_and_finite(monkeypatch, cubic_cfg, probe,
                                                                power):
    # nan returned NaN moments and -1.0 finite ones
    monkeypatch.setattr(experiments.brownian, "standard_normals", None)
    with pytest.raises(ValueError, match=f"power = {power}: the moment exponent must be positive"):
        probe(tm.builtin_model("cubic_quintic"), cubic_cfg, [0.25, 0.125], n_paths=4, power=power)
