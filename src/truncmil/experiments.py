"""Experiment harness: strong-error rate fits on coupled paths, step-size
condition comparison, stability constants and decay ensembles.

Strong errors are measured against a fine-grid reference simulated on the
*same* Brownian path (the reference and every coarse run consume block sums of
one fine increment grid).  The fitted slope is reported on the L^{2q}-norm
scale, i.e. the slope of log(e_i^(1/2q)) against log(step), so an order-one
scheme reads as slope one regardless of the moment exponent.

Path-level work runs through `_map_chunks` alone: one contiguous chunk of
paths per worker, but never more chunks than paths, merged in path-index
order.  Two or more chunks run in a pool made for the call, of exactly one
worker per chunk, forked from the caller's state at the call and joined
before it returns; a single chunk runs in-process, with no pool.  Every
ensemble takes `n_workers=None` by default: one worker per usable CPU, but
at most one per `_MIN_CHUNK_PATHS` paths, and in-process where a pool cannot
take the chunk (arguments that do not pickle, a daemonic process) or would
cost more than it saves (a start method other than fork).  A chunk takes
the model itself, so it depends on its arguments alone and no worker reads
the model registry.  Every ensemble holds memory by one rule: it draws
its normals a bounded window of the resumable streams at a time
(`_step_windows`) and steps each window from the last one's finals.
Per-path results depend only on the (seed, path) stream, and every reduction
over paths runs in the parent on the joined chunks, so output is identical
for any worker count, chunking or window.  The caller may work in the parent
while the pool runs: a stability ensemble computes its constants there, in
blocks of `_GRID_BLOCK` radii.  One piece engine, `_ladder_runs`, steps a
probe chunk's step ladder as one batch and a stability chunk as one rung.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import numbers
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import brownian
from .model import _BUILTIN_DRIFTS, KFunction, SdeModel, _drift_ratio, resolve_model, row_norm
from .scheme import SchemeId, _simulate_batch
from .truncation import TruncationConfig, _check_delta, dominant_rate, old_condition_threshold

# standard normals one window of a chunk's draw holds (8 MiB), unless that is
# fewer than `_WINDOW_MIN_STEPS` steps of each path or one alignment unit:
# each window costs one key reset and one raw draw per path (about 2 us), and
# at 10 000 paths ten 104-step windows made a probe 11-15% slower
_WINDOW_NORMALS = 1 << 20
_WINDOW_MIN_STEPS = 256

# radii of the stability-constant grid evaluated per drift call (64 KiB a
# block), so the search holds the grid and its ratios plus a few blocks
_GRID_BLOCK = 8192

# scaled increments one piece of a probe's step ladder holds (2 MiB)
_LADDER_VALUES = 1 << 18

# paths each worker of a default (`n_workers=None`) pool takes at least: below
# about 1024 paths in all, a worker's fork and result transfer outweigh the
# half of the stepping it takes.  The criterion-6 moment probe on a 2-core
# host, 1 vs 2 workers: 0.085 vs 0.090 s at 512 paths, 0.141 vs 0.129 s at
# 1024, 0.245 vs 0.193 s at 2048
_MIN_CHUNK_PATHS = 1024


# bench/tracing.py wraps this name too; a partial, not an alias, so block sums count once
_batch_block_sums = functools.partial(brownian.block_sums, axis=1)


# ---------------------------------------------------------------------------
# strong-error rate experiment


@dataclass(frozen=True)
class RateExperimentSpec:
    model_name: str
    cfg: TruncationConfig
    scheme: SchemeId
    q: float
    t_final: float
    delta_ref: float
    test_deltas: tuple
    n_paths: int
    master_seed: int
    error_at: str = "terminal"        # or "sup" over shared grid times

    n_fine: int = field(init=False)     # fine steps on [0, t_final]
    factors: tuple = field(init=False)  # each test step over delta_ref

    def __post_init__(self) -> None:
        object.__setattr__(self, "test_deltas", tuple(float(d) for d in self.test_deltas))
        object.__setattr__(self, "scheme", SchemeId(self.scheme))
        if not isinstance(self.n_paths, numbers.Integral):
            raise ValueError(f"paths = {self.n_paths}: the number of paths must be an integer")
        if self.n_paths < 2:
            raise ValueError(f"paths = {self.n_paths}: a standard error needs two paths")
        if not 0 < self.q < math.inf:
            raise ValueError(f"q = {self.q}: the moment exponent must be positive and finite")
        if self.error_at not in ("terminal", "sup"):
            raise ValueError("error_at must be 'terminal' or 'sup'")
        n_fine, = _rung_steps(self.t_final, (self.delta_ref,), "delta_ref")
        ns = _rung_steps(self.t_final, self.test_deltas, "test step")
        for d, n in zip(self.test_deltas, ns):
            if n_fine % n:
                raise ValueError(f"test step {d} is not an integer multiple of delta_ref")
            if n == n_fine:
                raise ValueError(f"test step {d} equals delta_ref: its rung is the reference "
                                 "path, so its error is 0")
        if len(set(self.test_deltas)) < 3:
            raise ValueError(f"a rate fit needs at least 3 distinct test steps, "
                             f"got {len(set(self.test_deltas))}")
        object.__setattr__(self, "n_fine", n_fine)
        object.__setattr__(self, "factors", tuple(n_fine // n for n in ns))


@dataclass(frozen=True)
class RateFit:
    deltas: np.ndarray
    errors: np.ndarray            # moment estimates e_i = mean |diff|^{2q}
    standard_errors: np.ndarray   # Monte-Carlo SE of each e_i
    norm_errors: np.ndarray       # e_i ** (1 / 2q)
    slope: float                  # OLS slope of log2(norm_errors) vs log2(delta)
    slope_se: float
    q: float
    n_paths: int


def _rung_steps(t_final: float, deltas: Sequence[float], name: str = "delta") -> list:
    """Steps per rung, t_final / delta, for steps in (0, 1] that each make a
    whole number (at least one) of steps on [0, t_final]; errors call a step
    `name`."""
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final = {t_final}: the horizon must be positive and finite")
    for delta in deltas:
        try:
            _check_delta(delta)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    ns = [int(round(t_final / delta)) for delta in deltas]
    for n, delta in zip(ns, deltas):
        if n < 1 or abs(n * delta - t_final) > 1e-9:
            raise ValueError(f"t_final = {t_final} is not a positive integer multiple "
                             f"of {name} = {delta}")
    return ns


def _log2_slope(deltas: np.ndarray, values: np.ndarray) -> tuple:
    """OLS slope of log2(values) on log2(deltas), and its standard error."""
    if np.unique(deltas).size < 2:
        raise ValueError("a log-log slope needs at least two distinct steps")
    x = np.log2(deltas)
    y = np.log2(values)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - (y.mean() + slope * xc)
    dof = len(x) - 2
    s2 = float(np.dot(resid, resid)) / dof if dof > 0 else 0.0
    return slope, math.sqrt(s2 / float(np.dot(xc, xc)))


def fit_rate(deltas: Sequence[float], errors: Sequence[float], q: float,
             standard_errors: Optional[Sequence[float]] = None,
             n_paths: int = 0) -> RateFit:
    """Unweighted log-log regression of the L^{2q}-norm errors on the steps."""
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if not 0 < q < math.inf:
        raise ValueError(f"q = {q}: the moment exponent must be positive and finite")
    if len(deltas) < 3:
        raise ValueError("rate fit needs at least 3 step sizes")
    for d in deltas:
        if not 0 < d < math.inf:
            raise ValueError(f"test step = {d}: a step must be positive and finite")
    ses = (np.full_like(errors, np.nan) if standard_errors is None
           else np.asarray(standard_errors, dtype=float))
    for name, values in (("errors", errors), ("standard errors", ses)):
        if len(values) != len(deltas):
            raise ValueError(f"{len(values)} {name} for {len(deltas)} steps: "
                             "need one per step")
    bad = ~np.isfinite(errors)
    if np.any(bad):
        raise ValueError("paths blew up, so no rate fit: non-finite error at step(s) "
                         + ", ".join(f"{d:g}" for d in deltas[bad]))
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    norm_errors = errors ** (1.0 / (2.0 * q))
    slope, slope_se = _log2_slope(deltas, norm_errors)
    return RateFit(deltas=deltas, errors=errors, standard_errors=ses, norm_errors=norm_errors,
                   slope=slope, slope_se=slope_se, q=q, n_paths=n_paths)


def _is_pow2(k: int) -> bool:
    return k & (k - 1) == 0


def _rung_increments(inc: np.ndarray, factors: Sequence[int]):
    """Yield (i, f, inc coarsened by f) for each factor, the smallest first.

    A rung is summed from the previous one where that rung's factor and this
    one are both powers of two, since block sums compose bit-exactly only by
    repeated halving; any other rung is summed from the fine grid.
    """
    prev_f, prev = 1, inc
    for i in sorted(range(len(factors)), key=lambda i: factors[i]):
        f = factors[i]
        if _is_pow2(prev_f) and _is_pow2(f):
            prev = brownian.block_sums(prev, f // prev_f, axis=1)
        else:
            prev = brownian.block_sums(inc, f, axis=1)
        prev_f = f
        yield i, f, prev


def _step_windows(step, master_seed: int, lo: int, hi: int, m: int, n: int,
                  scale: float = 1.0, align: int = 1) -> None:
    """step(a, z) for each window [a, a + k) of steps [0, n), in order, with z
    the paths [lo, hi)'s `brownian.standard_normals` there times `scale`,
    dropped before the next window is drawn.  k is `_WINDOW_NORMALS` normals,
    at least `_WINDOW_MIN_STEPS`, cut to a multiple of `align` (which divides
    n), but never below one `align`: a rate rung whose factor is the whole
    fine grid makes the draw one window."""
    k = max(_WINDOW_NORMALS // ((hi - lo) * m), _WINDOW_MIN_STEPS)
    k = max(align, k - k % align)
    for a in range(0, n, k):
        step(a, brownian.standard_normals(master_seed, range(lo, hi), m, min(k, n - a),
                                          start=a, scale=scale))


def _rate_chunk(spec: RateExperimentSpec, model: SdeModel, lo: int, hi: int) -> np.ndarray:
    """Per-path error samples |diff|^{2q} of `model`, shape (hi-lo, n_test_deltas),
    from windows of whole steps of every rung, whose block sums are the grid's."""
    sup = spec.error_at == "sup"
    # where the next window starts: each rung's finals, then the reference's
    xs = [model.initial_value] * (len(spec.factors) + 1)
    errs = np.zeros((len(spec.factors), hi - lo))

    def step(_, inc):
        ref = _simulate_batch(spec.scheme, model, spec.cfg, inc, spec.delta_ref, xs[-1],
                              record=sup)
        if not np.all(ref.alive):
            raise RuntimeError("reference path blew up; the truncated schemes should "
                               "never blow up, so this indicates a bug or a classical "
                               "scheme used as reference")
        xs[-1] = ref.finals
        for i, f, cinc in _rung_increments(inc, spec.factors):
            res = _simulate_batch(spec.scheme, model, spec.cfg, cinc, spec.delta_ref * f, xs[i],
                                  record=sup)
            xs[i] = res.finals
            diff = ref.states[:, ::f] - res.states if sup else ref.finals - res.finals
            if model.is_scalar:
                err = np.abs(diff[..., 0])
            else:
                # the norms of one-path trajectories: np.linalg.norm along an
                # axis sums squares, unlike row_norm
                err = np.linalg.norm(diff, axis=-1) if sup else row_norm(diff)
            errs[i] = np.maximum(errs[i], np.max(err, axis=1)) if sup else err
    _step_windows(step, spec.master_seed, lo, hi, model.m, spec.n_fine,
                  np.sqrt(spec.t_final / spec.n_fine), math.lcm(*spec.factors))
    # a vector model takes libm's power per sample, as its one-path
    # trajectories do (numpy's array power can differ in the last bit)
    p = 2.0 * spec.q
    return np.stack([e ** p if model.is_scalar else np.float_power(e, p) for e in errs], axis=1)


def _default_workers(fn, n_paths: int, args: tuple) -> int:
    """Workers for `n_workers=None`: one per CPU this process may use, but at
    most one per `_MIN_CHUNK_PATHS` paths; 1 (in-process) where a pool
    cannot run the chunks, as `fn` or `args` do not pickle (a lambda
    coefficient, a wrapped drift) or the process is daemonic (it may not have
    children), or where the start method is not fork.  Only a forked worker
    starts without importing numpy and the package again: the criterion-6
    probe on a 2-core host, 1 vs 2 workers, took 0.28 vs 0.21 s at 2500
    paths under fork, 0.31 vs 0.96 s under forkserver and 0.33 vs 1.18 s
    under spawn (1.14 vs 1.40 s and 1.25 vs 1.70 s at 10 000 paths).  The
    start method is read without being fixed, so a later
    `multiprocessing.set_start_method` still works."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                      # not on every platform
        cpus = os.cpu_count() or 1
    k = min(cpus, n_paths // _MIN_CHUNK_PATHS)
    if (k < 2 or multiprocessing.current_process().daemon
            or (multiprocessing.get_start_method(allow_none=True)
                or multiprocessing.get_all_start_methods()[0]) != "fork"):
        return 1
    try:
        pickle.dumps((fn, args))
    except (pickle.PicklingError, AttributeError, TypeError):   # a lambda, a lock, ...
        return 1
    return k


def _map_chunks(fn, n_paths: int, n_workers: Optional[int], *args,
                meanwhile=lambda: None) -> tuple:
    """(meanwhile(), [fn(*args, lo, hi) for contiguous chunks [lo, hi) of the
    paths, in path order]): one chunk per worker but none empty, whose sizes
    differ by at most one, in a process pool of one worker per chunk when
    there are k > 1 chunks, else in-process.  `n_workers=None` takes
    `_default_workers`; fewer than one worker is a ValueError.

    The pool is made for the call, from the `ProcessPoolExecutor` the module
    holds at the call (tests and the benchmark swap it), and shut down
    before the call returns or raises, joining its workers.  So its workers
    fork from the caller's state at the call, objects changed in place
    included, and the rows equal those of one worker; no idle worker holds
    memory between calls.

    `meanwhile()` is the caller's work in this process: it runs after every
    chunk is submitted and before any is awaited, or, with one chunk, before
    it.  Every worker starts its chunk at once, so if `meanwhile` raises, the
    error propagates once the pool has finished them.
    """
    if n_workers is None:
        n_workers = _default_workers(fn, n_paths, args)
    elif n_workers < 1:
        raise ValueError(f"n_workers = {n_workers}: need at least one worker")
    k = max(1, min(n_workers, n_paths))
    calls = [(*args, i * n_paths // k, (i + 1) * n_paths // k) for i in range(k)]
    if k == 1:
        return meanwhile(), [fn(*calls[0])]
    with ProcessPoolExecutor(max_workers=k) as pool:
        results = pool.map(fn, *zip(*calls))       # submits every chunk
        return meanwhile(), list(results)


def _path_error_samples(spec: RateExperimentSpec, n_workers: Optional[int]) -> np.ndarray:
    model = resolve_model(spec.model_name)      # once, before any pool
    return np.vstack(_map_chunks(_rate_chunk, spec.n_paths, n_workers, spec, model)[1])


# the benchmark's tracer (bench/tracing.py) wraps this name too
_path_error_samples_range = _path_error_samples


def run_rate_experiment(spec: RateExperimentSpec, n_workers: Optional[int] = None) -> RateFit:
    """Couple every test step to the shared fine reference and fit the slope.

    The paths run in `n_workers` chunks (`_map_chunks`), with the same fit
    for any count."""
    samples = _path_error_samples(spec, n_workers)
    errors = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return fit_rate(spec.test_deltas, errors, spec.q, standard_errors=ses, n_paths=spec.n_paths)


# ---------------------------------------------------------------------------
# step-size condition comparison


@dataclass(frozen=True)
class StepConditionComparison:
    old_threshold: float
    new_threshold: float
    dominant_rate: float


def compare_step_conditions(cfg: TruncationConfig, q: float, p: float, r: float) -> StepConditionComparison:
    """Legacy step-size ceiling next to the relaxed result (any step in (0,1])."""
    rate = dominant_rate(cfg, q, p, r)      # checks p > (1+r)q first
    return StepConditionComparison(old_threshold=old_condition_threshold(cfg, q, p),
                                   new_threshold=1.0, dominant_rate=rate)


# ---------------------------------------------------------------------------
# stability constants and decay ensembles


PAPER_STABILITY_H = 25.0
PAPER_STABILITY_DELTA1 = 0.04

# a larger sup of |mu(x)|^2 / k(|x|) on the grid means the ratio diverges near 0
_RATIO_CAP = 1e12


@dataclass(frozen=True)
class StabilityConstants:
    H: float
    delta_1: float
    radius_at_one: float              # omega^{-1}(h(1))
    argmax_norm: float                # |x| where the drift/k ratio peaks
    paper_H: Optional[float] = None
    paper_delta_1: Optional[float] = None
    paper_discrepancy: bool = False


@dataclass(frozen=True)
class DecayEnsemble:
    decay_flags: np.ndarray           # (n_paths,) bool, True where the path decayed
    decay_fraction: float
    tol_stab: float
    delta: float
    horizon_steps: int
    recorded_magnitudes: Optional[np.ndarray]   # (record_paths, horizon+1)
    blowup_fraction: float = 0.0      # share of paths that went non-finite
    constants: Optional[StabilityConstants] = None   # when a k-function was given


def _directions(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    from scipy.stats import qmc   # lazily: scipy.stats loads all of scipy.special (~0.3 s)
    raw = qmc.Halton(d=d, scramble=False).random(2**10)
    vec = 2.0 * raw - 1.0
    vec = vec[np.linalg.norm(vec, axis=1) > 1e-12]
    return vec / np.linalg.norm(vec, axis=1, keepdims=True)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section search for the maximiser of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def compute_stability_constants(model: SdeModel, cfg, k_fn: KFunction,
                                n_grid: int = 100_000) -> StabilityConstants:
    """Grid-plus-golden search for H = sup |mu(x)|^2 / k(|x|) on the radius-one
    ball of the method, and the step ceiling derived from it.

    The grid is evaluated `_GRID_BLOCK` radii at a time; every ratio is
    elementwise in the radius, so the result does not depend on the block.

    With the stable_quintic builtin's drift the report also carries the paper's
    reference constants and flags any disagreement instead of adopting them.
    """
    if n_grid < 1:
        raise ValueError(f"n_grid = {n_grid}: the search grid needs at least one radius")
    radius1 = cfg.radius(1.0)
    dirs = _directions(model.d)

    def ratio_at(u: float) -> float:
        return float(_drift_ratio(model, k_fn, np.array([u]), dirs)[0])

    grid = np.logspace(-6, math.log10(radius1), n_grid)
    grid[-1] = radius1
    vals = np.empty_like(grid)
    for lo in range(0, n_grid, _GRID_BLOCK):
        vals[lo:lo + _GRID_BLOCK] = _drift_ratio(model, k_fn, grid[lo:lo + _GRID_BLOCK], dirs)
    if not np.all(np.isfinite(vals)) or np.max(vals) > _RATIO_CAP:
        raise ValueError("drift/k ratio exceeds cap; the small-state boundedness "
                         "condition appears violated")
    i = int(np.argmax(vals))
    if 0 < i < len(grid) - 1:
        u_star = _golden_max(ratio_at, grid[i - 1], grid[i + 1])
        H = max(ratio_at(u_star), float(vals[i]))
    else:
        u_star = float(grid[i])
        H = float(vals[i])
    delta_1 = min(1.0, 0.5 / H if H > 0 else 1.0, 0.25 * float(k_fn(radius1)) ** 2)

    paper_H = paper_d1 = None
    discrepancy = False
    if model.drift is _BUILTIN_DRIFTS["stable_quintic"]:
        paper_H, paper_d1 = PAPER_STABILITY_H, PAPER_STABILITY_DELTA1
        discrepancy = (abs(H - paper_H) > 1e-2 * paper_H
                       or abs(delta_1 - paper_d1) > 1e-2 * paper_d1)
    return StabilityConstants(H=H, delta_1=delta_1, radius_at_one=radius1,
                              argmax_norm=u_star, paper_H=paper_H, paper_delta_1=paper_d1,
                              paper_discrepancy=discrepancy)


def _stability_chunk(model: SdeModel, cfg, delta: float, horizon_steps: int,
                     tol_stab: float, master_seed: int, record_paths: int,
                     lo: int, hi: int) -> tuple:
    """Decay flags and alive flags of the paths [lo, hi), and the magnitudes
    of those of them below `record_paths` as (n_recorded, horizon_steps + 1),
    maybe empty.  A path that blew up has not decayed.  The chunk is a
    one-rung step ladder (`_ladder_runs`) that records every path over each
    piece; a piece's states after the start of the tail the decay test reads
    (the last tenth) fold into the flags."""
    tail_start = horizon_steps - max(1, horizon_steps // 10)
    flags = np.ones(hi - lo, dtype=bool)
    mags = np.empty((min(max(0, record_paths - lo), hi - lo), horizon_steps + 1))

    def piece(a, b, _, res):
        nonlocal flags
        mags[:, a:b + 1] = np.abs(res.states[:len(mags), :, 0])
        flags &= np.all(np.abs(res.states[:, max(1, tail_start + 1 - a):, 0]) < tol_stab, axis=1)
    finals = _ladder_runs(piece, model, cfg, [delta], [horizon_steps], (lo, hi),
                          delta * horizon_steps, master_seed, record=True)
    return flags, np.isfinite(finals[:, 0]), mags      # a blown-up path's finals are NaN


def run_stability_ensemble(model: SdeModel, cfg, delta: float, n_paths: int,
                           horizon_steps: int, tol_stab: float,
                           master_seed: int = 0, n_workers: Optional[int] = None,
                           record_paths: int = 10,
                           k_fn: Optional[KFunction] = None) -> DecayEnsemble:
    """Simulate truncated-Milstein paths and report the threshold-tail decay
    fraction, the finite-horizon surrogate for almost-sure convergence to 0.

    A path counts as decayed when |Y_k| stays below tol_stab over the last
    tenth of the horizon; a path that blew up has not decayed, and counts in
    `blowup_fraction`.  The paths run in `n_workers` chunks (`_map_chunks`),
    with the same result for any count.  With `k_fn`, the stability constants are
    computed in this process while the pool steps the paths (before them,
    for one chunk), returned as `constants`, and a step above their ceiling
    warns.
    """
    _check_delta(delta)
    if n_paths < 1:
        raise ValueError(f"paths = {n_paths}: a stability ensemble needs at least one path")
    if horizon_steps < 1:
        raise ValueError(f"horizon_steps = {horizon_steps}: a stability ensemble needs "
                         "at least one step")
    if record_paths < 0:
        raise ValueError(f"record_paths = {record_paths}: cannot record a negative "
                         "number of paths")
    if not 0 < tol_stab < math.inf:
        raise ValueError(f"tol_stab = {tol_stab}: must be positive and finite")
    if not model.is_scalar:
        raise ValueError("stability ensembles are implemented for scalar models")
    constants, chunks = _map_chunks(
        _stability_chunk, n_paths, n_workers, model, cfg, delta, horizon_steps, tol_stab,
        master_seed, record_paths,
        meanwhile=lambda: None if k_fn is None else compute_stability_constants(model, cfg, k_fn))
    flags, alive, recorded = zip(*chunks)
    if constants is not None and delta > constants.delta_1:
        warnings.warn(f"step size {delta} exceeds the computed stability ceiling "
                      f"{constants.delta_1:.6g}; decay is not guaranteed", stacklevel=2)
    flags, recorded = np.concatenate(flags), np.vstack(recorded)
    return DecayEnsemble(decay_flags=flags, decay_fraction=float(np.mean(flags)),
                         tol_stab=tol_stab, delta=delta, horizon_steps=horizon_steps,
                         recorded_magnitudes=recorded if len(recorded) else None,
                         blowup_fraction=1.0 - float(np.mean(np.concatenate(alive))),
                         constants=constants)


# ---------------------------------------------------------------------------
# step ladders and the moment probe


def _ladder_runs(piece, model: SdeModel, cfg, deltas: Sequence[float], ns: Sequence[int],
                 paths: tuple, t_final: float, master_seed: int,
                 record: bool = False) -> np.ndarray:
    """Step truncated Milstein over every rung of a step ladder as one batch
    of the n_paths paths range(*paths); return the last piece's finals.

    Rung i makes ns[i] steps of deltas[i] on [0, t_final], on the first ns[i]
    standard normals of one draw for the finest rung scaled by the rung's
    sqrt(t_final / ns[i]).  The rungs are stacked finest first, n_paths rows
    each, and cut at the rung ends into segments, so a finished rung drops off
    the end and the live rows stay a prefix.  A segment is stepped in pieces,
    each within one window of the draw, whose scaled increments fill at most
    `_LADDER_VALUES` of one reused step-major buffer; each piece is one driver
    call from the previous piece's finals, with each row's rung step, and a
    path that blew up stays NaN.

    Calls piece(lo, hi, rungs, res) per piece, in order: it steps [lo, hi) of
    the rungs `rungs`, rung rungs[j] in rows [j * n_paths, (j + 1) * n_paths),
    and `res` is the driver's result, in which `piece` judges any blow-up.
    """
    n_paths = paths[1] - paths[0]
    order = sorted(range(len(ns)), key=lambda i: -ns[i])
    buf = np.empty(max(_LADDER_VALUES, len(ns) * n_paths))
    scales = [np.sqrt(t_final / ns[i]) for i in order]
    steps = np.repeat([deltas[i] for i in order], n_paths)
    finals = np.broadcast_to(model.initial_value, (len(steps), 1))

    def step(w, z):
        nonlocal finals
        z = z.transpose(1, 0, 2)[:, :, 0]       # step-major (steps, paths)
        lo, w_end = w, w + len(z)
        while lo < w_end:
            live = sum(n > lo for n in ns)
            rows = live * n_paths
            hi = min(lo + max(1, _LADDER_VALUES // rows), w_end, min(n for n in ns if n > lo))
            inc = buf[:(hi - lo) * rows].reshape(-1, rows)
            for j, scale in enumerate(scales[:live]):
                np.multiply(z[lo - w:hi - w], scale, out=inc[:, j * n_paths:(j + 1) * n_paths])
            res = _simulate_batch(SchemeId.truncated_milstein, model, cfg, inc.T[:, :, None],
                                  steps[:rows], finals[:rows], record=record)
            piece(lo, hi, order[:live], res)
            finals, lo = res.finals, hi
    _step_windows(step, master_seed, *paths, 1, max(ns, default=0))
    return finals


def _moment_chunk(model: SdeModel, cfg, deltas: Sequence[float], ns: Sequence[int],
                  t_final: float, master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Each rung's terminal states of the paths [lo, hi), shape (len(ns), hi - lo),
    from one step ladder of those paths (`_ladder_runs`); a blow-up raises."""
    n_paths = hi - lo
    out = np.empty((len(ns), n_paths))

    def piece(_, end, rungs, res):
        if not np.all(res.alive):
            raise RuntimeError("blow-up during a step-ladder probe")
        for j, i in enumerate(rungs):
            if ns[i] == end:
                out[i] = res.finals[j * n_paths:(j + 1) * n_paths, 0]
    _ladder_runs(piece, model, cfg, deltas, ns, (lo, hi), t_final, master_seed)
    return out


def terminal_moment_probe(model: SdeModel, cfg, deltas: Sequence[float],
                          n_paths: int, t_final: float = 1.0, power: float = 4.0,
                          master_seed: int = 0, n_workers: Optional[int] = None) -> np.ndarray:
    """Monte-Carlo truncated-Milstein E|Y_N|^power at each step size (moment bound).

    Every rung steps on one draw for the finest rung, all rungs as one batch
    (`_ladder_runs`), in `n_workers` chunks of paths (`_map_chunks`; None
    picks the machine's cores for a large enough ensemble).  The chunks'
    terminal states are joined in path order before each rung's mean, so the
    moments are bitwise the same for any worker count.
    """
    if not model.is_scalar:
        raise ValueError("moment probe is implemented for scalar models")
    if n_paths < 1:
        raise ValueError(f"paths = {n_paths}: a moment probe needs at least one path")
    if not 0 < power < math.inf:
        raise ValueError(f"power = {power}: the moment exponent must be positive and finite")
    if len(deltas) == 0:
        raise ValueError("a moment probe needs at least one step size")
    ns = _rung_steps(t_final, deltas)
    _, chunks = _map_chunks(_moment_chunk, n_paths, n_workers, model, cfg, deltas, ns,
                            t_final, master_seed)
    return np.array([float(np.mean(np.abs(finals) ** power)) for finals in np.hstack(chunks)])
