"""Steppers and path simulation: truncated Milstein plus three baselines.

The truncated variants evaluate every coefficient at the ball-projected state;
the classical variants are the same recursions with the projection replaced by
the identity.  Iterated Ito integrals are replaced by the product correction
(dB^{j1} dB^{j2} - delta_{j1 j2} * step)/2, which is exact for a single driver
and for commutative noise; Levy areas are not sampled.

The steps advance an (n_paths, d) batch of states with (n_paths, m)
increments at once.  Each row gets the per-point operations in the per-point
order, so a row's result does not depend on the batch it is stepped in.  The
scalar step runs elementwise on the whole batch.  The general step takes
mu, sigma and every L^{j1} sigma_{j2} at the projected rows from
`model.coefficients`, the one pass that evaluates a batch's coefficients
and alone knows the finite-difference stencil; a truncated step raises at a
non-finite coefficient by its one check rule.  All other arithmetic is a few
whole-batch operations: the terms of the increment are batched products,
added up term by term in the per-point order.

One batched driver, `_simulate_batch`, is the only caller of the steppers:
every ensemble goes through it, `simulate` is its one-path view and `step` its
one-step view.  It alone owns the truncation radii and the scalar step's work
arrays, both set up once per call, the one `np.errstate` that lets overflow
and invalid values through as blow-ups, and the blow-up bookkeeping.  It reads
one row of increments per step by plain slicing while every path is alive,
and does the bookkeeping only after a step that produced a non-finite value:
a path that blew up is dropped from the batch, with its step and radius when
each path has its own, and once no path is left the loop ends.  A scalar
model's batch may mix step sizes, one per path, so a whole step ladder runs
as one batch.  With `record`, the states of every path are kept step-major,
one row per step, as a transposed (paths, n_steps + 1, d) view, NaN after a
blow-up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import BrownianGrid, coarsen
from .model import SdeModel, coefficients, scalar_l_op
from .truncation import _check_delta, _clamp, _project_rows


class SchemeId(str, enum.Enum):
    truncated_milstein = "truncated_milstein"
    truncated_em = "truncated_em"
    classical_milstein = "classical_milstein"
    classical_em = "classical_em"

    @property
    def truncates(self) -> bool:
        return self in (SchemeId.truncated_milstein, SchemeId.truncated_em)

    @property
    def has_milstein_term(self) -> bool:
        return self in (SchemeId.truncated_milstein, SchemeId.classical_milstein)


@dataclass(frozen=True)
class Trajectory:
    """Knot values of the piecewise-constant step process.

    On blow-up the path is cut at the last finite state instead of propagating
    NaNs; `blew_up` records that the remaining knots are absent.
    """

    times: np.ndarray           # (k+1,), t_i = i * delta
    states: np.ndarray          # (k+1, d)
    scheme: SchemeId
    delta: float
    blew_up: bool

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _radii(cfg, delta):
    """`cfg.radius` of a step, or of each entry of an array of steps, looked
    up once per run of equal entries (a ladder's rows come in runs)."""
    if np.ndim(delta) == 0:
        return cfg.radius(delta)
    flat = np.ravel(delta)
    starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    radii = [cfg.radius(float(flat[i])) for i in starts]
    return np.repeat(radii, np.diff(np.r_[starts, flat.size])).reshape(np.shape(delta))


def _scalar_step(scheme: SchemeId, model: SdeModel, delta, y: np.ndarray, dB: np.ndarray,
                 radius, neg_radius, work) -> np.ndarray:
    """One step for scalar models; y and dB may be whole ensembles, and delta
    one step or an array of steps broadcasting against them.

    A truncated scheme clamps y to [-radius, radius], `neg_radius` being its
    negation.  Per element it computes
    mu*delta + sigma*dB + (0.5*L sigma)*(dB*dB - delta) in that order, then
    y + incr.  `work` is four arrays of the broadcast shape of y and dB: the
    clamped state, two temporaries and the result, which must not be y.
    """
    z, incr, term, out = work
    z = _clamp(y, radius, neg_radius, out=z) if scheme.truncates else y
    np.multiply(np.asarray(model.drift(z), dtype=float), delta, out=incr)
    np.multiply(np.asarray(model.diffusion_col(z, 1), dtype=float), dB, out=term)
    incr += term
    if scheme.has_milstein_term:
        np.multiply(0.5, scalar_l_op(model, z), out=term)
        np.multiply(dB, dB, out=out)
        out -= delta
        term *= out
        incr += term
    return np.add(y, incr, out=out)


def _general_step(scheme: SchemeId, model: SdeModel, delta: float, y: np.ndarray,
                  dB: np.ndarray, radius) -> np.ndarray:
    """One step for an (n_paths, d) batch of states y with (n_paths, m) increments dB.

    A truncated scheme projects y onto the ball of `radius`, and
    `model.coefficients` evaluates mu, sigma and, under a Milstein scheme,
    every L^{j1} sigma_{j2} at the (projected) states in one pass, its
    finite-difference step taken from the projection's row norms.  The terms
    of the increment are whole-batch products, added up in the per-point
    order: drift * delta, each sigma_j * dB_j, then each
    0.5 L^{j1} sigma_{j2} * w_{j1 j2} in `product` order.  A truncated scheme
    raises `EvaluationError` at a non-finite coefficient; under a classical
    scheme the row comes back non-finite, a blow-up.  The driver silences the
    overflow and invalid-value warnings of the arithmetic.
    """
    n, m = len(y), model.m
    truncates, milstein = scheme.truncates, scheme.has_milstein_term
    z, norm = _project_rows(radius, y) if truncates else (y, None)
    mu, sig, l_terms = coefficients(model, z, norm, milstein, check=truncates)
    # [k] the k-th term of the increment
    terms = np.empty((1 + m + (m * m if milstein else 0), n, model.d))
    np.multiply(mu, delta, out=terms[0])
    np.multiply(sig.transpose(2, 0, 1), dB.T[:, :, None], out=terms[1:m + 1])
    if milstein:
        w = dB[:, :, None] * dB[:, None, :]
        w.reshape(n, m * m)[:, ::m + 1] -= delta        # dB_j^2 - delta
        np.multiply(0.5 * l_terms.reshape(n, m * m, model.d).transpose(1, 0, 2),
                    w.reshape(n, m * m).T[:, :, None], out=terms[m + 1:])
    # added in order from the first term on, as one point's sum
    return y + np.add.accumulate(terms, axis=0, out=terms)[-1]


def step(scheme: SchemeId, model: SdeModel, cfg, delta: float, y, dB) -> np.ndarray:
    """Advance one step of the chosen scheme: the driver's one-step view.

    y is one state of shape (d,) and dB one increment per driver, (m,).
    Classical variants may blow up on super-linear models; the step then
    returns NaN, as a blown-up ensemble row does, and callers treat that as
    a blow-up signal, not an error.
    """
    _check_delta(delta)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dB = np.atleast_1d(np.asarray(dB, dtype=float))
    if y.shape != (model.d,):
        raise ValueError(f"need a state of shape ({model.d},), got shape {y.shape}")
    if dB.shape != (model.m,):
        raise ValueError(f"need {model.m} Brownian increments, got shape {dB.shape}")
    return _simulate_batch(scheme, model, cfg, dB[None, None], delta, y, record=True).states[0, 1]


def simulate(scheme: SchemeId, model: SdeModel, cfg, grid: BrownianGrid,
             coarsen_factor: int = 1) -> Trajectory:
    """Iterate the stepper over a (possibly coarsened) grid, recording knots."""
    scheme = SchemeId(scheme)
    g = coarsen(grid, coarsen_factor)
    delta = g.t_final / g.n_fine
    if delta > 1:
        raise ValueError(f"coarsened step size {delta} exceeds 1")
    run = _simulate_batch(scheme, model, cfg, g.increments[None], delta, model.initial_value,
                          record=True)
    blew_up = not run.alive[0]
    k_last = int(run.blowup_step[0]) if blew_up else g.n_fine
    return Trajectory(times=np.arange(k_last + 1) * delta, states=run.states[0, :k_last + 1],
                      scheme=scheme, delta=delta, blew_up=blew_up)


@dataclass(frozen=True)
class EnsembleResult:
    """An ensemble's terminal states and blow-up bookkeeping; `finals` and
    `states` keep the trailing (d,) axis for every model, scalar ones too."""

    finals: np.ndarray          # (n_paths, d); NaN where blown up
    alive: np.ndarray           # (n_paths,) bool, False once a path went non-finite
    blowup_step: np.ndarray     # (n_paths,) int, -1 when the path stayed finite
    # (n_paths, n_steps+1, d) when recorded, a transposed view of step-major
    # memory; NaN after a blow-up
    states: Optional[np.ndarray] = None

    @property
    def blowup_fraction(self) -> float:
        return 1.0 - float(np.mean(self.alive))


def _simulate_batch(scheme: SchemeId, model: SdeModel, cfg, increments: np.ndarray,
                    delta, x0, record=False) -> EnsembleResult:
    """Step all paths of any model from x0 as one batch.

    `increments` has shape (n_paths, n_steps, m); step-major memory, where
    `increments[:, k]` is contiguous, is the fast layout.  `delta` is one step
    for every path or, for a scalar model, an (n_paths,) array of each path's
    step.  A path that goes non-finite is marked dead at that step and is not
    stepped again; once every path is dead, the loop ends.  Scalar models take `_scalar_step` on (n_paths, 1) columns,
    general ones `_general_step`, both with the truncation radii looked up
    once per call.  With `record` every path's states are kept; without it,
    none.
    """
    if increments.ndim != 3 or increments.shape[2] != model.m:
        raise ValueError(f"increments must have shape (n_paths, n_steps, {model.m}), "
                         f"got {increments.shape}")
    scheme = SchemeId(scheme)
    n_paths, n_steps, _ = increments.shape
    scalar = model.is_scalar
    if np.ndim(delta):
        if not scalar:
            raise ValueError(f"a step per path needs a scalar model, not d = {model.d}")
        if np.shape(delta) != (n_paths,):
            raise ValueError(f"need one step per path, shape ({n_paths},), "
                             f"got {np.shape(delta)}")
        delta = np.asarray(delta, dtype=float)[:, None]
    radius = _radii(cfg, delta) if scheme.truncates else None
    neg_radius = None if radius is None else -radius
    y = np.empty((n_paths, model.d))
    y[:] = x0
    # the scalar step's clamped state, two temporaries and the state it writes
    # next; the state buffers alternate, and all are cut to the live rows
    work = [np.empty_like(y) for _ in range(4)] if scalar else None
    blowup_step = np.full(n_paths, -1, dtype=np.int64)
    states = np.full((n_steps + 1, n_paths, model.d), np.nan) if record else None
    live = slice(None)          # every path until one blows up
    if record:
        states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            dB = increments[live, k]
            if scalar:
                y, work[3] = _scalar_step(scheme, model, delta, y, dB, radius, neg_radius,
                                          work), y
            else:
                y = _general_step(scheme, model, delta, y, dB, radius)
            # a finite sum means every entry is finite
            if not np.isfinite(np.add.reduce(y, axis=None)):
                ok = np.isfinite(y).all(axis=1)
                live = np.arange(n_paths)[live]
                blowup_step[live[~ok]] = k
                live, y = live[ok], y[ok]
                if not len(live):
                    break
                # per-path steps and radii leave with their paths
                delta, radius, neg_radius = (c if np.ndim(c) == 0 else c[ok]
                                             for c in (delta, radius, neg_radius))
                if scalar:
                    work = [w[:len(live)] for w in work]
            if record:
                states[k + 1, live] = y
    finals = np.full((n_paths, model.d), np.nan)
    finals[live] = y
    return EnsembleResult(finals=finals, alive=blowup_step < 0, blowup_step=blowup_step,
                          states=None if states is None else states.transpose(1, 0, 2))


# the name `bench/tracing.py` wraps as its ensemble span
simulate_scalar_ensemble = _simulate_batch
