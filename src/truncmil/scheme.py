"""Steppers and path simulation: truncated Milstein plus three baselines.

The truncated variants evaluate every coefficient at the ball-projected state;
the classical variants are the same recursions with the projection replaced by
the identity.  Iterated Ito integrals are replaced by the product correction
(dB^{j1} dB^{j2} - delta_{j1 j2} * step)/2, which is exact for a single driver
and for commutative noise; Levy areas are not sampled.

The general step advances an (n_paths, d) batch of states with (n_paths, m)
increments at once.  Each row gets the per-point operations in the per-point
order, so a row's result does not depend on the batch it is stepped in; only
the coefficient callables, which take one (d,) point, are called row by row.
One batched driver does the blow-up bookkeeping, and `simulate` is its
one-path view.

Scalar models get a vectorised fast path that steps whole ensembles
elementwise; it performs the identical floating-point operations as the
per-path driver, so the two agree bit for bit.  It works in place on
preallocated buffers, reads one contiguous row of step-major increments per
step, and does blow-up bookkeeping only after a step that produced a
non-finite value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .brownian import BrownianGrid, coarsen
from .model import EvaluationError, SdeModel, _rows, l_op_terms, scalar_l_op
from .truncation import _check_delta, project, project_scalar_batch


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


def _scalar_step(scheme: SchemeId, model: SdeModel, cfg, delta: float,
                 y: np.ndarray, dB: np.ndarray) -> np.ndarray:
    """One step for scalar models; y and dB may be whole ensembles."""
    z = project_scalar_batch(cfg, delta, y) if scheme.truncates else y
    mu = np.asarray(model.drift(z), dtype=float)
    sig = np.asarray(model.diffusion_col(z, 1), dtype=float)
    incr = mu * delta + sig * dB
    if scheme.has_milstein_term:
        incr = incr + 0.5 * scalar_l_op(model, z) * (dB * dB - delta)
    return y + incr


def _general_step(scheme: SchemeId, model: SdeModel, cfg, delta: float,
                  y: np.ndarray, dB: np.ndarray) -> np.ndarray:
    """One step for an (n_paths, d) batch of states y with (n_paths, m) increments dB.

    Under a classical scheme a row whose L-operator is not finite comes back
    non-finite, a blow-up; a truncated scheme raises `EvaluationError`.
    """
    z = project(cfg, delta, y) if scheme.truncates else y
    incr = _rows(model.drift, z, np.empty(z.shape)) * delta
    sig = np.empty(z.shape + (model.m,))
    for j in range(model.m):
        incr = incr + _rows(model.diffusion_col, z, sig[:, :, j], j + 1) * dB[:, j, None]
    if scheme.has_milstein_term:
        try:
            l_terms = l_op_terms(model, z, sig)
        except EvaluationError as exc:
            if scheme.truncates or exc.rows is None:
                raise
            # a classical blow-up of the failing rows; the others step on
            ok = np.ones(len(z), dtype=bool)
            ok[exc.rows] = False
            l_terms = np.full((len(z), model.m, model.m, model.d), np.nan)
            if ok.any():
                l_terms[ok] = l_op_terms(model, z[ok], sig[ok])
        for j1, j2 in product(range(model.m), repeat=2):
            w = dB[:, j1] * dB[:, j2] - (delta if j1 == j2 else 0.0)
            incr = incr + 0.5 * l_terms[:, j1, j2] * w[:, None]
    return y + incr


def step(scheme: SchemeId, model: SdeModel, cfg, delta: float, y, dB) -> np.ndarray:
    """Advance one step of the chosen scheme.

    Classical variants may return non-finite values for super-linear models;
    callers treat that as a blow-up signal, not an error.
    """
    scheme = SchemeId(scheme)
    _check_delta(delta)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dB = np.atleast_1d(np.asarray(dB, dtype=float))
    if dB.shape != (model.m,):
        raise ValueError(f"need {model.m} Brownian increments, got shape {dB.shape}")
    if model.is_scalar:
        return _scalar_step(scheme, model, cfg, delta, y, dB)
    return _general_step(scheme, model, cfg, delta, y[None], dB[None])[0]


def simulate(scheme: SchemeId, model: SdeModel, cfg, grid: BrownianGrid,
             coarsen_factor: int = 1) -> Trajectory:
    """Iterate the stepper over a (possibly coarsened) grid, recording knots."""
    scheme = SchemeId(scheme)
    g = coarsen(grid, coarsen_factor)
    delta = g.t_final / g.n_fine
    if delta > 1:
        raise ValueError(f"coarsened step size {delta} exceeds 1")
    if g.m != model.m:
        raise ValueError(f"need {model.m} Brownian increments, got shape {(g.m,)}")
    run = _simulate_batch(scheme, model, cfg, g.increments[None], delta, record=True)
    blew_up = not run.alive[0]
    k_last = int(run.blowup_step[0]) if blew_up else g.n_fine
    return Trajectory(times=np.arange(k_last + 1) * delta, states=run.states[0, :k_last + 1],
                      scheme=scheme, delta=delta, blew_up=blew_up)


@dataclass(frozen=True)
class EnsembleResult:
    """An ensemble's terminal states and blow-up bookkeeping.

    `simulate_scalar_ensemble` holds one value per path and step; the batched
    driver `_simulate_batch` adds a trailing (d,) axis to `finals` and `states`.
    """

    finals: np.ndarray          # (n_paths,) or (n_paths, d); NaN where blown up
    alive: np.ndarray           # (n_paths,) bool, False once a path went non-finite
    blowup_step: np.ndarray     # (n_paths,) int, -1 when the path stayed finite
    states: Optional[np.ndarray] = None   # (n_paths, n_steps+1[, d]) when recorded; NaN after a blow-up

    @property
    def blowup_fraction(self) -> float:
        return 1.0 - float(np.mean(self.alive))


def _simulate_batch(scheme: SchemeId, model: SdeModel, cfg, increments: np.ndarray,
                    delta: float, record: bool = False) -> EnsembleResult:
    """Step all paths of any model from its initial value as one batch.

    `increments` has shape (n_paths, n_steps, m).  A path that goes non-finite
    is marked dead at that step and is not stepped again.  Scalar models take
    `_scalar_step` on (n_paths, 1) columns, general ones `_general_step`.
    """
    stepper = _scalar_step if model.is_scalar else _general_step
    n_paths, n_steps, _ = increments.shape
    live = np.arange(n_paths)
    y = np.tile(model.initial_value, (n_paths, 1))
    blowup_step = np.full(n_paths, -1, dtype=np.int64)
    states = np.full((n_paths, n_steps + 1, model.d), np.nan) if record else None
    if record:
        states[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            y = stepper(scheme, model, cfg, delta, y, increments[live, k])
            # a finite sum means every entry is finite
            if not np.isfinite(np.add.reduce(y, axis=None)):
                ok = np.isfinite(y).all(axis=1)
                blowup_step[live[~ok]] = k
                live, y = live[ok], y[ok]
            if record:
                states[live, k + 1] = y
    finals = np.full((n_paths, model.d), np.nan)
    finals[live] = y
    return EnsembleResult(finals=finals, alive=blowup_step < 0, blowup_step=blowup_step,
                          states=states)


def simulate_scalar_ensemble(scheme: SchemeId, model: SdeModel, cfg,
                             increments: np.ndarray, delta: float, x0: float,
                             record: bool = False) -> EnsembleResult:
    """Step all paths of a scalar model at once.

    `increments` has shape (n_paths, n_steps); step-major memory, where
    `increments[:, k]` is contiguous, is the fast layout.  Each step performs
    `_scalar_step`'s elementwise operations in the same order, in place on
    preallocated buffers, so results match per-path `simulate` bit-exactly.
    A path that goes non-finite is marked dead at that step and restarted
    from 0; its later values are never reported.
    """
    scheme = SchemeId(scheme)
    if not model.is_scalar:
        raise ValueError("ensemble fast path requires a scalar model")
    n_paths, n_steps = increments.shape
    milstein = scheme.has_milstein_term
    y = np.full(n_paths, float(x0))
    yn, incr, term = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
    w = np.empty(n_paths) if milstein else None
    alive = np.ones(n_paths, dtype=bool)
    blowup_step = np.full(n_paths, -1, dtype=np.int64)
    states = np.empty((n_paths, n_steps + 1)) if record else None
    if record:
        states[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            dB = increments[:, k]
            z = project_scalar_batch(cfg, delta, y) if scheme.truncates else y
            np.multiply(np.asarray(model.drift(z), dtype=float), delta, out=incr)
            np.multiply(np.asarray(model.diffusion_col(z, 1), dtype=float), dB, out=term)
            np.add(incr, term, out=incr)
            if milstein:
                np.multiply(0.5, scalar_l_op(model, z), out=term)
                np.multiply(dB, dB, out=w)
                np.subtract(w, delta, out=w)
                np.multiply(term, w, out=term)
                np.add(incr, term, out=incr)
            np.add(y, incr, out=yn)
            # a finite sum means every entry is finite
            if not np.isfinite(np.add.reduce(yn)):
                bad = alive & ~np.isfinite(yn)
                blowup_step[bad] = k
                alive &= ~bad
                yn[~alive] = 0.0
            y, yn = yn, y
            if record:
                states[:, k + 1] = y
    if record and not alive.all():
        dead = np.flatnonzero(~alive)
        after = np.arange(n_steps + 1) > blowup_step[dead, None]
        states[dead] = np.where(after, np.nan, states[dead])
    finals = np.where(alive, y, np.nan)
    return EnsembleResult(finals=finals, alive=alive, blowup_step=blowup_step, states=states)
