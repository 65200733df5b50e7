"""SDE problem definitions and sampled falsifiers for the standing growth conditions.

A model bundles the drift, the diffusion columns and (optionally) the
first-order diffusion operator ``L^{j1} sigma_{j2}`` together with the state
dimension, driver count and initial value.  Conditions that quantify over all
of R^d (polynomial Lipschitz continuity, Khasminskii-type monotonicity,
dissipativity) are checked by probing quasi-random points inside a ball: a
nonpositive worst margin means "no violation found", never a proof.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from itertools import product, repeat
from typing import Callable, Mapping, Optional

import numpy as np


class EvaluationError(RuntimeError):
    """A coefficient function returned a non-finite value.

    ``x`` is the offending point; for a batch of points, ``rows`` lists every
    row that failed and ``x`` belongs to the first of them: by the one check
    rule of `coefficients`, the row itself or its first finite-difference
    neighbour whose diffusion is not finite.
    """

    def __init__(self, message: str, x, rows=None) -> None:
        super().__init__(f"{message} at x={np.asarray(x)!r}")
        self.x = np.asarray(x, dtype=float)
        self.rows = rows


@dataclass(frozen=True)
class KFunction:
    """Comparison function k(u) = c * u**gamma for the dissipativity checks.

    Restricted to the power family with c > 0 and gamma >= 1, which keeps the
    arithmetic of the stability constants exact for every builtin problem.
    """

    c: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.c < math.inf:
            raise ValueError(f"k-function coefficient must be positive and finite, got {self.c}")
        if not 1 <= self.gamma < math.inf:
            raise ValueError(f"k-function power must be >= 1 and finite, got {self.gamma}")

    def __call__(self, u):
        return self.c * np.asarray(u, dtype=float) ** self.gamma


@dataclass(frozen=True)
class SdeModel:
    """A d-dimensional SDE dx = drift(x) dt + sum_j diffusion_col(x, j) dB^j.

    ``diffusion_col(x, j)`` returns the j-th column of the diffusion matrix,
    with j running 1..m.  ``l_op(x, j1, j2)``, when supplied, evaluates
    sum_l sigma_{l,j1}(x) * d sigma_{j2}(x) / dx^l; otherwise a central
    finite-difference fallback is used.  Coefficient callables must be pure:
    deterministic, side-effect free, and safe to share across workers.  For
    scalar models (d == m == 1) they must also accept arbitrary-shape arrays
    elementwise: the ensemble drivers and `_evaluate`, the one batch rule for
    coefficients, pass them a whole batch of points in one call.  For any
    other model a coefficient takes one (d,) point and returns a value that
    broadcasts to (d,): a (d,) array, or a number or (1,) array, which stands
    for every component.
    """

    d: int
    m: int
    drift: Callable
    diffusion_col: Callable
    initial_value: np.ndarray
    polynomial_degree_r: float
    l_op: Optional[Callable] = None
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 1:
            raise ValueError("state dimension and driver count must be positive")
        if self.polynomial_degree_r < 0:
            raise ValueError("growth exponent r must be nonnegative")
        x0 = np.atleast_1d(np.asarray(self.initial_value, dtype=float))
        if x0.shape != (self.d,):
            raise ValueError(f"initial value must have shape ({self.d},), got {x0.shape}")
        object.__setattr__(self, "initial_value", x0)

    @property
    def is_scalar(self) -> bool:
        return self.d == 1 and self.m == 1


def _finite(v, what: str, x) -> np.ndarray:
    """v as a float array, or EvaluationError at x, or at the first failing row
    of an (n, d) batch x with every failing row listed, if v is not finite."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        if np.ndim(x) < 2:
            raise EvaluationError(f"non-finite {what}", x)
        rows = np.flatnonzero(~np.isfinite(v.reshape(len(x), -1)).all(axis=1))
        raise EvaluationError(f"non-finite {what}", x[rows[0]], rows=rows)
    return v


@functools.lru_cache(maxsize=None)
def _row_dtype(d: int) -> np.dtype:
    """One (d,) row of floats as a dtype, built once per d (building one
    costs about a microsecond)."""
    return np.dtype((float, d))


def _evaluate(model: SdeModel, fn: Callable, x, *args, what: Optional[str] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """fn(point, *args) at every row of the (n, d) batch x, as (n, d), into `out` if given.

    The one rule for evaluating a coefficient on a batch: a scalar model's
    coefficients are elementwise (see `SdeModel`), so they take the whole batch
    in one call; any other model's take one (d,) row per call, and the n
    values are read into one array, each broadcast to (d,).  For such a model
    x may also be the list of the batch's rows, so that several coefficients
    share one list.  With `what` naming the coefficient, a non-finite value
    raises `EvaluationError`; without it, it passes through (a classical
    step's blow-up).
    """
    if model.is_scalar:
        if out is None:
            out = np.empty(x.shape)
        out[...] = fn(x, *args)
    else:
        # `map` with repeated args skips unpacking *args on every call
        v = np.fromiter(map(fn, x, *map(repeat, args)), dtype=_row_dtype(model.d), count=len(x))
        if out is None:
            out = v
        else:
            out[...] = v
    return out if what is None else _finite(out, what, x)


def row_norm(x) -> np.ndarray:
    """Euclidean norm over the last axis, one per row.

    It reduces with the same BLAS dot as ``np.linalg.norm`` of a single row,
    so each value equals that norm bit for bit (``np.einsum`` does not).
    """
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.vecdot(x, x))


def _fd_step(x: np.ndarray, norm=None) -> np.ndarray:
    """Central-difference step max(1e-6, 1e-6 |x|) of each row of x; `norm`,
    when given, is the row norms of x."""
    return np.fmax(1e-6, 1e-6 * (row_norm(x) if norm is None else norm))


@functools.lru_cache(maxsize=None)
def _fd_directions(d: int) -> np.ndarray:
    """[l] = (e_l, -e_l), the central-difference directions in R^d, read-only."""
    e = np.eye(d)
    dirs = np.stack([e, -e], axis=1)
    dirs.flags.writeable = False
    return dirs


def _fd_stencil(x: np.ndarray, fd_step: np.ndarray, out=None) -> np.ndarray:
    """The central-difference neighbours of each row of the (n, d) batch x, as
    (n, d, 2, d), into `out` if given: [i, l] = (x_i + step_i e_l, x_i - step_i e_l)."""
    return np.add(x[:, None, None], fd_step[:, None, None, None] * _fd_directions(x.shape[1]),
                  out=out)


def finite_difference_l_op(model: SdeModel, x, j1: int, j2: int) -> np.ndarray:
    """Central-difference evaluation of sum_l sigma_{l,j1} d sigma_{j2}/dx^l."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    delta = _fd_step(x)
    sig_j1 = _finite(model.diffusion_col(x, j1), "diffusion", x)
    sig_j1 = np.broadcast_to(sig_j1, (model.d,))
    out = np.zeros(model.d)
    for l in range(model.d):
        e = np.zeros(model.d)
        e[l] = delta
        hi = _finite(model.diffusion_col(x + e, j2), "diffusion", x + e)
        lo = _finite(model.diffusion_col(x - e, j2), "diffusion", x - e)
        out += sig_j1[l] * (np.broadcast_to(hi, (model.d,)) - np.broadcast_to(lo, (model.d,))) / (2.0 * delta)
    return out


def eval_l_op(model: SdeModel, x, j1: int, j2: int) -> np.ndarray:
    """Evaluate L^{j1} sigma_{j2}(x), preferring the analytic callable."""
    if not (1 <= j1 <= model.m and 1 <= j2 <= model.m):
        raise ValueError(f"driver indices must lie in 1..{model.m}, got ({j1}, {j2})")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if model.l_op is not None:
        return _finite(np.broadcast_to(np.asarray(model.l_op(x, j1, j2), dtype=float), (model.d,)),
                       "L-operator", x)
    return _finite(finite_difference_l_op(model, x, j1, j2), "L-operator", x)


def coefficients(model: SdeModel, x: np.ndarray, norm=None, milstein: bool = True,
                 check: bool = True) -> tuple:
    """mu, sigma and every L^{j1} sigma_{j2} at each row of the (n, d) batch x,
    in one pass: (n, d), (n, d, m) and (n, m, m, d) [i, j1-1, j2-1], or None
    without `milstein`.

    One list holds the n rows and, for a finite-difference L-operator, the
    2 d central-difference neighbours of each row, whose step comes from
    `norm`, the row norms of x, when given.  `_evaluate` takes the drift at
    the n rows and each diffusion column at every entry of the list.  The
    neighbours' values are differenced, every term of the sum over
    coordinates formed as one batched product and the terms added up in order
    from zeros: `finite_difference_l_op`'s operation order, so each slice
    equals its value.  That arithmetic ignores overflow and invalid values; a
    model with an analytic `l_op` has it evaluated at the rows instead.

    With `check`, a non-finite drift, diffusion, neighbour diffusion or
    L-term raises `EvaluationError`, which lists the failing rows and names
    the first one's culprit in that order (the neighbours column by column).
    Without it, a non-finite value passes through (a classical step's
    blow-up).
    """
    n, d, m = len(x), model.d, model.m
    stencil = milstein and model.l_op is None
    if stencil:
        fd_step = _fd_step(x, norm)
        pts = np.empty((n * (1 + 2 * d), d))
        pts[:n] = x
        _fd_stencil(x, fd_step, out=pts[n:].reshape(n, d, 2, d))
    else:
        pts = x
    rows = pts if model.is_scalar else list(pts)     # one list for every coefficient
    mu = _evaluate(model, model.drift, rows[:n])
    # [i, j, k]: component k of sigma_{j+1} at row i, the n rows first
    sig = np.empty((len(pts), m, d))
    for j in range(m):
        _evaluate(model, model.diffusion_col, rows, j + 1, out=sig[:, j])
    # [i, l, j]: sigma at row i as one point's (d, m) matrix, contiguous so
    # that a sum over a row's entries runs in one point's order
    sigma = np.ascontiguousarray(sig[:n].transpose(0, 2, 1))
    l_terms = np.zeros((n, m, m, d)) if milstein else None
    if stencil:
        # nb[i, l, s, (j2, k)]: component k of sigma_{j2} at neighbour (l, s) of row i
        nb = sig[n:].reshape(n, d, 2, m * d)
        with np.errstate(over="ignore", invalid="ignore"):     # non-finite rows are checked below
            # [i, l, j1, (j2, k)]: the l-th term of L^{j1} sigma_{j2}, component k
            terms = (sigma[..., None] * (nb[:, :, 0] - nb[:, :, 1])[:, :, None]
                     / (2.0 * fd_step)[:, None, None, None])
            flat = l_terms.reshape(n, m, m * d)
            for l in range(d):
                flat += terms[:, l]
    elif milstein:
        for j1, j2 in product(range(m), repeat=2):
            _evaluate(model, model.l_op, x, j1 + 1, j2 + 1, out=l_terms[:, j1, j2])
    if check and not (np.isfinite(mu).all() and np.isfinite(sig).all()
                      and (l_terms is None or np.isfinite(l_terms).all())):
        # [i, c]: block c of row i is finite, c running over the drift, the
        # diffusion, each neighbour's diffusion column by column ([j, l, s]),
        # then the L-operator
        parts = [mu[:, None], sig[:n, None]]
        if stencil:
            parts.append(sig[n:].reshape(n, d, 2, m, d).transpose(0, 3, 1, 2, 4).reshape(n, -1, d))
        if milstein:
            parts.append(l_terms[:, None])
        ok = np.hstack([np.isfinite(p.reshape(n, p.shape[1], -1)).all(axis=2) for p in parts])
        failed = np.flatnonzero(~ok.all(axis=1))
        i = failed[0]
        c = int(np.argmin(ok[i]))            # the first block of row i that failed
        what, at = ("drift" if c == 0 else "diffusion"), x[i]
        if milstein and c == ok.shape[1] - 1:
            what = "L-operator"
        elif c > 1:
            at = pts[n + 2 * d * i + (c - 2) % (2 * d)]
        raise EvaluationError(f"non-finite {what}", at, rows=failed)
    return mu, sigma, l_terms


def scalar_l_op(model: SdeModel, z: np.ndarray) -> np.ndarray:
    """Elementwise L^1 sigma_1 for scalar models; z may have any shape."""
    if model.l_op is not None:
        return np.asarray(model.l_op(z, 1, 1), dtype=float)
    return coefficients(model, np.reshape(z, (-1, 1)), check=False)[2].reshape(np.shape(z))


# ---------------------------------------------------------------------------
# assumption falsifiers


class Assumption(str, enum.Enum):
    A2_1_polyLipschitz = "A2_1_polyLipschitz"
    A2_2_khasminskii = "A2_2_khasminskii"
    A2_3_derivGrowth = "A2_3_derivGrowth"
    A4_1_dissipative = "A4_1_dissipative"
    Eq4_2_milsteinDissipative = "Eq4_2_milsteinDissipative"
    Eq4_3_ratioBounded = "Eq4_3_ratioBounded"


@dataclass(frozen=True)
class ProbeSpec:
    """How to sample the falsifier: probe count, ball radius and constants.

    ``constants`` carries the named constants of the inequality being checked
    (K1, K2, r, lambda3, delta, cap, ...); ``k_fn`` the comparison function for
    the dissipativity checks.
    """

    n_points: int = 1000
    radius: float = 2.0
    p_bar: float = 2.0
    constants: Mapping[str, float] = field(default_factory=dict)
    k_fn: Optional[KFunction] = None

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ValueError(f"probe_points = {self.n_points}: need at least one probe point")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"probe_radius = {self.radius}: the probe radius must be positive "
                             "and finite")
        # a NaN reaches every margin, and no check reads a NaN margin as a violation
        for name, value in [("p_bar", self.p_bar), *self.constants.items()]:
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value}: not a finite number")


@dataclass(frozen=True)
class AssumptionReport:
    assumption_id: Assumption
    sampled_points: int
    worst_margin: float
    constants_used: dict

    @property
    def violated(self) -> bool:
        return self.worst_margin > 0


def _halton_ball(dim: int, n: int, radius: float) -> np.ndarray:
    """n quasi-random points inside the ball of given radius (Halton, unscrambled)."""
    from scipy.stats import qmc   # lazily: scipy.stats loads all of scipy.special (~0.3 s)
    sampler = qmc.Halton(d=dim, scramble=False)
    pts = np.empty((0, dim))
    while len(pts) < n:
        cand = radius * (2.0 * sampler.random(4 * n) - 1.0)
        keep = cand[np.linalg.norm(cand, axis=1) <= radius]
        pts = np.vstack([pts, keep])
    return pts[:n]


def _component_derivs(model: SdeModel, fn: Callable, what: str, xs: np.ndarray, *args) -> tuple:
    """Central-difference gradient and Hessian norms of each component l of
    fn(., *args) at each row of xs, two (n, d) arrays [row, l], in a one-point
    stencil's operation order (off-diagonal entries from i < j, mirrored)."""
    n, d = xs.shape
    delta = _fd_step(xs)
    e = delta[:, None, None] * np.eye(d)                # e[:, i] = delta e_i
    iu, ju = np.triu_indices(d, 1)
    plus, minus = xs[:, None] + e, xs[:, None] - e
    pts = np.concatenate([xs[:, None], plus, minus,
                          plus[:, iu] + e[:, ju], plus[:, iu] - e[:, ju],
                          minus[:, iu] + e[:, ju], minus[:, iu] - e[:, ju]], axis=1)
    f = _evaluate(model, fn, pts.reshape(-1, d), *args, what=what)
    f = f.reshape(n, -1, d).transpose(0, 2, 1)          # [row, l, stencil point]
    f0, fp, fm = f[..., :1], f[..., 1:d + 1], f[..., d + 1:2 * d + 1]
    fpp, fpm, fmp, fmm = np.split(f[..., 2 * d + 1:], 4, axis=-1)
    dsq = np.float_power(delta, 2.0)[:, None, None]     # libm pow, as a scalar delta**2
    grad = np.ascontiguousarray((fp - fm) / (2.0 * delta)[:, None, None])  # rows dotted as one-point vectors
    hess = np.empty((n, d, d, d))
    hess[..., range(d), range(d)] = (fp - 2.0 * f0 + fm) / dsq
    hess[..., iu, ju] = hess[..., ju, iu] = (fpp - fpm - fmp + fmm) / (4.0 * dsq)
    return row_norm(grad), row_norm(hess.reshape(n, d, d * d))


def _drift_ratio(model: SdeModel, k_fn: KFunction, u: np.ndarray, dirs: np.ndarray,
                 what: Optional[str] = None) -> np.ndarray:
    """max over the unit directions e (rows of dirs) of |mu(u e)|^2 / k(u), per
    radius in u: one batched drift evaluation per direction, folded with
    np.maximum, so a NaN along any direction reaches the result."""
    best = np.zeros_like(u)
    for e in dirs:
        mu = _evaluate(model, model.drift, u[:, None] * e, what=what)
        best = np.maximum(best, np.vecdot(mu, mu))
    return best / k_fn(u)


def check_assumption(model: SdeModel, assumption: Assumption, spec: ProbeSpec) -> AssumptionReport:
    """Probe one standing inequality and report the most-violating margin.

    A margin is (LHS - RHS) of the inequality, so worst_margin <= 0 means no
    violation was found among the sampled points.  Margins are array
    expressions over the probe points; np.float_power rounds as a scalar power.
    """
    assumption = Assumption(assumption)
    c = dict(spec.constants)
    r = float(c.get("r", model.polynomial_degree_r))
    d, m = model.d, model.m
    n_dirs = 1          # probe points per margin

    if assumption in (Assumption.A2_1_polyLipschitz, Assumption.A2_2_khasminskii):
        pairs = _halton_ball(2 * d, spec.n_points, 1.0)
        xs = spec.radius * pairs[:, :d]
        ys = spec.radius * pairs[:, d:]
        lipschitz = assumption is Assumption.A2_1_polyLipschitz
        (mx, sx, lx), (my, sy, ly) = (coefficients(model, p, milstein=lipschitz) for p in (xs, ys))
        dmu = mx - my
        dsig = row_norm((sx - sy).reshape(len(xs), -1))
        if lipschitz:
            K1 = float(c.get("K1", 100.0))
            dl = np.max(row_norm(lx - ly), axis=(1, 2))
            lhs = np.maximum(np.maximum(row_norm(dmu), dsig), dl)
            rhs = (K1 * (1.0 + np.float_power(row_norm(xs), r) + np.float_power(row_norm(ys), r))
                   * row_norm(xs - ys))
            margins = lhs - rhs
            used = {"K1": K1, "r": r}
        else:
            K2 = float(c.get("K2", 0.0))
            lhs = np.vecdot(xs - ys, dmu) + (2.0 * spec.p_bar - 1.0) * np.float_power(dsig, 2.0)
            margins = lhs - K2 * np.vecdot(xs - ys, xs - ys)
            used = {"K2": K2, "p_bar": spec.p_bar}

    elif assumption is Assumption.A2_3_derivGrowth:
        lam3 = float(c.get("lambda3", 100.0))
        xs = _halton_ball(d, spec.n_points, spec.radius)
        derivs = [*_component_derivs(model, model.drift, "drift", xs)]
        for j in range(1, m + 1):
            derivs += _component_derivs(model, model.diffusion_col, "diffusion", xs, j)
        worst = np.max(np.hstack(derivs), axis=1, initial=0.0)
        margins = worst - lam3 * (1.0 + np.float_power(row_norm(xs), r + 1.0))
        used = {"lambda3": lam3, "r": r}

    elif assumption in (Assumption.A4_1_dissipative, Assumption.Eq4_2_milsteinDissipative):
        if spec.k_fn is None:
            raise ValueError(f"{assumption.value} needs a k-function in the probe spec")
        xs = _halton_ball(model.d, spec.n_points, spec.radius)
        delta = float(c.get("delta", 0.0))
        if assumption is Assumption.Eq4_2_milsteinDissipative and "delta" not in c:
            raise ValueError("Eq4_2 check needs constants['delta']")
        milstein = assumption is Assumption.Eq4_2_milsteinDissipative
        mu, sig, terms = coefficients(model, xs, milstein=milstein)
        lhs = 2.0 * np.vecdot(xs, mu) + np.sum(sig ** 2, axis=(1, 2))
        used = {"k_c": spec.k_fn.c, "k_gamma": spec.k_fn.gamma}
        if milstein:
            l_sum = sum(terms[:, j1, j2] for j1, j2 in product(range(m), repeat=2))
            lhs = lhs + 0.5 * np.vecdot(l_sum, l_sum) * delta
            used["delta"] = delta
        margins = lhs + spec.k_fn(row_norm(xs))

    elif assumption is Assumption.Eq4_3_ratioBounded:
        if spec.k_fn is None:
            raise ValueError("Eq4_3 check needs a k-function in the probe spec")
        cap = float(c.get("cap", 1e12))
        radii = np.logspace(-9, 0, spec.n_points) * spec.radius
        dirs = _halton_ball(model.d, max(8, 2 * model.d), 1.0)
        dirs = dirs[np.linalg.norm(dirs, axis=1) > 0]
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        # one margin per radius, the worst over its directions (rounding is
        # monotone, so it is the worst of the per-point margins)
        margins = _drift_ratio(model, spec.k_fn, radii, dirs, what="drift") - cap
        n_dirs = len(dirs)
        used = {"cap": cap, "k_c": spec.k_fn.c, "k_gamma": spec.k_fn.gamma}

    else:  # pragma: no cover
        raise ValueError(f"unknown assumption {assumption}")

    return AssumptionReport(
        assumption_id=assumption,
        sampled_points=len(margins) * n_dirs,
        worst_margin=float(np.max(margins)),
        constants_used=used,
    )


# ---------------------------------------------------------------------------
# builtin example problems (all scalar, sigma(x) = x^2, x0 = 1, r = 4)


def _sigma_sq(x, j):
    return x * x


def _l_sigma_sq(x, j1, j2):
    # sigma sigma' = x^2 * 2x
    return 2.0 * x * x * x


def _drift_cubic_quintic(x):
    return x**3 - 4.0 * x**5


def _drift_strongly_damped(x):
    return -83.0 * x**3


def _drift_stable_quintic(x):
    return -x - 6.0 * x**3 - 4.0 * x**5


_BUILTIN_DRIFTS = {
    "cubic_quintic": _drift_cubic_quintic,
    "strongly_damped_cubic": _drift_strongly_damped,
    "stable_quintic": _drift_stable_quintic,
}


def builtin_model(name: str) -> SdeModel:
    """One of the three named scalar example problems."""
    if name not in _BUILTIN_DRIFTS:
        raise ValueError(f"unknown builtin model {name!r}; choose from {sorted(_BUILTIN_DRIFTS)}")
    return SdeModel(
        d=1,
        m=1,
        drift=_BUILTIN_DRIFTS[name],
        diffusion_col=_sigma_sq,
        l_op=_l_sigma_sq,
        initial_value=np.array([1.0]),
        polynomial_degree_r=4.0,
        name=name,
    )


BUILTIN_MODEL_NAMES = tuple(sorted(_BUILTIN_DRIFTS))


_MODEL_REGISTRY = {}


def register_model(model: SdeModel) -> None:
    """Name a model for `RateExperimentSpec`; a run resolves it once, in this process.

    A multi-worker run pickles its model to the workers, registered or not,
    so the coefficient callables must be module-level functions.
    """
    _MODEL_REGISTRY[model.name] = model


def resolve_model(name: str) -> SdeModel:
    if name in _BUILTIN_DRIFTS:
        return builtin_model(name)
    if name in _MODEL_REGISTRY:
        return _MODEL_REGISTRY[name]
    raise ValueError(f"unknown model {name!r}")
