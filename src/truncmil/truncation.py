"""Truncation machinery: the (omega, h) pair, the ball projection and the
step-size condition calculators.

omega bounds coefficient magnitude on balls, h sets the per-step coefficient
budget, and the truncation radius is omega^{-1}(h(delta)).  Both are power
laws, which have exact closed-form inverses and let the old-condition
threshold be solved in log space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import SdeModel, coefficients, row_norm


@dataclass(frozen=True)
class TruncationConfig:
    """Power-law pair omega(u) = c_w * u**rho, h(delta) = c_h * delta**(-eps).

    delta**(1/4) * h(delta) <= h_bar on (0, 1] is enforced at construction,
    which for the power family reduces to eps <= 1/4 and c_h <= h_bar.
    """

    omega_coeff: float
    omega_power: float
    h_coeff: float
    h_power: float
    h_bar: float

    def __post_init__(self) -> None:
        if not 0 < self.omega_coeff < math.inf:
            raise ValueError("omega coefficient must be positive and finite")
        if not 1 <= self.omega_power < math.inf:
            raise ValueError("omega power must be >= 1 and finite")
        if not 0 < self.h_coeff < math.inf:
            raise ValueError("h coefficient must be positive and finite")
        if not 0 < self.h_power <= 0.25:
            raise ValueError("h power must lie in (0, 1/4]")
        if not 1 <= self.h_bar < math.inf:
            raise ValueError("h_bar must be >= 1 and finite")
        if self.h_coeff > self.h_bar:
            raise ValueError("h coefficient must not exceed h_bar "
                             "(otherwise delta^(1/4) h(delta) > h_bar at delta = 1)")

    def omega(self, u):
        return self.omega_coeff * np.asarray(u, dtype=float) ** self.omega_power

    def omega_inv(self, v):
        return (np.asarray(v, dtype=float) / self.omega_coeff) ** (1.0 / self.omega_power)

    def h(self, delta: float) -> float:
        return self.h_coeff * delta ** (-self.h_power)

    @functools.lru_cache(maxsize=256)      # bounded: entries keep their configs alive
    def radius(self, delta: float) -> float:
        """Truncation radius omega^{-1}(h(delta)), computed once per (cfg, delta)."""
        _check_delta(delta)
        return float(self.omega_inv(self.h(delta)))


def _check_delta(delta: float) -> None:
    if not 0 < delta <= 1:
        raise ValueError(f"step size must lie in (0, 1], got {delta}")


def project(cfg, delta: float, x) -> np.ndarray:
    """Metric projection of x onto the ball of radius omega^{-1}(h(delta)).

    x is one point (d,) or a batch of points (n, d), projected row by row.
    Total on finite inputs, those whose squared norm overflows too; x/|x| is
    taken as 0 at x = 0.  The returned norm never exceeds the radius, so the
    projection is exactly idempotent.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] == 1:
        return project_scalar_batch(cfg, delta, x)
    return _project_rows(cfg.radius(delta), x.reshape(-1, x.shape[-1]))[0].reshape(x.shape)


def _project_rows(r: float, x: np.ndarray):
    """`project` of an (n, d) batch x onto the ball of radius r, and the row
    norms of the result.

    For d > 1 each row is scaled by one factor, r / max(|x|, r): exactly 1.0
    inside the ball, and NaN for a row whose norm is NaN.  A row whose
    squared norm overflows has its norm taken as s |x / s| with s its largest
    magnitude, a path the other rows never take.  For d = 1 it clamps.
    """
    if x.shape[1] == 1:
        x = _clamp(x, r)
        return x, row_norm(x)
    n = row_norm(x)
    top = n.max(initial=0.0)
    if top <= r:                # every row inside, x = 0 among them since r > 0
        return x, n
    if not top < np.inf:
        huge = np.isinf(n) & np.isfinite(x).all(axis=1)
        if huge.any():
            s = np.max(np.abs(x[huge]), axis=1)
            n = n.copy()
            n[huge] = s * row_norm(x[huge] / s[:, None])
    y = x * (r / np.maximum(n, r))[:, None]
    n = row_norm(y)
    # one more contraction where rounding left the norm a hair above r; the
    # factor is 1.0 for every other row, NaN ones too
    while np.fmax.reduce(n) > r:
        y *= (r / np.fmax(n, r))[:, None]
        n = row_norm(y)
    return y, n


def project_scalar_batch(cfg, delta: float, y: np.ndarray) -> np.ndarray:
    """Elementwise projection for batches of scalar states (clamping to [-r, r])."""
    return _clamp(y, cfg.radius(delta))


def _clamp(y: np.ndarray, radius, neg_radius=None, out=None) -> np.ndarray:
    """y clamped to [-radius, radius] elementwise, into `out` when given;
    radius is a number or an array broadcasting against y (one radius per
    path), and `neg_radius`, when given, is its negation."""
    lo = -radius if neg_radius is None else neg_radius
    return np.minimum(np.maximum(y, lo, out=out), radius, out=out)


# ---------------------------------------------------------------------------
# step-size condition calculators


def _power_law_condition(cfg: TruncationConfig, q: float, p: float):
    """Reduce the legacy condition h(D) >= omega((D^q h(D)^{2q})^{-1/(p-q)})
    to log(c) >= a * log(D) and return (log c, a)."""
    eps = cfg.h_power
    rho = cfg.omega_power
    a = eps - rho * q * (1.0 - 2.0 * eps) / (p - q)
    log_c = (1.0 + 2.0 * q * rho / (p - q)) * math.log(cfg.h_coeff) - math.log(cfg.omega_coeff)
    return log_c, a


def old_condition_threshold(cfg: TruncationConfig, q: float, p: float) -> float:
    """Largest step size in (0, 1] below which the legacy restriction holds.

    Solved in closed form (log space).  Returns 0 when the condition fails for
    all arbitrarily small steps, 1 when it never binds.
    """
    if not (q >= 1 and p > q):
        raise ValueError(f"need q >= 1 and p > q, got q={q}, p={p}")
    log_c, a = _power_law_condition(cfg, q, p)
    if a > 0:
        if log_c >= 0:
            return 1.0
        return math.exp(log_c / a)
    if a == 0:
        return 1.0 if log_c >= 0 else 0.0
    # RHS grows without bound as delta -> 0: never holds on a full interval
    return 0.0


def new_error_bound(cfg, q: float, p: float, r: float, delta: float) -> float:
    """Shape of the relaxed error bound
    max(delta^{2q} h^{4q}, omega^{-1}(h(delta))^{-(2p-2qr-2q)}), up to a constant.

    Evaluated in log space so extreme exponents do not overflow.
    """
    if not p > (1.0 + r) * q:
        raise ValueError(f"need p > (1+r)q, got p={p}, q={q}, r={r}")
    _check_delta(delta)
    log_h = math.log(cfg.h(delta))
    t1 = 2.0 * q * math.log(delta) + 4.0 * q * log_h
    t2 = -(2.0 * p - 2.0 * q * r - 2.0 * q) * math.log(cfg.radius(delta))
    return math.exp(max(t1, t2))


def _frac(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**9)


def dominant_rate(cfg: TruncationConfig, q: float, p: float, r: float) -> float:
    """Exponent of the dominant (slower) term of the error bound as delta -> 0.

    Computed with rational arithmetic so paper-style exponents come out exact.
    """
    if not p > (1.0 + r) * q:
        raise ValueError(f"need p > (1+r)q, got p={p}, q={q}, r={r}")
    eps, rho = _frac(cfg.h_power), _frac(cfg.omega_power)
    qf, pf, rf = _frac(q), _frac(p), _frac(r)
    e1 = 2 * qf * (1 - 2 * eps)
    e2 = (eps / rho) * (2 * pf - 2 * qf * rf - 2 * qf)
    return float(min(e1, e2))


# ---------------------------------------------------------------------------
# sampled probes tied to the truncated coefficients


def _points(model: SdeModel, points: Sequence) -> np.ndarray:
    """Probe points as an (n, d) batch; a scalar model's may be plain numbers."""
    return np.asarray(points, dtype=float).reshape(-1, model.d)


def coefficient_bound_margin(model: SdeModel, cfg, delta: float, points: Sequence) -> float:
    """Worst (block norm - h(delta)) over truncated-coefficient blocks at the
    given points; <= 0 confirms the boundedness guarantee."""
    mu, sigma, l_terms = coefficients(model, project(cfg, delta, _points(model, points)))
    # the norms of mu, of each diffusion column and of each L-operator pair
    norms = [row_norm(b).ravel() for b in (mu, sigma.swapaxes(1, 2), l_terms)]
    return float(np.max(np.concatenate(norms), initial=-math.inf) - cfg.h(delta))


def _growth_lhs(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray, p_bar: float) -> np.ndarray:
    """<x, mu> + (2 p_bar - 1) |sigma|^2 at each row."""
    return np.vecdot(x, mu) + (2.0 * p_bar - 1.0) * np.sum(sigma ** 2, axis=(1, 2))


def preservation_margin(model: SdeModel, cfg, delta: float, p_bar: float,
                        lambda2: float, points: Sequence) -> float:
    """Worst margin of <x, mu~(x)> + (2 p_bar - 1) |sigma~(x)|^2 <= 2 lambda2 (1 + |x|^2)."""
    x = _points(model, points)
    mu, sigma, _ = coefficients(model, project(cfg, delta, x), milstein=False)
    lhs = _growth_lhs(x, mu, sigma, p_bar)
    margins = lhs - 2.0 * lambda2 * (1.0 + np.vecdot(x, x))
    return float(np.max(margins, initial=-math.inf))


def fit_lambda2(model: SdeModel, p_bar: float, points: Sequence) -> float:
    """Smallest lambda2 making <x, mu> + (2 p_bar - 1)|sigma|^2 <= lambda2 (1+|x|^2)
    hold at the sampled points (floored at 1e-6)."""
    x = _points(model, points)
    mu, sigma, _ = coefficients(model, x, milstein=False)
    lhs = _growth_lhs(x, mu, sigma, p_bar)
    return float(np.max(lhs / (1.0 + np.vecdot(x, x)), initial=1e-6))
