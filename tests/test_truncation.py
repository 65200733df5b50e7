"""Truncation pair, ball projection, and step-size condition calculators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import truncmil as tm
from conftest import _coupled_col, config_for, sigma_matrix
from truncmil.model import BUILTIN_MODEL_NAMES, coefficients, eval_l_op, row_norm
from truncmil.scheme import simulate
from truncmil.truncation import (coefficient_bound_margin, fit_lambda2,
                                 new_error_bound, old_condition_threshold,
                                 preservation_margin, project, project_scalar_batch)


def test_config_validation():
    with pytest.raises(ValueError):
        tm.TruncationConfig(-1.0, 3.0, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        tm.TruncationConfig(1.0, 0.5, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        tm.TruncationConfig(1.0, 3.0, 1.0, 0.3, 1.0)     # h power above 1/4
    with pytest.raises(ValueError):
        tm.TruncationConfig(1.0, 3.0, 2.0, 0.1, 1.0)     # h coeff above h_bar
    with pytest.raises(ValueError):
        tm.TruncationConfig(1.0, 3.0, 0.5, 0.1, 0.9)     # h_bar below 1
    # an infinite omega coefficient built and gave radius 0.0
    fields = (4.0, 5.0, 4.0, 0.1, 4.0)
    for i in range(5):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                tm.TruncationConfig(*fields[:i], bad, *fields[i + 1:])


def test_radius_closed_form(quintic_cfg, damped_cfg):
    # (h(delta) / c_omega) ** (1/rho), exactly
    assert quintic_cfg.radius(1.0) == 1.0
    delta = 0.04
    assert quintic_cfg.radius(delta) == (4.0 * delta**-0.25 / 4.0) ** 0.2
    assert damped_cfg.radius(delta) == (delta**-0.1 / 83.0) ** (1.0 / 3.0)


def test_radius_rejects_bad_delta(cubic_cfg):
    with pytest.raises(ValueError):
        cubic_cfg.radius(0.0)
    with pytest.raises(ValueError):
        cubic_cfg.radius(1.5)


def test_radius_computed_once_per_step_size(monkeypatch):
    cfg = tm.TruncationConfig(3.0, 3.0, 2.0, 0.2, 2.0)    # used by no other test
    calls = []
    omega_inv = tm.TruncationConfig.omega_inv

    def counted(self, v):
        calls.append(v)
        return omega_inv(self, v)

    monkeypatch.setattr(tm.TruncationConfig, "omega_inv", counted)
    tm.TruncationConfig.radius.cache_clear()
    grid = tm.generate(2, 0, 2, 0.5, 64)
    for factor in (1, 1, 4):
        simulate(tm.SchemeId.truncated_em, _two_state_model(), cfg, grid, coarsen_factor=factor)
    assert len(calls) == 2      # one per step size, not one per step
    assert cfg.radius(0.5 / 64) == (2.0 * (0.5 / 64) ** -0.2 / 3.0) ** (1.0 / 3.0)
    with pytest.raises(ValueError):
        cfg.radius(2.0)


def _two_state_model():
    return tm.SdeModel(d=2, m=2, drift=lambda x: -x, diffusion_col=lambda x, j: 0.1 * x,
                       initial_value=np.array([0.5, -0.5]), polynomial_degree_r=0.0)


def test_omega_inverse_roundtrip(cubic_cfg):
    for v in [0.5, 1.0, 7.0, 4e3, 1e9]:
        assert cubic_cfg.omega(cubic_cfg.omega_inv(v)) == pytest.approx(v, rel=1e-12)


def test_project_zero_and_inside(cubic_cfg):
    assert tm.project(cubic_cfg, 0.01, [0.0]) == pytest.approx([0.0])
    r = cubic_cfg.radius(0.01)
    inside = np.array([0.5 * r])
    assert tm.project(cubic_cfg, 0.01, inside)[0] == inside[0]


def test_project_takes_rows_whose_squared_norm_overflows_to_the_sphere(cubic_cfg):
    # |x|^2 overflows beyond |x| ~ 1.3e154, yet such a finite row has a
    # metric projection like any other: the point of the sphere along x
    r = cubic_cfg.radius(0.01)
    x = np.array([[1e300, 1e300], [3e200, -4e200], [0.3, 0.4], [2.0, 0.0]])
    with np.errstate(over="ignore"):        # the squared norm overflows on the way
        p = tm.project(cubic_cfg, 0.01, x)
        one = tm.project(cubic_cfg, 0.01, x[0])
    assert p[0] == pytest.approx([r / math.sqrt(2.0)] * 2, rel=1e-15)
    assert p[1] == pytest.approx([0.6 * r, -0.8 * r], rel=1e-15)
    assert np.all(row_norm(p) <= r) and row_norm(p[:2]) == pytest.approx([r, r], rel=1e-15)
    assert np.array_equal(one, p[0])
    # the rows whose squared norm is finite are projected as without them
    assert np.array_equal(p[2:], tm.project(cubic_cfg, 0.01, x[2:]))


def test_project_scalar_batch_matches_project(cubic_cfg):
    rng = np.random.default_rng(11)
    ys = rng.normal(scale=5.0, size=200)
    batch = project_scalar_batch(cubic_cfg, 0.01, ys)
    for y, b in zip(ys, batch):
        assert tm.project(cubic_cfg, 0.01, [y])[0] == b


def test_project_multidimensional_ball(cubic_cfg):
    rng = np.random.default_rng(12)
    r = cubic_cfg.radius(0.01)
    for _ in range(200):
        x = rng.normal(scale=3.0, size=3)
        p = tm.project(cubic_cfg, 0.01, x)
        assert np.linalg.norm(p) <= r
        p2 = tm.project(cubic_cfg, 0.01, p)
        assert np.array_equal(p, p2)
        if np.linalg.norm(x) >= r:
            assert np.linalg.norm(p) == pytest.approx(r, rel=1e-15)


def test_truncated_coeffs_inside_ball(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    z = project(cubic_cfg, 0.01, [[0.5]])
    mu, sigma, l_terms = coefficients(model, z)
    assert z[0, 0] == 0.5
    assert mu[0, 0] == model.drift(0.5)
    assert sigma[0, 0, 0] == 0.25
    assert l_terms[0, 0, 0, 0] == 2.0 * 0.5**3


def test_truncated_coeffs_outside_ball(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    r = cubic_cfg.radius(0.01)
    z = project(cubic_cfg, 0.01, [[10.0]])
    mu, sigma, _ = coefficients(model, z)
    assert z[0, 0] == pytest.approx(r)
    assert mu[0, 0] == model.drift(z[0, 0])
    assert sigma[0, 0, 0] == z[0, 0] ** 2


# ---------------------------------------------------------------------------
# step-size conditions


def test_old_threshold_strongly_damped(damped_cfg):
    got = old_condition_threshold(damped_cfg, q=1.0, p=42.0)
    expected = math.exp(-(410.0 / 17.0) * math.log(83.0))
    assert got == pytest.approx(expected, rel=1e-9)


def test_old_threshold_never_binds():
    # small omega coefficient makes the condition hold on all of (0, 1]
    cfg = tm.TruncationConfig(0.5, 3.0, 1.0, 0.1, 1.0)
    assert old_condition_threshold(cfg, q=1.0, p=42.0) == 1.0


def test_old_threshold_degenerate_exponent():
    # eps = rho q (1 - 2 eps) / (p - q) makes the condition delta-independent
    # with eps = 0.1, rho = 1, q = 1: p - q = 1 * (0.8 / 0.1) = 8, so p = 9
    holds = tm.TruncationConfig(0.5, 1.0, 1.0, 0.1, 1.0)
    fails = tm.TruncationConfig(2.0, 1.0, 1.0, 0.1, 1.0)
    assert old_condition_threshold(holds, q=1.0, p=9.0) == 1.0
    assert old_condition_threshold(fails, q=1.0, p=9.0) == 0.0


def test_old_threshold_validation(damped_cfg):
    with pytest.raises(ValueError):
        old_condition_threshold(damped_cfg, q=0.5, p=42.0)
    with pytest.raises(ValueError):
        old_condition_threshold(damped_cfg, q=2.0, p=1.0)


def test_new_error_bound_all_ones():
    cfg = tm.TruncationConfig(1.0, 3.0, 1.0, 0.1, 1.0)
    assert new_error_bound(cfg, q=1.0, p=42.0, r=4.0, delta=1.0) == 1.0


def test_new_error_bound_matches_direct_evaluation(damped_cfg):
    q, p, r = 1.0, 42.0, 4.0
    delta = 0.3
    h = damped_cfg.h(delta)
    rad = damped_cfg.radius(delta)
    direct = max(delta ** (2 * q) * h ** (4 * q), rad ** (-(2 * p - 2 * q * r - 2 * q)))
    assert new_error_bound(damped_cfg, q, p, r, delta) == pytest.approx(direct, rel=1e-12)


def test_new_error_bound_precondition(damped_cfg):
    with pytest.raises(ValueError, match="p >"):
        new_error_bound(damped_cfg, q=1.0, p=4.0, r=4.0, delta=0.5)


def test_dominant_rate_exact(damped_cfg):
    assert tm.dominant_rate(damped_cfg, q=1.0, p=42.0, r=4.0) == 1.6


def test_dominant_rate_other_branch():
    # small p makes the tail term (eps/rho)(2p - 2qr - 2q) the slower one
    cfg = tm.TruncationConfig(83.0, 3.0, 1.0, 0.1, 1.0)
    q, p, r = 1.0, 12.0, 4.0
    # exponents: 2q(1 - 2 eps) = 1.6 and (0.1/3)(24 - 8 - 2) = 7/15
    assert tm.dominant_rate(cfg, q, p, r) == pytest.approx(7.0 / 15.0, abs=1e-15)


# ---------------------------------------------------------------------------
# sampled probes


def test_coefficient_bound_margin_small_sample(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    rng = np.random.default_rng(5)
    pts = rng.normal(scale=100.0, size=(200, 1))
    assert coefficient_bound_margin(model, cubic_cfg, 0.01, pts) <= 0


def test_preservation_margin_with_fitted_lambda2(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    rng = np.random.default_rng(6)
    ball = rng.uniform(-1.0, 1.0, size=(500, 1)) * cubic_cfg.radius(0.01)
    lam2 = fit_lambda2(model, p_bar=2.0, points=ball)
    wide = rng.normal(scale=50.0, size=(500, 1))
    assert preservation_margin(model, cubic_cfg, 0.01, 2.0, lam2, wide) <= 0


def test_preservation_margin_evaluates_only_drift_and_diffusion():
    # a 2-d, 2-driver model without an analytic L-operator: the diffusion
    # matrix takes one call per driver and point, its L-operator would take
    # 2 m d more per point
    calls = []

    def col(x, j):
        calls.append(j)
        return _coupled_col(x, j)
    model = tm.SdeModel(d=2, m=2, drift=lambda x: -x - x**3, diffusion_col=col,
                        initial_value=np.array([1.0, 0.5]), polynomial_degree_r=2.0)
    cfg = tm.TruncationConfig(4.0, 3.0, 2.0, 0.2, 2.0)
    pts = np.random.default_rng(3).standard_normal((100, 2)) * 5.0
    preservation_margin(model, cfg, 0.01, 1.5, 0.7, pts)
    assert len(calls) == 200


def test_preservation_margin_ignores_the_l_operator(cubic_cfg):
    # the inequality has no L-operator term, so a non-finite one cannot fail it
    model = tm.builtin_model("cubic_quintic")
    broken = replace(model, l_op=lambda x, j1, j2: np.full_like(x, np.nan))
    pts = np.random.default_rng(4).normal(scale=5.0, size=(50, 1))
    margin = preservation_margin(broken, cubic_cfg, 0.01, 2.0, 1.0, pts)
    assert margin == preservation_margin(model, cubic_cfg, 0.01, 2.0, 1.0, pts)


@given(d=st.integers(1, 5), n=st.integers(1, 8), c=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_project_is_idempotent_and_non_expansive(d, n, c, seed):
    # omega(u) = c u and h(1) = 1 give the radius 1/c; points lie within a
    # factor 100 of the ball on either side, their partners near or far
    cfg = tm.TruncationConfig(c, 1.0, 1.0, 0.25, 1.0)
    r = cfg.radius(1.0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * r * 10.0 ** rng.uniform(-2, 2, (n, 1))
    y = x + rng.standard_normal((n, d)) * r * 10.0 ** rng.uniform(-8, 1, (n, 1))
    px, py = project(cfg, 1.0, x), project(cfg, 1.0, y)
    assert np.all(row_norm(px) <= r)
    assert np.array_equal(project(cfg, 1.0, px), px)
    # within the rounding of each projected coordinate, a few ulps of r
    dist = row_norm(x - y)
    assert np.all(row_norm(px - py) <= dist + 16 * np.finfo(float).eps * (r + dist))


def _per_point_probes(model, cfg, delta, p_bar, lambda2, points):
    """(coefficient_bound_margin, preservation_margin, fit_lambda2), one point at a time."""
    worst_bound, worst_pres, lam2 = -math.inf, -math.inf, 1e-6
    for x in points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = project(cfg, delta, x)
        mu = np.broadcast_to(np.asarray(model.drift(z), dtype=float), (model.d,))
        sig = sigma_matrix(model, z)
        blocks = [float(np.linalg.norm(mu))]
        blocks += [float(np.linalg.norm(sig[:, j])) for j in range(model.m)]
        blocks += [float(np.linalg.norm(eval_l_op(model, z, j1, j2)))
                   for j1 in range(1, model.m + 1) for j2 in range(1, model.m + 1)]
        worst_bound = max(worst_bound, max(blocks) - cfg.h(delta))
        lhs = float(np.dot(x, mu)) + (2.0 * p_bar - 1.0) * float(np.sum(sig ** 2))
        worst_pres = max(worst_pres, lhs - 2.0 * lambda2 * (1.0 + float(np.dot(x, x))))
        mu = np.broadcast_to(np.asarray(model.drift(x), dtype=float), (model.d,))
        lhs = float(np.dot(x, mu)) + (2.0 * p_bar - 1.0) * float(np.sum(sigma_matrix(model, x) ** 2))
        lam2 = max(lam2, lhs / (1.0 + float(np.dot(x, x))))
    return worst_bound, worst_pres, lam2


@pytest.mark.parametrize("delta", [0.01, 0.25])
def test_probes_match_per_point_reference_bitwise(delta, fd_models):
    def probes(model, cfg, pts):
        return (coefficient_bound_margin(model, cfg, delta, pts),
                preservation_margin(model, cfg, delta, 1.5, 0.7, pts),
                fit_lambda2(model, 1.5, pts))

    rng = np.random.default_rng(11)
    cases = [(tm.builtin_model(name), config_for(name)) for name in BUILTIN_MODEL_NAMES]
    cases += [(model, tm.TruncationConfig(4.0, 3.0, 2.0, 0.2, 2.0)) for model in fd_models]
    for model, cfg in cases:
        scale = cfg.radius(delta) * 10.0 ** rng.uniform(-2, 1, (60, 1))
        batch = rng.standard_normal((60, model.d)) * scale
        for pts in (batch, batch[:1]):
            assert probes(model, cfg, pts) == _per_point_probes(model, cfg, delta, 1.5, 0.7, pts)
    model, cfg = cases[0]
    pts = [0.3, -2.0, 7.5]      # a scalar model's points may be plain numbers
    assert probes(model, cfg, pts) == _per_point_probes(model, cfg, delta, 1.5, 0.7, pts)


def _dense_col(x, j):
    return np.array([0.3 * j * x[0] - x[1], x[1] * x[2] + 0.1 * j, np.sin(j * x[2]) + x[0]])


def test_probes_sum_a_dense_diffusion_matrix_in_one_points_order():
    # every entry of the 3 x 3 diffusion matrix is nonzero, so |sigma|^2
    # summed in another order than one point's rounds differently
    model = tm.SdeModel(d=3, m=3, drift=lambda x: -x - x**3, diffusion_col=_dense_col,
                        initial_value=np.array([0.5, -0.3, 0.8]), polynomial_degree_r=2.0)
    cfg = tm.TruncationConfig(4.0, 3.0, 2.0, 0.2, 2.0)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((100, 3)) * 10.0 ** rng.uniform(-2, 2, (100, 1)):
        got = (coefficient_bound_margin(model, cfg, 0.25, [x]),
               preservation_margin(model, cfg, 0.25, 1.5, 0.7, [x]), fit_lambda2(model, 1.5, [x]))
        assert got == _per_point_probes(model, cfg, 0.25, 1.5, 0.7, [x])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_project_recontracts_rows_that_round_above_radius(d):
    # x (r/|x|) rounds above r for some rows; the second contraction brings
    # every one of them back inside
    cfg = tm.TruncationConfig(1.0, 1.0, 1.7, 0.25, 1.7)
    r = cfg.radius(1.0)
    assert r == 1.7
    x = np.random.default_rng(d).standard_normal((400, d)) * 10.0
    once = x * (r / row_norm(x))[:, None]
    assert np.any(row_norm(once) > r)
    assert np.all(row_norm(project(cfg, 1.0, x)) <= r)
