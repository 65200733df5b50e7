"""Model definitions, the diffusion operator, and the assumption falsifiers."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import truncmil as tm
from conftest import lipschitz_control_model, sigma_matrix
from truncmil.model import (BUILTIN_MODEL_NAMES, EvaluationError, ProbeSpec, _halton_ball,
                            coefficients, eval_l_op, finite_difference_l_op, register_model,
                            resolve_model, scalar_l_op)


def test_builtin_names():
    assert BUILTIN_MODEL_NAMES == ("cubic_quintic", "stable_quintic",
                                   "strongly_damped_cubic")
    for name in BUILTIN_MODEL_NAMES:
        model = tm.builtin_model(name)
        assert model.name == name
        assert model.is_scalar
        assert model.polynomial_degree_r == 4.0
        assert model.initial_value[0] == 1.0


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        tm.builtin_model("nope")


def test_model_validation():
    with pytest.raises(ValueError):
        tm.SdeModel(d=0, m=1, drift=lambda x: x, diffusion_col=lambda x, j: x,
                    initial_value=np.array([]), polynomial_degree_r=1.0)
    with pytest.raises(ValueError):
        tm.SdeModel(d=1, m=1, drift=lambda x: x, diffusion_col=lambda x, j: x,
                    initial_value=np.array([1.0, 2.0]), polynomial_degree_r=1.0)
    with pytest.raises(ValueError):
        tm.SdeModel(d=1, m=1, drift=lambda x: x, diffusion_col=lambda x, j: x,
                    initial_value=np.array([1.0]), polynomial_degree_r=-1.0)


def test_k_function_validation():
    k = tm.KFunction(2.0, 2.0)
    assert k(3.0) == 18.0
    with pytest.raises(ValueError):
        tm.KFunction(-1.0, 2.0)
    with pytest.raises(ValueError):
        tm.KFunction(1.0, 0.5)
    for c, gamma in [(math.inf, 2.0), (math.nan, 2.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="must be .* finite"):
            tm.KFunction(c, gamma)


def test_l_op_product_rule_at_one():
    # sigma(x) = x^2 gives sigma * sigma' = 2 x^3, so the value at x = 1 is 2
    model = tm.builtin_model("cubic_quintic")
    assert eval_l_op(model, [1.0], 1, 1) == pytest.approx([2.0])


def test_l_op_constant_sigma_is_zero():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: -x,
                        diffusion_col=lambda x, j: np.full_like(np.asarray(x, dtype=float), 0.3),
                        initial_value=np.array([1.0]), polynomial_degree_r=0.0)
    assert eval_l_op(model, [2.0], 1, 1) == pytest.approx([0.0], abs=1e-9)


def test_l_op_finite_difference_fallback():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: x,
                        diffusion_col=lambda x, j: x * x,
                        initial_value=np.array([1.0]), polynomial_degree_r=1.0)
    got = eval_l_op(model, [0.5], 1, 1)
    assert got == pytest.approx([0.25], rel=1e-6)


def test_analytic_l_op_agrees_with_finite_difference():
    for name in BUILTIN_MODEL_NAMES:
        model = tm.builtin_model(name)
        for x in np.linspace(-2.0, 2.0, 17):
            if abs(x) < 1e-3:
                continue
            analytic = eval_l_op(model, [x], 1, 1)[0]
            fd = finite_difference_l_op(model, [x], 1, 1)[0]
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-9)


def test_coefficient_l_terms_equal_per_pair_finite_differences(fd_models):
    for model in fd_models:
        for scale in (0.3, 1.0, -2.5):
            x = scale * model.initial_value + 0.1
            terms = coefficients(model, x[None])[2][0]
            assert terms.shape == (model.m, model.m, model.d)
            for j1 in range(1, model.m + 1):
                for j2 in range(1, model.m + 1):
                    assert np.array_equal(terms[j1 - 1, j2 - 1],
                                          finite_difference_l_op(model, x, j1, j2))


def test_coefficient_l_terms_equal_analytic_l_op(fd_models):
    # sigma_j = x_j^2 e_j gives L^{j1} sigma_{j2} = [j1 == j2] 2 x_j^3 e_j
    def l_op(x, j1, j2):
        out = np.zeros(2)
        if j1 == j2:
            out[j1 - 1] = 2.0 * x[j1 - 1] ** 3
        return out
    fd = fd_models[0]
    analytic = replace(fd, l_op=l_op)
    for x in (np.array([0.4, -1.3]), np.array([2.0, 0.7])):
        terms = coefficients(analytic, x[None])[2][0]
        for j1 in (1, 2):
            for j2 in (1, 2):
                assert np.array_equal(terms[j1 - 1, j2 - 1], eval_l_op(analytic, x, j1, j2))
        assert coefficients(fd, x[None])[2][0] == pytest.approx(terms, rel=1e-6, abs=1e-9)


def test_scalar_l_op_batches():
    model = tm.builtin_model("cubic_quintic")
    z = np.array([[0.5, -1.0], [2.0, 0.0]])
    assert scalar_l_op(model, z) == pytest.approx(2.0 * z**3)


def test_scalar_l_op_finite_difference_equals_eval_l_op_bitwise():
    # a scalar model without an analytic L-operator: each value is the
    # one-point central difference, sign bits included
    model = tm.SdeModel(d=1, m=1, drift=lambda x: -x,
                        diffusion_col=lambda x, j: np.sin(x) + 0.5 * x * x,
                        initial_value=np.array([1.0]), polynomial_degree_r=2.0)
    scales = 10.0 ** np.arange(-8, 4)
    z = np.concatenate([scales, -scales, 0.3 * scales, [0.0, -0.0, 1e-6, -1e-6]])
    want = np.array([eval_l_op(model, [v], 1, 1)[0] for v in z])
    for shape in ((len(z),), (len(z), 1)):
        got = scalar_l_op(model, z.reshape(shape))
        assert got.shape == shape
        assert np.array_equal(got.ravel(), want)
        assert np.array_equal(np.signbit(got.ravel()), np.signbit(want))


def test_l_op_index_validation():
    model = tm.builtin_model("cubic_quintic")
    with pytest.raises(ValueError, match="driver indices"):
        eval_l_op(model, [1.0], 0, 1)


def test_evaluation_error_carries_point():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: x,
                        diffusion_col=lambda x, j: x / (x - x),   # NaN everywhere
                        initial_value=np.array([1.0]), polynomial_degree_r=1.0)
    with pytest.raises(EvaluationError) as exc:
        sigma_matrix(model, [3.0])
    assert exc.value.x == pytest.approx([3.0])


def test_sigma_matrix_shape():
    model = tm.builtin_model("stable_quintic")
    sig = sigma_matrix(model, [2.0])
    assert sig.shape == (1, 1)
    assert sig[0, 0] == 4.0


def _mixed_col(x, j):
    # a number, a (1,) array or a (2,) array, depending on the point
    if x[0] > 0:
        return float(j * x[1])
    return np.array([x[1] - j]) if x[1] > 0 else np.array([x[0], j * x[1]])


def test_sigma_matrix_broadcasts_each_value_on_its_own():
    model = tm.SdeModel(d=2, m=2, drift=lambda x: -x, diffusion_col=_mixed_col,
                        initial_value=np.array([0.5, 0.5]), polynomial_degree_r=1.0)
    pts = np.array([[0.5, 0.25], [-0.5, 0.75], [-0.5, -0.25], [0.1, -2.0]])
    want = [np.stack([np.broadcast_to(_mixed_col(x, j), (2,)) for j in (1, 2)], axis=1)
            for x in pts]
    assert np.array_equal(sigma_matrix(model, pts), want)


def test_resolve_and_register():
    assert resolve_model("cubic_quintic").name == "cubic_quintic"
    assert resolve_model("lipschitz_control").name == "lipschitz_control"
    custom = tm.SdeModel(d=1, m=1, drift=lambda x: -x, diffusion_col=lambda x, j: 0.0 * x,
                         initial_value=np.array([0.5]), polynomial_degree_r=0.0,
                         name="registered_test_model")
    register_model(custom)
    assert resolve_model("registered_test_model") is custom
    with pytest.raises(ValueError, match="unknown model"):
        resolve_model("never_registered")


def test_lipschitz_control_model():
    model = lipschitz_control_model()
    assert model.drift(2.0) == -2.0
    assert model.diffusion_col(2.0, 1) == pytest.approx(0.2)
    assert model.polynomial_degree_r == 0.0


# ---------------------------------------------------------------------------
# assumption falsifiers


def test_poly_lipschitz_no_violation():
    model = tm.builtin_model("cubic_quintic")
    spec = ProbeSpec(n_points=300, radius=2.0, constants={"K1": 100.0})
    rep = tm.check_assumption(model, tm.Assumption.A2_1_polyLipschitz, spec)
    assert rep.sampled_points == 300
    assert rep.worst_margin <= 0
    assert not rep.violated
    assert rep.constants_used["K1"] == 100.0


def test_poly_lipschitz_detects_violation_with_tiny_constant():
    model = tm.builtin_model("cubic_quintic")
    spec = ProbeSpec(n_points=300, radius=2.0, constants={"K1": 1e-4})
    rep = tm.check_assumption(model, tm.Assumption.A2_1_polyLipschitz, spec)
    assert rep.violated


def test_khasminskii_margin():
    model = tm.builtin_model("cubic_quintic")
    spec = ProbeSpec(n_points=300, radius=2.0, p_bar=2.0, constants={"K2": 60.0})
    rep = tm.check_assumption(model, tm.Assumption.A2_2_khasminskii, spec)
    assert rep.worst_margin <= 0


def test_dissipativity_stable_quintic():
    model = tm.builtin_model("stable_quintic")
    spec = ProbeSpec(n_points=400, radius=3.0, k_fn=tm.KFunction(2.0, 2.0))
    rep = tm.check_assumption(model, tm.Assumption.A4_1_dissipative, spec)
    assert rep.worst_margin <= 0


def test_milstein_dissipativity_needs_delta():
    model = tm.builtin_model("stable_quintic")
    spec = ProbeSpec(n_points=50, radius=2.0, k_fn=tm.KFunction(2.0, 2.0))
    with pytest.raises(ValueError, match="delta"):
        tm.check_assumption(model, tm.Assumption.Eq4_2_milsteinDissipative, spec)
    spec = ProbeSpec(n_points=50, radius=2.0, k_fn=tm.KFunction(2.0, 2.0),
                     constants={"delta": 0.04})
    rep = tm.check_assumption(model, tm.Assumption.Eq4_2_milsteinDissipative, spec)
    assert rep.worst_margin <= 0


def test_ratio_bounded_near_zero():
    model = tm.builtin_model("stable_quintic")
    spec = ProbeSpec(n_points=200, radius=1.0, k_fn=tm.KFunction(2.0, 2.0),
                     constants={"cap": 1e12})
    rep = tm.check_assumption(model, tm.Assumption.Eq4_3_ratioBounded, spec)
    assert rep.worst_margin <= 0


def test_dissipativity_requires_k_function():
    model = tm.builtin_model("stable_quintic")
    with pytest.raises(ValueError, match="k-function"):
        tm.check_assumption(model, tm.Assumption.A4_1_dissipative, ProbeSpec(n_points=10))


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(n_points=0)
    with pytest.raises(ValueError):
        ProbeSpec(radius=-1.0)
    with pytest.raises(ValueError, match="probe_radius = inf"):
        ProbeSpec(radius=math.inf)
    # a NaN margin reads as no violation, so a NaN constant is refused up front
    for kwargs, name in [({"p_bar": math.nan}, "p_bar"), ({"p_bar": -math.inf}, "p_bar"),
                         ({"constants": {"K1": math.nan}}, "K1"),
                         ({"constants": {"K2": 1.0, "cap": math.inf}}, "cap")]:
        with pytest.raises(ValueError, match=f"{name} = .*: not a finite number"):
            ProbeSpec(**kwargs)


def test_import_leaves_the_heavy_scipy_and_numpy_modules_unloaded():
    # scipy.stats and scipy.optimize would be most of the import time; only
    # the Halton falsifiers load scipy.stats, and nothing needs scipy.optimize.
    # brownian loads ndtri without scipy.special's init, which would pull in
    # numpy.f2py, numpy.testing and numpy.ma
    code = ("import sys, truncmil\n"
            "from truncmil import cli\n"
            "for name in ('scipy.stats', 'scipy.optimize', 'scipy.special', 'numpy.f2py',\n"
            "             'numpy.testing', 'numpy.ma'):\n"
            "    assert name not in sys.modules, name + ' loaded'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the batched falsifiers against their one-point-at-a-time forms


def _per_point_derivs(fn, x, d):
    delta = np.fmax(1e-6, 1e-6 * np.linalg.norm(x))
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    f0 = fn(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = delta
        grad[i] = (fn(x + ei) - fn(x - ei)) / (2.0 * delta)
        hess[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / delta**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = delta
            v = (fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)) / (4.0 * delta**2)
            hess[i, j] = hess[j, i] = v
    return float(np.linalg.norm(grad)), float(np.linalg.norm(hess))


def _per_point_check(model, assumption, spec):
    """(sampled_points, worst_margin), evaluating every coefficient one point at a time."""
    c = dict(spec.constants)
    r = float(c.get("r", model.polynomial_degree_r))
    d, m = model.d, model.m
    driver_pairs = list(product(range(1, m + 1), repeat=2))

    def drift(x):
        return np.atleast_1d(np.asarray(model.drift(x), dtype=float))

    margins = []
    if assumption in (tm.Assumption.A2_1_polyLipschitz, tm.Assumption.A2_2_khasminskii):
        pairs = _halton_ball(2 * d, spec.n_points, 1.0)
        for x, y in zip(spec.radius * pairs[:, :d], spec.radius * pairs[:, d:]):
            sx, sy = sigma_matrix(model, x), sigma_matrix(model, y)
            dsig = np.linalg.norm(sx - sy)
            if assumption is tm.Assumption.A2_1_polyLipschitz:
                lx = [eval_l_op(model, x, j1, j2) for j1, j2 in driver_pairs]
                ly = [eval_l_op(model, y, j1, j2) for j1, j2 in driver_pairs]
                dl = max(float(np.linalg.norm(a - b)) for a, b in zip(lx, ly))
                lhs = max(np.linalg.norm(drift(x) - drift(y)), dsig, dl)
                rhs = (c.get("K1", 100.0) * (1.0 + np.linalg.norm(x) ** r + np.linalg.norm(y) ** r)
                       * np.linalg.norm(x - y))
                margins.append(lhs - rhs)
            else:
                inner = float(np.dot(x - y, drift(x) - drift(y)))
                lhs = inner + (2.0 * spec.p_bar - 1.0) * dsig**2
                margins.append(lhs - c.get("K2", 0.0) * float(np.dot(x - y, x - y)))
    elif assumption is tm.Assumption.A2_3_derivGrowth:
        for x in _halton_ball(d, spec.n_points, spec.radius):
            worst = 0.0
            for l in range(d):
                g, h = _per_point_derivs(lambda v, l=l: float(drift(v)[l]), x, d)
                worst = max(worst, g, h)
            for j in range(1, m + 1):
                for l in range(d):
                    g, h = _per_point_derivs(
                        lambda v, j=j, l=l: float(np.broadcast_to(
                            np.asarray(model.diffusion_col(v, j), dtype=float), (d,))[l]), x, d)
                    worst = max(worst, g, h)
            margins.append(worst - c.get("lambda3", 100.0) * (1.0 + np.linalg.norm(x) ** (r + 1.0)))
    elif assumption in (tm.Assumption.A4_1_dissipative, tm.Assumption.Eq4_2_milsteinDissipative):
        for x in _halton_ball(d, spec.n_points, spec.radius):
            sig = sigma_matrix(model, x)
            lhs = 2.0 * float(np.dot(x, drift(x))) + float(np.sum(sig ** 2))
            if assumption is tm.Assumption.Eq4_2_milsteinDissipative:
                l_sum = np.zeros(d)
                for j1, j2 in driver_pairs:
                    l_sum += eval_l_op(model, x, j1, j2)
                lhs += 0.5 * float(np.dot(l_sum, l_sum)) * c["delta"]
            margins.append(lhs + float(spec.k_fn(np.linalg.norm(x))))
    else:
        dirs = _halton_ball(d, max(8, 2 * d), 1.0)
        dirs = dirs[np.linalg.norm(dirs, axis=1) > 0]
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        for u in np.logspace(-9, 0, spec.n_points) * spec.radius:
            for e in dirs:
                mu = drift(u * e)
                margins.append(float(np.dot(mu, mu)) / float(spec.k_fn(u)) - c.get("cap", 1e12))
    return len(margins), float(np.max(margins))


_CHECK_CONSTANTS = {"K1": 3.0, "K2": 1.5, "lambda3": 20.0, "delta": 0.3, "cap": 10.0}


# single points at many radii, where a one-ulp difference in any term shows,
# and one larger batch
_PROBES = [(1, radius, tm.KFunction(0.5, 3.0)) for radius in np.linspace(0.35, 2.5, 24)]
_PROBES += [(40, 2.0, tm.KFunction(2.0, 2.0))]


@pytest.mark.parametrize("assumption", list(tm.Assumption))
def test_falsifiers_match_per_point_reference_bitwise(assumption, fd_models):
    models = [tm.builtin_model(name) for name in BUILTIN_MODEL_NAMES]
    models += [lipschitz_control_model(), *fd_models]
    for model in models:
        for n_points, radius, k_fn in _PROBES:
            spec = ProbeSpec(n_points=n_points, radius=radius, p_bar=1.5, k_fn=k_fn,
                             constants=_CHECK_CONSTANTS)
            rep = tm.check_assumption(model, assumption, spec)
            assert (rep.sampled_points, rep.worst_margin) == _per_point_check(model, assumption, spec)
