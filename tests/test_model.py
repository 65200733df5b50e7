"""Model definitions, the diffusion operator, and the assumption falsifiers."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import truncmil as tm
from truncmil.model import (ProbeSpec, finite_difference_l_op, l_op_terms,
                            lipschitz_control_model, register_model, resolve_model,
                            scalar_l_op, sigma_matrix)


def test_builtin_names():
    assert tm.BUILTIN_MODEL_NAMES == ("cubic_quintic", "stable_quintic",
                                      "strongly_damped_cubic")
    for name in tm.BUILTIN_MODEL_NAMES:
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


def test_l_op_product_rule_at_one():
    # sigma(x) = x^2 gives sigma * sigma' = 2 x^3, so the value at x = 1 is 2
    model = tm.builtin_model("cubic_quintic")
    assert tm.eval_l_op(model, [1.0], 1, 1) == pytest.approx([2.0])


def test_l_op_constant_sigma_is_zero():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: -x,
                        diffusion_col=lambda x, j: np.full_like(np.asarray(x, dtype=float), 0.3),
                        initial_value=np.array([1.0]), polynomial_degree_r=0.0)
    assert tm.eval_l_op(model, [2.0], 1, 1) == pytest.approx([0.0], abs=1e-9)


def test_l_op_finite_difference_fallback():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: x,
                        diffusion_col=lambda x, j: x * x,
                        initial_value=np.array([1.0]), polynomial_degree_r=1.0)
    got = tm.eval_l_op(model, [0.5], 1, 1)
    assert got == pytest.approx([0.25], rel=1e-6)


def test_analytic_l_op_agrees_with_finite_difference():
    for name in tm.BUILTIN_MODEL_NAMES:
        model = tm.builtin_model(name)
        for x in np.linspace(-2.0, 2.0, 17):
            if abs(x) < 1e-3:
                continue
            analytic = tm.eval_l_op(model, [x], 1, 1)[0]
            fd = finite_difference_l_op(model, [x], 1, 1)[0]
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-9)


def test_l_op_terms_equal_per_pair_finite_differences(fd_models):
    for model in fd_models:
        for scale in (0.3, 1.0, -2.5):
            x = scale * model.initial_value + 0.1
            terms = l_op_terms(model, x, sigma_matrix(model, x))
            assert terms.shape == (model.m, model.m, model.d)
            for j1 in range(1, model.m + 1):
                for j2 in range(1, model.m + 1):
                    assert np.array_equal(terms[j1 - 1, j2 - 1],
                                          finite_difference_l_op(model, x, j1, j2))


def test_l_op_terms_equal_analytic_l_op(fd_models):
    # sigma_j = x_j^2 e_j gives L^{j1} sigma_{j2} = [j1 == j2] 2 x_j^3 e_j
    def l_op(x, j1, j2):
        out = np.zeros(2)
        if j1 == j2:
            out[j1 - 1] = 2.0 * x[j1 - 1] ** 3
        return out
    fd = fd_models[0]
    analytic = replace(fd, l_op=l_op)
    for x in (np.array([0.4, -1.3]), np.array([2.0, 0.7])):
        sig = sigma_matrix(analytic, x)
        terms = l_op_terms(analytic, x, sig)
        for j1 in (1, 2):
            for j2 in (1, 2):
                assert np.array_equal(terms[j1 - 1, j2 - 1], tm.eval_l_op(analytic, x, j1, j2))
        assert l_op_terms(fd, x, sig) == pytest.approx(terms, rel=1e-6, abs=1e-9)


def test_scalar_l_op_batches():
    model = tm.builtin_model("cubic_quintic")
    z = np.array([[0.5, -1.0], [2.0, 0.0]])
    assert scalar_l_op(model, z) == pytest.approx(2.0 * z**3)


def test_l_op_index_validation():
    model = tm.builtin_model("cubic_quintic")
    with pytest.raises(ValueError, match="driver indices"):
        tm.eval_l_op(model, [1.0], 0, 1)


def test_evaluation_error_carries_point():
    model = tm.SdeModel(d=1, m=1, drift=lambda x: x,
                        diffusion_col=lambda x, j: x / (x - x),   # NaN everywhere
                        initial_value=np.array([1.0]), polynomial_degree_r=1.0)
    with pytest.raises(tm.EvaluationError) as exc:
        sigma_matrix(model, [3.0])
    assert exc.value.x == pytest.approx([3.0])


def test_sigma_matrix_shape():
    model = tm.builtin_model("stable_quintic")
    sig = sigma_matrix(model, [2.0])
    assert sig.shape == (1, 1)
    assert sig[0, 0] == 4.0


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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.optimize would be most of the import time; only
    # the Halton falsifiers load scipy.stats, and nothing needs scipy.optimize
    code = ("import sys, truncmil\n"
            "for name in ('scipy.stats', 'scipy.optimize'):\n"
            "    assert name not in sys.modules, name + ' loaded'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
