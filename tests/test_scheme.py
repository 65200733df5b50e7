"""Steppers, trajectories, blow-up handling and the vectorised ensemble path."""

import numpy as np
import pytest

import truncmil as tm
from truncmil.truncation import truncated_coeffs


def _geometric_like_model():
    # mu = 0, sigma(x) = x, so L sigma = x: the textbook scalar Milstein case
    return tm.SdeModel(d=1, m=1, drift=lambda x: 0.0 * x,
                       diffusion_col=lambda x, j: x,
                       l_op=lambda x, j1, j2: np.asarray(x, dtype=float),
                       initial_value=np.array([1.0]), polynomial_degree_r=1.0)


def test_textbook_milstein_step(wide_cfg):
    model = _geometric_like_model()
    delta, b = 0.01, 0.3
    got = tm.step(tm.SchemeId.truncated_milstein, model, wide_cfg, delta, [1.0], [b])
    assert got[0] == pytest.approx(1.0 + b + 0.5 * (b * b - delta), rel=1e-15)


def test_zero_noise_step(wide_cfg):
    model = tm.builtin_model("cubic_quintic")
    delta = 0.01
    y = 0.7
    got = tm.step(tm.SchemeId.truncated_milstein, model, wide_cfg, delta, [y], [0.0])
    expected = y + model.drift(y) * delta - 0.5 * delta * 2.0 * y**3
    assert got[0] == pytest.approx(expected, rel=1e-14)
    em = tm.step(tm.SchemeId.truncated_em, model, wide_cfg, delta, [y], [0.0])
    assert em[0] == pytest.approx(y + model.drift(y) * delta, rel=1e-14)


def test_classical_equals_truncated_inside_ball(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    delta = 0.01
    r = cubic_cfg.radius(delta)
    rng = np.random.default_rng(21)
    ys = rng.uniform(-r, r, size=500)
    dbs = rng.normal(scale=np.sqrt(delta), size=500)
    for y, db in zip(ys, dbs):
        a = tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, delta, [y], [db])
        b = tm.step(tm.SchemeId.classical_milstein, model, cubic_cfg, delta, [y], [db])
        assert a[0] == b[0]
        c = tm.step(tm.SchemeId.truncated_em, model, cubic_cfg, delta, [y], [db])
        d = tm.step(tm.SchemeId.classical_em, model, cubic_cfg, delta, [y], [db])
        assert c[0] == d[0]


def test_step_outside_ball_uses_projected_coefficients(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    delta, y, db = 0.01, 10.0, 0.05
    tc = truncated_coeffs(model, cubic_cfg, delta, [y])
    expected = (y + tc.mu[0] * delta + tc.sigma[0, 0] * db
                + 0.5 * tc.l_terms[0, 0, 0] * (db * db - delta))
    got = tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, delta, [y], [db])
    assert got[0] == pytest.approx(expected, rel=1e-15)


def test_step_validation(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    with pytest.raises(ValueError):
        tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, 2.0, [1.0], [0.0])
    with pytest.raises(ValueError, match="increments"):
        tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, 0.1, [1.0], [0.0, 0.0])


def test_general_step_matches_scalar_on_product_model(cubic_cfg):
    # two independent copies of the scalar problem driven by separate noises
    scalar = tm.builtin_model("cubic_quintic")

    def drift(x):
        return np.array([scalar.drift(x[0]), scalar.drift(x[1])])

    def diffusion_col(x, j):
        out = np.zeros(2)
        out[j - 1] = x[j - 1] ** 2
        return out

    pair = tm.SdeModel(d=2, m=2, drift=drift, diffusion_col=diffusion_col,
                       initial_value=np.array([0.4, -0.6]), polynomial_degree_r=4.0)
    wide = tm.TruncationConfig(1.0, 1.0, 1e6, 0.1, 1e6)
    delta = 0.01
    db = np.array([0.07, -0.02])
    got = tm.step(tm.SchemeId.truncated_milstein, pair, wide, delta, [0.4, -0.6], db)
    for i, (y, b) in enumerate(zip([0.4, -0.6], db)):
        want = tm.step(tm.SchemeId.truncated_milstein, scalar, wide, delta, [y], [b])
        assert got[i] == pytest.approx(want[0], rel=1e-12)


def test_simulate_constant_for_zero_coefficients(wide_cfg):
    model = tm.SdeModel(d=1, m=1, drift=lambda x: 0.0 * x,
                        diffusion_col=lambda x, j: 0.0 * x,
                        l_op=lambda x, j1, j2: 0.0 * np.asarray(x, dtype=float),
                        initial_value=np.array([2.5]), polynomial_degree_r=0.0)
    grid = tm.generate(1, 0, 1, 1.0, 32)
    traj = tm.simulate(tm.SchemeId.truncated_milstein, model, wide_cfg, grid)
    assert np.all(traj.states == 2.5)
    assert not traj.blew_up
    assert traj.times[-1] == pytest.approx(1.0)


def test_simulate_one_step_equals_step(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    grid = tm.generate(4, 0, 1, 0.5, 1)
    traj = tm.simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid)
    manual = tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, 0.5,
                     model.initial_value, grid.increments[0])
    assert traj.states[1, 0] == manual[0]


def test_simulate_repeatable(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    grid = tm.generate(10, 3, 1, 1.0, 128)
    a = tm.simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid, coarsen_factor=4)
    b = tm.simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid, coarsen_factor=4)
    assert np.array_equal(a.states, b.states)
    assert a.delta == pytest.approx(4.0 / 128)


def test_classical_em_blowup_flagged(cubic_cfg):
    from dataclasses import replace
    model = replace(tm.builtin_model("cubic_quintic"), initial_value=np.array([2.0]))
    grid = tm.generate(0, 1, 1, 8.0, 32)    # step 0.25
    traj = tm.simulate(tm.SchemeId.classical_em, model, cubic_cfg, grid)
    assert traj.blew_up
    assert np.all(np.isfinite(traj.states))      # cut, not NaN-propagated
    assert len(traj.states) < 33


def _diagonal_quintic_2d():
    # each coordinate follows the cubic_quintic drift with its own driver
    def diffusion_col(x, j):
        col = np.zeros(2)
        col[j - 1] = x[j - 1] ** 2
        return col
    return tm.SdeModel(d=2, m=2, drift=lambda x: x**3 - 4.0 * x**5,
                       diffusion_col=diffusion_col, initial_value=np.array([2.0, 2.0]),
                       polynomial_degree_r=4.0)


@pytest.mark.parametrize("scheme", ["classical_em", "classical_milstein"])
def test_classical_blowup_flagged_for_vector_model(cubic_cfg, scheme):
    # the finite-difference L-operator overflows before the state does; that
    # is the same blow-up, so it is flagged rather than raised
    grid = tm.generate(0, 1, 2, 8.0, 32)    # step 0.25
    traj = tm.simulate(scheme, _diagonal_quintic_2d(), cubic_cfg, grid)
    assert traj.blew_up
    assert np.all(np.isfinite(traj.states))
    assert len(traj.states) < 33


def test_truncated_milstein_never_blows_up(cubic_cfg, damped_cfg, quintic_cfg):
    configs = {"cubic_quintic": cubic_cfg, "strongly_damped_cubic": damped_cfg,
               "stable_quintic": quintic_cfg}
    from truncmil.brownian import generate_batch
    for name, cfg in configs.items():
        model = tm.builtin_model(name)
        inc = generate_batch(2, range(1000), 1, 1.0, 100)[:, :, 0]
        res = tm.simulate_scalar_ensemble(tm.SchemeId.truncated_milstein, model, cfg,
                                          inc, 0.01, 1.0)
        assert np.all(res.alive)
        assert np.all(np.isfinite(res.finals))


def test_ensemble_matches_per_path_bitwise(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    from truncmil.brownian import generate_batch
    inc = generate_batch(6, range(16), 1, 1.0, 64)[:, :, 0]
    res = tm.simulate_scalar_ensemble(tm.SchemeId.truncated_milstein, model, cubic_cfg,
                                      inc, 1.0 / 64, 1.0, record=True)
    for p in range(16):
        grid = tm.generate(6, p, 1, 1.0, 64)
        traj = tm.simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid)
        assert res.finals[p] == traj.terminal[0]
        assert np.array_equal(res.states[p], traj.states[:, 0])


def test_ensemble_blowup_bookkeeping(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    from truncmil.brownian import generate_batch
    inc = generate_batch(0, range(50), 1, 8.0, 32)[:, :, 0]
    res = tm.simulate_scalar_ensemble(tm.SchemeId.classical_em, model, cubic_cfg,
                                      inc, 0.25, 2.0)
    assert res.blowup_fraction > 0.5
    dead = ~res.alive
    assert np.all(np.isnan(res.finals[dead]))
    assert np.all(res.blowup_step[dead] >= 0)
    assert np.all(res.blowup_step[res.alive] == -1)


def test_ensemble_rejects_vector_model(cubic_cfg):
    model = tm.SdeModel(d=2, m=1, drift=lambda x: -x,
                        diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.array([1.0, 1.0]), polynomial_degree_r=0.0)
    with pytest.raises(ValueError, match="scalar"):
        tm.simulate_scalar_ensemble(tm.SchemeId.truncated_em, model, cubic_cfg,
                                    np.zeros((2, 4)), 0.1, 1.0)

