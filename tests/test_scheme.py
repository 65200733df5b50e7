"""Steppers, trajectories, blow-up handling and the vectorised ensemble path."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncmil as tm
from conftest import config_for, make_fd_models, total_increment
from truncmil import scheme as scheme_module
from truncmil.brownian import block_sums, coarsen, generate_batch
from truncmil.model import EvaluationError, coefficients, eval_l_op, row_norm, scalar_l_op
from truncmil.scheme import _general_step, _simulate_batch, simulate
from truncmil.truncation import project


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
    mu, sigma, l_terms = coefficients(model, project(cubic_cfg, delta, [[y]]))
    expected = (y + mu[0, 0] * delta + sigma[0, 0, 0] * db
                + 0.5 * l_terms[0, 0, 0, 0] * (db * db - delta))
    got = tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, delta, [y], [db])
    assert got[0] == pytest.approx(expected, rel=1e-15)


def test_step_validation(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    with pytest.raises(ValueError):
        tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, 2.0, [1.0], [0.0])
    with pytest.raises(ValueError, match="increments"):
        tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, 0.1, [1.0], [0.0, 0.0])
    # one state of shape (d,), refused before any coefficient call
    calls = []

    def diffusion_col(x, j):
        calls.append(x)
        return np.array([x[0] * x[1], x[j - 1]])

    pair = tm.SdeModel(d=2, m=2, drift=lambda x: -x, diffusion_col=diffusion_col,
                       initial_value=np.array([0.3, -0.2]), polynomial_degree_r=2.0)
    for mdl, y in [(model, [1.0, 0.5]), (pair, [[1.0, 0.5]]), (pair, [1.0, 0.5, 0.2]),
                   (pair, 1.0)]:
        with pytest.raises(ValueError, match=rf"state of shape \({mdl.d},\), got shape"):
            tm.step(tm.SchemeId.truncated_milstein, mdl, cubic_cfg, 0.1, y, np.zeros(mdl.m))
    assert calls == []


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
    traj = simulate(tm.SchemeId.truncated_milstein, model, wide_cfg, grid)
    assert np.all(traj.states == 2.5)
    assert not traj.blew_up
    assert traj.times[-1] == pytest.approx(1.0)


def test_simulate_one_step_equals_step(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    grid = tm.generate(4, 0, 1, 0.5, 1)
    traj = simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid)
    manual = tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, 0.5,
                     model.initial_value, grid.increments[0])
    assert traj.states[1, 0] == manual[0]


def test_simulate_repeatable(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    grid = tm.generate(10, 3, 1, 1.0, 128)
    a = simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid, coarsen_factor=4)
    b = simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid, coarsen_factor=4)
    assert np.array_equal(a.states, b.states)
    assert a.delta == pytest.approx(4.0 / 128)


def test_classical_em_blowup_flagged(cubic_cfg):
    from dataclasses import replace
    model = replace(tm.builtin_model("cubic_quintic"), initial_value=np.array([2.0]))
    grid = tm.generate(0, 1, 1, 8.0, 32)    # step 0.25
    traj = simulate(tm.SchemeId.classical_em, model, cubic_cfg, grid)
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
    traj = simulate(scheme, _diagonal_quintic_2d(), cubic_cfg, grid)
    assert traj.blew_up
    assert np.all(np.isfinite(traj.states))
    assert len(traj.states) < 33


def test_truncated_milstein_never_blows_up(cubic_cfg, damped_cfg, quintic_cfg):
    configs = {"cubic_quintic": cubic_cfg, "strongly_damped_cubic": damped_cfg,
               "stable_quintic": quintic_cfg}
    from truncmil.brownian import generate_batch
    for name, cfg in configs.items():
        model = tm.builtin_model(name)
        inc = generate_batch(2, range(1000), 1, 1.0, 100)
        res = _simulate_batch(tm.SchemeId.truncated_milstein, model, cfg, inc, 0.01, 1.0)
        assert np.all(res.alive)
        assert np.all(np.isfinite(res.finals))


def test_ensemble_matches_per_path_bitwise(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    from truncmil.brownian import generate_batch
    inc = generate_batch(6, range(16), 1, 1.0, 64)
    res = _simulate_batch(tm.SchemeId.truncated_milstein, model, cubic_cfg, inc, 1.0 / 64, 1.0,
                          record=True)
    for p in range(16):
        grid = tm.generate(6, p, 1, 1.0, 64)
        traj = simulate(tm.SchemeId.truncated_milstein, model, cubic_cfg, grid)
        assert res.finals[p, 0] == traj.terminal[0]
        assert np.array_equal(res.states[p, :, 0], traj.states[:, 0])


def _reference_scalar_step(scheme, model, cfg, delta, y, dB):
    # one fresh array per operation, projecting with where/copysign
    if scheme.truncates:
        r = cfg.radius(delta)
        z = np.where(np.abs(y) <= r, y, np.copysign(r, y))
    else:
        z = y
    mu = np.asarray(model.drift(z), dtype=float)
    sig = np.asarray(model.diffusion_col(z, 1), dtype=float)
    incr = mu * delta + sig * dB
    if scheme.has_milstein_term:
        incr = incr + 0.5 * scalar_l_op(model, z) * (dB * dB - delta)
    return y + incr


def _reference_ensemble(scheme, model, cfg, increments, delta, x0):
    # blow-up bookkeeping on every step; dead paths restart from 0 each step
    scheme = tm.SchemeId(scheme)
    n_paths, n_steps = increments.shape
    y = np.full(n_paths, float(x0))
    alive = np.ones(n_paths, dtype=bool)
    blowup_step = np.full(n_paths, -1, dtype=np.int64)
    states = np.empty((n_paths, n_steps + 1))
    states[:, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            yn = _reference_scalar_step(scheme, model, cfg, delta, y, increments[:, k])
            bad = alive & ~np.isfinite(yn)
            blowup_step[bad] = k
            alive &= ~bad
            y = np.where(alive, yn, 0.0)
            states[:, k + 1] = np.where(alive, yn, np.nan)
    return np.where(alive, y, np.nan), alive, blowup_step, states


def _assert_matches_reference(res, ref, record):
    finals, alive, blowup_step, states = ref
    assert np.array_equal(res.finals[:, 0], finals, equal_nan=True)
    assert np.array_equal(res.alive, alive)
    assert np.array_equal(res.blowup_step, blowup_step)
    if record:
        assert np.array_equal(res.states[..., 0], states, equal_nan=True)
    else:
        assert res.states is None


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("scheme", list(tm.SchemeId))
def test_ensemble_matches_reference_loop_bitwise(cubic_cfg, scheme, record):
    model = tm.builtin_model("cubic_quintic")
    from truncmil.brownian import generate_batch
    inc = generate_batch(6, range(40), 1, 1.0, 64)[:, :, 0]
    ref = _reference_ensemble(scheme, model, cubic_cfg, inc, 1.0 / 64, 1.0)
    # step-major increments, as drawn, and a path-major copy
    for layout in (inc, np.ascontiguousarray(inc)):
        res = _simulate_batch(scheme, model, cubic_cfg, layout[:, :, None], 1.0 / 64, 1.0,
                              record=record)
        _assert_matches_reference(res, ref, record)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("scheme,x0", [("classical_em", 2.0), ("classical_em", 0.8),
                                       ("classical_milstein", 1.0)])
def test_ensemble_blowup_matches_reference_loop_bitwise(cubic_cfg, scheme, x0, record):
    # step 0.25: every path dies at step 4 from x0 = 2; from smaller x0 some
    # paths die, at different steps, and the others survive
    model = tm.builtin_model("cubic_quintic")
    from truncmil.brownian import generate_batch
    inc = generate_batch(0, range(64), 1, 8.0, 32)[:, :, 0]
    ref = _reference_ensemble(scheme, model, cubic_cfg, inc, 0.25, x0)
    dead = ~ref[1]
    assert np.any(dead) and np.all(ref[2][dead] > 0)
    assert x0 == 2.0 or (np.any(~dead) and len(np.unique(ref[2][dead])) > 1)
    res = _simulate_batch(scheme, model, cubic_cfg, inc[:, :, None], 0.25, x0, record=record)
    _assert_matches_reference(res, ref, record)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("l_op", [None, lambda x, j1, j2: 0.2])
@pytest.mark.parametrize("scheme", list(tm.SchemeId))
def test_constant_coefficients_step_alike_everywhere(cubic_cfg, scheme, l_op, record):
    # coefficients that return Python floats must broadcast over every batch
    # shape: step, simulate and the scalar ensemble all give the reference
    model = tm.SdeModel(d=1, m=1, drift=lambda x: -0.5, diffusion_col=lambda x, j: 0.3,
                        l_op=l_op, initial_value=np.array([1.5]), polynomial_degree_r=0.0)
    inc = generate_batch(3, range(8), 1, 1.0, 16)[:, :, 0]
    ref = _reference_ensemble(scheme, model, cubic_cfg, inc, 1.0 / 16, 1.5)
    res = _simulate_batch(scheme, model, cubic_cfg, inc[:, :, None], 1.0 / 16, 1.5,
                          record=record)
    _assert_matches_reference(res, ref, record)
    for p in range(8):
        grid = tm.generate(3, p, 1, 1.0, 16)
        assert np.array_equal(simulate(scheme, model, cubic_cfg, grid).states[:, 0], ref[3][p])
        y = model.initial_value
        for k, dB in enumerate(grid.increments):
            y = tm.step(scheme, model, cubic_cfg, 1.0 / 16, y, dB)
            assert y.shape == (1,) and y[0] == ref[3][p, k + 1]


def test_ensemble_blowup_bookkeeping(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    from truncmil.brownian import generate_batch
    inc = generate_batch(0, range(50), 1, 8.0, 32)
    res = _simulate_batch(tm.SchemeId.classical_em, model, cubic_cfg, inc, 0.25, 2.0)
    assert res.blowup_fraction > 0.5
    dead = ~res.alive
    assert np.all(np.isnan(res.finals[dead]))
    assert np.all(res.blowup_step[dead] >= 0)
    assert np.all(res.blowup_step[res.alive] == -1)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("scheme", list(tm.SchemeId))
def test_driver_with_a_step_per_path_equals_one_run_per_group(cubic_cfg, scheme, record):
    # groups of paths with their own step and start, stacked in one batch; at
    # step 0.25 a classical group dies mid-run (every path at step 4 from
    # x0 = 2), so the later steps run on the other groups' rows alone
    model = tm.builtin_model("cubic_quintic")
    groups = [(1.0 / 64, 1.0), (0.25, 2.0), (0.25, 0.8), (1.0 / 32, 1.0)]
    runs, incs = [], []
    for g, (delta, x0) in enumerate(groups):
        inc = generate_batch(g, range(8), 1, 32 * delta, 32)
        runs.append(_simulate_batch(scheme, model, cubic_cfg, inc, delta, x0, record=record))
        incs.append(inc)
    deltas, x0s = (np.repeat(col, 8) for col in zip(*groups))
    res = _simulate_batch(scheme, model, cubic_cfg, np.concatenate(incs), deltas,
                          x0s[:, None], record=record)
    if not tm.SchemeId(scheme).truncates:
        assert not runs[1].alive.any() and runs[0].alive.all()
    for name in ("finals", "alive", "blowup_step") + (("states",) if record else ()):
        assert np.array_equal(getattr(res, name),
                              np.concatenate([getattr(r, name) for r in runs]), equal_nan=True)
    if not record:
        assert res.states is None


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("scheme", list(tm.SchemeId))
def test_driver_results_do_not_alias_its_work_buffers(cubic_cfg, scheme, record):
    # the scalar step writes into buffers the driver allocates per call and
    # cuts after a blow-up (a classical group dies mid-run at step 0.25 from
    # x0 = 2); a second call must leave the first call's results as they were
    model = tm.builtin_model("cubic_quintic")
    deltas = np.repeat([1.0 / 64, 0.25, 1.0 / 32], 8)
    x0s = np.repeat([1.0, 2.0, 0.8], 8)[:, None]
    inc = generate_batch(4, range(24), 1, 1.0, 32)
    first = _simulate_batch(scheme, model, cubic_cfg, inc, deltas, x0s, record=record)
    kept = {name: np.copy(getattr(first, name)) for name in ("finals", "alive", "blowup_step")
            + (("states",) if record else ())}
    if not tm.SchemeId(scheme).truncates:
        assert not first.alive[8:16].any() and first.alive[:8].all()
    second = _simulate_batch(scheme, model, cubic_cfg, -inc, deltas, x0s, record=record)
    assert not np.array_equal(second.finals, first.finals, equal_nan=True)
    for name, value in kept.items():
        assert np.array_equal(getattr(first, name), value, equal_nan=True)


def test_driver_refuses_a_step_per_path_for_a_vector_model(cubic_cfg):
    model = tm.SdeModel(d=2, m=1, drift=lambda x: -x, diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.ones(2), polynomial_degree_r=0.0)
    with pytest.raises(ValueError, match="scalar model"):
        _simulate_batch(tm.SchemeId.truncated_em, model, cubic_cfg, np.zeros((2, 4, 1)),
                        np.array([0.1, 0.2]), model.initial_value)


def test_driver_refuses_a_step_array_of_another_length(cubic_cfg):
    with pytest.raises(ValueError, match=r"one step per path, shape \(2,\), got \(3,\)"):
        _simulate_batch(tm.SchemeId.truncated_em, tm.builtin_model("cubic_quintic"), cubic_cfg,
                        np.zeros((2, 4, 1)), np.full(3, 0.1), 1.0)


@pytest.mark.parametrize("d", [1, 2])
def test_driver_rejects_increments_for_another_driver_count(cubic_cfg, d):
    # one driver: (n, s, 2) increments are refused, not partly read or broadcast
    model = tm.SdeModel(d=d, m=1, drift=lambda x: -x,
                        diffusion_col=lambda x, j: 0.0 * x,
                        initial_value=np.ones(d), polynomial_degree_r=0.0)
    for shape in [(2, 4, 2), (2, 4)]:
        with pytest.raises(ValueError, match=r"\(n_paths, n_steps, 1\), got \(2, 4"):
            _simulate_batch(tm.SchemeId.truncated_em, model, cubic_cfg, np.zeros(shape),
                            0.1, model.initial_value)



def _reference_general_step(scheme, model, cfg, delta, y, dB):
    # the general step with one eval_l_op call per driver pair, each
    # re-evaluating sigma_{j1} and re-differencing sigma_{j2}
    scheme = tm.SchemeId(scheme)
    z = project(cfg, delta, y) if scheme.truncates else y
    mu = np.broadcast_to(np.asarray(model.drift(z), dtype=float), (model.d,))
    incr = mu * delta
    for j in range(1, model.m + 1):
        col = np.broadcast_to(np.asarray(model.diffusion_col(z, j), dtype=float), (model.d,))
        incr = incr + col * dB[j - 1]
    if scheme.has_milstein_term:
        for j1 in range(1, model.m + 1):
            for j2 in range(1, model.m + 1):
                w = dB[j1 - 1] * dB[j2 - 1] - (delta if j1 == j2 else 0.0)
                incr = incr + 0.5 * eval_l_op(model, z, j1, j2) * w
    return y + incr


def _float_drift(x):
    return float(-0.5 * x[0] * x[1])


def _one_entry_col(x, j):
    return np.array([0.3 * x[1]]) if j == 1 else np.array([0.2 * x[0], -0.1 * x[0] * x[1]])


# d = m = 2 without an analytic L-operator, whose drift is a Python float and
# whose first diffusion column is a (1,) array: each must broadcast to (d,)
_BROADCAST_MODEL = tm.SdeModel(d=2, m=2, drift=_float_drift, diffusion_col=_one_entry_col,
                               initial_value=np.array([0.6, -0.4]), polynomial_degree_r=2.0)


@pytest.mark.parametrize("scheme", ["truncated_milstein", "classical_milstein"])
def test_general_path_matches_per_pair_reference_bitwise(cubic_cfg, fd_models, scheme):
    for model in (*fd_models, _BROADCAST_MODEL):
        grid = tm.generate(2026, 3, model.m, 0.32, 64)
        for factor in (1, 4):
            g = coarsen(grid, factor)
            delta = g.t_final / g.n_fine
            ref = [model.initial_value]
            for dB in g.increments:
                ref.append(_reference_general_step(scheme, model, cubic_cfg, delta, ref[-1], dB))
            traj = simulate(scheme, model, cubic_cfg, grid, coarsen_factor=factor)
            assert not traj.blew_up
            assert np.array_equal(traj.states, np.array(ref))


@pytest.mark.parametrize("scheme", list(tm.SchemeId))
def test_general_step_coefficient_call_budget(wide_cfg, scheme):
    calls = {"drift": 0, "diffusion": 0}

    def drift(x):
        calls["drift"] += 1
        return -x

    def diffusion_col(x, j):
        calls["diffusion"] += 1
        return np.array([x[0] * x[1], j * x[j - 1] ** 2])

    model = tm.SdeModel(d=2, m=2, drift=drift, diffusion_col=diffusion_col,
                        initial_value=np.array([0.3, -0.2]), polynomial_degree_r=2.0)
    tm.step(scheme, model, wide_cfg, 0.01, [0.3, -0.2], [0.05, -0.01])
    # m columns for the increment, plus 2 m d neighbours for the L-operator
    assert calls == {"drift": 1,
                     "diffusion": 2 + 2 * 2 * 2 if tm.SchemeId(scheme).has_milstein_term else 2}


def _edge_model():
    # x_1 climbs by exactly 0.125 per step of 0.125 and the diffusion is
    # non-finite beyond x_1 = 1, so at x_1 = 1 the state is fine but the
    # central-difference neighbour x + delta e_1 is not
    def diffusion_col(x, j):
        if x[0] > 1.0:
            return np.full(2, np.inf)
        return np.array([0.0, 0.1 * j * x[1]])
    return tm.SdeModel(d=2, m=2, drift=lambda x: np.array([1.0, -x[1]]),
                       diffusion_col=diffusion_col, initial_value=np.array([0.5, 0.5]),
                       polynomial_degree_r=1.0)


def test_non_finite_neighbour_raises_for_truncated_milstein(wide_cfg):
    grid = tm.generate(0, 1, 2, 1.0, 8)     # step 0.125
    with pytest.raises(EvaluationError) as exc:
        simulate(tm.SchemeId.truncated_milstein, _edge_model(), wide_cfg, grid)
    assert exc.value.x.shape == (2,)
    assert exc.value.x[0] > 1.0


def test_non_finite_neighbour_is_classical_blowup(wide_cfg):
    grid = tm.generate(0, 1, 2, 1.0, 8)
    traj = simulate(tm.SchemeId.classical_milstein, _edge_model(), wide_cfg, grid)
    assert traj.blew_up
    assert np.all(np.isfinite(traj.states))
    assert np.array_equal(traj.states[:, 0], [0.5, 0.625, 0.75, 0.875, 1.0])


def _analytic_diag_col(x, j):
    col = np.zeros(2)
    col[j - 1] = x[j - 1] ** 2
    return col


def _analytic_diag_l_op(x, j1, j2):
    # sigma_{j1} . grad sigma_{j2} = 2 x_j^3 e_j when j1 = j2 = j, else 0
    out = np.zeros(2)
    if j1 == j2:
        out[j1 - 1] = 2.0 * x[j1 - 1] ** 3
    return out


_STEP_MODELS = make_fd_models() + (
    tm.SdeModel(d=2, m=2, drift=lambda x: x**3 - 4.0 * x**5, diffusion_col=_analytic_diag_col,
                l_op=_analytic_diag_l_op, initial_value=np.array([1.0, 1.0]),
                polynomial_degree_r=4.0),
    _BROADCAST_MODEL,
    # one state, two drivers: a general step whose projection clamps
    tm.SdeModel(d=1, m=2, drift=lambda x: -x - x**3, diffusion_col=lambda x, j: 0.3 * j * x * x,
                initial_value=np.array([0.5]), polynomial_degree_r=2.0),
)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       scheme=st.sampled_from(list(tm.SchemeId)), which=st.integers(0, len(_STEP_MODELS) - 1),
       delta=st.sampled_from([0.01, 0.04, 0.25]))
def test_general_step_batch_matches_reference_rows_bitwise(seed, n, scheme, which, delta):
    # states spread across the truncation radius (about 1.1 at delta = 0.01)
    model = _STEP_MODELS[which]
    cfg = config_for("cubic_quintic")
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=1.5, size=(n, model.d))
    dB = rng.normal(scale=np.sqrt(delta), size=(n, model.m))
    got = _general_step(scheme, model, delta, y, dB, cfg.radius(delta))
    assert got.shape == (n, model.d)
    for row in range(n):
        want = _reference_general_step(scheme, model, cfg, delta, y[row], dB[row])
        assert np.array_equal(got[row], want)


@pytest.mark.parametrize("scheme", list(tm.SchemeId))
@pytest.mark.parametrize("which", range(len(_STEP_MODELS)))
def test_general_step_edge_rows_match_reference_rows_bitwise(scheme, which):
    # the projection's and the stencil's edges: a zero row, rows exactly on
    # the radius, and far rows some of whose first contraction rounds above
    # it (for d > 1; d = 1 clamps)
    model, delta = _STEP_MODELS[which], 0.04
    cfg = config_for("cubic_quintic")
    r = cfg.radius(delta)
    on = np.zeros((2, model.d))
    on[0, 0], on[1, -1] = r, -r
    assert np.array_equal(row_norm(on), [r, r])
    rng = np.random.default_rng(model.d)
    far = rng.standard_normal((30, model.d)) * 10.0
    assert model.d == 1 or np.any(row_norm(far * (r / row_norm(far))[:, None]) > r)
    y = np.vstack([np.zeros((1, model.d)), on, far])
    dB = rng.normal(scale=np.sqrt(delta), size=(len(y), model.m))
    got = _general_step(scheme, model, delta, y, dB, cfg.radius(delta))
    for row in range(len(y)):
        want = _reference_general_step(scheme, model, cfg, delta, y[row], dB[row])
        assert np.array_equal(got[row], want)


# row 1 sits where the x + delta e_1 neighbour of the L-operator is not finite,
# row 2 where the diffusion itself is not
_EDGE_STATES = np.array([[0.5, 0.5], [1.0, -0.3], [1.5, 0.2], [0.25, 0.8]])
_EDGE_DB = np.array([[0.1, -0.2], [0.05, 0.0], [-0.3, 0.1], [0.02, 0.3]])


def test_classical_batch_marks_only_failing_rows_blown_up(wide_cfg):
    model = _edge_model()
    with np.errstate(invalid="ignore"):
        got = _general_step(tm.SchemeId.classical_milstein, model, 0.125, _EDGE_STATES,
                            _EDGE_DB, None)
    assert np.all(np.isnan(got[1:3]))
    for row in (0, 3):
        one = _reference_general_step("classical_milstein", model, wide_cfg, 0.125,
                                      _EDGE_STATES[row], _EDGE_DB[row])
        assert np.all(np.isfinite(one))
        assert np.array_equal(got[row], one)


def test_truncated_batch_raises_at_first_failing_rows_point(wide_cfg):
    model = _edge_model()
    with pytest.raises(EvaluationError) as batch, np.errstate(invalid="ignore"):
        _general_step(tm.SchemeId.truncated_milstein, model, 0.125, _EDGE_STATES, _EDGE_DB,
                      wide_cfg.radius(0.125))
    assert list(batch.value.rows) == [1, 2]
    # row 1's own step names the same point: its x + delta e_1 neighbour
    with pytest.raises(EvaluationError) as one, np.errstate(invalid="ignore"):
        tm.step("truncated_milstein", model, wide_cfg, 0.125, _EDGE_STATES[1], _EDGE_DB[1])
    assert str(batch.value) == str(one.value)
    assert np.array_equal(batch.value.x, one.value.x) and batch.value.x[0] > 1.0
    # row 2 fails at the state itself, whose diffusion is not finite
    with pytest.raises(EvaluationError, match="non-finite diffusion") as two, \
            np.errstate(invalid="ignore"):
        tm.step("truncated_milstein", model, wide_cfg, 0.125, _EDGE_STATES[2], _EDGE_DB[2])
    assert np.array_equal(two.value.x, _EDGE_STATES[2])


def test_truncated_coeffs_report_every_failing_row(wide_cfg):
    # row 1 fails at a neighbour, row 2 at the state: both are listed, and
    # the error is row 1's own
    model = _edge_model()
    with pytest.raises(EvaluationError) as batch:
        coefficients(model, project(wide_cfg, 0.125, _EDGE_STATES))
    assert list(batch.value.rows) == [1, 2]
    with pytest.raises(EvaluationError) as one:
        coefficients(model, project(wide_cfg, 0.125, _EDGE_STATES[1:2]))
    assert str(batch.value) == str(one.value)
    assert np.array_equal(batch.value.x, one.value.x) and batch.value.x[0] > 1.0


def test_non_finite_coefficients_raise_without_warnings(wide_cfg):
    # the differencing of non-finite neighbours emits no RuntimeWarning
    model = _edge_model()
    spec = tm.ProbeSpec(n_points=64, radius=2.0, k_fn=tm.KFunction(1.0, 2.0),
                        constants={"delta": 0.1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError):
            coefficients(model, project(wide_cfg, 0.125, _EDGE_STATES))
        for assumption in (tm.Assumption.A2_1_polyLipschitz,
                           tm.Assumption.Eq4_2_milsteinDissipative):
            with pytest.raises(EvaluationError):
                tm.check_assumption(model, assumption, spec)


def _drift_nan_beyond(x):
    return np.full(2, np.nan) if x[0] > 0.7 else -x


@pytest.mark.parametrize("scheme", list(tm.SchemeId))
def test_step_checks_every_coefficient_when_truncating(wide_cfg, scheme):
    # a non-finite drift is an error of a truncated step, as a non-finite
    # L-operator is, and a classical step's blow-up
    model = tm.SdeModel(d=2, m=2, drift=_drift_nan_beyond, diffusion_col=lambda x, j: 0.1 * j * x,
                        initial_value=np.array([0.5, 0.5]), polynomial_degree_r=1.0)
    x0 = np.array([[0.5, 0.5], [0.8, 0.1]])
    inc = np.full((2, 1, 2), 0.1)
    scheme = tm.SchemeId(scheme)
    if scheme.truncates:
        with pytest.raises(EvaluationError, match="non-finite drift") as exc:
            _simulate_batch(scheme, model, wide_cfg, inc, 0.125, x0)
        assert list(exc.value.rows) == [1]
        assert np.array_equal(exc.value.x, x0[1])
    else:
        res = _simulate_batch(scheme, model, wide_cfg, inc, 0.125, x0)
        assert list(res.alive) == [True, False] and list(res.blowup_step) == [-1, 0]


def test_classical_blowups_emit_no_warning(wide_cfg):
    # a d > 1 path through a non-finite neighbour, one step of it, and a
    # scalar ensemble whose states overflow: blow-ups, not warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(tm.SchemeId.classical_milstein, _edge_model(), wide_cfg,
                        tm.generate(0, 1, 2, 1.0, 8))
        assert traj.blew_up
        got = tm.step(tm.SchemeId.classical_milstein, _edge_model(), wide_cfg, 0.125,
                      _EDGE_STATES[1], _EDGE_DB[1])
        assert not np.all(np.isfinite(got))
        model = tm.builtin_model("cubic_quintic")
        res = _simulate_batch(tm.SchemeId.classical_milstein, model, wide_cfg,
                              generate_batch(0, range(8), 1, 4.0, 8), 0.5, 40.0)
        assert not np.any(res.alive)
        # one scalar step whose powers overflow: NaN, as a blown-up ensemble row
        got = tm.step(tm.SchemeId.classical_milstein, model, wide_cfg, 0.5, [1e80], [0.3])
        assert np.all(np.isnan(got))


@pytest.mark.parametrize("d", [1, 2])
def test_driver_stops_stepping_once_every_path_is_dead(monkeypatch, cubic_cfg, d):
    # classical paths from x0 = 40 all blow up within a few steps of 1000;
    # the driver steps no empty batch after that
    name = "_scalar_step" if d == 1 else "_general_step"
    real, calls = getattr(scheme_module, name), []

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(scheme_module, name, spy)
    model = tm.builtin_model("cubic_quintic") if d == 1 else _diagonal_quintic_2d()
    n_paths = 8 if d == 1 else 4
    res = _simulate_batch(tm.SchemeId.classical_milstein, model, cubic_cfg,
                          generate_batch(0, range(n_paths), d, 4.0, 1000), 0.004,
                          np.full(d, 40.0), record=True)
    last = res.blowup_step.max()
    assert not np.any(res.alive) and len(calls) == last + 1
    assert np.all(np.isnan(res.states[:, last + 1:])) and np.all(np.isnan(res.finals))


@pytest.mark.parametrize("scheme", ["classical_milstein", "classical_em"])
def test_batch_driver_mixed_blowup_matches_per_path_reference(scheme):
    # step 0.25 from x0 = (1.2, 1.2): some paths blow up, at different steps,
    # the others stay finite; each path must match its own per-pair reference run
    from dataclasses import replace
    model = replace(_diagonal_quintic_2d(), initial_value=np.array([1.2, 1.2]))
    cfg = config_for("cubic_quintic")
    inc = generate_batch(0, range(24), 2, 8.0, 32)
    res = _simulate_batch(tm.SchemeId(scheme), model, cfg, inc, 0.25, model.initial_value,
                          record=True)
    assert np.any(~res.alive) and np.any(res.alive)
    assert len(np.unique(res.blowup_step[~res.alive])) > 1
    for p in range(24):
        ref, k_dead = [model.initial_value], -1
        with np.errstate(over="ignore", invalid="ignore"):
            for k, dB in enumerate(inc[p]):
                try:
                    y = _reference_general_step(scheme, model, cfg, 0.25, ref[-1], dB)
                except EvaluationError:
                    y = np.full(2, np.nan)
                if not np.all(np.isfinite(y)):
                    k_dead = k
                    break
                ref.append(y)
        ref = np.array(ref)
        assert res.blowup_step[p] == k_dead
        assert np.array_equal(res.states[p, :len(ref)], ref)
        assert np.all(np.isnan(res.states[p, len(ref):]))
        assert np.array_equal(res.finals[p], ref[-1] if k_dead < 0 else np.full(2, np.nan),
                              equal_nan=True)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_row_norm_matches_linalg_norm_bitwise(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(5000, d)) * rng.lognormal(sigma=3.0, size=(5000, 1))
    assert np.array_equal(row_norm(x), [np.linalg.norm(row) for row in x])
    assert row_norm(x[0]) == np.linalg.norm(x[0])


GBM_S = 0.8


def _gbm_col(x, j):
    col = np.zeros(2)
    col[j - 1] = GBM_S * x[j - 1]
    return col


@pytest.mark.parametrize("scheme,window", [("truncated_milstein", (0.85, 1.15)),
                                           ("classical_milstein", (0.85, 1.15)),
                                           ("truncated_em", (0.35, 0.65)),
                                           ("classical_em", (0.35, 0.65))])
def test_strong_order_against_exact_gbm_solution(scheme, window):
    # dX_i = -X_i dt + s X_i dB_i has X_T = x0 exp((-1 - s^2/2) T + s B_T);
    # omega(u) = u with h = 100 delta^(-1/4) never projects, so the fitted
    # slope is the scheme's own strong order on the finite-difference path
    model = tm.SdeModel(d=2, m=2, drift=lambda x: -x, diffusion_col=_gbm_col,
                        initial_value=np.array([1.0, 1.0]), polynomial_degree_r=0.0)
    cfg = tm.TruncationConfig(1.0, 1.0, 100.0, 0.25, 100.0)
    t_final, n_fine, factors = 1.28, 256, (1, 2, 4, 8, 16)
    errors = np.zeros(len(factors))
    for p in range(48):
        grid = tm.generate(2026, p, 2, t_final, n_fine)
        exact = model.initial_value * np.exp((-1.0 - GBM_S**2 / 2) * t_final
                                             + GBM_S * total_increment(grid))
        for i, f in enumerate(factors):
            traj = simulate(scheme, model, cfg, grid, coarsen_factor=f)
            errors[i] += np.linalg.norm(traj.terminal - exact) / 48
    deltas = t_final / n_fine * np.array(factors)
    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    assert window[0] <= slope <= window[1]


@pytest.mark.parametrize("scheme,window", [("truncated_milstein", (0.85, 1.15)),
                                           ("classical_milstein", (0.85, 1.15)),
                                           ("truncated_em", (0.35, 0.65)),
                                           ("classical_em", (0.35, 0.65))])
def test_scalar_ensemble_strong_order_against_exact_gbm_solution(scheme, window):
    # the scalar counterpart of the test above, on the ensemble fast path:
    # dX = -X dt + s X dB with X_T = x0 exp((-1 - s^2/2) T + s B_T)
    model = tm.SdeModel(d=1, m=1, drift=lambda x: -x, diffusion_col=lambda x, j: GBM_S * x,
                        l_op=lambda x, j1, j2: GBM_S**2 * np.asarray(x, dtype=float),
                        initial_value=np.array([1.0]), polynomial_degree_r=0.0)
    cfg = tm.TruncationConfig(1.0, 1.0, 100.0, 0.25, 100.0)
    t_final, n_fine, factors = 1.28, 256, (1, 2, 4, 8, 16)
    inc = generate_batch(2026, range(4000), 1, t_final, n_fine)[:, :, 0]
    exact = np.exp((-1.0 - GBM_S**2 / 2) * t_final + GBM_S * block_sums(inc, n_fine, axis=1)[:, 0])
    errors = []
    for f in factors:
        res = _simulate_batch(scheme, model, cfg, block_sums(inc, f, axis=1)[:, :, None],
                              t_final / n_fine * f, 1.0, record=True)
        assert np.all(res.alive)
        assert np.max(np.abs(res.states)) < cfg.radius(t_final / n_fine * f)   # never projects
        errors.append(np.mean(np.abs(res.finals[:, 0] - exact)))
    deltas = t_final / n_fine * np.array(factors)
    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    assert window[0] <= slope <= window[1]
