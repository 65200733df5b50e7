"""Acceptance gate: one test per headline criterion, at the stated tolerances."""

import math
import time

import numpy as np
import pytest

import truncmil as tm
from truncmil import cli
from truncmil.brownian import generate_batch
from truncmil.experiments import RateExperimentSpec
from truncmil.scheme import _simulate_batch
from truncmil.truncation import (coefficient_bound_margin, fit_lambda2,
                                 preservation_margin)

from conftest import BUILTIN_CONFIGS, config_for


def test_criterion_1_old_step_condition_threshold(damped_cfg):
    start = time.perf_counter()
    comp = tm.compare_step_conditions(damped_cfg, q=1.0, p=42.0, r=4.0)
    elapsed = time.perf_counter() - start
    expected = math.exp(-(410.0 / 17.0) * math.log(83.0))   # 83^(-410/17)
    assert abs(comp.old_threshold - expected) <= 1e-6 * expected
    assert comp.new_threshold == 1.0
    assert elapsed < 1.0


def test_criterion_2_dominant_rate_exact(damped_cfg):
    start = time.perf_counter()
    rate = tm.dominant_rate(damped_cfg, q=1.0, p=42.0, r=4.0)
    elapsed = time.perf_counter() - start
    assert rate == 1.6
    assert elapsed < 1.0


def test_criterion_3_strong_convergence_slope(cubic_cfg):
    spec = RateExperimentSpec(
        model_name="cubic_quintic", cfg=cubic_cfg, scheme="truncated_milstein",
        q=1.0, t_final=1.28, delta_ref=0.01 / 8,
        test_deltas=tuple(0.01 * 2**i for i in range(1, 7)),
        n_paths=1000, master_seed=2026)
    fit = tm.run_rate_experiment(spec)
    assert fit.slope_se < 0.1
    assert 0.8 <= fit.slope <= 1.2


def test_criterion_4_stability_constants(quintic_cfg):
    rep = tm.compute_stability_constants(tm.builtin_model("stable_quintic"),
                                         quintic_cfg, tm.KFunction(2.0, 2.0))
    assert rep.radius_at_one == 1.0
    assert math.isfinite(rep.H) and rep.H >= 0
    assert 0 < rep.delta_1 <= 1
    # computed constants sit beside the published ones, with the documented
    # disagreement flagged rather than papered over
    assert rep.paper_H == 25.0
    assert rep.paper_delta_1 == 0.04
    assert rep.paper_discrepancy
    assert rep.H == pytest.approx(60.5, rel=1e-9)
    assert rep.delta_1 == pytest.approx(1.0 / 121.0, rel=1e-9)


def test_criterion_5_stability_decay_ensemble(quintic_cfg):
    start = time.perf_counter()
    rep = tm.run_stability_ensemble(tm.builtin_model("stable_quintic"), quintic_cfg,
                                    delta=0.04, n_paths=1000, horizon_steps=1000,
                                    tol_stab=1e-2, master_seed=5)
    elapsed = time.perf_counter() - start
    assert rep.decay_fraction >= 0.95
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 6: property suites


def test_criterion_6_projection_properties(cubic_cfg):
    rng = np.random.default_rng(100)
    delta = 0.01
    r = cubic_cfg.radius(delta)
    xs = rng.normal(scale=4.0 * r, size=10_000)
    ys = rng.normal(scale=4.0 * r, size=10_000)
    for x, y in zip(xs, ys):
        px = tm.project(cubic_cfg, delta, [x])
        py = tm.project(cubic_cfg, delta, [y])
        assert abs(px[0]) <= r
        assert np.array_equal(tm.project(cubic_cfg, delta, px), px)   # idempotent
        assert abs(px[0] - py[0]) <= abs(x - y) + 1e-12               # non-expansive
        if abs(x) >= r:
            assert abs(px[0]) == r
        else:
            assert px[0] == x


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_criterion_6_coefficient_bound(name):
    rng = np.random.default_rng(101)
    pts = np.sign(rng.normal(size=(10_000, 1))) * 10.0 ** rng.uniform(-3, 6, size=(10_000, 1))
    model = tm.builtin_model(name)
    cfg = config_for(name)
    for delta in (0.04, 0.01, 0.001):
        # equality holds at the ball boundary, so allow rounding there
        assert coefficient_bound_margin(model, cfg, delta, pts) <= 1e-12 * cfg.h(delta)


def test_criterion_6_classical_equals_truncated_inside_ball(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    delta = 0.01
    r = cubic_cfg.radius(delta)
    rng = np.random.default_rng(102)
    ys = rng.uniform(-r, r, size=2000)
    dbs = rng.normal(scale=math.sqrt(delta), size=2000)
    for y, db in zip(ys, dbs):
        trunc = tm.step(tm.SchemeId.truncated_milstein, model, cubic_cfg, delta, [y], [db])
        clas = tm.step(tm.SchemeId.classical_milstein, model, cubic_cfg, delta, [y], [db])
        assert trunc[0] == clas[0]


def test_criterion_6_brownian_coarsening_exact():
    grid = tm.generate(200, 0, 2, 1.0, 256)
    for factor in (2, 4, 8, 64, 256):
        coarse = tm.coarsen(grid, factor)
        manual = grid.increments.reshape(256 // factor, factor, 2)
        while manual.shape[1] > 1:
            manual = manual[:, 0::2] + manual[:, 1::2]
        assert np.array_equal(coarse.increments, manual[:, 0])
    a = tm.coarsen(tm.coarsen(grid, 2), 2)
    assert np.array_equal(a.increments, tm.coarsen(grid, 4).increments)


def test_criterion_6_moment_cap(cubic_cfg):
    deltas = [2.0 ** -k for k in range(4, 11)]
    moments = tm.terminal_moment_probe(tm.builtin_model("cubic_quintic"), cubic_cfg,
                                       deltas, n_paths=10_000, t_final=1.0,
                                       power=4.0, master_seed=11)
    assert np.all(moments <= 1e3)


def test_criterion_6_preservation(cubic_cfg):
    model = tm.builtin_model("cubic_quintic")
    rng = np.random.default_rng(103)
    ball = rng.uniform(-1.0, 1.0, size=(2000, 1)) * cubic_cfg.radius(0.01)
    lam2 = fit_lambda2(model, p_bar=2.0, points=ball)
    wide = np.sign(rng.normal(size=(2000, 1))) * 10.0 ** rng.uniform(-3, 4, size=(2000, 1))
    for delta in (0.04, 0.01, 0.001):
        assert preservation_margin(model, cubic_cfg, delta, 2.0, lam2, wide) <= 0


def test_criterion_6_classical_em_blowup(cubic_cfg):
    # divergence of the unprojected Euler scheme at a large step; started from
    # x0 = 2 every path leaves any bounded set within a few steps
    model = tm.builtin_model("cubic_quintic")
    inc = generate_batch(12, range(200), 1, 8.0, 32)
    res = _simulate_batch(tm.SchemeId.classical_em, model, cubic_cfg, inc, 0.25, 2.0)
    assert res.blowup_fraction == 1.0
    # the truncated scheme on the same paths stays finite
    safe = _simulate_batch(tm.SchemeId.truncated_milstein, model, cubic_cfg, inc, 0.25, 2.0)
    assert np.all(safe.alive)


# ---------------------------------------------------------------------------
# criterion 7: determinism across worker counts


RATE_CFG = """
kind = rate
model = cubic_quintic
omega.coeff = 4
omega.power = 5
h.coeff = 4
h.power = 0.1
h_bar = 4
t_final = 0.16
delta_ref = 0.005
steps = 0.02, 0.04, 0.08
paths = 600
"""

STABILITY_CFG = """
kind = stability
model = stable_quintic
omega.coeff = 4
omega.power = 5
h.coeff = 4
h.power = 0.25
h_bar = 4
k.coeff = 2
k.power = 2
delta = 0.004
horizon_steps = 250
paths = 600
record_paths = 8
"""


def _data_rows(path):
    with open(path, "rb") as f:
        return [ln for ln in f.read().splitlines() if not ln.startswith(b"#")]


@pytest.mark.parametrize("cfg_text,csv_name", [(RATE_CFG, "rates.csv"),
                                               (STABILITY_CFG, "stability.csv")])
def test_criterion_7_worker_determinism(tmp_path, cfg_text, csv_name):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    rows = {}
    for workers in (1, 4):
        out = tmp_path / f"out{workers}"
        assert cli.run(str(cfg_path), seed=77, workers=workers, out=str(out)) == 0
        rows[workers] = _data_rows(out / csv_name)
    assert rows[1] == rows[4]
    # and a re-run with the same config reproduces byte-identically
    out = tmp_path / "rerun"
    assert cli.run(str(cfg_path), seed=77, workers=4, out=str(out)) == 0
    assert _data_rows(out / csv_name) == rows[4]
