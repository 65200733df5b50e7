"""Shared fixtures: the truncation configurations used by the builtin models,
vector models that take the finite-difference L-operator, the globally
Lipschitz control model, registered as "lipschitz_control" for rate specs,
a stable quintic whose drift is NaN outside its radius-one ball, a spy on
the pools the experiments make, and `sigma_matrix`, the diffusion-matrix
reference of the model tests.  Property tests run under a derandomised
hypothesis profile, so every run draws the same examples.  A test that
leaves a child process alive fails."""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

import truncmil as tm
from truncmil import experiments
from truncmil.brownian import block_sums
from truncmil.model import _evaluate, _finite, register_model

settings.register_profile("truncmil", derandomize=True, deadline=None, database=None)
settings.load_profile("truncmil")

# (omega_coeff, omega_power, h_coeff, h_power, h_bar) per builtin model
BUILTIN_CONFIGS = {
    "cubic_quintic": (4.0, 5.0, 4.0, 0.1, 4.0),
    "strongly_damped_cubic": (83.0, 3.0, 1.0, 0.1, 1.0),
    "stable_quintic": (4.0, 5.0, 4.0, 0.25, 4.0),
}


def config_for(name: str) -> tm.TruncationConfig:
    return tm.TruncationConfig(*BUILTIN_CONFIGS[name])


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process (a pool worker) running: every
    pooled call must join its own workers before it returns."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert not leaked, f"child processes left running: {leaked}"


def _pool_spy(sizes):
    """The module's pool class, appending each pool's worker count to `sizes`."""
    class SpyPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)
    return SpyPool


@pytest.fixture
def cubic_cfg():
    return config_for("cubic_quintic")


@pytest.fixture
def damped_cfg():
    return config_for("strongly_damped_cubic")


@pytest.fixture
def quintic_cfg():
    return config_for("stable_quintic")


@pytest.fixture
def wide_cfg():
    # radius ~ 1e6 for every step size, so truncation never activates
    return tm.TruncationConfig(1.0, 1.0, 1e6, 0.1, 1e6)


def _diagonal_col(x, j):
    # sigma_j(x) = x_j^2 e_j, the benchmark's 2-d diagonal noise
    col = np.zeros(2)
    col[j - 1] = x[j - 1] * x[j - 1]
    return col


def _coupled_col(x, j):
    return np.array([0.3 * x[1] + 0.1 * j * x[0] ** 2, 0.2 * x[0] * x[1] - 0.1 * j])


def _three_state_col(x, j):
    return 0.2 * np.array([x[1] * x[2], x[j - 1] ** 2, j * np.sin(x[0])])


def make_fd_models():
    """Vector models without an analytic L-operator: diagonal 2-d, coupled
    2-d (non-diagonal noise) and 3-d with two drivers (d != m)."""
    return (
        tm.SdeModel(d=2, m=2, drift=lambda x: x**3 - 4.0 * x**5, diffusion_col=_diagonal_col,
                    initial_value=np.array([1.0, 1.0]), polynomial_degree_r=4.0),
        tm.SdeModel(d=2, m=2, drift=lambda x: -x - x**3, diffusion_col=_coupled_col,
                    initial_value=np.array([0.7, -0.4]), polynomial_degree_r=2.0),
        tm.SdeModel(d=3, m=2, drift=lambda x: -x - x**3, diffusion_col=_three_state_col,
                    initial_value=np.array([0.5, -0.3, 0.8]), polynomial_degree_r=2.0),
    )


@pytest.fixture
def fd_models():
    return make_fd_models()


def sigma_matrix(model, x):
    """The d x m diffusion matrix at one point (d,), or one per row of an (n, d)
    batch as (n, d, m): `_evaluate` on each column, each checked finite."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, model.d)
    sig = np.empty(pts.shape + (model.m,))
    for j in range(model.m):
        _evaluate(model, model.diffusion_col, pts, j + 1, out=sig[:, :, j])
    return _finite(sig, "diffusion", x).reshape(x.shape[:-1] + sig.shape[1:])


def total_increment(grid):
    """B(T) per driver, reduced in the same fixed order as coarsening."""
    return block_sums(grid.increments, grid.n_fine)[0]


def _drift_linear(x):
    return -x


def _sigma_linear(x, j):
    return 0.1 * x


def _l_sigma_linear(x, j1, j2):
    return 0.01 * x


def lipschitz_control_model() -> tm.SdeModel:
    """Globally Lipschitz scalar control problem mu = -x, sigma = 0.1 x.

    Well-understood dynamics used to sanity-check the harness: the classical
    Milstein scheme has clean strong order one here.
    """
    return tm.SdeModel(d=1, m=1, drift=_drift_linear, diffusion_col=_sigma_linear,
                       l_op=_l_sigma_linear, initial_value=np.array([1.0]),
                       polynomial_degree_r=0.0, name="lipschitz_control")


register_model(lipschitz_control_model())


_QUINTIC = tm.builtin_model("stable_quintic")


def _drift_nan_outside(x):
    # NaN for |x| > 1.05: outside the radius-one ball of the stability
    # constants, inside the truncation ball of small steps
    return np.where(np.abs(x) > 1.05, np.nan, _QUINTIC.drift(x))


def quintic_nan_outside_model() -> tm.SdeModel:
    """The stable quintic with `_drift_nan_outside`, whose paths can blow up."""
    return replace(_QUINTIC, drift=_drift_nan_outside, name="quintic_nan_outside")
