"""The truncation budget on simulated paths.

With a consistent truncation pair, |mu|, |sigma| and |L sigma| at the
projected state are at most h(delta), so every step of a scalar truncated
Milstein path obeys

    |Y_{k+1} - Y_k| <= h(delta) (delta + |dB| + |dB^2 - delta| / 2).

The recorded states of the batched driver and the increments they were
stepped on are enough to check it.  The criterion-6 `stable_quintic` pair is
not consistent (`omega(u) = 4 u^5` does not dominate the drift's sup on the
ball of radius u), and its paths break the budget at a coarse step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncmil as tm
from conftest import config_for
from truncmil.brownian import generate_batch
from truncmil.scheme import _simulate_batch

_PATHS = 200


def _budget_ratios(name: str, n: int, seed: int) -> np.ndarray:
    """Each step of `_PATHS` truncated Milstein paths of the builtin `name`
    on its test pair, with delta = 1 / n on [0, 1], over its budget."""
    model, cfg, delta = tm.builtin_model(name), config_for(name), 1.0 / n
    inc = generate_batch(seed, range(_PATHS), 1, 1.0, n)
    res = _simulate_batch(tm.SchemeId.truncated_milstein, model, cfg, inc, delta,
                          model.initial_value, record=True)
    assert np.all(res.alive)
    db = inc[:, :, 0]
    budget = cfg.h(delta) * (delta + np.abs(db) + 0.5 * np.abs(db * db - delta))
    return np.abs(np.diff(res.states[:, :, 0], axis=1)) / budget


@pytest.mark.parametrize("name", ["cubic_quintic", "strongly_damped_cubic"])
@settings(max_examples=15)
@given(n=st.integers(2, 250), seed=st.integers(0, 2**64 - 1))
def test_consistent_pairs_keep_every_step_within_its_budget(name, n, seed):
    # measured at most 0.675 across delta = 0.5 ... 0.004
    assert _budget_ratios(name, n, seed).max() <= 1.0 + 1e-12


@settings(max_examples=10)
@given(seed=st.integers(0, 2**64 - 1))
def test_the_criterion_6_pair_breaks_the_budget_at_a_coarse_step(seed):
    # at delta = 0.5 the largest step is about 1.9 budgets, and about two
    # thirds of the steps are over budget
    ratios = _budget_ratios("stable_quintic", 2, seed)
    assert ratios.max() > 1.5
    assert np.mean(ratios > 1.0) > 0.5
