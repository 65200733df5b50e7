"""Every exported name and every name the benchmark tracer wraps resolves."""

import importlib
import importlib.util
from pathlib import Path

import truncmil
from truncmil import brownian, experiments, scheme

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_tracer_targets_resolve():
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in _tracer_targets()
               if mod != "workloads"
               and not hasattr(importlib.import_module(f"truncmil.{mod}"), attr)]
    assert missing == []


def test_batch_block_sums_is_not_an_alias():
    # the tracer replaces names by object identity: an alias of block_sums
    # would be wrapped twice and its time counted twice
    assert experiments._batch_block_sums is not brownian.block_sums


def test_ensemble_span_name_is_the_driver():
    # the tracer wraps `simulate_scalar_ensemble` as its ensemble span; as an
    # alias of the one driver every ensemble passes that span, and is counted, once
    assert scheme.simulate_scalar_ensemble is scheme._simulate_batch
    assert "simulate_scalar_ensemble" not in truncmil.__all__


def test_public_names_resolve():
    assert [name for name in truncmil.__all__ if not hasattr(truncmil, name)] == []
