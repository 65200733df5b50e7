"""The package exports what the CLI, the acceptance tests and the benchmark
use, and every exported name and every name the benchmark tracer wraps
resolves."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import truncmil
from truncmil import brownian, experiments, scheme

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

EXPORTED = {
    "Assumption", "KFunction", "ProbeSpec", "RateExperimentSpec", "SchemeId", "SdeModel",
    "TruncationConfig", "builtin_model", "check_assumption", "coarsen",
    "compare_step_conditions", "compute_stability_constants", "dominant_rate", "generate",
    "project", "run_rate_experiment", "run_stability_ensemble", "step", "terminal_moment_probe",
}

# names that stay public in their modules only
MODULE_ONLY = {
    "AssumptionReport": "model", "BUILTIN_MODEL_NAMES": "model", "EvaluationError": "model",
    "eval_l_op": "model", "BrownianGrid": "brownian", "EnsembleResult": "scheme",
    "Trajectory": "scheme", "simulate": "scheme",
    "new_error_bound": "truncation", "old_condition_threshold": "truncation",
    "DecayEnsemble": "experiments",
    "RateFit": "experiments", "StabilityConstants": "experiments",
    "StepConditionComparison": "experiments", "fit_rate": "experiments",
}


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


def test_all_is_exactly_the_exported_names():
    assert sorted(truncmil.__all__) == sorted(EXPORTED)


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_a_module_only_name_imports_from_its_module_alone(name, module):
    assert not hasattr(truncmil, name)
    assert hasattr(importlib.import_module(f"truncmil.{module}"), name)


def test_every_top_level_name_the_benchmark_and_acceptance_tests_use_is_exported():
    sources = [*sorted((ROOT / "bench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    used = {name for path in sources
            for name in re.findall(r"\btm\.(\w+)", path.read_text())}
    assert used and used <= set(truncmil.__all__)


def test_every_name_the_cli_imports_from_a_module_is_exported():
    tree = ast.parse((ROOT / "src" / "truncmil" / "cli.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
             for alias in node.names}
    assert names and names <= set(truncmil.__all__)


# public definitions that nothing in `src/` nor the package's users reach yet:
# `new_error_bound` is the shape of the relaxed error bound, which a rate fit
# will be read against to say which regime it measured (ROADMAP item 4)
UNREACHED = {"truncation.new_error_bound"}


def _referenced_names(node) -> set:
    """Every name `node` loads, imports or reads as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_every_public_definition_is_reached_outside_the_tests():
    # a public module-level function or class is used by `src/` itself,
    # exported, wrapped by the benchmark's tracer, or named by the acceptance
    # tests or the benchmark's workloads; test-only helpers live in the tests
    defined, referenced = [], set()
    for path in sorted((ROOT / "src" / "truncmil").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((path.stem, stmt.name))
                # a definition's own body (its recursion, its annotations) does not count
                referenced |= _referenced_names(stmt) - {stmt.name}
            else:
                referenced |= _referenced_names(stmt)
    users = " ".join(path.read_text() for path in (ROOT / "tests" / "test_acceptance.py",
                                                   ROOT / "bench" / "workloads.py"))
    reached = referenced | set(truncmil.__all__) | set(re.findall(r"\w+", users))
    traced = {(mod, attr) for mod, attr, _, _ in _tracer_targets()}
    unreached = {f"{mod}.{name}" for mod, name in defined
                 if name not in reached and (mod, name) not in traced}
    assert unreached == UNREACHED


def test_only_the_driver_calls_the_steppers():
    # `step`, `simulate` and every ensemble reach the steppers through
    # `_simulate_batch`, which alone owns radii, work buffers and blow-ups
    callers = set()
    for path in sorted((ROOT / "src" / "truncmil").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers |= {(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id in ("_scalar_step", "_general_step")}
    assert callers == {("scheme.py", "_simulate_batch")}
    # so the steppers take what the driver hands them, with no fallbacks
    for stepper in (scheme._scalar_step, scheme._general_step):
        params = inspect.signature(stepper).parameters.values()
        assert all(p.default is p.empty and p.name != "cfg" for p in params)


def test_only_the_model_knows_the_stencil():
    # mu, sigma and the L-terms at a batch come from `model.coefficients`,
    # the one pass that builds the finite-difference stencil
    named = {}
    for path in sorted((ROOT / "src" / "truncmil").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            else:
                continue
            named.setdefault(name, set()).add(path.name)
    assert named["_fd_stencil"] == named["_fd_step"] == {"model.py"}
    assert "l_op_terms" not in named
