"""Smoke test of the benchmark itself, at a tiny size of every workload.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted output is counted as a failed operation, and that the
benchmark refuses to run without the package's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the benchmark defines, including any BENCHMARK.json leaves out
NAMES = list(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted_with_its_unit(tmp_path, name, trace, section):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                  "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        wl = workloads.make(name, 3, "smoke", tmp_path)
        # every simulated path-step passes the ensemble stepper or the per-path one
        assert m["scheme.ensemble_path_steps"] + m["scheme.step_calls"] == wl.path_steps
        layers = sum(m[f"{layer}.self_s"] for layer in ("brownian", "scheme", "truncation",
                                                       "model", "experiments", "cli", "other"))
        assert layers == pytest.approx(m["trace.wall_s"], rel=0.05)


def _corrupt(monkeypatch, name):
    """Make the next operations' outputs differ from the program's by one digit."""
    if name in ("rate-ladder", "stability-cli"):
        real = workloads.cli.run

        def corrupted(config_path, **kwargs):
            code = real(config_path, **kwargs)
            csv = Path(kwargs["out"]) / workloads.WORKLOADS[name].csv_name
            csv.write_bytes(csv.read_bytes().rstrip(b"\n") + b"1\n")
            return code
        monkeypatch.setattr(workloads.cli, "run", corrupted)
    elif name == "moment-ladder":
        real = workloads.tm.terminal_moment_probe
        monkeypatch.setattr(workloads.tm, "terminal_moment_probe",
                            lambda *a, **k: real(*a, **k) * (1 + 1e-12))
    else:
        real = workloads.tm.run_rate_experiment

        def corrupted(*args, **kwargs):
            fit = real(*args, **kwargs)
            return dataclasses.replace(fit, errors=fit.errors * (1 + 1e-12))
        monkeypatch.setattr(workloads.tm, "run_rate_experiment", corrupted)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_in_error_rate(tmp_path, monkeypatch, name):
    # the default seed checks against the recorded digests of the smoke size
    wl = workloads.make(name, None, "smoke", tmp_path)
    assert wl.expected_digest is not None
    loop = run.Loop(wl)
    loop.op(1)
    assert (loop.attempted, loop.failed) == (1, 0)
    _corrupt(monkeypatch, name)
    loop.op(1)
    assert (loop.attempted, loop.failed) == (2, 1)


def test_invariant_violation_counts_at_any_seed(tmp_path, monkeypatch):
    wl = workloads.make("moment-ladder", 4, "smoke", tmp_path)
    monkeypatch.setattr(workloads.tm, "terminal_moment_probe",
                        lambda *a, **k: [1e9] * len(wl.deltas))
    loop = run.Loop(wl)
    loop.op(1)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_unreadable_output_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.make("rate-ladder", 4, "smoke", tmp_path)
    real = workloads.cli.run

    def garbled(config_path, **kwargs):
        code = real(config_path, **kwargs)
        (Path(kwargs["out"]) / "rates.csv").write_text("delta,error\nnot,a number\n")
        return code
    monkeypatch.setattr(workloads.cli, "run", garbled)
    loop = run.Loop(wl)
    loop.op(1)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_times_scale_by_the_reference_runs_around_them():
    ref = reference.REFERENCE_S
    # at the reference speed nothing changes; twice as slow halves the time
    assert reference.scaled([1.0, 2.0], [ref, ref, ref]) == pytest.approx([1.0, 2.0])
    assert reference.scaled([1.0, 2.0], [ref, 3 * ref, 2 * ref]) == pytest.approx([0.5, 0.8])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
