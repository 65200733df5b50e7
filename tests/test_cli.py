"""Config parsing, artifact writing and the command-line entry point."""

import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import _pool_spy, quintic_nan_outside_model
from truncmil import cli, experiments

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONDITIONS_CFG = """
kind = conditions
omega.coeff = 83
omega.power = 3
h.coeff = 1
h.power = 0.1
h_bar = 1
q = 1
p = 42
r = 4
"""


def test_parse_config_basics():
    cfg = cli.parse_config("a = 1\n# comment\nb.c = hello  # trailing\n\n")
    assert cfg == {"a": "1", "b.c": "hello"}


def test_parse_config_rejects_bad_line():
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config("a = 1\nnot a pair\n")


def test_parse_config_rejects_a_key_set_twice():
    # the last value won silently
    with pytest.raises(cli.ConfigError, match="line 3: key 'q' already set on line 1"):
        cli.parse_config("q = 1\n\nq = 2\n")


def test_run_refuses_a_key_set_twice_but_takes_a_flag_over_a_file_value(tmp_path, capsys):
    out = tmp_path / "out"
    twice = write_config(tmp_path, CONDITIONS_CFG + "q = 2\n", name="twice.cfg")
    assert cli.run(twice, out=str(out)) == cli.EXIT_PARSE
    assert "config parse error: line 11: key 'q' already set on line 8" in capsys.readouterr().err
    assert not out.exists()
    assert cli.run(write_config(tmp_path, CONDITIONS_CFG + "seed = 4\n"), seed=5,
                   out=str(out)) == 0
    assert json.loads((out / "fit.json").read_text())["seed"] == 5


def test_config_hash_order_independent():
    assert cli.config_hash({"a": "1", "b": "2"}) == cli.config_hash({"b": "2", "a": "1"})
    assert cli.config_hash({"a": "1"}) != cli.config_hash({"a": "2"})


def test_missing_config_file(tmp_path):
    assert cli.run(str(tmp_path / "absent.cfg")) == cli.EXIT_PARSE


def test_unknown_kind(tmp_path, capsys):
    path = write_config(tmp_path, "kind = frobnicate\n")
    assert cli.run(path) == cli.EXIT_VALIDATION
    assert "unknown experiment kind" in capsys.readouterr().err


def test_missing_required_field(tmp_path, capsys):
    path = write_config(tmp_path, "kind = conditions\n")
    assert cli.run(path, out=str(tmp_path / "out")) == cli.EXIT_VALIDATION
    assert "omega.coeff" in capsys.readouterr().err


def test_unknown_model(tmp_path, capsys):
    path = write_config(tmp_path, "kind = check\nmodel = banana\n")
    assert cli.run(path, out=str(tmp_path / "out")) == cli.EXIT_VALIDATION
    assert "banana" in capsys.readouterr().err


def test_conditions_run(tmp_path):
    path = write_config(tmp_path, CONDITIONS_CFG)
    out = tmp_path / "out"
    assert cli.run(path, seed=3, out=str(out)) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["new_threshold"] == 1.0
    assert payload["dominant_rate"] == 1.6
    assert payload["old_threshold"] == pytest.approx(83.0 ** (-410.0 / 17.0), rel=1e-6)
    assert payload["seed"] == 3
    assert payload["artifact_version"]
    assert len(payload["config_hash"]) == 16


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
paths = 64
"""


def test_rate_run_writes_artifacts(tmp_path):
    path = write_config(tmp_path, RATE_CFG)
    out = tmp_path / "out"
    assert cli.run(path, seed=1, out=str(out)) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("config_hash" in ln for ln in header)
    assert any("seed = 1" in ln for ln in header)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "delta,error,se,norm_error"
    assert len(data) == 4
    assert hashlib.sha256("\n".join(data).encode()).hexdigest() == (
        "368817602cd7c9faeb168d2087711daf36c02c4d8fae33f6bc3ef48177514ecb")
    fit = json.loads((out / "fit.json").read_text())
    assert fit["n_paths"] == 64
    assert fit["scheme"] == "truncated_milstein"


def test_rate_run_refuses_blown_up_rungs(tmp_path, capsys):
    # classical EM diverges on the criterion-3 ladder: no NaN may reach an artifact
    cfg_text = """
kind = rate
model = cubic_quintic
scheme = classical_em
omega.coeff = 4
omega.power = 5
h.coeff = 4
h.power = 0.1
h_bar = 4
t_final = 1.28
delta_ref = 0.00125
steps = 0.02, 0.04, 0.08, 0.16, 0.32, 0.64
paths = 200
"""
    path = write_config(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert cli.run(path, seed=2026, out=str(out)) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "non-finite error at step(s) 0.08, 0.16" in err
    assert not (out / "fit.json").exists()
    assert not (out / "rates.csv").exists()


def test_rate_run_requires_steps(tmp_path, capsys):
    cfg_text = RATE_CFG.replace("steps = 0.02, 0.04, 0.08\n", "")
    assert "steps" not in cfg_text
    path = write_config(tmp_path, cfg_text)
    assert cli.run(path, out=str(tmp_path / "out")) == cli.EXIT_VALIDATION
    assert ("validation error: field 'steps': a rate fit needs at least 3 distinct steps"
            in capsys.readouterr().err)


def _refuse_pools(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)


# each turns RATE_CFG's ladder (t_final 0.16, delta_ref 0.005) or one of its
# numbers invalid; the message names the field at fault
@pytest.mark.parametrize("old, new, field", [
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.02, 0.03, 0.04", "test step = 0.03",
                 id="step-not-dividing-horizon"),
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.02, 0.032, 0.08", "test step 0.032",
                 id="step-not-multiple-of-ref"),
    pytest.param("t_final = 0.16", "t_final = 0.1625", "t_final = 0.1625",
                 id="horizon-not-multiple-of-ref"),
    pytest.param("delta_ref = 0.005", "delta_ref = 0", "delta_ref: step size", id="zero-ref"),
    pytest.param("t_final = 0.16", "t_final = -0.16", "t_final = -0.16", id="negative-horizon"),
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.02, 0.04", "field 'steps'",
                 id="two-steps"),
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.04, 0.04, 0.04", "field 'steps'",
                 id="one-distinct-step"),
    # the reference's own rung has error 0 by construction, so no log-log fit
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.005, 0.02, 0.04",
                 "test step 0.005 equals delta_ref", id="step-is-ref"),
    # a horizon or step that is not finite makes no whole number of steps
    pytest.param("t_final = 0.16", "t_final = inf", "t_final = inf: not a finite number",
                 id="infinite-horizon"),
    pytest.param("t_final = 0.16", "t_final = nan", "t_final = nan: not a finite number",
                 id="nan-horizon"),
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.02, 0.04, inf",
                 "steps = inf: not a finite number", id="infinite-step"),
    pytest.param("omega.coeff = 4", "omega.coeff = inf", "omega.coeff = inf: not a finite number",
                 id="infinite-omega-coeff"),
    pytest.param("omega.power = 5", "omega.power = inf", "omega.power = inf: not a finite number",
                 id="infinite-omega-power"),
    pytest.param("h_bar = 4", "h_bar = inf", "h_bar = inf: not a finite number",
                 id="infinite-h-bar"),
    pytest.param("steps = 0.02, 0.04, 0.08", "steps = 0.02, x, 0.08",
                 "field 'steps': expected comma-separated numbers", id="non-numeric-step"),
])
def test_rate_run_rejects_bad_ladder_before_any_pool(tmp_path, capsys, monkeypatch, old, new,
                                                     field):
    _refuse_pools(monkeypatch)
    path = write_config(tmp_path, RATE_CFG.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--workers", "2"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error:" in err and field in err
    assert not (out / "rates.csv").exists()
    assert not (out / "fit.json").exists()


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
horizon_steps = 200
paths = 32
record_paths = 3
"""


def test_stability_run(tmp_path):
    path = write_config(tmp_path, STABILITY_CFG)
    out = tmp_path / "out"
    assert cli.run(path, seed=2, out=str(out)) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["H"] == pytest.approx(60.5, rel=1e-6)
    assert payload["paper_H"] == 25.0
    assert payload["paper_discrepancy"] is True
    assert 0.0 <= payload["decay_fraction"] <= 1.0
    assert payload["blowup_fraction"] == 0.0
    data = [ln for ln in (out / "stability.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert data[0] == "path,k,abs_y"
    assert len(data) == 1 + 3 * 201
    assert hashlib.sha256("\n".join(data).encode()).hexdigest() == (
        "c47f520f321c13f1a98c05d2e4b4f2b2c7e042710095534531dcb471bb933f5c")
    # the stability constants, pinned to the per-point search they came from
    keys = ("H", "delta_1", "radius_at_one", "paper_H", "paper_delta_1", "paper_discrepancy")
    constants = json.dumps({key: payload[key] for key in keys}, sort_keys=True)
    assert hashlib.sha256(constants.encode()).hexdigest() == (
        "fc895cd3ebf96a8e1155254aef572de89e5de02f4824550012bf2e0318d7462d")


def test_a_fresh_process_writes_the_pinned_rows_without_loading_scipy_special(tmp_path):
    # pytest has imported scipy.special before the other pins run, so only a
    # fresh interpreter draws through brownian's lean load of ndtri
    path = write_config(tmp_path, STABILITY_CFG)
    out = tmp_path / "out"
    code = ("import sys\n"
            "from truncmil import cli\n"
            f"assert cli.run({path!r}, seed=2, workers=2, out={str(out)!r}) == 0\n"
            "assert 'scipy.special' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    data = [ln for ln in (out / "stability.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert hashlib.sha256("\n".join(data).encode()).hexdigest() == (
        "c47f520f321c13f1a98c05d2e4b4f2b2c7e042710095534531dcb471bb933f5c")


# the data rows pinned by test_rate_run_writes_artifacts and test_stability_run
@pytest.mark.parametrize("text, seed, csv, digest", [
    (RATE_CFG, 1, "rates.csv", "368817602cd7c9faeb168d2087711daf36c02c4d8fae33f6bc3ef48177514ecb"),
    (STABILITY_CFG, 2, "stability.csv",
     "c47f520f321c13f1a98c05d2e4b4f2b2c7e042710095534531dcb471bb933f5c")])
def test_runs_in_one_process_write_the_rows_of_one_worker(tmp_path, monkeypatch, text, seed,
                                                          csv, digest):
    pools = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    path = write_config(tmp_path, text)
    rows = []
    for i, workers in enumerate((1, 2, 2)):
        out = tmp_path / f"out{i}"
        assert cli.run(path, seed=seed, workers=workers, out=str(out)) == 0
        rows.append([ln for ln in (out / csv).read_text().splitlines()
                     if not ln.startswith("#")])
    assert len(pools) == 2                  # one pool per two-worker run
    assert rows[0] == rows[1] == rows[2]
    assert hashlib.sha256("\n".join(rows[0]).encode()).hexdigest() == digest


def test_run_dispatches_to_the_runner_the_module_holds(tmp_path, monkeypatch):
    # a runner swapped on the module (as a tracer wraps it) is the one `run`
    # calls; a table of the functions themselves kept calling the original
    calls = []

    def spy(cfg, fields, out_dir):
        calls.append((fields["kind"], fields["paths"], out_dir))
        return "spied"
    monkeypatch.setattr(cli, "_run_stability", spy)
    out = tmp_path / "out"
    assert cli.run(write_config(tmp_path, STABILITY_CFG), seed=2, out=str(out)) == 0
    assert calls == [("stability", 32, str(out))]
    assert not (out / "stability.csv").exists()


def test_stability_csv_is_written_a_recorded_path_at_a_time(tmp_path, monkeypatch):
    # a 200-path x 2000-step record: formatting the whole record before the
    # write held every row string at once, about 68 MB traced; a path at a
    # time holds one path's rows
    n_paths, horizon = 200, 2000
    record = np.random.default_rng(1).random((n_paths, horizon + 1))
    constants = experiments.StabilityConstants(H=60.5, delta_1=1.0 / 121.0,
                                               radius_at_one=1.0, argmax_norm=0.5)
    decay = experiments.DecayEnsemble(
        decay_flags=np.ones(n_paths, dtype=bool), decay_fraction=1.0, tol_stab=1e-2,
        delta=0.04, horizon_steps=horizon, recorded_magnitudes=record, constants=constants)
    monkeypatch.setattr(cli, "run_stability_ensemble", lambda *args, **kwargs: decay)
    path = write_config(tmp_path, STABILITY_CFG)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert cli.run(path, seed=2, out=str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20
    data = [ln for ln in (out / "stability.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert data == ["path,k,abs_y"] + [f"{p},{k},{mag!r}" for p, series in enumerate(record)
                                       for k, mag in enumerate(series.tolist())]


def test_stability_run_with_blown_up_paths_is_an_experiment_error(tmp_path, capsys,
                                                                 monkeypatch):
    # a stable quintic whose drift is NaN beyond |x| = 1.05, inside the
    # truncation ball of delta = 0.004: 3 of the 32 paths blow up
    monkeypatch.setattr(cli, "_model", lambda cfg: quintic_nan_outside_model())
    path = write_config(tmp_path, STABILITY_CFG)
    out = tmp_path / "out"
    assert cli.run(path, seed=2, workers=2, out=str(out)) == cli.EXIT_RUNTIME
    assert "0.09375 of the paths blew up" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()
    assert not (out / "fit.json").exists()


def test_stability_run_with_constants_over_the_cap_leaves_no_workers(tmp_path, capsys):
    # k(u) = 1e-30 u^2 puts the drift/k ratio over its cap; the constants
    # fail while the two workers step the paths
    path = write_config(tmp_path, STABILITY_CFG.replace("k.coeff = 2", "k.coeff = 1e-30"))
    out = tmp_path / "out"
    assert cli.run(path, seed=2, workers=2, out=str(out)) == cli.EXIT_VALIDATION
    assert "exceeds cap" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_stability_run_rejects_no_paths(tmp_path, capsys):
    path = write_config(tmp_path, STABILITY_CFG)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--paths", "0"]) == cli.EXIT_VALIDATION
    assert "paths = 0" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


def test_stability_run_rejects_negative_record_paths(tmp_path, capsys):
    path = write_config(tmp_path, STABILITY_CFG.replace("record_paths = 3", "record_paths = -3"))
    out = tmp_path / "out"
    assert cli.run(path, out=str(out)) == cli.EXIT_VALIDATION
    assert "record_paths = -3" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


@pytest.mark.parametrize("horizon", [0, -5])
def test_stability_run_rejects_horizon_below_one_step(tmp_path, capsys, horizon):
    path = write_config(tmp_path, STABILITY_CFG.replace("horizon_steps = 200",
                                                        f"horizon_steps = {horizon}"))
    out = tmp_path / "out"
    assert cli.run(path, out=str(out)) == cli.EXIT_VALIDATION
    assert f"horizon_steps = {horizon}" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


@pytest.mark.parametrize("delta", ["0", "2.0"])
def test_stability_run_rejects_step_outside_unit_interval(tmp_path, capsys, monkeypatch, delta):
    _refuse_pools(monkeypatch)
    path = write_config(tmp_path, STABILITY_CFG.replace("delta = 0.004", f"delta = {delta}"))
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--workers", "2"]) == cli.EXIT_VALIDATION
    assert f"step size must lie in (0, 1], got {float(delta)}" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_stability_run_rejects_a_bad_tolerance_before_any_pool(tmp_path, capsys, monkeypatch,
                                                               tol):
    # an infinite tolerance wrote stability.csv, then failed on fit.json
    _refuse_pools(monkeypatch)
    path = write_config(tmp_path, STABILITY_CFG + f"tol_stab = {tol}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--workers", "2"]) == cli.EXIT_VALIDATION
    assert f"tol_stab = {float(tol)}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# each makes one number of a stability or conditions run not finite
@pytest.mark.parametrize("text, old, new, field", [
    # an infinite k makes H = 0 and delta_1 = 1, a ceiling that bounds nothing
    pytest.param(STABILITY_CFG, "k.coeff = 2", "k.coeff = inf", "k.coeff = inf",
                 id="stability-infinite-k-coeff"),
    pytest.param(STABILITY_CFG, "omega.coeff = 4", "omega.coeff = inf", "omega.coeff = inf",
                 id="stability-infinite-omega-coeff"),
    # the step-size conditions take p and r as exact ratios
    pytest.param(CONDITIONS_CFG, "p = 42", "p = inf", "p = inf", id="conditions-infinite-p"),
    pytest.param(CONDITIONS_CFG, "p = 42", "p = 1e400", "p = inf", id="conditions-overflowing-p"),
    pytest.param(CONDITIONS_CFG, "r = 4", "r = -inf", "r = -inf", id="conditions-infinite-r"),
])
def test_run_rejects_a_number_that_is_not_finite_before_any_pool(tmp_path, capsys, monkeypatch,
                                                                 text, old, new, field):
    _refuse_pools(monkeypatch)
    path = write_config(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--workers", "2"]) == cli.EXIT_VALIDATION
    assert f"validation error: {field}: not a finite number" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# each adds a key that its kind does not read, which a run took silently:
# a misspelled tol_stab left the tolerance at its default
@pytest.mark.parametrize("text, line, message", [
    pytest.param(STABILITY_CFG, "tol_stb = 1e-9",
                 "field 'tol_stb': unknown for kind 'stability'; did you mean 'tol_stab'?",
                 id="stability-misspelled-tol-stab"),
    pytest.param(CONDITIONS_CFG, "model = cubic_quintic",
                 "field 'model': unknown for kind 'conditions'\n", id="conditions-model"),
    pytest.param(CONDITIONS_CFG, "steps = 0.02, 0.04, 0.08",
                 "field 'steps': unknown for kind 'conditions'\n", id="conditions-steps"),
    pytest.param(STABILITY_CFG, "steps = 0.02, 0.04, 0.08",
                 "field 'steps': unknown for kind 'stability'\n", id="stability-rate-key"),
    pytest.param(RATE_CFG, "step = 0.01",
                 "field 'step': unknown for kind 'rate'; did you mean 'steps'?", id="rate-step"),
    pytest.param("kind = check\nmodel = stable_quintic\n", "h_bar = 4",
                 "field 'h_bar': unknown for kind 'check'; did you mean 'p_bar'?",
                 id="check-truncation-key"),
    # the unknown key is named before the required one it misspells
    pytest.param(RATE_CFG.replace("t_final = 0.16\n", ""), "t_finl = 0.16",
                 "field 't_finl': unknown for kind 'rate'; did you mean 't_final'?",
                 id="rate-misspelled-t-final"),
])
def test_run_refuses_a_key_its_kind_does_not_read_before_any_pool(tmp_path, capsys, monkeypatch,
                                                                  text, line, message):
    _refuse_pools(monkeypatch)
    path = write_config(tmp_path, text + line + "\n")
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--workers", "2"]) == cli.EXIT_VALIDATION
    assert f"validation error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text, kind", [
    pytest.param(CONDITIONS_CFG, "conditions", id="conditions"),
    pytest.param("kind = check\nmodel = stable_quintic\n", "check", id="check"),
])
@pytest.mark.parametrize("from_flag", [False, True], ids=["file", "flag"])
def test_run_refuses_paths_where_its_kind_reads_none(tmp_path, capsys, text, kind, from_flag):
    # neither kind simulates paths, but `paths` used to change the config hash
    path = write_config(tmp_path, text if from_flag else text + "paths = 5\n")
    out = tmp_path / "out"
    flag = ["--paths", "5"] if from_flag else []
    assert cli.main(["--config", path, "--out", str(out), *flag]) == cli.EXIT_VALIDATION
    assert (f"validation error: field 'paths': unknown for kind '{kind}'\n"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


def _readme_keys() -> dict:
    """Each kind's keys as README's CLI section lists them: the keys of its
    first table, which every kind takes, those of its second for the kinds
    said to take the truncation pair, and the keys of the kind's own item."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    common, truncation = ({key for row in table.splitlines()[2:]
                           for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
                          for table in re.findall(r"(?:^\|.*\n)+", section, re.M))
    with_truncation = re.findall(r"`(\w+)`", section.split("also take the truncation pair")[0]
                                 .rsplit("\n\n", 1)[1])
    return {kind: common | set(re.findall(r"`([^`]+)`", own))
            | (truncation if kind in with_truncation else set())
            for kind, own in re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", section, re.M)}


def test_readme_lists_every_kind_and_no_other():
    assert sorted(_readme_keys()) == sorted(cli._FIELDS)


@pytest.mark.parametrize("kind", sorted(cli._FIELDS))
def test_readme_lists_the_keys_each_kind_reads(kind):
    assert _readme_keys().get(kind) == set(cli._FIELDS[kind])


def test_rate_run_rejects_a_single_path(tmp_path, capsys):
    # one path gives no standard error, so no rates.csv full of NaN
    path = write_config(tmp_path, RATE_CFG)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--paths", "1"]) == cli.EXIT_VALIDATION
    assert "paths = 1" in capsys.readouterr().err
    assert not (out / "rates.csv").exists()


@pytest.mark.parametrize("q", ["-1", "0", "nan", "inf"])
def test_rate_run_rejects_a_bad_moment_exponent_before_any_pool(tmp_path, capsys, monkeypatch,
                                                                 q):
    _refuse_pools(monkeypatch)
    path = write_config(tmp_path, RATE_CFG + f"q = {q}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--workers", "2"]) == cli.EXIT_VALIDATION
    assert f"q = {float(q)}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# two usable CPUs and one default worker per 1024 paths: 2048 paths make one
# two-worker pool, and the default 1000 run in-process
@pytest.mark.parametrize("paths, pools", [("paths = 2048\n", [2]), ("", [])])
def test_run_without_workers_takes_the_default_pool(tmp_path, monkeypatch, paths, pools):
    path = write_config(tmp_path, RATE_CFG.replace("paths = 64\n", paths))

    def data_rows(workers):
        out = tmp_path / f"out{workers}"
        assert cli.run(path, workers=workers, out=str(out)) == 0
        return [ln for ln in (out / "rates.csv").read_text().splitlines()
                if not ln.startswith("#")]
    one, sizes = data_rows(1), []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _pool_spy(sizes))
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    assert data_rows(None) == one
    assert sizes == pools


@pytest.mark.parametrize("workers", [0, -2])
def test_run_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    path = write_config(tmp_path, RATE_CFG)
    out = tmp_path / "out"
    argv = ["--config", path, "--out", str(out), "--workers", str(workers)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "field 'workers'" in capsys.readouterr().err
    assert not (out / "rates.csv").exists()


def test_check_run(tmp_path):
    cfg_text = """
kind = check
model = stable_quintic
probe_points = 200
probe_radius = 2.0
K1 = 100
K2 = 60
lambda3 = 150
k.coeff = 2
k.power = 2
"""
    path = write_config(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert cli.run(path, out=str(out)) == 0
    data = [ln for ln in (out / "checks.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert data[0] == "assumption,sampled_points,worst_margin"
    assert len(data) == 5      # three growth checks plus the dissipativity check
    for row in data[1:]:
        margin = float(row.split(",")[2])
        assert margin <= 0
    # the falsifiers' margins, pinned to the per-point loops they came from
    assert hashlib.sha256("\n".join(data).encode()).hexdigest() == (
        "89e2864ea2353000880a697e43c9f9ef3c56d5c4aa9750c1ac8c539ada701cee")


# a NaN p_bar or K1 makes a NaN margin, which no check reads as a violation
@pytest.mark.parametrize("line, field", [("probe_points = 0", "probe_points = 0"),
                                         ("probe_radius = -1", "probe_radius = -1.0"),
                                         ("K1 = lots", "field 'K1'"),
                                         ("p_bar = nan", "p_bar = nan: not a finite number"),
                                         ("K1 = nan", "K1 = nan: not a finite number"),
                                         ("probe_radius = inf",
                                          "probe_radius = inf: not a finite number"),
                                         ("k.power = 2", "missing required field 'k.coeff'")],
                         ids=["probe_points", "probe_radius", "K1", "nan-p_bar", "nan-K1",
                              "infinite-probe_radius", "lone-k_power"])
def test_check_run_rejects_a_bad_probe_field(tmp_path, capsys, line, field):
    path = write_config(tmp_path, f"kind = check\nmodel = stable_quintic\n{line}\n")
    out = tmp_path / "out"
    assert cli.run(path, out=str(out)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error:" in err and field in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sub", ["", "sub"], ids=["a-file", "under-a-file"])
def test_run_rejects_an_out_path_through_a_file(tmp_path, capsys, sub):
    # os.makedirs raised FileExistsError or NotADirectoryError, a traceback
    path = write_config(tmp_path, CONDITIONS_CFG)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert cli.main(["--config", path, "--out", str(afile / sub)]) == cli.EXIT_VALIDATION
    assert "validation error: field 'out'" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def test_out_dir_env_var(tmp_path, monkeypatch):
    path = write_config(tmp_path, CONDITIONS_CFG)
    out = tmp_path / "envout"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out))
    assert cli.run(path) == 0
    assert (out / "fit.json").exists()


def test_main_entry_point(tmp_path, capsys):
    path = write_config(tmp_path, CONDITIONS_CFG)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "--seed", "5"]) == 0
    assert "dominant rate = 1.6" in capsys.readouterr().out
    assert json.loads((out / "fit.json").read_text())["seed"] == 5


def test_seed_override_changes_hash(tmp_path):
    path = write_config(tmp_path, CONDITIONS_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, seed=1, out=str(out_a)) == 0
    assert cli.run(path, seed=2, out=str(out_b)) == 0
    ha = json.loads((out_a / "fit.json").read_text())["config_hash"]
    hb = json.loads((out_b / "fit.json").read_text())["config_hash"]
    assert ha != hb


def test_hash_ignores_workers_and_out_dir(tmp_path):
    # neither setting changes the results, so neither changes the provenance header
    path = write_config(tmp_path, RATE_CFG)
    headers = set()
    for workers, out in ((1, "a"), (4, "b"), (1, "c")):
        assert cli.run(path, seed=1, workers=workers, out=str(tmp_path / out)) == 0
        lines = (tmp_path / out / "rates.csv").read_text().splitlines()
        headers.add(next(ln for ln in lines if ln.startswith("# config_hash")))
    assert len(headers) == 1
