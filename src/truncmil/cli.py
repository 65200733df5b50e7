"""Command-line entry point: load a flat config, run one experiment, write
reproducible CSV/JSON artifacts.

Config files are diff-able `key = value` lines with dotted sections (see
README for the key reference).  Flags override file values, and every output
file header records the resolved config hash, the master seed and the artifact
version so any run can be reproduced byte-identically.

Exit codes: 2 config parse error, 3 validation error, 4 experiment error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from typing import Optional

from . import __version__
from .model import Assumption, KFunction, ProbeSpec, builtin_model, check_assumption
from .experiments import (RateExperimentSpec, compare_step_conditions,
                          run_rate_experiment, run_stability_ensemble)
from .scheme import SchemeId
from .truncation import TruncationConfig

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

OUT_DIR_ENV = "TRUNCMIL_OUT"


class ConfigError(Exception):
    """Config file could not be parsed."""


class ValidationError(Exception):
    """Config parsed but failed semantic validation; message names the field."""


def parse_config(text: str) -> dict:
    """Parse flat `key = value` lines; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = value
    return cfg


# where the artifacts go and how many workers make them leave the results unchanged
_UNHASHED_KEYS = ("out", "workers")


def config_hash(cfg: dict) -> str:
    """Hash of the config keys that determine the results."""
    canon = "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg) if k not in _UNHASHED_KEYS)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _finite(key: str, value: float) -> float:
    # an inf or NaN would overflow a step count or reach the artifacts as NaN
    if not math.isfinite(value):
        raise ValidationError(f"{key} = {value}: not a finite number")
    return value


def _get(cfg: dict, key: str, kind, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ValidationError(f"missing required field '{key}'")
        return default
    raw = cfg[key]
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"field '{key}': cannot read {raw!r} as {kind.__name__}")
    return _finite(key, value) if kind is float else value


def _float_list(cfg: dict, key: str):
    if key not in cfg:
        return None
    try:
        return [_finite(key, float(v)) for v in cfg[key].split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"field '{key}': expected comma-separated numbers")


# the keys each kind reads: the run keys, which every kind takes, then its own
_TRUNCATION_KEYS = "omega.coeff omega.power h.coeff h.power h_bar "
_KEYS = {kind: ("kind seed workers out " + keys).split() for kind, keys in dict(
    rate=_TRUNCATION_KEYS + "paths model scheme q t_final delta_ref steps error_at",
    conditions=_TRUNCATION_KEYS + "q p r",
    stability=_TRUNCATION_KEYS + "paths model k.coeff k.power delta horizon_steps tol_stab "
                                 "record_paths",
    check="model probe_points probe_radius p_bar K1 K2 lambda3 k.coeff k.power").items()}


def _check_keys(cfg: dict, kind: str) -> None:
    """Refuse a key that `kind` does not read, naming the closest one it does."""
    for key in sorted(set(cfg) - set(_KEYS[kind])):
        near = difflib.get_close_matches(key, _KEYS[kind], n=1)
        raise ValidationError(f"field '{key}': unknown for kind '{kind}'"
                              + "".join(f"; did you mean '{k}'?" for k in near))


def _truncation(cfg: dict) -> TruncationConfig:
    try:
        return TruncationConfig(
            omega_coeff=_get(cfg, "omega.coeff", float, required=True),
            omega_power=_get(cfg, "omega.power", float, required=True),
            h_coeff=_get(cfg, "h.coeff", float, required=True),
            h_power=_get(cfg, "h.power", float, required=True),
            h_bar=_get(cfg, "h_bar", float, required=True),
        )
    except ValueError as exc:
        raise ValidationError(f"truncation config: {exc}")


def _model(cfg: dict):
    try:
        return builtin_model(_get(cfg, "model", str, required=True))
    except ValueError as exc:
        raise ValidationError(f"field 'model': {exc}")


def _k_fn(cfg: dict) -> KFunction:
    try:
        return KFunction(c=_get(cfg, "k.coeff", float, required=True),
                         gamma=_get(cfg, "k.power", float, required=True))
    except ValueError as exc:
        raise ValidationError(f"k-function: {exc}")


def _write_atomic(path: str, chunks) -> None:
    """Write the strings of `chunks` in turn to a temporary file beside
    `path`, then move it into place."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, cfg: dict, seed: int, columns, blocks) -> None:
    """Write the header, the column names and the rows of each of `blocks`, a
    nonempty list of rows, in turn, so only one block's text is held at a
    time; each row is one line of its values' `str` texts (for a float its
    shortest round-trip text)."""
    head = [f"# artifact_version = {__version__}", f"# config_hash = {config_hash(cfg)}",
            f"# seed = {seed}", ",".join(columns)]
    _write_atomic(path, ("\n".join(lines) + "\n" for lines in itertools.chain([head], blocks)))


def _write_summary(path: str, cfg: dict, seed: int, payload: dict) -> None:
    payload = dict(payload)
    payload["artifact_version"] = __version__
    payload["config_hash"] = config_hash(cfg)
    payload["seed"] = seed
    _write_atomic(path, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"])


def _run_rate(cfg: dict, out_dir: str, seed: int, workers: int) -> str:
    trunc = _truncation(cfg)
    model_name = _model(cfg).name
    steps = _float_list(cfg, "steps")
    if steps is None or len(set(steps)) < 3:
        raise ValidationError("field 'steps': a rate fit needs at least 3 distinct steps")
    try:
        spec = RateExperimentSpec(
            model_name=model_name,
            cfg=trunc,
            scheme=SchemeId(_get(cfg, "scheme", str, default="truncated_milstein")),
            q=_get(cfg, "q", float, default=1.0),
            t_final=_get(cfg, "t_final", float, required=True),
            delta_ref=_get(cfg, "delta_ref", float, required=True),
            test_deltas=tuple(steps),
            n_paths=_get(cfg, "paths", int, default=1000),
            master_seed=seed,
            error_at=_get(cfg, "error_at", str, default="terminal"),
        )
    except ValueError as exc:
        raise ValidationError(str(exc))
    _check_keys(cfg, "rate")
    fit = run_rate_experiment(spec, n_workers=workers)
    _write_csv(os.path.join(out_dir, "rates.csv"), cfg, seed,
               ["delta", "error", "se", "norm_error"],
               [list(map("{},{},{},{}".format, fit.deltas.tolist(), fit.errors.tolist(),
                         fit.standard_errors.tolist(), fit.norm_errors.tolist()))])
    _write_summary(os.path.join(out_dir, "fit.json"), cfg, seed, {
        "slope": fit.slope, "slope_se": fit.slope_se, "q": fit.q,
        "n_paths": fit.n_paths, "model": model_name, "scheme": spec.scheme.value,
    })
    return f"slope = {fit.slope:.4f} (se {fit.slope_se:.4f}) over {len(fit.deltas)} steps"


def _run_conditions(cfg: dict, out_dir: str, seed: int, _workers: int) -> str:
    trunc = _truncation(cfg)
    q = _get(cfg, "q", float, default=1.0)
    p = _get(cfg, "p", float, required=True)
    r = _get(cfg, "r", float, required=True)
    try:
        comp = compare_step_conditions(trunc, q, p, r)
    except ValueError as exc:
        raise ValidationError(str(exc))
    _check_keys(cfg, "conditions")
    _write_summary(os.path.join(out_dir, "fit.json"), cfg, seed, {
        "old_threshold": comp.old_threshold,
        "new_threshold": comp.new_threshold,
        "dominant_rate": comp.dominant_rate,
        "q": q, "p": p, "r": r,
    })
    return (f"old threshold = {comp.old_threshold:.6g}, new threshold = "
            f"{comp.new_threshold:g}, dominant rate = {comp.dominant_rate:g}")


def _run_stability(cfg: dict, out_dir: str, seed: int, workers: int) -> str:
    trunc = _truncation(cfg)
    model = _model(cfg)
    k_fn = _k_fn(cfg)
    delta = _get(cfg, "delta", float, required=True)
    horizon = _get(cfg, "horizon_steps", int, required=True)
    tol = _get(cfg, "tol_stab", float, default=1e-2)
    n_paths = _get(cfg, "paths", int, default=1000)
    record = _get(cfg, "record_paths", int, default=10)
    _check_keys(cfg, "stability")
    try:
        decay = run_stability_ensemble(model, trunc, delta, n_paths, horizon, tol,
                                       master_seed=seed, n_workers=workers,
                                       record_paths=record, k_fn=k_fn)
    except ValueError as exc:
        raise ValidationError(str(exc))
    if decay.blowup_fraction > 0:
        # the truncated scheme must not blow up; a decay fraction with blown-up
        # paths counted as not decayed would hide that
        raise RuntimeError(f"{decay.blowup_fraction:.6g} of the paths blew up "
                           "under the truncated scheme")
    constants = decay.constants
    mags = () if decay.recorded_magnitudes is None else decay.recorded_magnitudes
    _write_csv(os.path.join(out_dir, "stability.csv"), cfg, seed, ["path", "k", "abs_y"],
               # one block per recorded path; a float's repr is its str, and
               # cheaper to reach than through format
               ([f"{p},{k},{mag}" for k, mag in enumerate(map(repr, series.tolist()))]
                for p, series in enumerate(mags)))
    _write_summary(os.path.join(out_dir, "fit.json"), cfg, seed, {
        "H": constants.H, "delta_1": constants.delta_1,
        "radius_at_one": constants.radius_at_one,
        "paper_H": constants.paper_H, "paper_delta_1": constants.paper_delta_1,
        "paper_discrepancy": constants.paper_discrepancy,
        "decay_fraction": decay.decay_fraction, "blowup_fraction": decay.blowup_fraction,
        "tol_stab": decay.tol_stab, "delta": delta,
        "horizon_steps": horizon, "n_paths": n_paths,
    })
    return (f"H = {constants.H:.4f}, delta_1 = {constants.delta_1:.6g}, "
            f"decay fraction = {decay.decay_fraction:.3f}")


_CHECK_SET = (Assumption.A2_1_polyLipschitz, Assumption.A2_2_khasminskii,
              Assumption.A2_3_derivGrowth)


def _run_check(cfg: dict, out_dir: str, seed: int, _workers: int) -> str:
    model = _model(cfg)
    k_fn = _k_fn(cfg) if "k.coeff" in cfg else None
    try:
        spec = ProbeSpec(n_points=_get(cfg, "probe_points", int, default=500),
                         radius=_get(cfg, "probe_radius", float, default=2.0),
                         p_bar=_get(cfg, "p_bar", float, default=2.0),
                         constants={key: _get(cfg, key, float)
                                    for key in ("K1", "K2", "lambda3") if key in cfg},
                         k_fn=k_fn)
    except ValueError as exc:
        raise ValidationError(str(exc))
    _check_keys(cfg, "check")
    rows, worst = [], -float("inf")
    for assumption in _CHECK_SET + ((Assumption.A4_1_dissipative,) if k_fn else ()):
        rep = check_assumption(model, assumption, spec)
        rows.append(f"{assumption.value},{rep.sampled_points},{rep.worst_margin}")
        worst = max(worst, rep.worst_margin)
    _write_csv(os.path.join(out_dir, "checks.csv"), cfg, seed,
               ["assumption", "sampled_points", "worst_margin"], [rows])
    status = "no violation found" if worst <= 0 else "VIOLATION FOUND"
    return f"worst margin = {worst:.6g} ({status})"


_RUNNERS = {"rate": _run_rate, "conditions": _run_conditions, "stability": _run_stability,
            "check": _run_check}


def run(config_path: str, seed: Optional[int] = None, paths: Optional[int] = None,
        workers: Optional[int] = None, out: Optional[str] = None) -> int:
    """Execute one configured experiment; returns the process exit status."""
    try:
        with open(config_path) as f:
            cfg = parse_config(f.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    # flag overrides become part of the hashed, recorded config
    if out is None:
        out = os.environ.get(OUT_DIR_ENV) or None
    overrides = {"seed": seed, "paths": paths, "workers": workers, "out": out}
    cfg.update({key: str(value) for key, value in overrides.items() if value is not None})

    try:
        kind = _get(cfg, "kind", str, required=True)
        if kind not in _KEYS:
            raise ValidationError(f"field 'kind': unknown experiment kind {kind!r}")
        run_seed = _get(cfg, "seed", int, default=0)
        run_workers = _get(cfg, "workers", int, default=1)
        if run_workers < 1:
            raise ValidationError(f"field 'workers': need at least one worker, got {run_workers}")
        out_dir = _get(cfg, "out", str, default="out")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"field 'out': cannot make {out_dir!r} a directory: {exc.strerror}")
        if not os.access(out_dir, os.W_OK):
            raise ValidationError(f"field 'out': directory {out_dir!r} is not writable")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        summary = _RUNNERS[kind](cfg, out_dir, run_seed, run_workers)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(summary)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="truncmil",
        description="Truncated Milstein experiments: strong-error rates, "
                    "step-size conditions, stability ensembles.")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--paths", type=int, default=None, help="ensemble size override")
    parser.add_argument("--workers", type=int, default=None, help="worker pool size")
    parser.add_argument("--out", default=None,
                        help=f"output directory (also via ${OUT_DIR_ENV})")
    args = parser.parse_args(argv)
    return run(args.config, seed=args.seed, paths=args.paths,
               workers=args.workers, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
