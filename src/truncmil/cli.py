"""Command-line entry point: load a flat config, run one experiment, write
reproducible CSV/JSON artifacts.

Config files are diff-able `key = value` lines with dotted sections (see
README for the key reference).  Flags override file values, and every output
file header records the resolved config hash, the master seed and the artifact
version so any run can be reproduced byte-identically.

Exit codes: 2 config parse error (a malformed line or a key set twice),
3 validation error, 4 experiment error.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .model import Assumption, KFunction, ProbeSpec, builtin_model, check_assumption
from .experiments import (RateExperimentSpec, compare_step_conditions,
                          run_rate_experiment, run_stability_ensemble)
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
    """Parse flat `key = value` lines; '#' starts a comment.  A key may be set
    only once, so no line silently overrides another."""
    cfg, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key '{key}' already set on line {set_on[key]}")
        cfg[key], set_on[key] = value, lineno
    return cfg


# where the artifacts go and how many workers make them leave the results unchanged
_UNHASHED_KEYS = ("out", "workers")


def config_hash(cfg: dict) -> str:
    """Hash of the config keys that determine the results."""
    canon = "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg) if k not in _UNHASHED_KEYS)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _numbers(raw: str) -> tuple:
    """A comma-separated list of numbers."""
    return tuple(float(v) for v in raw.split(",") if v.strip())


# a field's default that makes the key required
_REQUIRED = object()

# each key a kind reads -> (type, default); a default of None leaves the field
# unset.  The run keys come first, and every kind takes them.
_RUN_FIELDS = {"kind": (str, _REQUIRED), "seed": (int, 0), "workers": (int, None),
               "out": (str, "out")}
_TRUNCATION_FIELDS = {key: (float, _REQUIRED)
                      for key in ("omega.coeff", "omega.power", "h.coeff", "h.power", "h_bar")}
_FIELDS = {kind: {**_RUN_FIELDS, **fields} for kind, fields in dict(
    rate={**_TRUNCATION_FIELDS, "model": (str, _REQUIRED), "t_final": (float, _REQUIRED),
          "delta_ref": (float, _REQUIRED), "steps": (_numbers, ()), "paths": (int, 1000),
          "scheme": (str, "truncated_milstein"), "q": (float, 1.0),
          "error_at": (str, "terminal")},
    conditions={**_TRUNCATION_FIELDS, "q": (float, 1.0), "p": (float, _REQUIRED),
                "r": (float, _REQUIRED)},
    stability={**_TRUNCATION_FIELDS, "model": (str, _REQUIRED), "k.coeff": (float, _REQUIRED),
               "k.power": (float, _REQUIRED), "delta": (float, _REQUIRED),
               "horizon_steps": (int, _REQUIRED), "tol_stab": (float, 1e-2),
               "paths": (int, 1000), "record_paths": (int, 10)},
    check={"model": (str, _REQUIRED), "probe_points": (int, 500), "probe_radius": (float, 2.0),
           "p_bar": (float, 2.0), "K1": (float, None), "K2": (float, None),
           "lambda3": (float, None), "k.coeff": (float, None), "k.power": (float, None)},
).items()}


def _typed(key: str, field_type, raw: str):
    try:
        value = field_type(raw)
    except ValueError:
        raise ValidationError(f"field '{key}': expected comma-separated numbers"
                              if field_type is _numbers
                              else f"field '{key}': cannot read {raw!r} as {field_type.__name__}")
    # an inf or NaN would overflow a step count or reach the artifacts as NaN
    for number in {float: (value,), _numbers: value}.get(field_type, ()):
        if not math.isfinite(number):
            raise ValidationError(f"{key} = {number}: not a finite number")
    return value


def _read(cfg: dict, table: dict, kind: Optional[str] = None) -> dict:
    """The fields of `table`, each typed, defaulted and checked finite.  With
    a `kind`, a key that the table does not hold is refused first, naming the
    closest key it does."""
    for key in sorted(set(cfg) - set(table)) if kind else ():
        import difflib                          # only a refused key needs it
        near = difflib.get_close_matches(key, table, n=1)
        raise ValidationError(f"field '{key}': unknown for kind '{kind}'"
                              + "".join(f"; did you mean '{k}'?" for k in near))
    fields = {}
    for key, (field_type, default) in table.items():
        if key in cfg:
            fields[key] = _typed(key, field_type, cfg[key])
        elif default is _REQUIRED:
            raise ValidationError(f"missing required field '{key}'")
        else:
            fields[key] = default
    return fields


def _checked(make, *args, prefix: str = "", **kwargs):
    """`make(*args, **kwargs)`, with the ValueError by which a library call
    refuses its arguments raised as a ValidationError led by `prefix`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(prefix + str(exc))


def _truncation(fields: dict) -> TruncationConfig:
    return _checked(TruncationConfig, prefix="truncation config: ",
                    omega_coeff=fields["omega.coeff"], omega_power=fields["omega.power"],
                    h_coeff=fields["h.coeff"], h_power=fields["h.power"], h_bar=fields["h_bar"])


def _model(fields: dict):
    return _checked(builtin_model, fields["model"], prefix="field 'model': ")


def _k_fn(fields: dict) -> KFunction:
    # `check` takes the pair optionally, but only together
    for key in ("k.coeff", "k.power"):
        if fields[key] is None:
            raise ValidationError(f"missing required field '{key}'")
    return _checked(KFunction, c=fields["k.coeff"], gamma=fields["k.power"], prefix="k-function: ")


def _write_atomic(path: str, chunks) -> None:
    """Write the strings of `chunks` in turn to a new temporary file beside
    `path`, then move it into place.  The file is made with the mode that
    `open(path, "w")` gives, 0o666 less the umask; `tempfile.mkstemp` would
    make it 0o600, and the move keeps the mode."""
    d = os.path.dirname(path) or "."
    for i in itertools.count():
        tmp = os.path.join(d, f".tmp-{os.getpid()}-{i}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:                 # a name another writer holds
            continue
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


def _run_rate(cfg: dict, fields: dict, out_dir: str) -> str:
    if len(set(fields["steps"])) < 3:
        raise ValidationError("field 'steps': a rate fit needs at least 3 distinct steps")
    spec = _checked(RateExperimentSpec, model_name=_model(fields).name,
                    cfg=_truncation(fields), scheme=fields["scheme"], q=fields["q"],
                    t_final=fields["t_final"], delta_ref=fields["delta_ref"],
                    test_deltas=fields["steps"], n_paths=fields["paths"],
                    master_seed=fields["seed"], error_at=fields["error_at"])
    fit = run_rate_experiment(spec, n_workers=fields["workers"])
    _write_csv(os.path.join(out_dir, "rates.csv"), cfg, fields["seed"],
               ["delta", "error", "se", "norm_error"],
               [list(map("{},{},{},{}".format, fit.deltas.tolist(), fit.errors.tolist(),
                         fit.standard_errors.tolist(), fit.norm_errors.tolist()))])
    _write_summary(os.path.join(out_dir, "fit.json"), cfg, fields["seed"], {
        "slope": fit.slope, "slope_se": fit.slope_se, "q": fit.q,
        "n_paths": fit.n_paths, "model": spec.model_name, "scheme": spec.scheme.value,
    })
    return f"slope = {fit.slope:.4f} (se {fit.slope_se:.4f}) over {len(fit.deltas)} steps"


def _run_conditions(cfg: dict, fields: dict, out_dir: str) -> str:
    q, p, r = fields["q"], fields["p"], fields["r"]
    comp = _checked(compare_step_conditions, _truncation(fields), q, p, r)
    _write_summary(os.path.join(out_dir, "fit.json"), cfg, fields["seed"], {
        "old_threshold": comp.old_threshold,
        "new_threshold": comp.new_threshold,
        "dominant_rate": comp.dominant_rate,
        "q": q, "p": p, "r": r,
    })
    return (f"old threshold = {comp.old_threshold:.6g}, new threshold = "
            f"{comp.new_threshold:g}, dominant rate = {comp.dominant_rate:g}")


def _run_stability(cfg: dict, fields: dict, out_dir: str) -> str:
    seed, delta, horizon = fields["seed"], fields["delta"], fields["horizon_steps"]
    decay = _checked(run_stability_ensemble, _model(fields), _truncation(fields), delta,
                     fields["paths"], horizon, fields["tol_stab"], master_seed=seed,
                     n_workers=fields["workers"], record_paths=fields["record_paths"],
                     k_fn=_k_fn(fields))
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
        "horizon_steps": horizon, "n_paths": fields["paths"],
    })
    return (f"H = {constants.H:.4f}, delta_1 = {constants.delta_1:.6g}, "
            f"decay fraction = {decay.decay_fraction:.3f}")


_CHECK_SET = (Assumption.A2_1_polyLipschitz, Assumption.A2_2_khasminskii,
              Assumption.A2_3_derivGrowth)


def _run_check(cfg: dict, fields: dict, out_dir: str) -> str:
    model = _model(fields)
    k_fn = None if (fields["k.coeff"], fields["k.power"]) == (None, None) else _k_fn(fields)
    spec = _checked(ProbeSpec, n_points=fields["probe_points"], radius=fields["probe_radius"],
                    p_bar=fields["p_bar"], k_fn=k_fn,
                    constants={key: fields[key] for key in ("K1", "K2", "lambda3")
                               if fields[key] is not None})
    rows, worst = [], -float("inf")
    for assumption in _CHECK_SET + ((Assumption.A4_1_dissipative,) if k_fn else ()):
        rep = check_assumption(model, assumption, spec)
        rows.append(f"{assumption.value},{rep.sampled_points},{rep.worst_margin}")
        worst = max(worst, rep.worst_margin)
    _write_csv(os.path.join(out_dir, "checks.csv"), cfg, fields["seed"],
               ["assumption", "sampled_points", "worst_margin"], [rows])
    status = "no violation found" if worst <= 0 else "VIOLATION FOUND"
    return f"worst margin = {worst:.6g} ({status})"


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
        # the run keys are read first, so `out` is made before any kind's field is read
        run_fields = _read(cfg, _RUN_FIELDS)
        kind, out_dir = run_fields["kind"], run_fields["out"]
        if kind not in _FIELDS:
            raise ValidationError(f"field 'kind': unknown experiment kind {kind!r}")
        if run_fields["workers"] is not None and run_fields["workers"] < 1:
            raise ValidationError(f"field 'workers': need at least one worker, "
                                  f"got {run_fields['workers']}")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"field 'out': cannot make {out_dir!r} a directory: {exc.strerror}")
        if not os.access(out_dir, os.W_OK):
            raise ValidationError(f"field 'out': directory {out_dir!r} is not writable")
        # each kind's runner `_run_<kind>` is looked up as `run` dispatches,
        # so a runner swapped on the module is the one that runs
        summary = globals()[f"_run_{kind}"](cfg, _read(cfg, _FIELDS[kind], kind), out_dir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(summary)
    return 0


def main(argv: Optional[list] = None) -> int:
    import argparse                             # only the command line needs it
    parser = argparse.ArgumentParser(
        prog="truncmil",
        description="Truncated Milstein experiments: strong-error rates, "
                    "step-size conditions, stability ensembles.")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--paths", type=int, default=None, help="ensemble size override")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: one per usable CPU, "
                             "at most one per 1024 paths)")
    parser.add_argument("--out", default=None,
                        help=f"output directory (also via ${OUT_DIR_ENV})")
    args = parser.parse_args(argv)
    return run(args.config, seed=args.seed, paths=args.paths,
               workers=args.workers, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
