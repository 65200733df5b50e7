"""The benchmark's four workloads: inputs built from a seed, one operation, and
the check of its output.

Each workload is one closed-loop operation against the package: a
``cli.run(...)`` call for the CLI workloads and one public experiment call for
the API workloads.  ``truncmil`` must already be importable (``run.py`` puts
the checkout's ``src`` first on ``sys.path``).

Every operation's output is checked.  At a workload's default seed the data
rows must match the digest recorded in ``digests.json``; at every seed the
paper's invariants must hold and every operation of a run must reproduce the
first one's digest.  The criterion-3 slope range and the ``stable_quintic``
coefficient bound are known acceptance failures of the program and are not
checked here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import truncmil as tm
from truncmil import cli
from truncmil.experiments import RateExperimentSpec
from truncmil.model import SdeModel, register_model

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# truncation pairs of the builtin problems (omega_c, omega_rho, h_c, h_eps, h_bar)
CUBIC_PAIR = (4.0, 5.0, 4.0, 0.1, 4.0)
QUINTIC_PAIR = (4.0, 5.0, 4.0, 0.25, 4.0)


def _cfg_text(fields: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


def _pair_fields(pair) -> dict:
    return dict(zip(("omega.coeff", "omega.power", "h.coeff", "h.power", "h_bar"), pair))


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _array_digest(*arrays) -> str:
    return _sha(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _data_rows(path: Path) -> list:
    """CSV lines that carry data, i.e. all but the `#` provenance header."""
    return [ln for ln in path.read_bytes().splitlines() if not ln.startswith(b"#")]


@dataclass
class Output:
    """What one operation produced: a digest of its data rows plus the values
    the invariant checks read."""

    digest: str
    values: dict
    artifact_bytes: int = 0


class Workload:
    name = ""
    default_seed = 0
    workers = 1
    path_steps = 0      # simulated path-steps per operation

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = seed
        work_dir.mkdir(parents=True, exist_ok=True)
        self.expected_digest = None
        if seed == self.default_seed:
            recorded = json.loads(DIGESTS_PATH.read_text()).get(self.name, {})
            self.expected_digest = recorded.get(size)

    def run(self, workers: int) -> Output:
        raise NotImplementedError

    def invariant_problems(self, out: Output) -> list:
        raise NotImplementedError

    def check(self, out: Output, reference_digest) -> list:
        """Problems found in one operation's output; empty means correct."""
        problems = self.invariant_problems(out)
        if self.expected_digest is not None and out.digest != self.expected_digest:
            problems.append(f"data rows digest {out.digest[:16]} differs from the "
                            f"recorded {self.expected_digest[:16]}")
        if reference_digest is not None and out.digest != reference_digest:
            problems.append("data rows differ from the run's first operation")
        return problems


class CliWorkload(Workload):
    csv_name = ""

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        self.config_path = work_dir / "run.cfg"
        self.config_path.write_text(self.config_text())
        self.out_dir = work_dir / "out"

    def config_text(self) -> str:
        raise NotImplementedError

    def run(self, workers: int) -> Output:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(str(self.config_path), seed=self.seed, workers=workers,
                           out=str(self.out_dir))
        if code != 0:
            return Output("", {"exit_code": code})
        rows = _data_rows(self.out_dir / self.csv_name)
        fit = json.loads((self.out_dir / "fit.json").read_text())
        nbytes = sum(p.stat().st_size for p in self.out_dir.iterdir())
        return Output(_sha([b"\n".join(rows)]), {"exit_code": 0, "rows": rows, "fit": fit},
                      artifact_bytes=nbytes)

    def invariant_problems(self, out: Output) -> list:
        if out.values["exit_code"] != 0:
            return [f"cli.run exited with {out.values['exit_code']}"]
        return self.artifact_problems(out.values["rows"], out.values["fit"])

    def artifact_problems(self, rows: list, fit: dict) -> list:
        raise NotImplementedError


def _rate_problems(errors, slope, n_steps: int) -> list:
    errors = np.asarray(errors, dtype=float)
    problems = []
    if errors.shape != (n_steps,):
        problems.append(f"expected {n_steps} rungs, got {errors.shape}")
    if not np.all(np.isfinite(errors) & (errors > 0)):
        problems.append(f"errors not all finite and positive: {errors}")
    if not math.isfinite(slope):
        problems.append(f"slope is not finite: {slope}")
    return problems


class RateLadder(CliWorkload):
    """CLI `rate` kind with the criterion-3 paper config (the convergence figure)."""

    name = "rate-ladder"
    default_seed = 2026
    workers = 2
    csv_name = "rates.csv"

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        if size == "full":
            self.t_final, self.n_paths = 1.28, 4000
            self.steps = (0.02, 0.04, 0.08, 0.16, 0.32, 0.64)
        else:
            self.t_final, self.n_paths = 0.16, 300
            self.steps = (0.02, 0.04, 0.08)
        self.delta_ref = 0.00125
        n_fine = round(self.t_final / self.delta_ref)
        factors = [round(s / self.delta_ref) for s in self.steps]
        self.path_steps = self.n_paths * (n_fine + sum(n_fine // f for f in factors))
        super().__init__(seed, size, work_dir)

    def config_text(self) -> str:
        return _cfg_text({"kind": "rate", "model": "cubic_quintic",
                          "scheme": "truncated_milstein", **_pair_fields(CUBIC_PAIR),
                          "t_final": self.t_final, "delta_ref": self.delta_ref,
                          "steps": ", ".join(str(s) for s in self.steps),
                          "paths": self.n_paths})

    def artifact_problems(self, rows: list, fit: dict) -> list:
        errors = [float(r.split(b",")[1]) for r in rows[1:]]
        return _rate_problems(errors, float(fit["slope"]), len(self.steps))


class StabilityCli(CliWorkload):
    """CLI `stability` kind with the criterion-5 config."""

    name = "stability-cli"
    default_seed = 5
    workers = 2
    csv_name = "stability.csv"
    record_paths = 10

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.n_paths, self.horizon = (1000, 1000) if size == "full" else (300, 400)
        self.path_steps = self.n_paths * self.horizon
        super().__init__(seed, size, work_dir)

    def config_text(self) -> str:
        return _cfg_text({"kind": "stability", "model": "stable_quintic",
                          **_pair_fields(QUINTIC_PAIR), "k.coeff": 2, "k.power": 2,
                          "delta": 0.04, "horizon_steps": self.horizon, "paths": self.n_paths,
                          "record_paths": self.record_paths})

    def artifact_problems(self, rows: list, fit: dict) -> list:
        problems = []
        if not math.isclose(fit["H"], 60.5, rel_tol=1e-9):
            problems.append(f"H = {fit['H']!r}, expected 60.5")
        if not math.isclose(fit["delta_1"], 1.0 / 121.0, rel_tol=1e-9):
            problems.append(f"delta_1 = {fit['delta_1']!r}, expected 1/121")
        if not fit["decay_fraction"] >= 0.95:
            problems.append(f"decay fraction {fit['decay_fraction']!r} < 0.95")
        n_rows = 1 + min(self.record_paths, self.n_paths) * (self.horizon + 1)
        if len(rows) != n_rows:
            problems.append(f"stability.csv has {len(rows)} data lines, expected {n_rows}")
        return problems


class MomentLadder(Workload):
    """`terminal_moment_probe` with the criterion-6 moment-cap step ladder.

    A quarter of the criterion's 10 000 paths, so that over ten operations
    fit in one run and the median is steady on a shared machine.
    """

    name = "moment-ladder"
    default_seed = 11

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        self.cfg = tm.TruncationConfig(*CUBIC_PAIR)
        if size == "full":
            self.n_paths, ks = 2_500, range(4, 11)
        else:
            self.n_paths, ks = 200, range(4, 7)
        self.deltas = [2.0 ** -k for k in ks]
        self.path_steps = self.n_paths * sum(2 ** k for k in ks)

    def run(self, workers: int) -> Output:
        moments = tm.terminal_moment_probe(tm.builtin_model("cubic_quintic"), self.cfg,
                                           self.deltas, n_paths=self.n_paths, t_final=1.0,
                                           power=4.0, master_seed=self.seed)
        return Output(_array_digest(moments), {"moments": moments})

    def invariant_problems(self, out: Output) -> list:
        m = np.asarray(out.values["moments"], dtype=float)
        if m.shape != (len(self.deltas),):
            return [f"expected {len(self.deltas)} moments, got shape {m.shape}"]
        if not np.all(np.isfinite(m) & (m > 0) & (m <= 1e3)):
            return [f"moments outside (0, 1e3]: {m}"]
        return []


# 2-d, 2-driver diagonal-noise model: each component has the cubic_quintic
# drift and sigma_j(x) = x_j^2 e_j.  It has no analytic L-operator, so the
# stepper takes the finite-difference path.  The noise is commutative, so the
# product correction of the Milstein term is exact.

MODEL_2D = "bench_cubic_quintic_2d"


def drift_2d(x):
    return x**3 - 4.0 * x**5


def diffusion_2d(x, j):
    col = np.zeros(2)
    col[j - 1] = x[j - 1] * x[j - 1]
    return col


def model_2d() -> SdeModel:
    return SdeModel(d=2, m=2, drift=drift_2d, diffusion_col=diffusion_2d,
                    initial_value=np.array([1.0, 1.0]), polynomial_degree_r=4.0,
                    name=MODEL_2D)


class Rate2d(Workload):
    """`run_rate_experiment` on the 2-d model, through the per-path general stepper.

    10 paths, so that over ten operations fit in one run.
    """

    name = "rate-2d"
    default_seed = 2026

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        if size == "full":
            n_paths, t_final, steps = 10, 0.32, (0.02, 0.04, 0.08, 0.16, 0.32)
        else:
            n_paths, t_final, steps = 4, 0.08, (0.02, 0.04, 0.08)
        self.spec = RateExperimentSpec(
            model_name=MODEL_2D, cfg=tm.TruncationConfig(*CUBIC_PAIR),
            scheme="truncated_milstein", q=1.0, t_final=t_final, delta_ref=0.00125,
            test_deltas=steps, n_paths=n_paths, master_seed=seed)
        n_fine = self.spec.n_fine
        self.path_steps = n_paths * (n_fine + sum(n_fine // f for f in self.spec.factors))

    def run(self, workers: int) -> Output:
        register_model(model_2d())
        fit = tm.run_rate_experiment(self.spec, n_workers=workers)
        return Output(_array_digest(fit.deltas, fit.errors, fit.standard_errors,
                                    fit.norm_errors),
                      {"errors": fit.errors, "slope": fit.slope})

    def invariant_problems(self, out: Output) -> list:
        return _rate_problems(out.values["errors"], out.values["slope"],
                              len(self.spec.test_deltas))


WORKLOADS = {w.name: w for w in (RateLadder, MomentLadder, StabilityCli, Rate2d)}


def make(name: str, seed, size: str, work_dir) -> Workload:
    cls = WORKLOADS[name]
    return cls(cls.default_seed if seed is None else seed, size, Path(work_dir))
