"""Per-layer tracing from outside the program.

The layers are the package's modules: brownian, scheme, truncation, model,
experiments and cli.  `Instrumentation` wraps the functions of each module
in place, in every module namespace that refers to them, and puts the
originals back on exit; the program's code is not touched.  Each wrapped
call records a span (name, start, end, parent span) into flat in-memory
arrays, and a few wrappers also count the work they are handed: Brownian
draws, ensemble path-steps and projected states.  Spans are written out once,
when the run ends.

A layer's self time is the time of its spans minus the time of their child
spans; the benchmark's own root span around each operation supplies the
`other` remainder, so the self times of all layers add up to the traced wall.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("brownian", "scheme", "truncation", "model", "experiments", "cli", "other")
ROOT_SPAN = "other.op"
COUNT_SPAN = "other.counting"

# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "brownian.generate_s": "s",
    "brownian.generate_calls": "count",
    "brownian.draws": "count",
    "brownian.ns_per_draw": "ns",
    "brownian.block_sum_s": "s",
    "scheme.ensemble_s": "s",
    "scheme.ensemble_path_steps": "count",
    "scheme.ns_per_path_step": "ns",
    "scheme.simulate_s": "s",
    "scheme.step_calls": "count",
    "truncation.project_s": "s",
    "truncation.project_calls": "count",
    "truncation.active_fraction": "ratio",
    "model.drift_s": "s",
    "model.drift_calls": "count",
    "model.l_op_s": "s",
    "model.l_op_calls": "count",
    "experiments.constants_s": "s",
    "experiments.fit_s": "s",
    "experiments.pools_created": "count",
    "experiments.parallel_efficiency": "ratio",
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans in flat arrays (index = span id) plus named work counters."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("q")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self._stack: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span named `name` around each call.

        `count(counts, *args, **kwargs)`, when given, runs first inside a span
        of its own in the `other` layer, so that counting is not charged to
        the layer that calls `fn`.
        """
        nid = self._id(name)
        count_nid = self._id(COUNT_SPAN)
        start, end, name_id, parent, stack = (self.start, self.end, self.name_id,
                                              self.parent, self._stack)
        counts = self.counts

        def traced(*args, **kwargs):
            up = stack[-1] if stack else -1
            if count is not None:
                t0 = perf_counter()
                count(counts, *args, **kwargs)
                start.append(t0)
                end.append(perf_counter())
                name_id.append(count_nid)
                parent.append(up)
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(up)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end),
                            name_id=np.frombuffer(self.name_id, dtype=np.int64),
                            parent=np.frombuffer(self.parent, dtype=np.int64))


# --- work counters, called with the wrapped function's arguments -----------


def _count_draws(counts, master_seed, path_index, m, t_final, n_fine):
    counts["brownian.draws"] += int(m) * int(n_fine)


def _count_ensemble(counts, scheme, model, cfg, increments, delta, x0, record=False):
    counts["scheme.ensemble_path_steps"] += int(np.asarray(increments).size)


def _count_projected_batch(counts, cfg, delta, y):
    y = np.asarray(y)
    counts["truncation.projected_states"] += y.size
    counts["truncation.clipped_states"] += int(np.count_nonzero(~(np.abs(y) <= cfg.radius(delta))))


def _count_projected(counts, cfg, delta, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    norm = float(np.abs(x[0])) if x.shape == (1,) else float(np.linalg.norm(x))
    counts["truncation.projected_states"] += 1
    counts["truncation.clipped_states"] += int(not norm <= cfg.radius(delta))


# (module, attribute, span name, counter); span names start with their layer
TARGETS = (
    ("brownian", "generate", "brownian.generate", _count_draws),
    ("brownian", "generate_batch", "brownian.generate_batch", None),
    ("brownian", "block_sums", "brownian.block_sums", None),
    ("brownian", "coarsen", "brownian.coarsen", None),
    ("scheme", "simulate", "scheme.simulate", None),
    ("scheme", "simulate_scalar_ensemble", "scheme.ensemble", _count_ensemble),
    ("scheme", "step", "scheme.step", None),
    ("scheme", "_scalar_step", "scheme.scalar_step", None),
    ("scheme", "_general_step", "scheme.general_step", None),
    ("truncation", "project", "truncation.project", _count_projected),
    ("truncation", "project_scalar_batch", "truncation.project_batch", _count_projected_batch),
    ("model", "builtin_model", "model.builtin_model", None),
    ("model", "resolve_model", "model.resolve_model", None),
    ("model", "eval_l_op", "model.eval_l_op", None),
    ("model", "scalar_l_op", "model.scalar_l_op", None),
    ("model", "finite_difference_l_op", "model.fd_l_op", None),
    ("model", "_sigma_sq", "model.diffusion", None),
    ("model", "_l_sigma_sq", "model.l_sigma", None),
    ("experiments", "run_rate_experiment", "experiments.run_rate_experiment", None),
    ("experiments", "_path_error_samples", "experiments.path_error_samples", None),
    ("experiments", "_path_error_samples_range", "experiments.path_error_samples", None),
    ("experiments", "_rate_chunk", "experiments.rate_chunk", None),
    ("experiments", "_batch_block_sums", "experiments.batch_block_sums", None),
    ("experiments", "fit_rate", "experiments.fit_rate", None),
    ("experiments", "compute_stability_constants", "experiments.constants", None),
    ("experiments", "run_stability_ensemble", "experiments.run_stability_ensemble", None),
    ("experiments", "_stability_chunk", "experiments.stability_chunk", None),
    ("experiments", "terminal_moment_probe", "experiments.terminal_moment_probe", None),
    ("cli", "run", "cli.run", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "_run_rate", "cli.run_rate", None),
    ("cli", "_run_stability", "cli.run_stability", None),
    ("cli", "_write_csv", "cli.write_csv", None),
    ("cli", "_write_summary", "cli.write_summary", None),
    # the benchmark's own 2-d model: its coefficients are model-layer work
    ("workloads", "drift_2d", "model.drift", None),
    ("workloads", "diffusion_2d", "model.diffusion", None),
)


def _modules() -> dict:
    import truncmil
    from truncmil import brownian, cli, experiments, model, scheme, truncation
    import workloads
    return {"truncmil": truncmil, "brownian": brownian, "scheme": scheme,
            "truncation": truncation, "model": model, "experiments": experiments,
            "cli": cli, "workloads": workloads}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every call into the traced functions through `tracer` while open."""
    mods = _modules()
    undo = []
    for mod_name, attr, span, count in TARGETS:
        orig = getattr(mods[mod_name], attr)
        traced = tracer.wrap(span, orig, count)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, traced)
    drifts = mods["model"]._BUILTIN_DRIFTS
    saved_drifts = dict(drifts)
    for key, fn in saved_drifts.items():
        drifts[key] = tracer.wrap("model.drift", fn)
    try:
        yield tracer
    finally:
        drifts.update(saved_drifts)
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)


@contextlib.contextmanager
def counting_pools(counts: Counter):
    """Count the process pools the experiments module creates while open."""
    experiments = sys.modules["truncmil.experiments"]
    base = experiments.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            counts["experiments.pools_created"] += 1
            super().__init__(*args, **kwargs)

    experiments.ProcessPoolExecutor = CountingPool
    try:
        yield counts
    finally:
        experiments.ProcessPoolExecutor = base


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation layer metrics from the recorded spans and counters."""
    names = tracer.names
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    nid = np.frombuffer(tracer.name_id, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

    def ids(*span_names):
        return [names.index(n) for n in span_names if n in names]

    def total(*span_names, exclude_parent=()):
        mask = np.isin(nid, ids(*span_names)) & ~np.isin(parent_name, ids(*exclude_parent))
        return float(dur[mask].sum()) / n_ops

    def calls(*span_names):
        return int(np.isin(nid, ids(*span_names)).sum()) // n_ops

    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    by_layer = np.bincount(layer_of[nid], weights=self_time, minlength=len(LAYERS)) / n_ops
    counts = tracer.counts
    draws = counts["brownian.draws"] // n_ops
    path_steps = counts["scheme.ensemble_path_steps"] // n_ops
    generate_s = total("brownian.generate_batch",
                       "brownian.generate", exclude_parent=("brownian.generate_batch",))
    ensemble_s = total("scheme.ensemble")
    projected = counts["truncation.projected_states"]
    out = {f"{layer}.self_s": float(by_layer[i]) for i, layer in enumerate(LAYERS)}
    out.update({
        "brownian.generate_s": generate_s,
        "brownian.generate_calls": calls("brownian.generate"),
        "brownian.draws": draws,
        "brownian.ns_per_draw": 1e9 * generate_s / draws if draws else 0.0,
        "brownian.block_sum_s": total("brownian.block_sums", "experiments.batch_block_sums"),
        "scheme.ensemble_s": ensemble_s,
        "scheme.ensemble_path_steps": path_steps,
        "scheme.ns_per_path_step": 1e9 * ensemble_s / path_steps if path_steps else 0.0,
        "scheme.simulate_s": total("scheme.simulate"),
        "scheme.step_calls": calls("scheme.step"),
        "truncation.project_s": total("truncation.project", "truncation.project_batch"),
        "truncation.project_calls": calls("truncation.project", "truncation.project_batch"),
        "truncation.active_fraction": (counts["truncation.clipped_states"] / projected
                                       if projected else 0.0),
        "model.drift_s": total("model.drift"),
        "model.drift_calls": calls("model.drift"),
        "model.l_op_s": total("model.eval_l_op"),
        "model.l_op_calls": calls("model.eval_l_op"),
        "experiments.constants_s": total("experiments.constants"),
        "experiments.fit_s": total("experiments.fit_rate"),
    })
    return out
