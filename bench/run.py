"""truncmil benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload rate-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
The run first measures set-up: a fresh interpreter that imports truncmil and
builds the workload's inputs, several times, reporting the median.  It then
runs operations back to back for `--seconds` seconds and checks every
operation's output (see workloads.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` reports the
per-layer metrics: each round runs the workload's operation untraced with its
own worker count (counting process pools), untraced with one worker, and
traced with one worker so that every span stays in this process.  The traced
spans are written to `.bench_out/` when the run ends.

`--size smoke` shrinks every workload to a tiny size for the smoke test
(`test_bench.py`) and measures set-up once.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give the
machine, the per-operation samples and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3

END_TO_END = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# A fresh interpreter: import truncmil, build the inputs, say so.
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6]); "
               "print('ready', flush=True)")


def measure_setup(name: str, seed: int, size: str, work_dir: Path, samples: int) -> list:
    times = []
    for i in range(samples):
        argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), name, str(seed),
                size, str(work_dir / f"setup{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its largest waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_bytes(level: int):
    """Size of the unified cache at `level`, from sysconf or else sysfs."""
    try:
        size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return size
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) == level and \
                    (index / "type").read_text().strip() == "Unified":
                text = (index / "size").read_text().strip()
                return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
        except (OSError, ValueError):
            pass
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy
    import scipy
    sources = hashlib.sha256()
    for path in sorted((SRC / "truncmil").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
    }


class Loop:
    """Times, checks and tallies operations; the first output is the reference."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.digests = set()
        self.last = None

    def op(self, workers: int, run=None) -> float:
        run = run or self.workload.run
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(workers)
        except Exception:
            out = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
        if out is None:
            self.failed += 1
            return wall
        try:
            problems = self.workload.check(out, self.reference)
        except Exception:
            traceback.print_exc()
            problems = ["the check itself raised"]
        if self.reference is None:
            self.reference = out.digest
        self.digests.add(out.digest)
        self.last = out
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed its check: {'; '.join(problems)}",
                  file=sys.stderr)
        return wall


def tail(samples: list):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return {"percentile": pct,
            "value": statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]}


def run_end_to_end(loop: Loop, seconds: float, setup_times: list) -> tuple:
    """One untimed warm-up operation, then operations back to back for
    `seconds`.

    Operation times are scaled to the reference speed (reference.py) by the
    reference runs around each operation; the raw times go into the samples.
    Set-up times are not scaled: a reference run in this process does not
    track the fresh interpreters' imports.
    """
    wl = loop.workload
    loop.op(wl.workers)
    walls, refs = [], [reference.reference_s()]
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        walls.append(loop.op(wl.workers))
        refs.append(reference.reference_s())
    walls_scaled = reference.scaled(walls, refs)
    wall = statistics.median(walls_scaled)
    metrics = {
        "wall_s": wall,
        "path_steps_per_s": wl.path_steps / wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"wall_s": walls_scaled, "wall_tail": tail(walls_scaled), "raw_wall_s": walls,
               "raw_wall_median_s": statistics.median(walls), "reference_s": refs,
               "setup_s": setup_times}
    return metrics, samples


def run_traced(loop: Loop, seconds: float, spans_path: Path) -> tuple:
    wl = loop.workload
    tracer = tracing.Tracer()
    pools = Counter()
    walls_w, walls_1, traced = [], [], []
    root = tracer.wrap(tracing.ROOT_SPAN, wl.run)
    t_start = time.perf_counter()
    rounds = 0
    while True:
        with tracing.counting_pools(pools):
            walls_w.append(loop.op(wl.workers))
        if wl.workers > 1:
            walls_1.append(loop.op(1))
        else:
            walls_1.append(walls_w[-1])
        with tracing.instrumented(tracer):
            traced.append(loop.op(1, run=root))
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > seconds:
            break
    tracer.save(spans_path)
    metrics = tracing.layer_metrics(tracer, rounds)
    # means, like the per-operation layer figures, so that the self times add up
    wall_1, wall_traced = statistics.fmean(walls_1), statistics.fmean(traced)
    metrics.update({
        "experiments.pools_created": pools["experiments.pools_created"] // rounds,
        "experiments.parallel_efficiency":
            wall_1 / (wl.workers * statistics.fmean(walls_w)),
        "cli.artifact_bytes": loop.last.artifact_bytes if loop.last else 0,
        "trace.wall_s": wall_traced,
        "trace.untraced_wall_s": wall_1,
        "trace.overhead_s": wall_traced - wall_1,
    })
    samples = {"rounds": rounds, "wall_workers_s": walls_w, "wall_1_worker_s": walls_1,
               "wall_traced_s": traced, "spans": len(tracer.start)}
    return {name: metrics[name] for name in tracing.PER_LAYER}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's paper seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "truncmil" / "__init__.py").is_file():
        print(f"error: {SRC / 'truncmil'} not found; run from the root of a truncmil "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import truncmil
    if Path(truncmil.__file__).resolve().parent != SRC / "truncmil":
        print(f"error: imported truncmil from {truncmil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    seed = workloads.WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    tag = f"{args.workload}-{args.size}-seed{seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, seed, args.size, work_dir / "op")
        loop = Loop(wl)
        if args.trace:
            metrics, samples = run_traced(loop, args.seconds, OUT_DIR / f"spans-{tag}.npz")
        else:
            setup_times = measure_setup(args.workload, seed, args.size, work_dir,
                                        SETUP_SAMPLES if args.size == "full" else 1)
            metrics, samples = run_end_to_end(loop, args.seconds, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_info(), "samples": samples,
        "digests": sorted(loop.digests),
        "error_rate": loop.failed / loop.attempted,
    }
    units = tracing.PER_LAYER if args.trace else END_TO_END
    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({**record, "result": result},
                                                           indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
