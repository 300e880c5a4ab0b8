"""Run one swaplab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pointer-ladder --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. One process is one closed-loop client: it runs whole cycles of the
workload's jobs until ``--seconds`` have passed, checking every job's output.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced cycles and prints the per-layer metrics,
writing the spans to ``.perfbench/``. The last line of standard
output is one JSON object; lines before it are a readable summary and the run
metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from spans import SPAN_FIELDS, Tracer, layer_metrics
from workloads import WORKLOADS, JobRunner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SPAWNS = 15
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import swaplab.cli; "
    "print(time.perf_counter() - start, swaplab.cli.__file__)"
)


def import_cli():
    """Import ``swaplab.cli`` from this checkout's ``src/``, or exit with status 1."""
    if not (SRC / "swaplab" / "cli.py").is_file():
        sys.exit(f"perfbench: no swaplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swaplab.cli

    if Path(swaplab.cli.__file__).resolve().parent != SRC / "swaplab":
        sys.exit(f"perfbench: imported swaplab from {swaplab.cli.__file__}, not {SRC}")
    return swaplab.cli


def setup_seconds(spawns: int = SETUP_SPAWNS) -> float:
    """Median wall time of ``import swaplab.cli`` in fresh interpreters."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(spawns):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, module_file = probe.stdout.split()
        if Path(module_file).resolve().parent != SRC / "swaplab":
            raise RuntimeError(f"import probe loaded {module_file}")
        samples.append(float(seconds))
    return statistics.median(samples)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_metadata(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "swaplab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": {name: os.environ.get(name, "default") for name in BLAS_VARIABLES},
        "seed": seed,
    }


def run_cycles(runner, workload, rng, seconds, tracer=None) -> tuple:
    """Whole cycles, closed loop, until `seconds` have passed; at least one."""
    results, cycles = [], 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        for job in workload.cycle(rng):
            if tracer is not None:
                tracer.job += 1
            results.append(runner.run(job))
        cycles += 1
    return results, cycles


def jobs_per_second(results) -> float:
    completed = sum(r.problem is None for r in results)
    return completed / sum(r.seconds for r in results)


def tail(samples, percentile: int) -> tuple:
    """(value, samples beyond): the nearest-rank value at `percentile`."""
    ordered = sorted(samples)
    rank = -(-percentile * len(ordered) // 100)  # ceil(percentile * n / 100)
    return ordered[rank - 1], len(ordered) - rank


def untraced_run(runner, workload, rng, seconds) -> tuple:
    """End-to-end metrics of one untraced phase, after measuring setup_s."""
    setup_s = setup_seconds()
    results, _ = run_cycles(runner, workload, rng, seconds)
    times = [r.seconds for r in results]
    failed = sum(r.problem is not None for r in results)
    tail_s, beyond = tail(times, workload.tail_percentile)
    largest = [r.seconds for r in results if r.key == workload.largest]
    metrics = {
        "jobs_per_s": (jobs_per_second(results), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "largest_job_s": (statistics.median(largest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "success_rate": (1 - failed / len(results), "ratio"),
    }
    detail = {
        "job_tail_percentile": workload.tail_percentile,
        "job_tail_beyond": beyond,
        "timed_jobs": len(times),
        "largest_job_samples": len(largest),
        "error_rate": failed / len(results),
    }
    return results, metrics, detail


def traced_run(runner, workload, rng, seconds, meta) -> tuple:
    """Per-layer metrics from alternating untraced and traced cycles, so that
    machine drift slows both alike; the spans go to OUT."""
    tracer = Tracer()
    untraced, traced, cycles = [], [], 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        untraced += run_cycles(runner, workload, rng, 0)[0]
        with tracer:
            traced += run_cycles(runner, workload, rng, 0, tracer)[0]
        cycles += 1
    overhead = jobs_per_second(untraced) / jobs_per_second(traced)
    job_seconds = sum(r.seconds for r in traced)
    metrics = layer_metrics(tracer.spans, cycles, job_seconds, overhead)
    trace_file = OUT / f"trace-{workload.name}-seed{meta['seed']}.json"
    trace_file.write_text(
        json.dumps({"meta": meta, "fields": SPAN_FIELDS, "spans": tracer.spans}),
        encoding="utf-8",
    )
    detail = {
        "traced_cycles": cycles,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return untraced + traced, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    meta = {"workload": workload.name, **run_metadata(args.seed)}
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        runner = JobRunner(cli, workload, workdir)
        if args.trace:
            ran, metrics, detail = traced_run(runner, workload, rng, args.seconds, meta)
        else:
            ran, metrics, detail = untraced_run(runner, workload, rng, args.seconds)
    finally:
        shutil.rmtree(workdir)

    problems = [f"{r.key}: {r.problem}" for r in ran if r.problem is not None]
    for problem in problems[:10]:
        print(f"perfbench: job failed: {problem}", file=sys.stderr)
    print("meta " + json.dumps({**meta, **detail}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(ran),
        "failed": len(problems),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
