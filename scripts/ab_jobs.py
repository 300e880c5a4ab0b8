#!/usr/bin/env python3
"""Interleaved A/B timing of two swaplab checkouts on one benchmark workload.

    python scripts/ab_jobs.py CHECKOUT_A CHECKOUT_B --workload pointer-ladder --rounds 300

Imports each checkout's ``src/swaplab`` into one process under its own
package name and reads the workload's job classes from this checkout's
``perfbench/workloads.py``. Every round is one shuffled cycle of the
workload; each of its jobs runs on both sides, one right after the other
through the benchmark's own ``JobRunner`` (output checks included), the first
side first on even jobs and the second on odd ones, so machine drift slows
both alike. One untimed warm-up cycle runs first. A second pass of as many
rounds swaps the sides, each checkout imported again under a fresh package
name, so a penalty on whichever side a checkout holds cancels in the
geometric mean of the two passes' ratios.

Prints per job class the median seconds of A and B over both passes, each
pass's ratio B / A and their geometric mean, then each checkout's jobs/s and
median job seconds and the jobs/s ratio of each pass. Exits 1 when a job
fails its output checks or the two sides' output bytes differ for some job.
"""

import argparse
import importlib
import importlib.util
import math
import random
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_cli(checkout: Path, name: str):
    """``swaplab.cli`` of ``checkout``, imported as the package ``name``."""
    package = checkout / "src" / "swaplab"
    if not (package / "cli.py").is_file():
        sys.exit(f"ab_jobs: no swaplab sources under {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def interleaved_pass(runners, labels: str, workload, rounds: int):
    """``rounds`` timed cycles of ``workload`` after one warm-up, every job on
    both sides' runners; returns per side job class name -> seconds, the
    number of failed jobs and the keys whose output bytes differ between the sides."""
    rng = random.Random(0)  # the job order and export times, the same on both sides
    seconds = ({}, {})  # per side: job class name -> seconds
    failures = 0
    for round_index in range(rounds + 1):
        for n, job in enumerate(workload.cycle(rng)):
            for side in (0, 1) if n % 2 == 0 else (1, 0):
                result = runners[side].run(job)
                if result.problem is not None:
                    failures += 1
                    print(f"{labels[side]}: {result.key}: {result.problem}", file=sys.stderr)
                if round_index > 0:  # round 0 warms up
                    seconds[side].setdefault(job.job_class.name, []).append(result.seconds)
    differing = {
        key for key, digest in runners[0].digests.items() if runners[1].digests[key] != digest
    }
    return seconds, failures, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, JobRunner

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    checkouts = {"A": args.checkout_a.resolve(), "B": args.checkout_b.resolve()}
    passes = []  # per pass: checkout label -> job class name -> seconds
    failures = 0
    differing = set()
    with tempfile.TemporaryDirectory() as workdir:
        for n, labels in enumerate(("AB", "BA"), start=1):
            runners = [
                JobRunner(
                    load_cli(checkouts[label], f"swaplab_{label.lower()}{n}"),
                    workload,
                    Path(workdir) / f"{label.lower()}{n}",
                )
                for label in labels
            ]
            seconds, failed, differ = interleaved_pass(runners, labels, workload, args.rounds)
            passes.append(dict(zip(labels, seconds)))
            failures += failed
            differing |= differ

    print(
        f"{'job class':34} {'A median s':>12} {'B median s':>12} "
        f"{'B / A 1':>8} {'B / A 2':>8} {'geo mean':>8}"
    )
    for name in passes[0]["A"]:
        a, b = (statistics.median([t for p in passes for t in p[label][name]]) for label in "AB")
        ratios = [statistics.median(p["B"][name]) / statistics.median(p["A"][name]) for p in passes]
        print(
            f"{name:34} {a:12.6f} {b:12.6f} {ratios[0]:8.3f} {ratios[1]:8.3f} "
            f"{math.sqrt(ratios[0] * ratios[1]):8.3f}"
        )
    rates = []  # per pass: jobs/s of A and of B
    for label in "AB":
        per_pass = [[t for samples in p[label].values() for t in samples] for p in passes]
        rates.append([len(times) / sum(times) for times in per_pass])
        times = sum(per_pass, [])
        print(
            f"{label}: {len(times) / sum(times):.1f} jobs/s, p50 {statistics.median(times):.6f} s "
            f"over {len(times)} jobs"
        )
    ratios = [b / a for a, b in zip(*rates)]
    print(
        f"jobs/s B / A: pass 1 {ratios[0]:.3f}, pass 2 {ratios[1]:.3f}, "
        f"geometric mean {math.sqrt(ratios[0] * ratios[1]):.3f}"
    )
    for key in sorted(differing):
        print(f"output bytes differ: {key}", file=sys.stderr)
    return 1 if failures or differing else 0


if __name__ == "__main__":
    sys.exit(main())
