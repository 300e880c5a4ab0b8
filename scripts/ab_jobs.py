#!/usr/bin/env python3
"""Interleaved A/B timing of two swaplab checkouts on one benchmark workload.

    python scripts/ab_jobs.py CHECKOUT_A CHECKOUT_B --workload pointer-ladder --rounds 300

Imports each checkout's ``src/swaplab`` into one process under its own
package name (``swaplab_a``, ``swaplab_b``) and reads the workload's job
classes from this checkout's ``perfbench/workloads.py``. Every round is one
shuffled cycle of the workload; each of its jobs runs on both sides, one
right after the other through the benchmark's own ``JobRunner`` (output
checks included), A first on even jobs and B first on odd ones, so machine
drift slows both alike. One untimed warm-up cycle runs first.

Prints per job class the median seconds of A and B and their ratio B / A,
then each side's jobs/s and median job seconds. Exits 1 when a job fails its
output checks or the two sides' output bytes differ for some job.
"""

import argparse
import importlib
import importlib.util
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
    clis = [load_cli(args.checkout_a.resolve(), "swaplab_a")]
    clis.append(load_cli(args.checkout_b.resolve(), "swaplab_b"))
    rng = random.Random(0)  # the job order and export times, the same on both sides
    seconds = ({}, {})  # per side: job class name -> seconds
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        runners = [
            JobRunner(cli, workload, Path(workdir) / side) for cli, side in zip(clis, "ab")
        ]
        for round_index in range(args.rounds + 1):
            for n, job in enumerate(workload.cycle(rng)):
                for side in (0, 1) if n % 2 == 0 else (1, 0):
                    result = runners[side].run(job)
                    if result.problem is not None:
                        failures += 1
                        print(f"{'ab'[side]}: {result.key}: {result.problem}", file=sys.stderr)
                    if round_index > 0:  # round 0 warms up
                        seconds[side].setdefault(job.job_class.name, []).append(result.seconds)
        differing = sorted(
            key for key, digest in runners[0].digests.items() if runners[1].digests[key] != digest
        )

    print(f"{'job class':34} {'A median s':>12} {'B median s':>12} {'B / A':>7}")
    for name in seconds[0]:
        a, b = (statistics.median(side[name]) for side in seconds)
        print(f"{name:34} {a:12.6f} {b:12.6f} {b / a:7.3f}")
    for label, side in zip("AB", seconds):
        times = [t for samples in side.values() for t in samples]
        print(
            f"{label}: {len(times) / sum(times):.1f} jobs/s, p50 {statistics.median(times):.6f} s "
            f"over {len(times)} jobs"
        )
    for key in differing:
        print(f"output bytes differ: {key}", file=sys.stderr)
    return 1 if failures or differing else 0


if __name__ == "__main__":
    sys.exit(main())
