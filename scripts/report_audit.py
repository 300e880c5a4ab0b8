#!/usr/bin/env python3
"""Byte audit of the CLI: one line per job of a fixed job list.

    python scripts/report_audit.py [CHECKOUT]

Imports ``swaplab`` from ``CHECKOUT/src`` (default: the checkout holding this
script), runs every job in-process through ``swaplab.cli.main`` and prints
its index, exit code, the first 16 hex digits of the sha256 of
stdout + NUL + stderr, the command and the config. Run it once against each
of two checkouts and ``diff`` the outputs: identical lines mean identical
report bytes, stderr lines and exit codes. The job list comes from this
script's checkout, so both runs execute the same jobs.

The first line is a header, ``# numpy <version> python <major.minor>
<machine>``: rounding-level residuals depend on the FFT library and the CPU,
so job digests are comparable only under one header. ``AUDIT.txt`` at the
checkout root holds this output for the checkout itself; regenerate it with
``python scripts/report_audit.py > AUDIT.txt`` when a change moves report bytes.

The list covers the example configs, every benchmark job class (export
classes at each benchmark time), exports at M = 8 and 100 for every world,
off-grid pointer runs and the ladder with ``phase_insensitive`` both ways,
the ladder at several outcome pairs, ``--tol 1e-30`` on every command and
scenario, custom sample times, zero coupling, three rejected configs, and
runs whose evolution takes several batches or evolves T apart from sample
times that stop short of it, lemma 1 among them, alone and in a run,
multiworld's one-factor case off the grid both ways and at ``--tol 1e-30``,
ladders whose rungs lie within the eigenvalue lookup's reach of each other,
and the ladder at range 12, where its one evolution of both starts takes two
batches: with one start serving both worlds, with sample times that stop
short of T, and both at ``--tol 1e-30``, and multiworld k = 3 at the
sample-count bound and one time over it.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OFF_GRID = {"M": 7, "delta": 0.3, "g": 0.7, "hbar": 0.7, "T": 1.3}
LAMBDA_PAIRS = ((1.0, 1.0), (-1.0, -2.0), (3.0, 7.0), (2.0, 1.0), (1.0, 1.01))
EXPORT_TIMES = ("0.25", "0.5", "0.75", "1.0")
WORLDS = ("plus", "minus", "superposition")
LADDER = {"scenario": "classical-level", "ratio_exponent_range": 2}


def _export(config, time, world=None, flags=()):
    command = ("export-distribution", "--time", time, *(() if world is None else ("--world", world)))
    return (*command, *flags), config


def jobs() -> list:
    """(command words, config dict) per job; the config path goes after the
    first word, or after ``certify`` and its target."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import EXPORT_TIMES as BENCH_TIMES, WORKLOADS

    listed = [
        (("run",), json.loads(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "scripts" / "configs").glob("*.json"))
    ]
    seen = set()
    for workload in WORKLOADS.values():
        for job_class in workload.classes:
            if job_class.name in seen:
                continue
            seen.add(job_class.name)
            if job_class.command[0] == "export-distribution":
                listed += [_export(job_class.config, repr(t)) for t in BENCH_TIMES]
            else:
                listed.append((job_class.command, job_class.config))
    for M in (8, 100):
        listed += [_export({"M": M}, t, w) for t in EXPORT_TIMES for w in WORLDS]
    for insensitive in (False, True):
        flag = {"phase_insensitive": insensitive}
        listed += [
            (("run",), {"scenario": "prince-pauper", **OFF_GRID, **flag}),
            (("run",), {"scenario": "multiworld", "k": 2, **OFF_GRID, **flag}),
            (("run",), {"scenario": "multiworld", "k": 3, **OFF_GRID, **flag}),
            (("run",), {**LADDER, **flag}),
        ]
    listed.append((("certify", "lemma1"), OFF_GRID))
    for lambda1, lambda2 in LAMBDA_PAIRS:
        pair = {**LADDER, "lambda1": lambda1, "lambda2": lambda2}
        listed += [(("run",), pair), (("certify", "lemma2"), pair)]
    tight = ("--tol", "1e-30")
    listed += [
        (("run", *tight), {"scenario": "prince-pauper"}),
        (("run", *tight), {"scenario": "multiworld", "k": 2}),
        (("run", *tight), {"scenario": "multiworld", "k": 3, **OFF_GRID}),
        (("run", *tight), {**LADDER, "lambda2": 1.01}),
        (("run", *tight), {"scenario": "certify-lemma1"}),
        (("run", *tight), {**LADDER, "scenario": "certify-lemma2"}),
        (("certify", "lemma1", *tight), {}),
        (("certify", "lemma1", *tight), OFF_GRID),
        (("certify", "lemma2", *tight), LADDER),
        _export({}, "0.5", flags=tight),
    ]
    times = {"sample_times": [0.0, 0.3, 0.7]}
    listed += [
        (("run",), {"scenario": "prince-pauper", **times}),
        (("run",), {"scenario": "multiworld", "k": 2, **times}),
        (("run",), {**LADDER, **times}),
        (("certify", "lemma2"), {**LADDER, **times}),
        (("run",), {"scenario": "prince-pauper", "g": 0.0}),
        (("run",), {"scenario": "multiworld", "k": 2, "g": 0.0}),
        (("run",), {"scenario": "multiworld", "k": 1}),
        (("run",), {"M": 0}),
        (("run",), {"unknown_key": 1}),
        (("run",), {"scenario": "multiworld", "k": 4}),
    ]
    # states of 7688 and 8002 amplitudes evolve two times per transform call,
    # so these runs cross batch boundaries; T is a time of its own when the
    # sample times stop short of it, and lemma 1 alone evolves T by itself
    many_times = {"sample_times": [i / 40 for i in range(41)]}
    listed += [
        (("run",), {"scenario": "prince-pauper", "M": 2000}),
        (("certify", "lemma1"), {"M": 2000}),
        (("run",), {"scenario": "multiworld", "k": 1, **times}),
        (("run",), {**LADDER, "ratio_exponent_range": 15, **many_times}),
        (("run",), {"scenario": "multiworld", "k": 3, **times}),
        (("run",), {"scenario": "multiworld", "k": 2, "M": 2000, **times}),
        (("run",), {"scenario": "prince-pauper", "M": 2000, **times}),
    ]
    # multiworld's one-factor case where its residuals are nonzero: off the
    # grid both ways, and with every check failing
    listed += [
        (("run",), {"scenario": "multiworld", "k": 1, **OFF_GRID, "phase_insensitive": flag})
        for flag in (False, True)
    ]
    listed.append((("run", *tight), {"scenario": "multiworld", "k": 1}))
    # ladders whose rungs lie closer together than locate_eigenvalue's 1e-9
    # relative reach (the second closer than tol too), and a larger ladder
    for close in (
        {"lambda1": 1.0, "lambda2": 1.0000000005, "ratio_exponent_range": 1},
        {"lambda1": 1.9999999999999998, "lambda2": 2.0, "ratio_exponent_range": 2},
    ):
        listed += [(("run",), {**LADDER, **close}), (("certify", "lemma2"), {**LADDER, **close})]
    listed.append((("run",), {**LADDER, "ratio_exponent_range": 12, "lambda2": 1.01}))
    # 5000 amplitudes: three times per transform call, so T lands in a batch
    # of its own or shares one, and at lambda1 = lambda2 one start is both worlds
    wide = {**LADDER, "ratio_exponent_range": 12}
    shared = {"lambda1": 2.0, "lambda2": 2.0}
    listed += [
        (("run",), {**wide, **shared}),
        (("run",), {**wide, "lambda2": 1.01, **times}),
        (("run", *tight), {**wide, **shared, **times}),
    ]
    # config.MAX_SAMPLE_TIMES: at the bound a run exits 0, one time over it 2
    listed += [
        (("run",), {"scenario": "multiworld", "k": 3, "sample_times": [i / n for i in range(n)]})
        for n in (1000, 1001)
    ]
    return listed


def _argv(command: tuple, path: str) -> list:
    split = 2 if command[0] == "certify" else 1
    return [*command[:split], path, *command[split:]]


def main() -> int:
    checkout = Path(sys.argv[1] if len(sys.argv) > 1 else ROOT).resolve()
    job_list = jobs()
    sys.path.insert(0, str(checkout / "src"))
    import numpy
    from swaplab import cli

    print(f"swaplab from {Path(cli.__file__).parent}", file=sys.stderr)
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    print(f"# numpy {numpy.__version__} python {python} {platform.machine()}")
    with tempfile.TemporaryDirectory() as workdir:
        path = str(Path(workdir) / "config.json")
        for index, (command, config) in enumerate(job_list):
            Path(path).write_text(json.dumps(config), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(_argv(command, path))
                except Exception as exc:  # a crash is a result to compare, not an abort
                    code = f"raised-{type(exc).__name__}"
                    print(exc, file=err)
            digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()
            print(
                f"{index:3d} {code} {digest[:16]} {' '.join(command)} "
                f"{json.dumps(config, sort_keys=True)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
