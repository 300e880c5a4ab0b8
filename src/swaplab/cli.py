"""Command-line front end.

Usage:
    swaplab run <config.json> [--tol X] [--out DIR]
    swaplab certify lemma1|lemma2 <config.json> [--tol X] [--out DIR]
    swaplab export-distribution <config.json> --time T [--world plus|minus|superposition]
                                [--tol X] [--out DIR]

Exit status: 0 when every certificate in the run passes, 2 on config errors
(including a config file that cannot be read or decoded as UTF-8, and an
--out that cannot be created as a directory), 3 on certification failure,
4 on numerical failure. Reports are deterministic: identical configs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .measurement import pointer_spectrum
from .reporting import emit_distribution_csv, emit_report, failed_checks
from .scenario import (
    ScenarioReport,
    ladder_factor,
    qubit_setup,
    run_classical_level,
    run_multiworld,
    run_prince_pauper,  # unused here: perfbench/trace_checks.py reads this binding
)
from .symmetry import certify_lemma1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_NUMERICAL = 4


def _add_common_flags(parser):
    parser.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    parser.add_argument("--out", default=None, help="directory to write the output file into")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swaplab",
        description="pointer-measurement simulation and outcome-swap certification",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run the scenario named in the config")
    run_parser.add_argument("config_path")
    _add_common_flags(run_parser)

    certify_parser = commands.add_parser("certify", help="certify one swap family directly")
    certify_parser.add_argument("target", choices=["lemma1", "lemma2"])
    certify_parser.add_argument("config_path")
    _add_common_flags(certify_parser)

    export_parser = commands.add_parser(
        "export-distribution", help="CSV of the pointer/branch distribution at a given time"
    )
    export_parser.add_argument("config_path")
    export_parser.add_argument("--time", type=float, required=True)
    export_parser.add_argument(
        "--world", choices=["plus", "minus", "superposition"], default="superposition"
    )
    _add_common_flags(export_parser)
    return parser


def _load_config(args) -> RunConfig:
    path = Path(args.config_path)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:  # names the file, as an OSError's message does
        raise ConfigError(f"{exc}: {str(path)!r}") from None
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if getattr(args, "target", None) is not None:
        overrides["scenario"] = f"certify-{args.target}"
    if args.command == "export-distribution":
        # the export builds one pointer setup whatever the scenario, so the
        # config must pass the single-pointer guards
        overrides["scenario"] = "certify-lemma1"
    return parse_config(text, **overrides)


def _dispatch_run(config: RunConfig) -> ScenarioReport:
    kind = config.scenario
    if kind in ("prince-pauper", "multiworld"):  # prince-pauper is multiworld at k = 1
        return run_multiworld(config)
    if kind == "classical-level":
        return run_classical_level(config)
    if kind == "certify-lemma1":
        certificate = certify_lemma1(qubit_setup(config), tol=config.tol)
    else:
        certificate = ladder_factor(config).certificate
    # a lone certificate is a report without worlds, isomorphisms or pairs
    return ScenarioReport(
        world_labels=(),
        readouts=(),
        swap_certificates=(certificate,),
        isomorphism_reports=(),
        pairs=(),
        passed=certificate.passed,
    )


def _export_distribution(config: RunConfig, time: float, world: str) -> str:
    if not 0 <= time <= config.T:
        raise ConfigError(f"--time must lie in [0, {config.T}], got {time}")
    setup = qubit_setup(config)
    # the world's system ket with the pointer ready at zeta = 0, as ``ready_state`` builds it
    state = np.zeros((2, setup.grid.n_points), dtype=complex)
    kets = {"plus": (1.0, 0.0), "minus": (0.0, 1.0)}
    state[:, setup.grid.center_index] = kets.get(world, np.array([1.0, 1.0]) / np.sqrt(2))
    amplitudes = pointer_spectrum(setup).evolve(state.reshape(-1), time, setup.grid.hbar)
    return emit_distribution_csv(amplitudes, setup)


def _write_output(out_dir: str, filename: str, text: str) -> None:
    directory = Path(out_dir)
    if not directory.is_dir():  # mkdir's own check raises and catches an error when it exists
        directory.mkdir(parents=True, exist_ok=True)
    with open(directory / filename, "w", encoding="utf-8") as handle:
        handle.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        failures = []
        if args.command == "export-distribution":
            text = _export_distribution(config, args.time, args.world)
            filename = "distribution.csv"
            passed = True
        else:
            report = _dispatch_run(config)
            text = emit_report(report, config)
            filename = "report.json"
            passed = report.passed
            if not passed:
                failures = failed_checks(report, config.tol)
        if args.out is not None:
            _write_output(args.out, filename, text)
    # ConfigError is a ValueError, so it is caught first
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # a non-finite report value, or numpy's LinAlgError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    # printed once the output is written, so a job that exits 2 reports nothing else
    for line in failures:
        print(line, file=sys.stderr)
    print(text, end="")
    return EXIT_OK if passed else EXIT_CERTIFICATION


if __name__ == "__main__":
    raise SystemExit(main())
