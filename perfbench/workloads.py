"""Workloads of the swaplab benchmark: job classes, config files and output checks.

A job is one call of the public CLI entry point ``swaplab.cli.main(argv)``: a
generated config file goes in and report bytes come out into a directory. A
workload is a fixed list of job classes, one cycle. Sizes never depend on the
seed; the seed only shuffles the job order within each cycle and picks the
``export-distribution --time`` values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

COUPLING = 1.0
DURATION = 1.0
SPACING = 0.25
TOL = 1e-10
EXPORT_TIMES = tuple(f * DURATION for f in (0.25, 0.5, 0.75, 1.0))
CSV_HEADER = "zeta,branch_lambda,probability"
RESIDUAL_FIELDS = (
    "commutator_residual",
    "unitarity_defect",
    "swap_residual",
    "intertwining_residual",
    "cross_construction_distance",
    "state_residuals",
    "state_residual",
    "hamiltonian_residual",
)


@dataclass(frozen=True)
class JobClass:
    """One CLI command on one generated config."""

    name: str
    command: tuple  # CLI words before the config path
    config: dict

    @property
    def scenario(self) -> str:
        if self.command[0] == "certify":
            return f"certify-{self.command[1]}"
        return self.config["scenario"]


@dataclass(frozen=True)
class Job:
    job_class: JobClass
    time: float | None = None  # export-distribution --time

    @property
    def key(self) -> str:
        if self.time is None:
            return self.job_class.name
        return f"{self.job_class.name} --time {self.time!r}"


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple  # the job classes of one cycle, repeats included
    largest: str  # name of the job class that `largest_job_s` times
    # job_tail_s percentile: inside one job class, with at least 10 jobs
    # beyond it in a 30 s run; a percentile that moved with the job count
    # would jump between job classes from run to run
    tail_percentile: int

    def cycle(self, rng: random.Random) -> list:
        jobs = [
            Job(c, rng.choice(EXPORT_TIMES) if c.command[0] == "export-distribution" else None)
            for c in self.classes
        ]
        rng.shuffle(jobs)
        return jobs


def _pointer_config(scenario: str, M: int, **extra) -> dict:
    return {
        "scenario": scenario,
        "M": M,
        "delta": SPACING,
        "g": COUPLING,
        "T": DURATION,
        "tol": TOL,
        **extra,
    }


def _classical(exponent_range: int) -> dict:
    return {
        "scenario": "classical-level",
        "lambda1": 1.0,
        "lambda2": 2.0,
        "ratio_exponent_range": exponent_range,
        "tol": TOL,
    }


def _run_pp(M):
    return JobClass(f"run prince-pauper M={M}", ("run",), _pointer_config("prince-pauper", M))


def _lemma1(M):
    config = _pointer_config("prince-pauper", M)
    return JobClass(f"certify lemma1 M={M}", ("certify", "lemma1"), config)


def _export(M):
    config = _pointer_config("prince-pauper", M)
    return JobClass(f"export-distribution M={M}", ("export-distribution",), config)


def _run_cl(r):
    return JobClass(f"run classical-level range={r}", ("run",), _classical(r))


def _lemma2(r):
    return JobClass(f"certify lemma2 range={r}", ("certify", "lemma2"), _classical(r))


def _run_mw(k, M):
    return JobClass(f"run multiworld k={k} M={M}", ("run",), _pointer_config("multiworld", M, k=k))


WORKLOADS = {
    # dense work on H = -g A x p_Z (dim 2(2M+1) <= 602): eigh, the N x N grid,
    # S H S^dag and the full propagator; the scaling model is never built
    "pointer-ladder": Workload(
        "pointer-ladder",
        tuple(_run_pp(M) for M in (50, 100, 150))
        + tuple(_lemma1(M) for M in (50, 100, 150))
        + (_export(100), _export(100)),
        largest="run prince-pauper M=150",
        tail_percentile=80,
    ),
    # dense permutation matrices and O(dim^3) certificate products on the
    # geometric ladder (dim 392, 648, 968); no PointerGrid is built
    "scaling-ladder": Workload(
        "scaling-ladder",
        tuple(_run_cl(r) for r in (3, 4, 5)) + tuple(_lemma2(r) for r in (3, 4, 5)),
        largest="run classical-level range=5",
        tail_percentile=75,
    ),
    # desk-scale jobs where per-job constant costs dominate: parsing, CLI glue,
    # report rendering and the multiworld pair loop
    "desk-batch": Workload(
        "desk-batch",
        tuple(_run_mw(k, 8) for k in (1, 2, 3))
        + (_run_mw(2, 40), _run_pp(8), _lemma1(8), _export(8)),
        largest="run multiworld k=3 M=8",
        tail_percentile=98,
    ),
}


@dataclass(frozen=True)
class JobResult:
    key: str
    seconds: float
    problem: str | None  # None when every output check holds


def _residual_problem(doc: dict, tol: float) -> str | None:
    for certificate in doc["certificates"]:
        for name in RESIDUAL_FIELDS:
            value = certificate.get(name)
            for residual in value if isinstance(value, list) else [value]:
                if residual is not None and not residual <= tol:
                    return f"{certificate['type']} {name} {residual!r} > tol {tol!r}"
    return None


def check_report(job_class: JobClass, text: str) -> str | None:
    """The first failed check of a report.json, or None."""
    doc = json.loads(text)
    if doc.get("pass") is not True:
        return "report pass is not true"
    problem = _residual_problem(doc, job_class.config["tol"])
    if problem:
        return problem
    config = job_class.config
    scenario = job_class.scenario
    if scenario == "prince-pauper":
        gap = next(
            c["pointer_gaps"][0] for c in doc["certificates"] if c["type"] == "pair-certificate"
        )
        expected = 2 * config["g"] * config["T"]
        if not abs(gap - expected) <= 1e-9:
            return f"pointer gap {gap!r} != 2gT = {expected!r}"
    if scenario == "multiworld":
        worlds = 2 ** config["k"]
        pairs = sum(c["type"] == "pair-certificate" for c in doc["certificates"])
        if len(doc["worlds"]) != worlds or pairs != math.comb(worlds, 2):
            return f"{len(doc['worlds'])} worlds and {pairs} pairs for k = {config['k']}"
    if scenario in ("classical-level", "certify-lemma2"):
        residual = next(
            c["commutator_residual"]
            for c in doc["certificates"]
            if c["type"] == "swap-certificate"
        )
        if residual != 0.0:
            return f"scaling commutator residual {residual!r} is not exactly 0.0"
    return None


def check_distribution(job_class: JobClass, text: str) -> str | None:
    """The first failed check of a distribution.csv, or None."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != CSV_HEADER:
        return "distribution CSV header or line ending is wrong"
    rows = lines[1:-1]
    expected_rows = 2 * (2 * job_class.config["M"] + 1)
    if len(rows) != expected_rows:
        return f"{len(rows)} CSV rows, expected {expected_rows}"
    total = math.fsum(float(row.split(",")[2]) for row in rows)
    if not abs(total - 1.0) <= 1e-9:
        return f"CSV probabilities sum to {total!r}"
    return None


class JobRunner:
    """Runs jobs of one workload in-process through ``swaplab.cli.main``.

    Config files are written on construction, before any timing. Each job's
    output is checked after its timed region; repeats of one job must give
    byte-identical output.
    """

    def __init__(self, cli_module, workload: Workload, workdir: Path):
        self.cli = cli_module  # main is looked up per call, so a tracer can wrap it
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(parents=True)
        self.config_paths = {}
        for job_class in workload.classes:
            if job_class.name not in self.config_paths:
                path = workdir / f"config-{len(self.config_paths)}.json"
                path.write_text(json.dumps(job_class.config), encoding="utf-8")
                self.config_paths[job_class.name] = str(path)
        self.digests = {}

    def run(self, job: Job) -> JobResult:
        job_class = job.job_class
        argv = [*job_class.command, self.config_paths[job_class.name], "--out", str(self.out_dir)]
        if job.time is not None:
            argv += ["--time", repr(job.time)]
        exporting = job_class.command[0] == "export-distribution"
        out_file = self.out_dir / ("distribution.csv" if exporting else "report.json")
        out_file.unlink(missing_ok=True)
        errors = io.StringIO()
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                start = perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a crash is a failed job, not a failed benchmark
                    code = f"{type(exc).__name__}: {exc}"
                seconds = perf_counter() - start
        return JobResult(job.key, seconds, self._problem(job, code, out_file, errors.getvalue()))

    def _problem(self, job: Job, code, out_file: Path, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        if not out_file.is_file():
            return "no output file"
        data = out_file.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(job.key, digest) != digest:
            return "output bytes differ from an earlier run of the same job"
        check = check_distribution if out_file.suffix == ".csv" else check_report
        try:
            return check(job.job_class, data.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
