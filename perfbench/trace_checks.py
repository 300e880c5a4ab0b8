"""Checks of the benchmark's tracing, output checks and result format.

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider perfbench/trace_checks.py

The file name keeps these checks out of the package's own test run. The pinned
``eigh`` counts describe the dense evolution path; a change that replaces that
path changes them on purpose and must update them here.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Job, JobRunner, check_distribution, check_report

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CLASSES = {c.name: c for w in WORKLOADS.values() for c in w.classes}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def traced_cycle(cli, workload, seed, workdir):
    runner = JobRunner(cli, workload, workdir)
    with Tracer() as tracer:
        results, cycles = run.run_cycles(runner, workload, random.Random(seed), 0, tracer)
    assert [r.problem for r in results] == [None] * len(results)
    job_seconds = sum(r.seconds for r in results)
    return layer_metrics(tracer.spans, cycles, job_seconds, 1.0), tracer.spans


def run_job(cli, name, workdir):
    workload = next(w for w in WORKLOADS.values() if name in {c.name for c in w.classes})
    runner = JobRunner(cli, workload, workdir)
    return runner, runner.run(Job(CLASSES[name]))


@pytest.mark.parametrize(
    "name, calls",
    [
        ("run prince-pauper M=8", 5),
        ("run classical-level range=3", 4),
        ("certify lemma1 M=8", 1),
    ],
)
def test_eigh_calls_per_job_class(cli, tmp_path, name, calls):
    with Tracer() as tracer:
        _, result = run_job(cli, name, tmp_path)
    assert result.problem is None
    assert sum(span[0] == "linalg.eigh" for span in tracer.spans) == calls


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_across_traced_runs(cli, tmp_path, workload):
    first, _ = traced_cycle(cli, WORKLOADS[workload], 1, tmp_path / "a")
    second, _ = traced_cycle(cli, WORKLOADS[workload], 2, tmp_path / "b")
    counts = {name for name, (_, unit) in first.items() if unit in ("count/cycle", "B/cycle")}
    assert {"linalg.eigh.calls", "linalg.dense_bytes", "reporting.report_bytes"} <= counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    passed = first["symmetry.certificates_passed"]
    assert passed == first["symmetry.certificates_attempted"] and passed[0] > 0


def test_traced_restores_every_binding(cli, tmp_path):
    import numpy as np

    before = (cli.main, cli.run_prince_pauper, np.linalg.eigh)
    with Tracer():
        assert cli.main is not before[0] and np.linalg.eigh is not before[2]
    assert (cli.main, cli.run_prince_pauper, np.linalg.eigh) == before


def test_coverage_flags_a_missed_binding(cli, tmp_path):
    workload = WORKLOADS["desk-batch"]
    full, spans = traced_cycle(cli, workload, 1, tmp_path / "full")
    assert full["trace.coverage"][0] > 0.9
    assert {span[4] for span in spans} == set(range(len(workload.classes)))

    runner = JobRunner(cli, workload, tmp_path / "missed")
    with Tracer() as tracer:
        cli.run_multiworld = cli.run_multiworld.__wrapped__  # the binding a tracer could miss
        results, cycles = run.run_cycles(runner, workload, random.Random(1), 0, tracer)
    missed = layer_metrics(tracer.spans, cycles, sum(r.seconds for r in results), 1.0)
    assert missed["trace.coverage"][0] < full["trace.coverage"][0] - 0.2


def test_output_checks_catch_bad_reports(cli, tmp_path):
    runner, result = run_job(cli, "run prince-pauper M=8", tmp_path)
    assert result.problem is None
    job_class = CLASSES["run prince-pauper M=8"]
    doc = json.loads((runner.out_dir / "report.json").read_text(encoding="utf-8"))

    def problem_after(edit, target=job_class):
        changed = json.loads(json.dumps(doc))
        edit(changed)
        return check_report(target, json.dumps(changed))

    def pair(d):
        return next(c for c in d["certificates"] if c["type"] == "pair-certificate")

    def swap(d):
        return next(c for c in d["certificates"] if c["type"] == "swap-certificate")

    def isomorphism(d):
        return next(c for c in d["certificates"] if c["type"] == "isomorphism-report")

    classical = CLASSES["run classical-level range=3"]

    assert problem_after(lambda d: None) is None
    assert "pass" in problem_after(lambda d: d.update({"pass": False}))
    assert "gap" in problem_after(lambda d: pair(d).update({"pointer_gaps": [2.0 + 1e-8]}))
    assert "swap_residual" in problem_after(lambda d: swap(d).update({"swap_residual": 2e-10}))
    assert "state_residuals" in problem_after(
        lambda d: isomorphism(d)["state_residuals"].append(float("nan"))
    )
    assert problem_after(lambda d: swap(d).update({"commutator_residual": 0.0}), classical) is None
    assert "not exactly 0.0" in problem_after(
        lambda d: swap(d).update({"commutator_residual": 1e-300}), classical
    )
    assert "worlds" in problem_after(lambda d: None, CLASSES["run multiworld k=2 M=8"])

    runner.digests[result.key] = "0" * 64
    assert "differ" in runner.run(Job(job_class)).problem


def test_distribution_checks(cli, tmp_path):
    name = "export-distribution M=8"
    workload = WORKLOADS["desk-batch"]
    runner = JobRunner(cli, workload, tmp_path)
    result = runner.run(Job(CLASSES[name], 0.5))
    assert result.problem is None
    text = (runner.out_dir / "distribution.csv").read_text(encoding="utf-8")
    lines = text.split("\n")
    assert "rows" in check_distribution(CLASSES[name], "\n".join(lines[:-2] + [""]))
    zeta, branch, probability = lines[1].split(",")
    bumped = f"{zeta},{branch},{float(probability) + 1e-8!r}"
    assert "sum" in check_distribution(CLASSES[name], "\n".join([lines[0], bumped] + lines[2:]))


def test_tail_percentile():
    assert run.tail(range(1, 101), 80) == (80, 20)
    assert run.tail(range(54), 75) == (40, 13)


def test_result_metrics_match_benchmark_json(cli, tmp_path):
    workload = WORKLOADS["desk-batch"]
    runner = JobRunner(cli, workload, tmp_path / "e2e")
    results, e2e, _ = run.untraced_run(runner, workload, random.Random(1), 0)
    assert all(r.problem is None for r in results)
    assert {n: u for n, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(value > 0 for value, _ in e2e.values())
    per_layer, _ = traced_cycle(cli, workload, 1, tmp_path / "traced")
    assert {n: u for n, (_, u) in per_layer.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "desk-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env={"PATH": ""},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
