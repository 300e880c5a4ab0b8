"""Smoke runs of the example scripts, so a script that still imports a removed
name or builds a config the guards reject fails the suite. The byte audit's
output is also held to the committed ``AUDIT.txt``."""

import ast
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: scripts whose whole output is pinned: the package functions and statements
#: that neither the byte audit nor the acceptance suite runs, so new dead code
#: fails here. Each statement is an error path or oracle capability: a
#: repeated config key, numpy 2's copy, ``op @ op`` (test_symmetry's
#: test_group_property and test_involution_as_matrix), tensor_product's kind
#: and the naming of a non-finite report or CSV value
EXPECTED_STDOUT = {
    "scripts/unreached.py": (
        "reporting._format_float src/swaplab/reporting.py:31\n"
        "config.parse_config.<locals>.unique: "
        "repeated = next(key for key, _ in pairs if key in seen or seen.add(key))\n"
        "linalg.ComplexVector.__array__: return np.array(self.amplitudes, dtype=dtype)\n"
        "linalg.DenseOperator.__matmul__: if other.dim != self.dim:\n"
        "linalg.DenseOperator.__matmul__: return DenseOperator(self.entries @ other.entries)\n"
        "linalg.DenseOperator.__matmul__: return NotImplemented\n"
        "linalg.tensor_product: kind = a.kind\n"
        "reporting._FloatTexts.require_finite: _format_float(float(value))\n"
        "reporting.emit_distribution_csv: for z, row in zip(zeta.tolist(), "
        "per_eigenvalue.T.tolist()):  # names the first in row order\n"
        "reporting.emit_distribution_csv: _format_float(z)\n"
        "reporting.emit_distribution_csv: for eigenvalue, probability in zip(eigenvalues, row):\n"
        "reporting.emit_distribution_csv: _format_float(eigenvalue)\n"
        "reporting.emit_distribution_csv: _format_float(probability)\n"
    ),
}


def check_audit(stdout: str) -> None:
    """The byte audit's job lines against ``AUDIT.txt``: all of each line under
    the same header (numpy, Python, machine), else every job's index, exit
    code, command and config, with a warning naming both headers."""
    header, *lines = stdout.splitlines()
    pinned_header, *pinned = (ROOT / "AUDIT.txt").read_text(encoding="utf-8").splitlines()
    if header == pinned_header:
        assert lines == pinned
        return
    warnings.warn(
        f"audit header {header!r} is not AUDIT.txt's {pinned_header!r}: "
        "report digests not compared, only exit codes and jobs",
        UserWarning,
    )

    def without_digest(rows):
        return [fields[:2] + fields[3:] for fields in map(str.split, rows)]

    assert without_digest(lines) == without_digest(pinned)


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/multiworld_growth.py", "--max-k", "2", "--half-width", "4", "--spacing", "0.5"],
        ["scripts/ccr_sweep.py"],  # exits 1 when the defect stops decreasing
        ["scripts/report_audit.py"],
        ["scripts/unreached.py"],
        # this checkout against itself: both sides' output bytes must agree
        ["scripts/ab_jobs.py", ".", ".", "--workload", "desk-batch", "--rounds", "2"],
    ],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    if argv[0] in EXPECTED_STDOUT:
        assert result.stdout == EXPECTED_STDOUT[argv[0]]
    if argv[0] == "scripts/report_audit.py":
        check_audit(result.stdout)


def test_unreached_lists_the_functions_no_job_runs():
    # a run, a lone certificate and an export reach the production path and
    # none of the dense oracles; ComplexVector is one of them
    sys.path.insert(0, str(ROOT / "scripts"))
    import unreached

    jobs = [
        (("run",), {"scenario": "prince-pauper"}),
        (("certify", "lemma2"), {}),
        (("export-distribution", "--time", "0.5"), {}),
    ]
    lines, statements = unreached.unreached(jobs, acceptance=False)
    names = {line.split()[0] for line in lines}
    assert all(line.split()[1].startswith("src/swaplab/") for line in lines)
    # statements of the functions entered: k = 1 needs no other T, and no
    # failed certificate reaches the stderr lines
    assert {line.split(": ")[0] for line in statements}.isdisjoint(names)
    for line in (
        "scenario._worlds: states = next(stream)",
        "cli.main: print(line, file=sys.stderr)",
    ):
        assert line in statements
    for name in (
        "linalg.ComplexVector.__init__",
        "linalg.hermitian_exponential",
        "measurement.interaction_hamiltonian",
        "isomorphism.check_isomorphism",
        "scenario.run_classical_level",
    ):
        assert name in names
    for name in (
        "cli.main",
        "scenario._worlds",
        "symmetry.certify_lemma2",
        "reporting.emit_distribution_csv",
    ):
        assert name not in names


def test_statement_exemptions():
    sys.path.insert(0, str(ROOT / "scripts"))
    import unreached

    source = textwrap.dedent(
        '''\
        def f(x):
            """docstring"""
            if x:
                raise ValueError(
                    "multi-line"
                )
            try:
                y = g(
                    x,
                )
            except KeyError:
                y = 0
            else:
                y += 1
            return y
        '''
    )
    body = ast.parse(source).body[0].body
    assert list(unreached._statements(body)) == [
        ({3}, 3), ({8, 9, 10}, 8), ({14}, 14), ({15}, 15)
    ]
