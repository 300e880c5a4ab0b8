#!/usr/bin/env python3
"""List the ``src/swaplab`` functions that neither the byte audit nor the
acceptance suite runs.

    python scripts/unreached.py

Runs every job of ``scripts/report_audit.py`` in-process through
``swaplab.cli.main`` and calls each ``test_*`` function of
``tests/test_acceptance.py``, with a ``sys.settrace`` hook that records the
file and first line of every Python call's code object. Prints one line per
function or method defined in ``src/swaplab`` (found with ``ast``, lambdas
and comprehensions aside) whose code never ran: ``module.qualname
file:line``. Dataclass
methods that Python generates have no source and are not listed. Uses the
standard library only, besides the packages swaplab itself imports.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swaplab"


def _module(directory: Path, name: str):
    """Module ``name``, imported with ``directory`` on the path."""
    if str(directory) not in sys.path:
        sys.path.insert(0, str(directory))
    return importlib.import_module(name)


def defined_functions() -> dict:
    """(file, first line) -> (module, qualname, def line) of every def in the
    package's modules; a decorated def's code starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix, path=path):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = (path.stem, name, child.lineno)
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


@contextlib.contextmanager
def recording_calls(called: set):
    """Adds (file, first line) of every Python frame entered while active."""

    def hook(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno))
        # no local trace: only calls are recorded, never lines

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        yield called
    finally:
        sys.settrace(previous)


def _run_audit_jobs(jobs, cli) -> None:
    argv = _module(ROOT / "scripts", "report_audit")._argv
    with tempfile.TemporaryDirectory() as workdir:
        path = str(Path(workdir) / "config.json")
        for command, config in jobs:
            Path(path).write_text(json.dumps(config), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv(command, path))


def _run_acceptance() -> None:
    test_acceptance = _module(ROOT / "tests", "test_acceptance")
    tests = [value for name, value in vars(test_acceptance).items() if name.startswith("test_")]
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(io.StringIO()):
        for test in tests:
            names = inspect.signature(test).parameters
            test(**{name: Path(tempfile.mkdtemp(dir=workdir)) for name in names})


def unreached(jobs=None, acceptance: bool = True) -> list:
    """``module.qualname file:line`` of each package function that the audit
    ``jobs`` (all of them by default) and, when ``acceptance``, the acceptance
    tests never enter, in file and line order."""
    cli = _module(PACKAGE.parent, "swaplab.cli")
    if jobs is None:
        jobs = _module(ROOT / "scripts", "report_audit").jobs()
    called = set()
    with recording_calls(called):
        _run_audit_jobs(jobs, cli)
        if acceptance:
            _run_acceptance()
    ran = {(os.path.realpath(file), first) for file, first in called}
    missed = sorted(
        (file, line, f"{module}.{name}")
        for (file, first), (module, name, line) in defined_functions().items()
        if (os.path.realpath(file), first) not in ran
    )
    return [f"{name} {Path(file).relative_to(ROOT)}:{line}" for file, line, name in missed]


def main() -> int:
    for line in unreached():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
