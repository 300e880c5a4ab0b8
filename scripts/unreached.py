#!/usr/bin/env python3
"""List the ``src/swaplab`` functions and statements that neither the byte
audit nor the acceptance suite runs.

    python scripts/unreached.py

Runs every job of ``scripts/report_audit.py`` in-process through
``swaplab.cli.main`` and calls each ``test_*`` function of
``tests/test_acceptance.py``, with a ``sys.settrace`` hook that records the
file and first line of every Python call's code object and, in frames whose
code lies under ``src/swaplab``, every line that runs. Prints one line per
function or method defined in ``src/swaplab`` (found with ``ast``, lambdas
and comprehensions aside) whose code never ran: ``module.qualname
file:line``. Dataclass methods that Python generates have no source and are
not listed. Then one line per function-body statement of the other functions
that never ran: ``module.qualname: <its first source line, stripped>``, with
no line number, so an edit elsewhere in a file leaves the list as it is.
Exempt are docstrings and other statements that compile to no code,
``raise`` statements and the bodies of ``except`` handlers. Uses the
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


def _span(node) -> set:
    """The lines of ``node``, from its first decorator if it has one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return set(range(start, node.end_lineno + 1))


def _statements(body):
    """(own lines, first line) of each statement in ``body`` and in the blocks
    under it, nested defs' bodies aside: a statement's own lines are its span
    less its blocks' and ``except`` handlers' spans, and it ran if any of them
    did. A ``try`` has no line of its own that runs, so only its blocks count."""
    for node in body:
        if isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue
        blocks = [getattr(node, field, ()) for field in ("body", "orelse", "finalbody")]
        inner = [_span(child) for block in blocks for child in block]
        inner += [_span(handler) for handler in getattr(node, "handlers", ())]
        if not isinstance(node, ast.Try):
            yield (_span(node) - set().union(*inner)) or {node.lineno}, min(_span(node))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in blocks:
                yield from _statements(block)


def defined_functions() -> dict:
    """(file, first line) -> (module, qualname, def line, statements) of every
    def in the package's modules, with ``statements`` as (own lines, first
    source line stripped) per ``_statements`` of its body; a decorated def's
    code starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()

        def visit(node, prefix, path=path, lines=lines):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    statements = [
                        (own, lines[first - 1].strip()) for own, first in _statements(child.body)
                    ]
                    found[str(path), min(_span(child))] = (
                        path.stem, name, child.lineno, statements
                    )
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(source), "")
    return found


@contextlib.contextmanager
def recording(called: set, ran: set):
    """Adds (file, first line) of every Python frame entered while active to
    ``called``, and (file, line) of every line run in a package frame to ``ran``."""
    package = os.path.realpath(PACKAGE) + os.sep
    in_package = {}

    def record_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return record_line

    def hook(frame, event, arg):
        file = frame.f_code.co_filename
        called.add((file, frame.f_code.co_firstlineno))
        if file not in in_package:
            in_package[file] = os.path.realpath(file).startswith(package)
        return record_line if in_package[file] else None

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        yield
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


def unreached(jobs=None, acceptance: bool = True) -> tuple:
    """What the audit ``jobs`` (all of them by default) and, when
    ``acceptance``, the acceptance tests never run, each list in file and
    line order: ``module.qualname file:line`` of each package function never
    entered, and ``module.qualname: <first line>`` of each statement, in the
    functions entered, that never ran."""
    cli = _module(PACKAGE.parent, "swaplab.cli")
    if jobs is None:
        jobs = _module(ROOT / "scripts", "report_audit").jobs()
    called, ran = set(), set()
    with recording(called, ran):
        _run_audit_jobs(jobs, cli)
        if acceptance:
            _run_acceptance()
    entered = {(os.path.realpath(file), first) for file, first in called}
    ran = {(os.path.realpath(file), line) for file, line in ran}
    functions, statements = [], []
    for (file, first), (module, name, line, body) in defined_functions().items():
        real = os.path.realpath(file)
        if (real, first) not in entered:
            functions.append((file, line, f"{module}.{name} {Path(file).relative_to(ROOT)}:{line}"))
            continue
        statements += [
            (file, min(own), f"{module}.{name}: {text}")
            for own, text in body
            if not any((real, number) in ran for number in own)
        ]
    return tuple([entry for *_, entry in sorted(found)] for found in (functions, statements))


def main() -> int:
    for found in unreached():
        for line in found:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
