"""Deterministic report and data export.

Reports are rendered with sorted keys (from key plans cached per record type)
and 17-significant-digit floats, so identical runs produce byte-identical
files. Undefined pointer statistics (zero-probability branches) serialize as
JSON null, never NaN; non-finite numbers are rejected as numerical failures.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .isomorphism import IsomorphismReport
from .linalg import ComplexVector
from .measurement import MeasurementSetup, branch_distribution
from .scenario import PairCertificate, ScenarioReport
from .symmetry import SwapCertificate


#: json.dumps of a str, without the encoder object json.dumps builds per call
_quote = json.encoder.encode_basestring_ascii


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot appear in a report")
    return format(value, ".17g")


def _format_bool(value) -> str:
    return "true" if value else "false"


#: renderers of the scalar types a report holds, looked up by exact type
_SCALARS = {
    type(None): lambda value: "null",
    bool: _format_bool,
    np.bool_: _format_bool,
    int: str,
    float: _format_float,
    np.float64: lambda value: _format_float(float(value)),
    str: _quote,
}


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats. A
    dataclass renders as the object of its fields, read from its ``__dict__``
    (no rendered record has slots or cached properties).

    Each container is rendered once per depth: a record that the value holds
    several times (a witness shared by many pairs, a readout by many worlds)
    is looked up by identity and depth; the value keeps every container alive
    for the whole call, so no identity is reused. Keys come from ``_plan``."""
    return _render(value, indent, {})


def _render(value, indent: int, rendered: dict) -> str:
    """One value of ``render_json``; ``rendered`` maps (identity, depth) to
    the text of each container rendered so far."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    key = (id(value), indent)
    text = rendered.get(key)
    if text is None:
        text = rendered[key] = _render_container(value, indent, rendered)
    return text


@functools.lru_cache(maxsize=256)
def _plan(shape, indent: int) -> tuple:
    """(key, its line up to the value) per key of a record type or key tuple, sorted."""
    keys = [f.name for f in fields(shape)] if isinstance(shape, type) else shape
    child = "  " * (indent + 1)
    return tuple((key, f"{child}{_quote(str(key))}: ") for key in sorted(keys))


def _render_container(value, indent: int, rendered: dict) -> str:
    """A value whose type is not in ``_SCALARS``: a container, or a scalar
    of a subclass or another numpy type (bool and numpy.bool_ have none)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return _quote(value)
    if is_dataclass(value):
        plan, value = _plan(type(value), indent), vars(value)
    elif isinstance(value, dict):
        plan = _plan(tuple(value), indent)
    elif isinstance(value, (list, tuple)):
        child = "  " * (indent + 1)
        items = [child + _render(item, indent + 1, rendered) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]" if items else "[]"
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")
    items = [line + _render(value[key], indent + 1, rendered) for key, line in plan]
    return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}" if items else "{}"


#: the report type of each certificate record
_TYPES = {
    SwapCertificate: "swap-certificate",
    IsomorphismReport: "isomorphism-report",
    PairCertificate: "pair-certificate",
}


def _doc(record) -> dict:
    doc = dict(vars(record))  # a copy: popping from the record's own dict would corrupt it
    doc.pop("witnesses", None)  # a pair's witnesses live in the distinctness array
    doc["type"] = _TYPES[type(record)]
    return doc


def _distinctness_entry(pair) -> dict:
    return {
        "world_a": pair.world_a,
        "world_b": pair.world_b,
        "max_gap": max((w.gap for w in pair.witnesses), default=0.0),
        "witnesses": pair.witnesses,
    }


#: certificate fields holding residuals that a passing run keeps within tol
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


def _certificate_docs(report: ScenarioReport) -> list:
    records = report.swap_certificates + report.isomorphism_reports + report.pairs
    return [_doc(record) for record in records]


def failed_checks(report: ScenarioReport, tol: float) -> list:
    """One line per certificate residual field above ``tol``:
    ``<type> <field> <residual> > tol <tol> (margin <residual - tol>)``.
    A list-valued field is named once, with its largest entry. A pair whose
    worlds no reference observable tells apart gets a line of its own."""
    lines = []
    for doc in _certificate_docs(report):
        if doc.get("distinct") is False:
            lines.append(
                f"{doc['type']} {doc['world_a']} vs {doc['world_b']} "
                f"distinct false: no reference gap exceeds tol {tol:.3g}"
            )
        for name in RESIDUAL_FIELDS:
            value = doc.get(name)
            if isinstance(value, (list, tuple)):
                value = float(np.max(value))  # max() would drop a NaN that is not first
            if value is not None and not value <= tol:
                lines.append(
                    f"{doc['type']} {name} {value:.3g} > tol {tol:.3g} (margin {value - tol:.3g})"
                )
    return lines


def emit_report(report: ScenarioReport, config) -> str:
    """Serialize a scenario report.

    The document carries `meta` (config echo, version), `certificates`,
    `distinctness`, `worlds`, and the aggregate `pass` flag.
    """
    document = {
        "meta": {"generator": "swaplab", "version": __version__, "config": config},
        "worlds": report.readouts,
        "certificates": _certificate_docs(report),
        "distinctness": [_distinctness_entry(p) for p in report.pairs],
        "pass": report.passed,
    }
    return render_json(document) + "\n"


def emit_distribution_csv(state: ComplexVector, setup: MeasurementSetup) -> str:
    """CSV of the joint (pointer position, outcome branch) distribution.

    Header ``zeta,branch_lambda,probability``; one row per (grid point,
    eigenvalue) pair, degeneracy labels summed; LF line endings.
    """
    per_eigenvalue = branch_distribution(state, setup)
    total = float(per_eigenvalue.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total}; the state must be normalized")
    lines = ["zeta,branch_lambda,probability"]
    for grid_index, zeta in enumerate(setup.grid.zeta):
        for eig_index, eigenvalue in enumerate(setup.observable.eigenvalues):
            lines.append(
                f"{_format_float(float(zeta))},{_format_float(eigenvalue)},"
                f"{_format_float(float(per_eigenvalue[eig_index, grid_index]))}"
            )
    return "\n".join(lines) + "\n"
