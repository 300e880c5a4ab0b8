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
from .measurement import MeasurementSetup, branch_distribution
from .scenario import PairCertificate, ScenarioReport
from .symmetry import SwapCertificate


#: json.dumps of a str, without the encoder object json.dumps builds per call
_quote = json.encoder.encode_basestring_ascii
#: a float's report text: 17 significant digits, "-0" for negative zero
_float_text = "{:.17g}".format


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot appear in a report")
    return _float_text(value)


class _FloatTexts(dict):
    """One render's text of each float; a zero is not kept (0.0 and -0.0 are one key)."""

    def __missing__(self, value) -> str:
        text = _float_text(value)
        if value:
            self[value] = text
        return text

    def require_finite(self) -> None:  # raises for the first non-finite float rendered
        for value in filter(lambda value: not math.isfinite(value), self):
            _format_float(float(value))


#: renderers of the scalar types a report holds, looked up by exact type;
#: each render adds its own ``_FloatTexts`` for float and numpy.float64
_BOOL = {False: "false", True: "true"}.__getitem__
_SCALARS = {
    type(None): {None: "null"}.__getitem__, bool: _BOOL, np.bool_: _BOOL, int: str, np.int64: str,
    str: _quote,
}


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats. A
    dataclass renders as the object of its fields, read from its ``__dict__``
    (no rendered record has slots or cached properties).

    Each container is rendered once per depth: a record that the value holds
    several times (a witness shared by many pairs, a readout by many worlds)
    is looked up by identity and depth; the value keeps every container alive
    for the whole call, so no identity is reused. A non-finite float raises
    after the rendering or before its error, so the first one is named."""
    texts = _FloatTexts()
    scalars = {**_SCALARS, float: texts.__getitem__, np.float64: texts.__getitem__}
    try:
        text = _texts((value,), indent, scalars, {})[0]
    finally:
        texts.require_finite()
    return text


@functools.lru_cache(maxsize=256)
def _plan(shape, indent: int) -> tuple:
    """(sorted keys, template with one ``%s`` per key) of a record type or key tuple."""
    keys = sorted(f.name for f in fields(shape)) if isinstance(shape, type) else sorted(shape)
    lines = [f"{'  ' * (indent + 1)}{_quote(str(key)).replace('%', '%%')}: %s" for key in keys]
    return keys, "{\n" + ",\n".join(lines) + "\n" + "  " * indent + "}" if lines else "{}"


def _render_container(value, indent: int, scalars: dict, rendered: dict) -> str:
    """A plain dict, list or tuple, or a dataclass record."""
    shape = type(value)
    if shape is dict:
        shape = tuple(value)
    elif shape is not list and shape is not tuple:
        if isinstance(value, type) or not is_dataclass(value):  # a record, not its class
            raise TypeError(f"cannot serialize {shape.__name__} into a report")
        value = vars(value)  # its plan is its record type's
    if isinstance(value, dict):
        keys, template = _plan(shape, indent)
        return template % tuple(_texts(map(value.__getitem__, keys), indent + 1, scalars, rendered))
    child = "  " * (indent + 1)
    items = _texts(value, indent + 1, scalars, rendered)
    return f"[\n{child}" + f",\n{child}".join(items) + "\n" + "  " * indent + "]" if items else "[]"


def _texts(items, indent: int, scalars: dict, rendered: dict) -> list:
    """Each item's text: a scalar's from ``scalars``, a container's from ``rendered``
    (the text of each (identity, depth) so far), or rendered into it."""
    texts = []
    for item in items:
        scalar = scalars.get(type(item))
        if scalar is None:
            key = (id(item), indent)
            text = rendered.get(key)
            if text is None:
                text = rendered[key] = _render_container(item, indent, scalars, rendered)
        else:
            text = scalar(item)
        texts.append(text)
    return texts


#: the report type of each certificate record
_TYPES = {
    SwapCertificate: "swap-certificate",
    IsomorphismReport: "isomorphism-report",
    PairCertificate: "pair-certificate",
}


def _doc(record) -> dict:
    doc = dict(vars(record))  # a copy: popping from the record's own dict would corrupt it
    doc.pop("witnesses", None)  # a pair's witnesses live in the distinctness array
    doc.pop("drift_norm", None)  # a pair's hamiltonian_residual reports it
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


def emit_distribution_csv(state, setup: MeasurementSetup) -> str:
    """CSV of the joint (pointer position, outcome branch) distribution of the
    amplitude array ``state``.

    Header ``zeta,branch_lambda,probability``; one row per (grid point,
    eigenvalue) pair, degeneracy labels summed; LF line endings. The
    probabilities fill a template of every row's zeta and eigenvalue texts.
    """
    per_eigenvalue = branch_distribution(state, setup)
    total = float(per_eigenvalue.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total}; the state must be normalized")
    zeta, eigenvalues = setup.grid.zeta, setup.observable.eigenvalues
    if not all(np.isfinite(column).all() for column in (zeta, eigenvalues, per_eigenvalue)):
        for z, row in zip(zeta.tolist(), per_eigenvalue.T.tolist()):  # names the first in row order
            _format_float(z)
            for eigenvalue, probability in zip(eigenvalues, row):
                _format_float(eigenvalue)
                _format_float(probability)
    zeta_texts = ("%.17g,\n" * zeta.size % tuple(zeta.tolist())).split("\n")
    # "<zeta>,<eigenvalue>,%.17g\n" per row, zeta-major, joined with no Python loop per row
    tails = [["%.17g,%%.17g\n" % eigenvalue] * zeta.size for eigenvalue in eigenvalues]
    template = "".join(map("".join, zip(*[part for tail in tails for part in (zeta_texts, tail)])))
    return "zeta,branch_lambda,probability\n" + template % tuple(per_eigenvalue.T.ravel().tolist())
