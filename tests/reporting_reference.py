"""The reference renderers: ``render_json`` and ``emit_distribution_csv`` as
one Python call per value, the shape they had before the production ones
were compiled into templates. The differential tests in ``test_reporting.py``
hold the production output to these bytes and error messages.

Floats render with ``format(value, ".17g")``; a non-finite one raises
``ValueError`` where it is met, so the first one in the text is named.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from swaplab.measurement import branch_distribution

_quote = json.encoder.encode_basestring_ascii


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot appear in a report")
    return format(value, ".17g")


def _format_bool(value) -> str:
    return "true" if value else "false"


_SCALARS = {
    type(None): lambda value: "null",
    bool: _format_bool,
    np.bool_: _format_bool,
    int: str,
    float: format_float,
    np.float64: lambda value: format_float(float(value)),
    str: _quote,
}


def render_json(value, indent: int = 0) -> str:
    """Sorted keys, 17-significant-digit floats, a dataclass as the object of its fields."""
    return _render(value, indent, {})


def _render(value, indent: int, rendered: dict) -> str:
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
    keys = [f.name for f in fields(shape)] if isinstance(shape, type) else shape
    child = "  " * (indent + 1)
    return tuple((key, f"{child}{_quote(str(key))}: ") for key in sorted(keys))


def _render_container(value, indent: int, rendered: dict) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
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


def emit_distribution_csv(state, setup) -> str:
    """Header ``zeta,branch_lambda,probability``, one row per (grid point, eigenvalue)."""
    per_eigenvalue = branch_distribution(state, setup)
    total = float(per_eigenvalue.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branch probabilities sum to {total}; the state must be normalized")
    lines = ["zeta,branch_lambda,probability"]
    for grid_index, zeta in enumerate(setup.grid.zeta):
        for eig_index, eigenvalue in enumerate(setup.observable.eigenvalues):
            lines.append(
                f"{format_float(float(zeta))},{format_float(eigenvalue)},"
                f"{format_float(float(per_eigenvalue[eig_index, grid_index]))}"
            )
    return "\n".join(lines) + "\n"
