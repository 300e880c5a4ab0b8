"""Differential tests of the report renderers against ``reporting_reference``:
the same bytes for every value, and the same exception type and message for
every value that cannot be rendered."""

import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swaplab import reporting
from swaplab.linalg import ComplexVector
from swaplab.measurement import MeasurementSetup, ObservableSpec, make_pointer_grid

import reporting_reference

DIFFERENTIAL = settings(max_examples=300, derandomize=True, deadline=None, database=None)

#: floats whose text is easy to get wrong: signed zeros, the smallest and the
#: largest magnitudes, and values with no short 17-digit form
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min / 3, sys.float_info.min, 1e308,
    -1e308, sys.float_info.max, 0.1, 1 / 3, 1e16, 1e17, 123456789012345678.0, 1e-5,
)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@dataclass(frozen=True)
class Pair:
    right: object
    left: object


@dataclass(frozen=True)
class Record:
    zeta: object
    alpha: object
    mid: object


@dataclass(frozen=True)
class Empty:
    pass


def _floats(finite: bool):
    specials = EDGE_FLOATS if finite else EDGE_FLOATS + NON_FINITE
    floats = st.one_of(
        st.sampled_from(specials), st.floats(allow_nan=not finite, allow_infinity=not finite)
    )
    return st.one_of(floats, floats.map(np.float64))


def _scalars(finite: bool):
    return st.one_of(
        st.none(),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        _floats(finite),
        # quotes, backslashes, format characters and non-ASCII text
        st.text(st.sampled_from('ab%"\\\n\té€😀'), max_size=6),
    )


def _extend(children):
    keys = st.text(st.sampled_from('kz%"é'), max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Record, children, children, children),
        st.just(Empty()),
        # one container held twice at one depth and once at another
        children.map(lambda shared: [shared, shared, {"deeper": [shared]}]),
        st.builds(lambda shared: Pair(shared, (shared,)), children),
    )


def _values(finite: bool):
    return st.recursive(_scalars(finite), _extend, max_leaves=24)


def _outcome(function, *args):
    try:
        return function(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@DIFFERENTIAL
@given(value=_values(finite=True), indent=st.integers(0, 2))
@example(value={"x": -0.0, "y": 0.0, "z": [0.0, -0.0]}, indent=0)
@example(value=Pair(np.float64(-0.0), 0.0), indent=1)
def test_render_json_matches_reference(value, indent):
    assert reporting.render_json(value, indent) == reporting_reference.render_json(value, indent)


@DIFFERENTIAL
@given(value=_values(finite=False), indent=st.integers(0, 1))
@example(value=[1.0, float("nan"), float("inf")], indent=0)
@example(value=[float("-inf"), np.float64("nan")], indent=0)
@example(value=[np.float64("nan"), np.float32("inf")], indent=0)
@example(value={"a": float("nan"), "b": {1, 2}}, indent=0)
@example(value={"a": {1, 2}, "b": float("nan")}, indent=0)
def test_render_json_errors_match_reference(value, indent):
    # the first non-finite number in the text is named, also when a later
    # value cannot be rendered at all
    expected = _outcome(reporting_reference.render_json, value, indent)
    assert _outcome(reporting.render_json, value, indent) == expected


class _Text(str):
    pass


class _Mapping(dict):
    pass


@pytest.mark.parametrize(
    "value",
    [
        np.float32(0.5), np.int32(3), _Text("a"), _Mapping(a=1),
        namedtuple("Point", "x y")(1, 2), Pair,
    ],
    ids=["float32", "int32", "str-subclass", "dict-subclass", "namedtuple", "record-class"],
)
def test_render_json_rejects_other_scalar_types_and_container_subclasses(value):
    # scalars are rendered by exact type, and containers are plain or records;
    # a record's class is no record (it rendered its attribute names)
    message = f"^cannot serialize {type(value).__name__} into a report$"
    with pytest.raises(TypeError, match=message):
        reporting.render_json({"x": [value]})


def _setup(M: int, degeneracy: int, spacing: float, eigenvalues=(1.0, -1.0)) -> MeasurementSetup:
    observable = ObservableSpec(eigenvalues, degeneracy)
    return MeasurementSetup(observable, make_pointer_grid(M, spacing), 1.0, 1.0)


def _random_state(setup: MeasurementSetup, seed: int, zeros: float) -> ComplexVector:
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(setup.total_dim) + 1j * rng.standard_normal(setup.total_dim)
    amplitudes[rng.random(setup.total_dim) < zeros] = 0.0
    amplitudes[0] += 1.0  # never all zero
    return ComplexVector(amplitudes / np.linalg.norm(amplitudes))


@DIFFERENTIAL
@given(
    M=st.integers(1, 40),
    degeneracy=st.sampled_from([1, 2]),
    spacing=st.sampled_from([0.25, 0.3, 1.0, 1e-300, 1e300]),
    # eigenvalue texts of 17 digits, and a negative zero
    eigenvalues=st.sampled_from([(1.0, -1.0), (0.1, -1 / 3), (2.5e-300, -0.0, 7.0)]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.5, 0.99]),
)
def test_distribution_csv_matches_reference(M, degeneracy, spacing, eigenvalues, seed, zeros):
    setup = _setup(M, degeneracy, spacing, eigenvalues)
    state = _random_state(setup, seed, zeros)
    expected = reporting_reference.emit_distribution_csv(state, setup)
    assert reporting.emit_distribution_csv(state, setup) == expected


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("where", ["amplitude", "zeta", "eigenvalue"])
@pytest.mark.parametrize("index", [0, 5, -1])
def test_distribution_csv_errors_match_reference(value, where, index):
    # a NaN amplitude passes the normalization check (its sum is NaN) and an
    # infinite one fails it; a non-finite zeta or eigenvalue is named where
    # its row is formatted
    eigenvalues = (1.0, value) if where == "eigenvalue" and index else (value, 1.0)
    setup = _setup(3, 2, 0.25, eigenvalues if where == "eigenvalue" else (1.0, -1.0))
    amplitudes = _random_state(setup, 7, 0.0).amplitudes.copy()
    if where == "amplitude":
        amplitudes[index] = value
    if where == "zeta":
        setup.grid.zeta = setup.grid.zeta.copy()
        setup.grid.zeta[index] = value
    state = ComplexVector(amplitudes)
    expected = _outcome(reporting_reference.emit_distribution_csv, state, setup)
    assert expected[0] is ValueError
    assert _outcome(reporting.emit_distribution_csv, state, setup) == expected
