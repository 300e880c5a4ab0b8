"""The whole-report differential check: every ``run`` scenario and both
``certify`` targets through ``cli.main``, against ``dense_report``."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from swaplab.cli import main
from swaplab.config import parse_config

from dense_reference import ECHOED_FIELDS, RESIDUAL_BOUNDS, VALUE_BOUND, dense_report

COMMANDS = {
    "prince-pauper": ("run",),
    "multiworld": ("run",),
    "classical-level": ("run",),
    "certify-lemma1": ("certify", "lemma1"),
    "certify-lemma2": ("certify", "lemma2"),
}
POINTER = ("prince-pauper", "multiworld", "certify-lemma1")


def build_payload(scenario, units, phase_insensitive, times, M, small, exponent, negative):
    """An off-grid config that every guard accepts, by construction: g is a
    fraction of the wraparound limit M*delta/(2T), or 0 when that fraction is
    below 0.05, and lambda2 is lambda1 times a positive ratio, 1 or at least
    10% away from it. ``small`` is k for multiworld and the exponent range of
    the ladder."""
    T, hbar, coupling, spread = units
    coupling = 0.0 if coupling < 0.05 else coupling
    payload = {
        "scenario": scenario,
        "T": 0.2 + 1.8 * T,
        "hbar": 0.2 + 1.8 * hbar,
        "phase_insensitive": phase_insensitive,
    }
    if times:
        payload["sample_times"] = [t * payload["T"] for t in sorted(times)]
    if scenario in POINTER:
        payload["M"] = M
        payload["delta"] = 0.1 + 0.9 * spread
        # 0.99: g * T stays below the limit after rounding
        payload["g"] = 0.99 * coupling * M * payload["delta"] / (2 * payload["T"])
        if scenario == "multiworld":
            payload["k"] = small
    else:
        payload["ratio_exponent_range"] = small
        payload["g"] = 2.0 * coupling
        ratio = 1.0 if abs(exponent) < 0.1 else 3.0**exponent
        lambda1 = (0.2 + 4.8 * spread) * (-1.0 if negative else 1.0)
        payload["lambda1"], payload["lambda2"] = lambda1, lambda1 * ratio
    return payload


# one flat tuple of draws, which Hypothesis generates faster than a composite
CONFIGS = st.tuples(
    st.sampled_from(sorted(COMMANDS)),
    st.tuples(*[st.floats(0.0, 1.0)] * 4),
    st.booleans(),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.integers(1, 6),
    st.integers(1, 2),
    st.floats(-1.0, 1.0),
    st.booleans(),
).map(lambda draws: build_payload(*draws))


def run_cli(path, payload) -> tuple:
    """Exit code and parsed report of the payload's command through cli.main,
    with the payload written to ``path``."""
    path.write_text(json.dumps(payload), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*COMMANDS[payload["scenario"]], str(path)])
    assert code in (0, 3), stderr.getvalue()
    return code, json.loads(stdout.getvalue())


def assert_matches(report, dense, key=None, path="report"):
    """Walk the report: every number, flag and null needs its dense twin
    within the field's bound; strings are compared where the reference has them."""
    if isinstance(report, dict):
        for name, value in report.items():
            if isinstance(value, str) and name not in dense:
                continue
            assert name in dense, f"{path}.{name} has no dense value"
            assert_matches(value, dense[name], name, f"{path}.{name}")
    elif isinstance(report, list):
        assert len(report) == len(dense), path
        for index, (item, twin) in enumerate(zip(report, dense)):
            assert_matches(item, twin, key, f"{path}[{index}]")
    elif report is None or isinstance(report, (bool, str)):
        assert report == dense, f"{path}: {report!r} != {dense!r}"
    else:
        if key in RESIDUAL_BOUNDS:
            bound = RESIDUAL_BOUNDS[key]
        else:
            bound = 0.0 if key in ECHOED_FIELDS else VALUE_BOUND
        assert dense is not None and not isinstance(dense, bool), path
        assert abs(report - dense) <= bound, f"{path}: {report!r} vs dense {dense!r}"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dense") / "config.json"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(payload=CONFIGS)
# phase-insensitive configs whose residual once cancelled to about 1e-8 and
# exited 3, although both pass when compared literally
@example(payload={"scenario": "classical-level", "ratio_exponent_range": 2,
                  "phase_insensitive": True})
@example(
    payload={"scenario": "prince-pauper", "M": 7, "delta": 0.3, "g": 0.7, "hbar": 0.7,
             "T": 1.3, "phase_insensitive": True}
)
def test_report_matches_dense_reference(config_path, payload):
    code, report = run_cli(config_path, payload)
    dense = dense_report(parse_config(json.dumps(payload)))
    assert code == (0 if dense["pass"] else 3)
    report.pop("meta")
    assert_matches(report, dense)
