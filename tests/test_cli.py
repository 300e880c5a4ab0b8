import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swaplab.cli import main
from swaplab.config import SCENARIOS, parse_config
from swaplab.measurement import evolve, ready_state, system_basis_state
from swaplab.reporting import emit_distribution_csv, emit_report, render_json
from swaplab.scenario import qubit_setup, run_prince_pauper
from swaplab.linalg import ComplexVector

#: every ladder weight is a normal float, but g * ratio^-1 = 1.87e300 squared is not
OVERFLOWING_LADDER = {"ratio_exponent_range": 1, "lambda1": -1.0, "lambda2": -1e-300, "g": 1.87}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRenderJson:
    def test_sorted_keys_and_17_digits(self):
        text = render_json({"b": 1 / 3, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text

    def test_null_and_bool(self):
        assert render_json({"x": None, "y": True}) == '{\n  "x": null,\n  "y": true\n}'

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            render_json({"x": float("nan")})

    def test_numpy_scalars_coerced(self):
        text = render_json({"x": np.float64(0.5), "n": np.int64(3)})
        assert '"x": 0.5' in text
        assert '"n": 3' in text


class TestEmitReport:
    def test_schema_keys(self):
        config = parse_config("{}")
        report = run_prince_pauper(config)
        doc = json.loads(emit_report(report, config))
        assert set(doc) == {"meta", "worlds", "certificates", "distinctness", "pass"}
        assert doc["pass"] is True
        assert doc["meta"]["config"]["M"] == 8
        assert doc["meta"]["version"]

    def test_identical_reports_are_byte_identical(self):
        config = parse_config("{}")
        first = emit_report(run_prince_pauper(config), config)
        second = emit_report(run_prince_pauper(config), config)
        assert first == second

    def test_zero_probability_branch_serialized_as_null(self):
        config = parse_config("{}")
        report = run_prince_pauper(config)
        text = emit_report(report, config)
        assert '"pointer_mean": null' in text
        assert "NaN" not in text and "nan" not in text


class TestDistributionCsv:
    def test_schema_and_normalization(self):
        setup = qubit_setup(parse_config("{}"))
        state = ready_state(setup, system_basis_state(setup.observable, 0))
        text = emit_distribution_csv(state, setup)
        lines = text.strip().split("\n")
        assert lines[0] == "zeta,branch_lambda,probability"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 3 for row in rows)
        assert len(rows) == setup.grid.n_points * 2
        total = sum(float(row[2]) for row in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mass_concentrates_at_translated_position(self):
        setup = qubit_setup(parse_config("{}"))
        state = evolve(setup, ready_state(setup, system_basis_state(setup.observable, 0)), 1.0)
        text = emit_distribution_csv(state, setup)
        best = max(
            (line.split(",") for line in text.strip().split("\n")[1:]),
            key=lambda row: float(row[2]),
        )
        assert float(best[0]) == pytest.approx(-1.0)
        assert float(best[1]) == 1.0
        assert float(best[2]) == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_state_rejected(self):
        setup = qubit_setup(parse_config("{}"))
        bad = ComplexVector(np.ones(setup.total_dim))
        with pytest.raises(ValueError):
            emit_distribution_csv(bad, setup)


class TestCliCommands:
    def test_run_writes_passing_report(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {})
        out_dir = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["pass"] is True
        stdout = capsys.readouterr().out
        assert '"pass": true' in stdout

    def test_two_runs_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, {"seed": 7})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", config_path, "--out", str(out_a)]) == 0
        assert main(["run", config_path, "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_all_scenarios_run(self, tmp_path):
        for scenario in ("multiworld", "classical-level", "certify-lemma1", "certify-lemma2"):
            config_path = write_config(tmp_path, {"scenario": scenario, "k": 2}, f"{scenario}.json")
            assert main(["run", config_path]) == 0

    def test_certification_failure_exit_code(self, tmp_path):
        # an unreachable tolerance turns a healthy run into a certification failure
        config_path = write_config(tmp_path, {})
        assert main(["run", config_path, "--tol", "1e-30"]) == 3

    def test_certification_failure_names_residuals(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"tol": 1e-30})
        out_dir = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == (out_dir / "report.json").read_text()
        lines = captured.err.splitlines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"[a-z-]+ [a-z_]+ \S+ > tol 1e-30 \(margin \S+\)", line), line
        assert any(
            line.startswith("swap-certificate cross_construction_distance ") for line in lines
        )
        # read off the spectrum weights, the intertwining residual is exactly 0.0
        assert not any(" intertwining_residual " in line for line in lines)

    def test_passing_run_is_silent_on_stderr(self, tmp_path, capsys):
        assert main(["run", write_config(tmp_path, {})]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "payload, flags",
        [
            ({"delta": float("nan")}, []),
            ({}, ["--tol", "nan"]),
            ({"M": 1100}, []),
            ({"scenario": "prince-pauper", "k": 2}, []),
            # ratio^2 overflows a float, ratio^-2 underflows to zero
            ({"scenario": "classical-level", "lambda2": 1e200, "ratio_exponent_range": 2}, []),
            ({"scenario": "classical-level", "lambda1": 1e-300, "lambda2": 1e300}, []),
            # model dim 8 * (2r + 1)^2 = 8712 exceeds the dense cap
            ({"scenario": "classical-level", "ratio_exponent_range": 16}, []),
            # a subnormal hbar turns the ladder's phase division into NaN
            ({"scenario": "classical-level", "hbar": 1e-310}, []),
        ],
    )
    def test_guard_violations_exit_2(self, tmp_path, capsys, payload, flags):
        assert main(["run", write_config(tmp_path, payload), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "command, scenario",
        [(("run",), "classical-level"), (("certify", "lemma2"), "certify-lemma2")],
    )
    def test_ladder_weight_overflow_exits_2(self, tmp_path, capsys, command, scenario):
        # |H|_F overflowed, so every relative residual divided by inf
        payload = {"scenario": scenario, **OVERFLOWING_LADDER}
        assert main([*command, write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err.startswith("config error: g, lambda1, lambda2: ")

    def test_export_applies_pointer_guards(self, tmp_path, capsys):
        # the export builds a pointer grid whatever the config's scenario is
        config_path = write_config(tmp_path, {"scenario": "classical-level", "M": 1100})
        assert main(["export-distribution", config_path, "--time", "0.5"]) == 2
        assert "per-measurement dimension 4402" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"M": 0})
        assert main(["run", config_path]) == 2
        assert "M must be >= 1" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_certify_subcommand(self, tmp_path):
        config_path = write_config(tmp_path, {})
        assert main(["certify", "lemma1", config_path]) == 0
        assert main(["certify", "lemma2", config_path]) == 0

    def test_certify_writes_certificate(self, tmp_path):
        config_path = write_config(tmp_path, {})
        out_dir = tmp_path / "cert"
        assert main(["certify", "lemma1", config_path, "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        types = {c["type"] for c in doc["certificates"]}
        assert types == {"swap-certificate"}

    def test_export_distribution(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {})
        out_dir = tmp_path / "dist"
        code = main(
            ["export-distribution", config_path, "--time", "1.0", "--world", "plus",
             "--out", str(out_dir)]
        )
        assert code == 0
        text = (out_dir / "distribution.csv").read_text()
        assert text.startswith("zeta,branch_lambda,probability\n")
        assert "\r" not in text

    def test_export_distribution_superposition(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {})
        assert main(["export-distribution", config_path, "--time", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("zeta,branch_lambda,probability")

    def test_export_time_outside_window(self, tmp_path):
        config_path = write_config(tmp_path, {})
        assert main(["export-distribution", config_path, "--time", "3.0"]) == 2


EXTREME_LAMBDAS = (0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e300, -1e300, 1e-300, -1e-300)
#: desk-scale values, or a magnitude log-uniform in [1e-300, 1e300]
POINTER_SCALES = st.one_of(
    st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent),
)

commands = st.one_of(
    st.just(("run",)),
    st.sampled_from([("certify", "lemma1"), ("certify", "lemma2")]),
    st.floats(0.0, 5.0).map(lambda t: ("export-distribution", "--time", repr(t))),
)
configs = st.fixed_dictionaries(
    # an absent range would default to 4, whose ladder runs take 0.4 s each
    {"scenario": st.sampled_from(SCENARIOS), "ratio_exponent_range": st.integers(1, 3)},
    optional={
        "M": st.integers(1, 12),
        "delta": POINTER_SCALES,
        "hbar": POINTER_SCALES,
        "g": st.floats(0.0, 5.0),
        "T": st.floats(0.0, 5.0),
        "k": st.integers(1, 3),
        "lambda1": st.sampled_from(EXTREME_LAMBDAS),
        "lambda2": st.sampled_from(EXTREME_LAMBDAS),
        "tol": st.sampled_from([1e-10, 1e-30]),
        "phase_insensitive": st.booleans(),
    },
)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


def _example(expected, config, command=("run",)):
    return example(command=command, config=config, expected=expected)


@settings(max_examples=60, deadline=None)
@given(command=commands, config=configs, expected=st.just(None))
# configs that exited 4 or raised before every guard moved into RunConfig;
# the ladder has no pointer, so the pointer guards must not reject the first three
@_example(0, {"scenario": "classical-level", "T": 5})
@_example(0, {"scenario": "certify-lemma2", "T": 5, "sample_times": [0, 1, 5]})
@_example(0, {"scenario": "classical-level", "M": 200, "k": 3})
@_example(2, {"scenario": "prince-pauper", "k": 2})
@_example(2, {"scenario": "classical-level", "M": 1100}, ("export-distribution", "--time", "0.5"))
@_example(2, {"scenario": "classical-level", "lambda2": 1e200, "ratio_exponent_range": 2})
@_example(
    2,
    {"scenario": "classical-level", "lambda2": 1e200, "ratio_exponent_range": 2},
    ("certify", "lemma2"),
)
@_example(2, {"scenario": "classical-level", "lambda1": 1e-300, "lambda2": 1e300})
@_example(2, {"scenario": "classical-level", "ratio_exponent_range": 16})
# pointer scales whose Frobenius norms overflowed (exit 4), or whose position
# norm overflowed and made a hermitian check vacuous (exit 0)
@_example(2, {"scenario": "prince-pauper", "hbar": 1.7e308})
@_example(2, {"scenario": "prince-pauper", "delta": 1e-200, "T": 1e-250})
@_example(2, {"scenario": "multiworld", "k": 3, "hbar": 1e200})
@_example(2, {"scenario": "certify-lemma1", "hbar": 1e300})
@_example(2, {"scenario": "prince-pauper", "delta": 1e300})
# a ladder weight whose square overflows |H|_F (exit 0 with vacuous relative
# checks), and the largest weight 1.4e153 just inside the bound
@_example(2, {"scenario": "classical-level", **OVERFLOWING_LADDER})
@_example(2, {"scenario": "certify-lemma2", **OVERFLOWING_LADDER}, ("certify", "lemma2"))
@_example(0, {"scenario": "classical-level", "ratio_exponent_range": 1, "g": 7e152})
def test_every_config_exits_0_2_or_3(config_dir, command, config, expected):
    """A config either runs to a verdict (0 or 3) or is rejected up front (2);
    exit 4 is left for real numerical failures, and nothing escapes main."""
    path = config_dir / "config.json"
    path.write_text(json.dumps(config))
    if command[0] == "export-distribution":
        argv = [command[0], str(path), *command[1:]]
    else:
        argv = [*command, str(path)]
    code = main(argv)
    assert code in (0, 2, 3)
    if expected is not None:
        assert code == expected
