import copy
import json
import re
from dataclasses import dataclass, is_dataclass, make_dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swaplab import reporting
from swaplab.cli import build_parser, main
from swaplab.config import SCENARIOS, RunConfig, parse_config
from swaplab.measurement import evolve, ready_state, system_basis_state
from swaplab.isomorphism import IsomorphismReport, Witness
from swaplab.reporting import emit_distribution_csv, emit_report, failed_checks, render_json
from swaplab.scenario import (
    ScenarioReport,
    qubit_setup,
    run_classical_level,
    run_multiworld,
    run_prince_pauper,
)
from swaplab.linalg import ComplexVector

#: every ladder weight is a normal float, but g * ratio^-1 = 1.87e300 squared is not
OVERFLOWING_LADDER = {"ratio_exponent_range": 1, "lambda1": -1.0, "lambda2": -1e-300, "g": 1.87}

#: ladders whose rungs lie closer together than the 1e-9 relative reach of
#: ``locate_eigenvalue``, and (the second) closer than tol
CLOSE_RUNGS = {"lambda1": 1.0, "lambda2": 1.0000000005, "ratio_exponent_range": 1}
TWIN_RUNGS = {"lambda1": 1.9999999999999998, "lambda2": 2.0, "ratio_exponent_range": 2}


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

    def test_shared_record_renders_as_its_copies(self):
        # one record twice at one depth and once at another: the render of
        # each container is looked up by identity and depth
        record = Witness("pointer_position", 0.25, -0.5, 0.75, True)
        document = {"pair": [record, record], "nested": {"deeper": [record]}}
        text = render_json(document)
        for twin in (copy.deepcopy(document), unshared(document)):
            assert render_json(twin) == text
        assert json.loads(text)["nested"]["deeper"][0]["gap"] == 0.75

    def test_multiworld_report_renders_as_its_copies(self):
        config = parse_config('{"scenario": "multiworld", "k": 3}')
        report = run_multiworld(config)
        # the 28 pairs share 24 witness records and the 8 worlds 2 readouts
        assert report.pairs[0].witnesses[0] is report.pairs[1].witnesses[0]
        text = emit_report(report, config)
        for twin in (copy.deepcopy(report), unshared(report)):
            assert emit_report(twin, config) == text

    def test_record_renders_as_its_fields_in_a_dict(self):
        # field order (zeta, alpha, mid) is not key order (alpha, mid, zeta)
        record = Unsorted(zeta=0.5, alpha=[1, 2], mid={"b": None, "a": True})
        text = render_json({"outer": record, "list": [record]})
        fields = {"zeta": 0.5, "alpha": [1, 2], "mid": {"b": None, "a": True}}
        for twin in (fields, dict(sorted(fields.items())), dict(reversed(fields.items()))):
            assert render_json({"outer": twin, "list": [twin]}) == text
        assert list(json.loads(text)["outer"]) == ["alpha", "mid", "zeta"]

    def test_two_reports_render_alike_in_either_order(self):
        # the key plans are cached per record type and dict key tuple: two
        # reports rendered one after the other in one process, a ladder and a
        # multiworld one, match the same reports rendered in the other order
        # from an empty cache, and two record types of one name keep their keys
        runs = [
            (run_classical_level, parse_config('{"scenario": "classical-level"}')),
            (run_multiworld, parse_config('{"scenario": "multiworld", "k": 2}')),
        ]
        reports = [(run(config), config) for run, config in runs]
        texts = [emit_report(report, config) for report, config in reports]
        reporting._plan.cache_clear()
        assert [emit_report(r, c) for r, c in reversed(reports)] == texts[::-1]
        first, second = (make_dataclass("Record", names) for names in (["b", "a"], ["c", "a"]))
        assert json.loads(render_json(first(1, 2))) == {"a": 2, "b": 1}
        assert json.loads(render_json(second(3, 4))) == {"a": 4, "c": 3}


@dataclass(frozen=True)
class Unsorted:
    zeta: float
    alpha: list
    mid: dict


def unshared(value):
    """A copy of ``value`` in which no container or record occurs twice."""
    if is_dataclass(value):
        twin = copy.copy(value)
        vars(twin).update({name: unshared(item) for name, item in vars(value).items()})
        return twin
    if isinstance(value, dict):
        return {key: unshared(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(unshared(item) for item in value)
    return value


class TestFailedChecks:
    @pytest.mark.parametrize("residuals", [(0.0, np.nan), (np.nan, 0.0)])
    def test_nan_anywhere_in_a_residual_list_is_named(self, residuals):
        iso = IsomorphismReport((0.0, 1.0), residuals, 0.0, 1e-10, False)
        report = ScenarioReport((), (), (), (iso,), (), False)
        assert failed_checks(report, 1e-10) == [
            "isomorphism-report state_residuals nan > tol 1e-10 (margin nan)"
        ]


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
            ({"M": 131072}, []),
            ({"scenario": "prince-pauper", "k": 2}, []),
            # ratio^2 overflows a float, ratio^-2 underflows to zero
            ({"scenario": "classical-level", "lambda2": 1e200, "ratio_exponent_range": 2}, []),
            ({"scenario": "classical-level", "lambda1": 1e-300, "lambda2": 1e300}, []),
            # ladder dimension 8 * (2r + 1)^2 = 528392 exceeds the size limit 2**19
            ({"scenario": "classical-level", "ratio_exponent_range": 128}, []),
            # a subnormal hbar turns the ladder's phase division into NaN
            ({"scenario": "classical-level", "hbar": 1e-310}, []),
            # the seed guard's boundary: seeds are nonnegative
            ({"seed": -1}, []),
            ({"delta": 0}, []),
            ({"g": -1}, []),
            ({"tol": 0}, []),
            ({"sample_times": [0.5, 0.25]}, []),
            ({"sample_times": 1.0}, []),
            ({"scenario": "classical-level", "ratio_exponent_range": 0}, []),
            ({"scenario": "classical-level", "lambda2": 0}, []),
            # ratio 1e-3 to the power -103 overflows Python's float power
            (
                {
                    "scenario": "classical-level", "lambda1": 1000, "lambda2": 1,
                    "ratio_exponent_range": 103,
                },
                [],
            ),
        ],
    )
    def test_guard_violations_exit_2(self, tmp_path, capsys, payload, flags):
        assert main(["run", write_config(tmp_path, payload), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", [("run",), ("certify", "lemma2")])
    def test_rungs_closer_than_the_locate_reach_pass(self, tmp_path, capsys, command):
        # the rungs 0.9999999995, 1 and 1.0000000005 all lie within 1e-9 of 1.0;
        # each outcome sits on its own nearest rung, so both commands pass
        payload = {**CLOSE_RUNGS, "scenario": "classical-level"}
        assert main([*command, write_config(tmp_path, payload)]) == 0
        assert capsys.readouterr().err == ""

    def test_rungs_closer_than_tol_fail_only_distinctness(self, tmp_path, capsys):
        # outcomes 2e-16 apart on neighbouring rungs: the swap carries one onto
        # the other exactly, but no reference gap can exceed tol
        payload = {**TWIN_RUNGS, "scenario": "classical-level"}
        assert main(["run", write_config(tmp_path, payload)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "pair-certificate outcome 2 vs outcome 2 distinct false: "
            "no reference gap exceeds tol 1e-10"
        ]
        assert main(["certify", "lemma2", write_config(tmp_path, payload)]) == 0

    @pytest.mark.parametrize(
        "command, scenario",
        [(("run",), "classical-level"), (("certify", "lemma2"), "certify-lemma2")],
    )
    def test_ladder_weight_overflow_exits_2(self, tmp_path, capsys, command, scenario):
        # |H|_F overflowed, so every relative residual divided by inf
        payload = {"scenario": scenario, **OVERFLOWING_LADDER}
        assert main([*command, write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err.startswith("config error: g, lambda1, lambda2: ")

    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario": "classical-level"},
            {"scenario": "prince-pauper", "M": 7, "delta": 0.3, "g": 0.7, "hbar": 0.7, "T": 1.3},
        ],
    )
    def test_phase_insensitive_run_passes(self, tmp_path, payload):
        # |a|^2 + |b|^2 - 2|<a, b>| reported residuals of 2.1e-08 and 1.5e-08 (exit 3)
        assert main(["run", write_config(tmp_path, {**payload, "phase_insensitive": True})]) == 0

    def test_export_applies_pointer_guards(self, tmp_path, capsys):
        # the export builds a pointer grid whatever the config's scenario is
        config_path = write_config(tmp_path, {"scenario": "classical-level", "M": 131072})
        assert main(["export-distribution", config_path, "--time", "0.5"]) == 2
        assert "M: pointer factor dimension 2(2M+1) = 524290" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"M": 0})
        assert main(["run", config_path]) == 2
        assert "M must be >= 1" in capsys.readouterr().err

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "prince-pauper", "tol": 1e-30, "tol": 1e-10}')
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: invalid JSON: key 'tol' is given more than once\n"

    def test_subnormal_hbar_exits_2_naming_hbar(self, tmp_path, capsys):
        assert main(["run", write_config(tmp_path, {"hbar": 1e-310})]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: hbar must be positive and not subnormal, got 1e-310\n"

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", [("run",), ("certify", "lemma1")])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, command):
        # a UTF-16 byte-order mark and "{}": not UTF-8
        path = tmp_path / "config.json"
        path.write_bytes(bytes.fromhex("fffe7b7d"))
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert str(path) in captured.err  # as for a missing file

    @pytest.mark.parametrize(
        "command",
        [
            ("run",),
            ("export-distribution", "--time", "0.5"),
            # a failing certificate's lines are not printed when the write fails
            ("run", "--tol", "1e-30"),
        ],
    )
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        argv = [command[0], write_config(tmp_path, {}), *command[1:], "--out", str(blocker)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert str(blocker) in captured.err
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "command, filename",
        [(("run",), "report.json"), (("export-distribution", "--time", "0.5"), "distribution.csv")],
    )
    def test_empty_out_writes_into_the_working_directory(
        self, tmp_path, monkeypatch, capsys, command, filename
    ):
        # --out "" names the working directory, as Path("") is "."
        argv = [command[0], write_config(tmp_path, {}), *command[1:], "--out", ""]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert (tmp_path / filename).read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("command", [("certify", "lemma1"), ("certify", "lemma2")])
    def test_certify_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main([*command, write_config(tmp_path, {}), "--out", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "command, payload",
        [
            # the file's own tol is replaced before the one validation
            (("run", "--tol", "1e-10"), {"tol": -1.0}),
            # each command runs its own scenario, so only its guards apply:
            # lemma 1 and the export read no ladder, lemma 2 no pointer
            (("certify", "lemma1"), {"scenario": "classical-level", "lambda1": 0.0}),
            (("export-distribution", "--time", "0.5"), {"scenario": "prince-pauper", "k": 2}),
            (("certify", "lemma2"), {"scenario": "prince-pauper", "M": 131072}),
        ],
    )
    def test_overrides_are_validated_as_the_job_runs(self, tmp_path, command, payload):
        split = 2 if command[0] == "certify" else 1
        argv = [*command[:split], write_config(tmp_path, payload), *command[split:]]
        assert main(argv) == 0

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

    def test_seed_flag_removed(self, tmp_path, capsys):
        # the config's seed drives nothing, so no flag overrides it
        config_path = write_config(tmp_path, {})
        with pytest.raises(SystemExit) as exit_info:
            main(["run", config_path, "--seed", "3"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_parser_built_once(self, tmp_path):
        config_path = write_config(tmp_path, {})
        parser = build_parser()
        assert main(["certify", "lemma1", config_path]) == 0
        assert build_parser() is parser


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
@_example(2, {"scenario": "classical-level", "M": 131072}, ("export-distribution", "--time", "0.5"))
@_example(2, {"scenario": "classical-level", "lambda2": 1e200, "ratio_exponent_range": 2})
@_example(
    2,
    {"scenario": "classical-level", "lambda2": 1e200, "ratio_exponent_range": 2},
    ("certify", "lemma2"),
)
@_example(2, {"scenario": "classical-level", "lambda1": 1e-300, "lambda2": 1e300})
@_example(2, {"scenario": "classical-level", "ratio_exponent_range": 128})
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


@pytest.mark.parametrize(
    "words, config",
    [
        (["run"], {"scenario": "prince-pauper"}),
        (["certify", "lemma1"], {}),
        (["certify", "lemma2"], {"scenario": "classical-level", "ratio_exponent_range": 2}),
        (["export-distribution", "--time", "0.37"], {}),
    ],
)
def test_config_validated_once_per_job(tmp_path, monkeypatch, words, config):
    # the command's overrides (--tol, the certify target, the export's
    # pointer scenario) go into the one RunConfig the job runs, which is
    # built and validated once
    path = write_config(tmp_path, config)
    counted = []
    validate = RunConfig.__post_init__
    monkeypatch.setattr(
        RunConfig, "__post_init__", lambda self: counted.append(1) or validate(self)
    )
    split = 2 if words[0] == "certify" else 1
    assert main([*words[:split], path, *words[split:], "--tol", "1e-10"]) == 0
    assert len(counted) == 1


@pytest.mark.parametrize(
    "words, config",
    [
        (["run"], {"scenario": "prince-pauper"}),
        (["export-distribution", "--time", "0.37"], {}),
    ],
)
def test_finite_outputs_format_no_float_one_call_at_a_time(tmp_path, monkeypatch, words, config):
    # finite floats are formatted through the renderers' templates and memo;
    # the per-value formatter is left for the error path and rare types
    path = write_config(tmp_path, config)
    counted = []
    format_float = reporting._format_float
    monkeypatch.setattr(
        reporting, "_format_float", lambda value: counted.append(1) or format_float(value)
    )
    assert main([words[0], path, *words[1:]]) == 0
    assert counted == []
