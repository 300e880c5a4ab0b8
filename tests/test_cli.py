import json
import re

import numpy as np
import pytest

from swaplab.cli import main
from swaplab.config import parse_config, to_scenario_config
from swaplab.measurement import evolve, ready_state, system_basis_state
from swaplab.reporting import emit_distribution_csv, emit_report, render_json
from swaplab.scenario import qubit_setup, run_prince_pauper
from swaplab.linalg import ComplexVector


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
        report = run_prince_pauper(to_scenario_config(config))
        doc = json.loads(emit_report(report, config))
        assert set(doc) == {"meta", "worlds", "certificates", "distinctness", "pass"}
        assert doc["pass"] is True
        assert doc["meta"]["config"]["M"] == 8
        assert doc["meta"]["version"]

    def test_identical_reports_are_byte_identical(self):
        config = parse_config("{}")
        scenario_config = to_scenario_config(config)
        first = emit_report(run_prince_pauper(scenario_config), config)
        second = emit_report(run_prince_pauper(scenario_config), config)
        assert first == second

    def test_zero_probability_branch_serialized_as_null(self):
        config = parse_config("{}")
        report = run_prince_pauper(to_scenario_config(config))
        text = emit_report(report, config)
        assert '"pointer_mean": null' in text
        assert "NaN" not in text and "nan" not in text


class TestDistributionCsv:
    def test_schema_and_normalization(self):
        setup = qubit_setup(to_scenario_config(parse_config("{}")))
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
        setup = qubit_setup(to_scenario_config(parse_config("{}")))
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
        setup = qubit_setup(to_scenario_config(parse_config("{}")))
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
        assert any(line.startswith("swap-certificate intertwining_residual ") for line in lines)

    def test_passing_run_is_silent_on_stderr(self, tmp_path, capsys):
        assert main(["run", write_config(tmp_path, {})]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "payload, flags",
        [({"delta": float("nan")}, []), ({}, ["--tol", "nan"]), ({"M": 1100}, [])],
    )
    def test_guard_violations_exit_2(self, tmp_path, capsys, payload, flags):
        assert main(["run", write_config(tmp_path, payload), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

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
