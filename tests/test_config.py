import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from swaplab.cli import main
from swaplab.config import (
    MAX_DIM,
    MAX_SAMPLE_TIMES,
    ConfigError,
    RunConfig,
    parse_config,
)
from swaplab.reporting import render_json
from swaplab.scenario import build_diagonal_model, qubit_setup


class TestDefaults:
    def test_empty_object_fills_defaults(self):
        config = parse_config("{}")
        assert config.scenario == "prince-pauper"
        assert config.M == 8
        assert config.delta == 0.25
        assert config.g == 1.0
        assert config.T == 1.0
        assert config.hbar == 1.0
        assert config.tol == 1e-10
        assert config.seed == 0
        assert config.sample_times == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert config.phase_insensitive is False

    def test_sample_times_derived_from_duration(self):
        config = parse_config('{"T": 2.0, "delta": 0.5}')
        assert config.sample_times == (0.0, 0.5, 1.0, 1.5, 2.0)


class TestValidation:
    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"scenario": "prince-pauper", "tol": 1e-30, "tol": 1e-10}',
            '{"tol": 1e-10, "M": 8, "tol": 1e-10}',  # repeated with the same value too
        ],
    )
    def test_repeated_key_is_rejected(self, text):
        # json.loads alone keeps the last value: the run would silently use tol 1e-10
        with pytest.raises(ConfigError, match="key 'tol' is given more than once"):
            parse_config(text)

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config("[1, 2]")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="mass"):
            parse_config('{"mass": 3}')

    def test_m_guard_message(self):
        with pytest.raises(ConfigError, match="M must be >= 1"):
            parse_config('{"M": 0}')

    def test_type_mismatch_names_field(self):
        with pytest.raises(ConfigError, match="g"):
            parse_config('{"g": "strong"}')

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="M"):
            parse_config('{"M": true}')

    def test_wraparound_guard_arithmetic(self):
        with pytest.raises(ConfigError, match="wraparound"):
            parse_config('{"g": 1, "T": 1, "M": 2, "delta": 0.25}')

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config('{"scenario": "time-travel"}')

    def test_sample_times_window(self):
        with pytest.raises(ConfigError, match="sample_times"):
            parse_config('{"sample_times": [0.0, 5.0]}')

    def test_sample_times_count_limit(self, tmp_path, capsys):
        # the pair table grows with the sample count, so the count has a bound
        def payload(count):
            times = [i / count for i in range(count)]
            return json.dumps({"scenario": "multiworld", "k": 3, "sample_times": times})

        assert len(parse_config(payload(MAX_SAMPLE_TIMES)).sample_times) == MAX_SAMPLE_TIMES
        path = tmp_path / "config.json"
        path.write_text(payload(MAX_SAMPLE_TIMES + 1))
        assert main(["run", str(path)]) == 2
        message = f"sample_times: at most {MAX_SAMPLE_TIMES} times"
        assert message in capsys.readouterr().err

    def test_lambda_guard_for_scaling_scenarios(self):
        with pytest.raises(ConfigError, match="lambda1"):
            parse_config('{"scenario": "classical-level", "lambda1": 0}')

    def test_negative_ratio_rejected_for_scaling(self):
        with pytest.raises(ConfigError, match="ratio"):
            parse_config('{"scenario": "certify-lemma2", "lambda1": 1.0, "lambda2": -2.0}')

    def test_k_range(self):
        with pytest.raises(ConfigError, match="k"):
            parse_config('{"scenario": "multiworld", "k": 5}')

    def test_multiworld_product_dimension_is_not_capped(self):
        # pairs are certified from per-factor states, so (2(2M+1))^k is no
        # limit; each factor still meets the per-measurement cap
        config = parse_config('{"scenario": "multiworld", "k": 3, "M": 40}')
        assert (config.k, config.M) == (3, 40)
        assert parse_config('{"scenario": "multiworld", "k": 3, "M": 131071}').M == 131071
        with pytest.raises(ConfigError, match="^M: pointer factor dimension"):
            parse_config('{"scenario": "multiworld", "k": 3, "M": 131072}')


    @pytest.mark.parametrize(
        "field, text",
        [
            ("delta", '{"delta": NaN}'),
            ("tol", '{"tol": NaN}'),
            ("tol", '{"tol": Infinity}'),
            ("g", '{"g": -Infinity}'),
            ("g", '{"g": 1e400}'),
            ("sample_times[1]", '{"sample_times": [0.0, NaN, 1.0]}'),
            ("sample_times[2]", '{"sample_times": [0.0, 0.5, Infinity]}'),
        ],
    )
    def test_non_finite_numbers_rejected(self, field, text):
        with pytest.raises(ConfigError, match=re.escape(f"{field}: expected a finite number")):
            parse_config(text)

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ConfigError, match="T: integer too large"):
            parse_config('{"T": ' + "9" * 400 + "}")

    def test_integer_beyond_the_digit_limit(self):
        with pytest.raises(ConfigError):
            parse_config('{"M": ' + "9" * 5000 + "}")

    def test_grid_size_limit(self):
        # 2 * (2 * 131072 + 1) = 524290 exceeds MAX_DIM = 2**19; 131071 gives 524286
        assert parse_config('{"M": 131071}').M == 131071
        with pytest.raises(ConfigError, match=r"^M: pointer factor dimension 2\(2M\+1\) = 524290 "):
            parse_config('{"M": 131072}')
        # rejected before M meets a float, which it would overflow
        with pytest.raises(ConfigError, match="^M: "):
            parse_config('{"M": 1' + "0" * 400 + "}")

    def test_ladder_size_limit(self):
        # 8 * (2 * 128 + 1)^2 = 528392 exceeds MAX_DIM; 127 gives 520200
        config = parse_config('{"scenario": "classical-level", "ratio_exponent_range": 127}')
        assert config.ratio_exponent_range == 127
        with pytest.raises(ConfigError, match=r"^ratio_exponent_range: ladder dimension .* = 528392 "):
            parse_config('{"scenario": "classical-level", "ratio_exponent_range": 128}')

    @pytest.mark.parametrize(
        "fields, config",
        [
            ("hbar, delta", {"hbar": 1.7e308}),
            ("hbar, delta", {"delta": 1e-200, "T": 1e-250}),
            ("hbar, delta", {"scenario": "multiworld", "k": 3, "hbar": 1e200}),
            ("hbar, delta", {"scenario": "certify-lemma1", "hbar": 1e300}),
            ("hbar, delta", {"hbar": 1e-300, "delta": 1e10}),  # subnormal momenta
            ("delta", {"delta": 1e300}),
            ("g", {"g": 1e153, "T": 1e-153}),
        ],
    )
    def test_pointer_scale_guards_name_the_field(self, fields, config):
        with pytest.raises(ConfigError, match=f"^{fields}: "):
            parse_config(json.dumps(config))

    def test_pointer_weights_may_vanish_without_coupling(self):
        assert parse_config('{"g": 0}').g == 0.0

    @pytest.mark.parametrize("scenario", ["prince-pauper", "classical-level"])
    def test_subnormal_hbar_names_hbar(self, scenario):
        # the per-scenario scale guards reject it too, but name other fields
        with pytest.raises(ConfigError, match="^hbar must be positive and not subnormal"):
            parse_config(json.dumps({"scenario": scenario, "hbar": 1e-310}))


#: MAX_DIM keeps every run under 200 MB RSS, of which 29 MB is the interpreter
#: with numpy loaded; the largest CLI run at the limit peaked at 171 MB
ARRAY_BUDGET = 170e6


def traced_peak(action):
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeBudget:
    @pytest.mark.parametrize(
        "field, text",
        [
            ("M", '{"M": 1000000000}'),
            ("ratio_exponent_range", '{"scenario": "classical-level", "ratio_exponent_range": 1000000000}'),
        ],
    )
    def test_oversized_config_rejected_before_allocating(self, field, text):
        def reject():
            with pytest.raises(ConfigError, match=f"^{field}: "):
                parse_config(text)

        assert traced_peak(reject) < 1e6

    @pytest.mark.parametrize(
        "payload, field, sizes, dim_of",
        [
            ({"scenario": "prince-pauper"}, "M", (1000, 10000), lambda m: 2 * (2 * m + 1)),
            ({"scenario": "multiworld", "k": 3}, "M", (1000, 10000), lambda m: 2 * (2 * m + 1)),
            (
                {"scenario": "classical-level"},
                "ratio_exponent_range",
                (10, 40),
                lambda r: 8 * (2 * r + 1) ** 2,
            ),
        ],
        ids=["prince-pauper", "multiworld", "classical-level"],
    )
    def test_peak_per_basis_state_within_budget(self, tmp_path, payload, field, sizes, dim_of):
        # the traced peak grows by at most ARRAY_BUDGET / MAX_DIM bytes per
        # basis state, so a run at the limit stays inside the budget
        path = tmp_path / "config.json"
        peaks = []
        for size in sizes:
            path.write_text(json.dumps({**payload, field: size}))
            out = tmp_path / f"out{size}"
            peaks.append(traced_peak(lambda: main(["run", str(path), "--out", str(out)])))
            assert json.loads((out / "report.json").read_text())["pass"]
        per_state = (peaks[1] - peaks[0]) / (dim_of(sizes[1]) - dim_of(sizes[0]))
        assert per_state <= ARRAY_BUDGET / MAX_DIM

    @pytest.mark.parametrize("scenario", ["prince-pauper", "classical-level"])
    def test_peak_does_not_grow_with_sample_times(self, tmp_path, scenario):
        # the budget holds for any number of sample times: holding all 2 x 41
        # evolved states put the 41-time peak at 4.5x (prince-pauper) and 5.6x
        # (classical-level) the 5-time peak
        path = tmp_path / "config.json"
        peaks = []
        for count in (5, 41):
            times = [i / (count - 1) for i in range(count)]
            payload = {"scenario": scenario, "M": 2000, "ratio_exponent_range": 15}
            path.write_text(json.dumps({**payload, "sample_times": times}))
            out = tmp_path / f"out{count}"
            peaks.append(traced_peak(lambda: main(["run", str(path), "--out", str(out)])))
            assert json.loads((out / "report.json").read_text())["pass"]
        assert peaks[1] <= 1.2 * peaks[0]


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        config = parse_config('{"M": 6, "delta": 0.5, "g": 0.8, "seed": 3}')
        assert parse_config(render_json(config)) == config

    def test_serialized_form_is_valid_json(self):
        doc = json.loads(render_json(RunConfig()))
        assert doc["scenario"] == "prince-pauper"
        assert doc["M"] == 8

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(4, 12),
        delta=st.sampled_from([0.25, 0.5, 1.0]),
        g=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 100),
        phase=st.booleans(),
    )
    def test_round_trip_property(self, m, delta, g, seed, phase):
        raw = {"M": m, "delta": delta, "g": g, "seed": seed, "phase_insensitive": phase}
        try:
            config = parse_config(json.dumps(raw))
        except ConfigError:
            return  # guard-rejected inputs are out of scope here
        assert parse_config(render_json(config)) == config


class TestScenarioMapping:
    def test_fields_map_through(self):
        config = parse_config(
            '{"scenario": "multiworld", "M": 6, "delta": 0.5, "g": 0.5, "T": 1.0, "k": 2}'
        )
        setup = qubit_setup(config)
        assert setup.grid.half_width == 6
        assert setup.grid.spacing == 0.5
        assert setup.coupling == 0.5
        assert setup.duration == 1.0

    def test_lambda_fields_map_through(self):
        config = parse_config('{"scenario": "classical-level", "lambda1": 1.0, "lambda2": 3.0}')
        model = build_diagonal_model(config)
        assert model.base_eigenvalue == 1.0
        assert model.ratio == 3.0
        assert (model.exponent_min, model.exponent_max) == (-4, 4)
