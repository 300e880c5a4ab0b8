"""JSON run configuration: schema, guards, canonical serialization.

``RunConfig`` is the one config type: every runner reads its fields directly,
and every guard lives in ``RunConfig._validate``, so a config that violates
one fails at parse time with a field-named message, before any operator is
built.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

from .measurement import MAX_TOTAL_DIM
from .reporting import render_json
from .scenario import MODEL_DEGENERACY, QUBIT_EIGENVALUES

SCENARIOS = (
    "prince-pauper",
    "multiworld",
    "classical-level",
    "certify-lemma1",
    "certify-lemma2",
)
GRID_SCENARIOS = ("prince-pauper", "multiworld", "certify-lemma1")
SCALING_SCENARIOS = ("classical-level", "certify-lemma2")
REAL_FIELDS = ("delta", "g", "T", "hbar", "lambda1", "lambda2", "tol")
#: dense entries of a multiworld product state, (2(2M+1))^k
DIMENSION_CAP = 40_000
#: multiworld materializes every product state, so k stays at desk scale
MAX_QUBITS = 3
LAMBDA_MAX = max(abs(value) for value in QUBIT_EIGENVALUES)


class ConfigError(ValueError):
    """A config key is unknown, ill-typed, or violates a guard."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "prince-pauper"
    M: int = 8
    delta: float = 0.25
    g: float = 1.0
    T: float = 1.0
    hbar: float = 1.0
    k: int = 1
    lambda1: float = 1.0
    lambda2: float = 2.0
    ratio_exponent_range: int = 4
    tol: float = 1e-10
    seed: int = 0
    sample_times: tuple = None
    phase_insensitive: bool = False

    def __post_init__(self):
        if self.sample_times is None:
            times = tuple(i * self.T / 4 for i in range(5))
        else:
            times = tuple(float(t) for t in self.sample_times)
        object.__setattr__(self, "sample_times", times)
        self._validate()

    def _validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        # NaN passes every comparison guard below, so finiteness comes first;
        # command-line overrides reach this check as well as parsed files
        for name in REAL_FIELDS:
            _require_finite(name, getattr(self, name))
        for i, t in enumerate(self.sample_times):
            _require_finite(f"sample_times[{i}]", t)
        if self.M < 1:
            raise ConfigError("M must be >= 1")
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.g < 0:
            raise ConfigError(f"g must be nonnegative, got {self.g}")
        if self.T <= 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.hbar < sys.float_info.min:  # every phase divides by hbar
            raise ConfigError(f"hbar must be positive and not subnormal, got {self.hbar}")
        if not 1 <= self.k <= MAX_QUBITS:
            raise ConfigError(f"k must be between 1 and {MAX_QUBITS} at desk scale, got {self.k}")
        if self.ratio_exponent_range < 1:
            raise ConfigError("ratio_exponent_range must be >= 1")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        times = self.sample_times
        if len(times) == 0 or any(b < a for a, b in zip(times, times[1:])):
            raise ConfigError("sample_times must be a nonempty sorted list")
        if any(not 0 <= t <= self.T for t in times):
            raise ConfigError(f"sample_times must lie in [0, {self.T}]")
        if self.scenario in GRID_SCENARIOS:
            self._validate_pointer()
        if self.scenario in SCALING_SCENARIOS:
            self._validate_ladder()

    def _validate_pointer(self):
        if self.scenario == "prince-pauper" and self.k != 1:
            raise ConfigError(f"k: the single-measurement scenario needs k = 1, got {self.k}")
        travel = self.g * self.T * LAMBDA_MAX
        limit = self.M * self.delta / 2
        if travel > limit:
            raise ConfigError(
                f"wraparound guard violated: g*T*lambda_max = {travel} exceeds "
                f"M*delta/2 = {limit}"
            )
        n_points = 2 * self.M + 1
        factor_dim = 2 * n_points
        # the largest position, momentum and diagonal weight must be normal
        # floats (weights may be 0 when g = 0) whose squares, summed over a
        # Frobenius norm's factor_dim entries, stay finite
        largest = math.sqrt(sys.float_info.max / factor_dim)
        momentum = 2 * math.pi * self.hbar * self.M / (n_points * self.delta)
        for fields, quantity, value, may_vanish in (
            ("delta", "pointer position M*delta", self.M * self.delta, False),
            ("hbar, delta", "pointer momentum 2*pi*hbar*M/((2M+1)*delta)", momentum, False),
            ("g", "diagonal weight g*lambda_max*p", self.g * LAMBDA_MAX * momentum, self.g == 0),
        ):
            if not (_is_normal(value) or may_vanish) or value > largest:
                raise ConfigError(
                    f"{fields}: {quantity} = {value!r} is not a normal float of "
                    f"magnitude at most {largest:.3e}"
                )
        if factor_dim > MAX_TOTAL_DIM:
            raise ConfigError(
                f"M: per-measurement dimension {factor_dim} exceeds the dense cap "
                f"{MAX_TOTAL_DIM}"
            )
        if self.scenario == "multiworld" and factor_dim**self.k > DIMENSION_CAP:
            raise ConfigError(
                f"total dimension {factor_dim**self.k} exceeds the dense cap {DIMENSION_CAP}"
            )

    def _validate_ladder(self):
        if self.lambda1 == 0:
            raise ConfigError("lambda1 must be nonzero (null outcomes cannot be rescaled)")
        if self.lambda2 == 0:
            raise ConfigError("lambda2 must be nonzero (null outcomes cannot be rescaled)")
        ratio = self.lambda2 / self.lambda1
        if not _is_normal(ratio):
            raise ConfigError(
                f"outcome ratio lambda2/lambda1 = {ratio!r} is not a finite nonzero float"
            )
        if ratio < 0:
            raise ConfigError(
                "outcome ratio lambda2/lambda1 must be positive; opposite-sign pairs "
                "are handled by the sign-flip swap"
            )
        r = self.ratio_exponent_range
        dim = 4 * MODEL_DEGENERACY * (2 * r + 1) ** 2
        if dim > MAX_TOTAL_DIM:
            raise ConfigError(
                f"ratio_exponent_range: model dimension {dim} exceeds the dense cap "
                f"{MAX_TOTAL_DIM}"
            )
        # the ladder holds |lambda1| * ratio^e for e in [-r, r]; its diagonal
        # weights are g*|lambda1| * ratio^e, whose squares summed over the dim
        # entries (|H|_F) must stay finite, and its phases weight * t / hbar
        largest = math.sqrt(sys.float_info.max / dim)
        scale = self.g * abs(self.lambda1)
        for exponent in range(-r, r + 1):
            try:
                power = ratio**exponent
            except OverflowError:
                power = math.inf
            eigenvalue = abs(self.lambda1) * power
            if not (_is_normal(power) and _is_normal(eigenvalue)):
                raise ConfigError(
                    f"ratio_exponent_range: ladder eigenvalue |lambda1| * ratio^{exponent} "
                    f"= {eigenvalue!r} is not a finite nonzero float"
                )
            weight = scale * power
            phase = weight * self.T / self.hbar
            in_range = (_is_normal(weight) or self.g == 0) and weight <= largest
            if not in_range or not math.isfinite(phase):
                raise ConfigError(
                    f"g, lambda1, lambda2: diagonal weight g*|lambda1| * ratio^{exponent} = "
                    f"{weight!r} is not a normal float of magnitude at most {largest:.3e} "
                    "(0 when g = 0) with a finite phase over T/hbar"
                )


def _is_normal(value: float) -> bool:
    """Finite, and too large in magnitude to be zero or subnormal."""
    return sys.float_info.min <= abs(value) <= sys.float_info.max


def _require_finite(key, value):
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")


def _read_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _read_real(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: integer too large for a float") from None


def _read_bool(key, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    return value


def _read_str(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def _read_times(key, value):
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(_read_real(f"{key}[{i}]", item) for i, item in enumerate(value))


_READERS = {
    "scenario": _read_str,
    "M": _read_int,
    "delta": _read_real,
    "g": _read_real,
    "T": _read_real,
    "hbar": _read_real,
    "k": _read_int,
    "lambda1": _read_real,
    "lambda2": _read_real,
    "ratio_exponent_range": _read_int,
    "tol": _read_real,
    "seed": _read_int,
    "sample_times": _read_times,
    "phase_insensitive": _read_bool,
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration, filling defaults."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past the digit limit
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("the top level must be a JSON object")
    kwargs = {}
    for key in sorted(raw):
        if key not in _READERS:
            raise ConfigError(f"unknown key {key!r}")
        kwargs[key] = _READERS[key](key, raw[key])
    return RunConfig(**kwargs)


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a config; parse_config(serialize_config(c)) == c."""
    doc = asdict(config)
    doc["sample_times"] = list(config.sample_times)
    return render_json(doc) + "\n"

