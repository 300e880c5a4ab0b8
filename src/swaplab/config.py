"""JSON run configuration: schema, guards and parsing.

``RunConfig`` is the one config type and the one schema: every runner reads
its fields directly, each field's annotation picks the reader of its JSON key,
and every guard lives in ``RunConfig._validate``, so a config that violates
one fails at parse time with a field-named message, before any operator is
built. A leaf module: it imports no swaplab module.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

#: the measured qubits have outcomes +-1
QUBIT_EIGENVALUES = (1.0, -1.0)
#: degeneracy labels per eigenvalue of the classical-level ladder model
MODEL_DEGENERACY = 2

SCENARIOS = (
    "prince-pauper",
    "multiworld",
    "classical-level",
    "certify-lemma1",
    "certify-lemma2",
)
GRID_SCENARIOS = ("prince-pauper", "multiworld", "certify-lemma1")
SCALING_SCENARIOS = ("classical-level", "certify-lemma2")
#: multiworld certifies every pair of its 2^k worlds, so k stays at desk scale
MAX_QUBITS = 3
#: largest basis a run may hold (2(2M+1) per pointer factor, 8(2r+1)^2 for the
#: ladder). Memory is linear in it: the largest run at the limit
#: (prince-pauper, M = 131071) peaked at 147 MB RSS, ~235 B per basis state
#: over the 29 MB interpreter, so every run that parses stays under 200 MB
MAX_DIM = 2**19
#: sample times a run may read: multiworld's pair table grows ~23 KB per time
#: at k = 3, and multiworld k = 3 at M = 131071 with this many times peaked at
#: 144 MB RSS, so the 200 MB budget above still holds
MAX_SAMPLE_TIMES = 1000
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
        for name in _FLOAT_FIELDS:
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
        if len(times) > MAX_SAMPLE_TIMES:
            raise ConfigError(
                f"sample_times: at most {MAX_SAMPLE_TIMES} times fit the memory budget, "
                f"got {len(times)}"
            )
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
        # first: the float guards below would overflow on an M past the float range
        n_points = 2 * self.M + 1
        factor_dim = 2 * n_points
        _require_size("M", "pointer factor dimension 2(2M+1)", factor_dim)
        travel = self.g * self.T * LAMBDA_MAX
        limit = self.M * self.delta / 2
        if travel > limit:
            raise ConfigError(
                f"wraparound guard violated: g*T*lambda_max = {travel} exceeds "
                f"M*delta/2 = {limit}"
            )
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
        _require_size("ratio_exponent_range", "ladder dimension 8(2r+1)^2", dim)
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


def _require_size(field: str, quantity: str, dim: int):
    if dim > MAX_DIM:
        raise ConfigError(f"{field}: {quantity} = {dim} exceeds the size limit {MAX_DIM}")


def _is_normal(value: float) -> bool:
    """Finite, and too large in magnitude to be zero or subnormal."""
    return sys.float_info.min <= abs(value) <= sys.float_info.max


def _require_finite(key, value):
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")


def _read_real(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: integer too large for a float") from None


def _read_exact(kind: type, expected: str, key, value):
    # bool is an int subclass, so an integer field rejects it explicitly
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return value


def _read_times(key, value):
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(_read_real(f"{key}[{i}]", item) for i, item in enumerate(value))


#: the reader of each field type, by its RunConfig annotation
_READERS = {
    "str": lambda key, value: _read_exact(str, "a string", key, value),
    "int": lambda key, value: _read_exact(int, "an integer", key, value),
    "float": _read_real,
    "bool": lambda key, value: _read_exact(bool, "a boolean", key, value),
    "tuple": _read_times,
}
_FIELD_TYPES = {field.name: field.type for field in fields(RunConfig)}
_FLOAT_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind == "float")


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse and validate a JSON run configuration, filling defaults; ``overrides``
    replace the file's fields before the one validation."""
    def unique(pairs):  # json.loads alone would keep a repeated key's last value
        raw, seen = dict(pairs), set()
        if len(raw) < len(pairs):  # name the first key met a second time
            repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise ConfigError(f"key {repeated!r} is given more than once")
        return raw
    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except ValueError as exc:  # a decode error, an integer past the digit limit or a repeated key
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("the top level must be a JSON object")
    kwargs = {}
    for key in sorted(raw):
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        kwargs[key] = _READERS[_FIELD_TYPES[key]](key, raw[key])
    return RunConfig(**{**kwargs, **overrides})
