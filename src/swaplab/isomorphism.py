"""Evolution triples and unitary isomorphism between them.

A triple (Hilbert dimension, Hamiltonian, evolving unit state) determines the
bare dynamical content of a closed system. Two triples are isomorphic when a
unitary S carries one evolving state onto the other at every sampled time and
conjugates one Hamiltonian into the other; the report records both residuals.
The swaps checked here are basis permutations, given as index arrays (perm[j]
is the image of basis ket j): S is applied by gather, S v = v[inverse], and an
index array that is not a bijection is rejected as not unitary.

``check_isomorphism`` compares two triples, the dense check of acceptance
criterion 3: a triple's Hamiltonian is a dense operator, evolved through its
own dense exponential and conjugated by gather, S H S^dag =
H[inverse][:, inverse]. The runs build no triple: their world engine
(``scenario``) reads the same state residual and report rule off one
spectral evolution of its worlds, and the Hamiltonian residual off the swap
certificate's weight drift, |w[perm] - w|.

Distinctness is operationalized against fixed, named reference observables,
each a real diagonal read on amplitude arrays (a ``ComplexVector`` converts
to one): two states describe observably different situations exactly when
some expectation differs beyond tolerance. Keeping that frame explicit is the
point - it is the extra structure the triple itself does not supply. The
engine and ``distinctness_witness`` share one expectation pass and one rule.

Isomorphism equalities are literal, including the global phase; a
phase-insensitive mode minimizes the state residual over a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN,
    ComplexVector,
    DenseOperator,
    DimensionError,
    KindError,
    frobenius_norm,
    hermitian_exponential,
    permutation_inverse,
)


@dataclass(frozen=True)
class EvolutionTriple:
    """Hamiltonian + unit initial state + sampled times, with hbar.

    The Hamiltonian is a hermitian-tagged ``DenseOperator``, through whose
    ``hermitian_exponential`` states are evolved, so a triple evolves under
    the operator it reports.
    """

    hamiltonian: DenseOperator
    initial_state: ComplexVector
    sample_times: tuple
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
        if not (isinstance(self.hamiltonian, DenseOperator) and self.hamiltonian.kind == HERMITIAN):
            raise KindError("the triple's Hamiltonian must be a hermitian-tagged DenseOperator")
        if self.hamiltonian.dim != self.initial_state.dim:
            raise DimensionError(
                f"Hamiltonian dim {self.hamiltonian.dim} != state dim {self.initial_state.dim}"
            )
        self.initial_state.require_unit()
        times = self.sample_times
        if len(times) == 0:
            raise ValueError("sample_times must be nonempty")
        if not all(t >= 0 for t in times):
            raise ValueError("sample_times must be nonnegative")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("sample_times must be sorted")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def states_at(self, times) -> list:
        """Evolved states exp(-i H t / hbar) |initial> at the given times."""
        hamiltonian, start = self.hamiltonian, self.initial_state
        return [hermitian_exponential(hamiltonian, t / self.hbar) @ start for t in times]


@dataclass(frozen=True)
class Witness:
    """Expectation values of one named reference observable in two worlds."""

    observable: str
    expectation_a: float
    expectation_b: float
    gap: float
    distinct: bool


@dataclass(frozen=True)
class IsomorphismReport:
    sample_times: tuple
    state_residuals: tuple
    hamiltonian_residual: float
    tolerance: float
    passed: bool

    @classmethod
    def judged(cls, times, residuals, hamiltonian_residual, tolerance) -> IsomorphismReport:
        """The report of these residuals, passing when each is within tolerance:
        one comparison per residual, as max() would drop a NaN that is not first."""
        passed = all(r <= tolerance for r in residuals) and hamiltonian_residual <= tolerance
        return cls(tuple(times), tuple(residuals), hamiltonian_residual, tolerance, passed)


def _phase_minimized_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over theta of |a - e^{i theta} b|, at e^{i theta} the phase of <b, a>
    (1 if orthogonal), by subtraction: |a|^2 + |b|^2 - 2|<a, b>| cancels."""
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if inner != 0 else 1.0
    return frobenius_norm(a - phase * b)


def _state_residual(mapped: np.ndarray, state_b: np.ndarray, phase_insensitive: bool) -> float:
    if phase_insensitive:
        return _phase_minimized_distance(mapped, state_b)
    return frobenius_norm(mapped - state_b)


def check_isomorphism(
    swap: np.ndarray,
    triple_a: EvolutionTriple,
    triple_b: EvolutionTriple,
    tolerance: float = 1e-10,
    phase_insensitive: bool = False,
) -> IsomorphismReport:
    """Residuals of S|psi(t)> = |phi(t)> and S H S^-1 = H' at the sampled times,
    for the swap S given as an index array; a non-bijection raises KindError."""
    if triple_a.dim != triple_b.dim:
        raise DimensionError(f"triple dims differ: {triple_a.dim} vs {triple_b.dim}")
    times = triple_a.sample_times
    if triple_b.sample_times != times:
        raise ValueError("the two triples must share their sample times")
    inverse = permutation_inverse(swap, triple_a.dim)
    residuals = [
        _state_residual(a.amplitudes[inverse], b.amplitudes, phase_insensitive)
        for a, b in zip(triple_a.states_at(times), triple_b.states_at(times))
    ]
    h_a, h_b = triple_a.hamiltonian.entries, triple_b.hamiltonian.entries
    residual = frobenius_norm(h_a[np.ix_(inverse, inverse)] - h_b)
    return IsomorphismReport.judged(times, residuals, residual, tolerance)


def distinctness_witness(state_a, state_b, observables, tolerance: float = 1e-10) -> tuple:
    """Expectation values and gaps of named reference observables in two
    amplitude arrays, each observable given as its real diagonal ``values``
    in the working basis, so that <psi|A|psi> = sum_i values[i] |psi_i|^2.
    States that are not 1-d arrays of one length, or a diagonal of the wrong
    shape, raise DimensionError; a complex diagonal (not Hermitian) KindError."""
    state_a, state_b = np.asarray(state_a, dtype=complex), np.asarray(state_b, dtype=complex)
    if state_a.ndim != 1 or state_a.size == 0 or state_a.shape != state_b.shape:
        raise DimensionError(
            f"states must be nonempty 1-d arrays of one length: {state_a.shape} vs {state_b.shape}"
        )
    frame = [(name, np.asarray(values)) for name, values in observables]
    for name, values in frame:
        if values.shape != state_a.shape:
            raise DimensionError(
                f"observable {name!r} must be a diagonal of {state_a.size} values, "
                f"got shape {values.shape}"
            )
        if np.iscomplexobj(values):
            raise KindError(f"observable {name!r} is not hermitian: its diagonal is complex")
    expectations = [_expectations(state, frame) for state in (state_a, state_b)]
    return _witnesses([name for name, _ in frame], *expectations, tolerance)


def _expectations(state, frame) -> list:
    """sum_i values_i |psi_i|^2 per (name, values), values broadcast over ``state``."""
    return [float(np.vdot(state, values * state).real) for _, values in frame]


def _witnesses(names, expectations_a, expectations_b, tolerance) -> tuple:
    """The witness rule: an observable's gap is |a - b|, distinct beyond tolerance."""
    return tuple(
        Witness(name, a, b, abs(a - b), abs(a - b) > tolerance)
        for name, a, b in zip(names, expectations_a, expectations_b)
    )
