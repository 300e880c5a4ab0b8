"""Evolution triples and unitary isomorphism between them.

A triple (Hilbert dimension, Hamiltonian, evolving unit state) determines the
bare dynamical content of a closed system. Two triples are isomorphic when a
unitary S carries one evolving state onto the other at every sampled time and
conjugates one Hamiltonian into the other; the report records both residuals.
The swaps checked here are basis permutations, given as index arrays (perm[j]
is the image of basis ket j): S is applied by gather, S v = v[inverse] and
S H S^dag = H[inverse][:, inverse], and an index array that is not a
bijection is rejected as not unitary.

Distinctness is operationalized against fixed, named reference observables:
two states describe observably different situations exactly when some
reference expectation value differs beyond tolerance. Keeping that frame
explicit is the point - it is the extra structure the triple itself does not
supply.

Isomorphism equalities are literal, including the global phase; a
phase-insensitive mode minimizes the state residual over a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HERM_TOL,
    HERMITIAN,
    ComplexVector,
    DenseOperator,
    DimensionError,
    KindError,
    Spectrum,
    frobenius_norm,
    permutation_inverse,
)


def _probe(dim: int) -> np.ndarray:
    # fixed generic unit vector: a chirp with a ramped modulus, so no entry
    # vanishes, no two entries are equal and every DFT mode is populated
    index = np.arange(dim)
    raw = (1.0 + index / dim) * np.exp(1j * np.sqrt(2.0) * index**2)
    return raw / np.linalg.norm(raw)


@dataclass(frozen=True)
class EvolutionTriple:
    """Hamiltonian + unit initial state + sampled times, with hbar.

    States are evolved through ``spectrum``. A spectrum passed in is checked
    against the Hamiltonian on one probe vector, so a triple never evolves
    under an operator other than the one it reports; without one, the
    spectrum is derived from the Hamiltonian by dense diagonalization on
    first use.
    """

    hamiltonian: DenseOperator
    initial_state: ComplexVector
    sample_times: tuple
    hbar: float = 1.0
    spectrum: Spectrum = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
        if self.hamiltonian.kind != HERMITIAN:
            raise KindError("the triple's Hamiltonian must be hermitian-tagged")
        if self.hamiltonian.dim != self.initial_state.dim:
            raise DimensionError(
                f"Hamiltonian dim {self.hamiltonian.dim} != state dim {self.initial_state.dim}"
            )
        self.initial_state.require_unit()
        times = self.sample_times
        if len(times) == 0:
            raise ValueError("sample_times must be nonempty")
        if any(t < 0 for t in times):
            raise ValueError("sample_times must be nonnegative")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("sample_times must be sorted")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.spectrum is not None:
            self._check_spectrum()

    def _check_spectrum(self) -> None:
        probe = _probe(self.dim)
        entries = self.hamiltonian.entries
        mismatch = float(np.linalg.norm(entries @ probe - self.spectrum.apply(probe)))
        if mismatch > HERM_TOL * frobenius_norm(entries):
            raise KindError(
                f"spectrum does not represent the triple's Hamiltonian: |H v - spectrum(v)| = "
                f"{mismatch:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def states_at(self, times) -> list:
        """Evolved states exp(-i H t / hbar) |initial> at the given times."""
        if self.spectrum is None:
            object.__setattr__(self, "spectrum", Spectrum.from_hermitian(self.hamiltonian.entries))
        initial = self.initial_state.amplitudes
        return [ComplexVector(self.spectrum.evolve(initial, t, self.hbar)) for t in times]

    def states(self) -> list:
        return self.states_at(self.sample_times)


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


def _phase_minimized_distance(a: np.ndarray, b: np.ndarray) -> float:
    gram = abs(np.vdot(a, b))
    value = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * gram
    return float(np.sqrt(max(value, 0.0)))


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
    if triple_a.sample_times != triple_b.sample_times:
        raise ValueError("the two triples must share their sample times")
    inverse = permutation_inverse(swap, triple_a.dim)

    states_a = triple_a.states()
    states_b = triple_b.states()
    residuals = []
    for state_a, state_b in zip(states_a, states_b):
        mapped = state_a.amplitudes[inverse]
        if phase_insensitive:
            residuals.append(_phase_minimized_distance(mapped, state_b.amplitudes))
        else:
            residuals.append(float(np.linalg.norm(mapped - state_b.amplitudes)))

    conjugated = triple_a.hamiltonian.entries[np.ix_(inverse, inverse)]
    hamiltonian_residual = frobenius_norm(conjugated - triple_b.hamiltonian.entries)

    passed = max(residuals) <= tolerance and hamiltonian_residual <= tolerance
    return IsomorphismReport(
        sample_times=triple_a.sample_times,
        state_residuals=tuple(residuals),
        hamiltonian_residual=float(hamiltonian_residual),
        tolerance=tolerance,
        passed=passed,
    )


def basis_transport_check(
    swap: np.ndarray,
    basis,
    triple_a: EvolutionTriple,
    triple_b: EvolutionTriple,
    times,
    tolerance: float = 1e-10,
) -> bool:
    """With beta_j = S alpha_j for the index-array swap S, verify
    <alpha_j|psi(t)> = <beta_j|phi(t)> for all j and t, and
    <alpha_j|H|alpha_k> = <beta_j|H'|beta_k> for all j, k."""
    matrix = np.column_stack([vector.amplitudes for vector in basis])
    if matrix.shape[0] != triple_a.dim:
        raise DimensionError("basis vectors must match the triple dimension")
    gram = matrix.conj().T @ matrix
    ortho_defect = float(np.abs(gram - np.eye(matrix.shape[1])).max())
    if ortho_defect > tolerance:
        raise ValueError(f"basis is not orthonormal: max deviation {ortho_defect:.3e}")

    transported = matrix[permutation_inverse(swap, triple_a.dim)]
    states_a = triple_a.states_at(times)
    states_b = triple_b.states_at(times)
    for state_a, state_b in zip(states_a, states_b):
        amplitudes_a = matrix.conj().T @ state_a.amplitudes
        amplitudes_b = transported.conj().T @ state_b.amplitudes
        if np.abs(amplitudes_a - amplitudes_b).max() > tolerance:
            return False

    elements_a = matrix.conj().T @ triple_a.hamiltonian.entries @ matrix
    elements_b = transported.conj().T @ triple_b.hamiltonian.entries @ transported
    return bool(np.abs(elements_a - elements_b).max() <= tolerance)


def distinctness_witness(
    state_a: ComplexVector,
    state_b: ComplexVector,
    observables,
    tolerance: float = 1e-10,
) -> tuple:
    """Expectation values and gaps of named Hermitian reference observables."""
    if state_a.dim != state_b.dim:
        raise DimensionError(f"state dims differ: {state_a.dim} vs {state_b.dim}")
    witnesses = []
    for name, observable in observables:
        if observable.dim != state_a.dim:
            raise DimensionError(f"observable {name!r} dim {observable.dim} != state dim")
        entries = observable.entries
        herm_defect = frobenius_norm(entries - entries.conj().T)
        if herm_defect > HERM_TOL * max(frobenius_norm(entries), 1.0):
            raise KindError(f"observable {name!r} is not hermitian: defect {herm_defect:.3e}")
        expectation_a = float(np.vdot(state_a.amplitudes, entries @ state_a.amplitudes).real)
        expectation_b = float(np.vdot(state_b.amplitudes, entries @ state_b.amplitudes).real)
        gap = abs(expectation_a - expectation_b)
        witnesses.append(Witness(name, expectation_a, expectation_b, gap, gap > tolerance))
    return tuple(witnesses)


def is_distinct(witnesses, tolerance: float = None) -> bool:
    """A pair of worlds is distinct when any reference gap exceeds tolerance."""
    if tolerance is None:
        return any(w.distinct for w in witnesses)
    return any(w.gap > tolerance for w in witnesses)
