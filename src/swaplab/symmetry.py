"""Outcome-swapping unitary symmetries of the measurement Hamiltonian.

Two families are built and certified:

* the sign-flip swap (``parity_swap``): the basis permutation sending
  (lambda, a, zeta) to (-lambda, a, -zeta), together with its momentum-basis
  twin, which commutes with H = -g A x p_Z because parity flips the sign of
  p_Z while the observable flips lambda;
* the scaling swap (``scaling_swap``): on a geometric eigenvalue ladder it
  shifts the observable exponent up and the momentum exponent down, preserving
  each diagonal energy -g*lambda*p exactly.

The scaling family is verified in the diagonal (eigenbasis) representation:
scaling is not a bijection of a uniform grid, but the exponent shift with
cyclic wrap is an exact bijection of a geometric ladder. Exponents live on a
cyclic group: the diagonal weight depends on the total exponent reduced modulo
the cycle length (canonicalized into [exponent_min, exponent_max]), so mapped
basis entries are bitwise identical and the commutator vanishes exactly. The
unbounded ladder is recovered as the cycle length grows; wrapped index pairs
are this model's analogue of the pointer grid's periodic wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN,
    UNITARY,
    DenseOperator,
    commutator_norm,
    frobenius_norm,
    operator_distance,
    unitarity_defect,
)
from .measurement import (
    MeasurementSetup,
    evolution_matrix,
    interaction_hamiltonian,
    ready_state,
    system_basis_state,
)

#: intertwining with the evolution operator is checked at these fractions of T
SAMPLE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SwapTolerances:
    """Pass thresholds for a SwapCertificate; residuals are relative to |H|_F
    for the commutator and absolute elsewhere (states are unit vectors)."""

    commutator: float = 1e-10
    unitarity: float = 1e-10
    swap: float = 1e-10
    intertwining: float = 1e-10
    cross_construction: float = 1e-10

    @classmethod
    def uniform(cls, tol: float) -> "SwapTolerances":
        return cls(tol, tol, tol, tol, tol)


@dataclass(frozen=True)
class SwapCertificate:
    construction: str
    commutator_residual: float
    unitarity_defect: float
    swap_residual: float
    intertwining_residual: float
    cross_construction_distance: float | None
    passed: bool
    note: str = ""


def _permutation_operator(perm: np.ndarray) -> DenseOperator:
    n = perm.size
    entries = np.zeros((n, n))
    entries[perm, np.arange(n)] = 1.0
    return DenseOperator(entries, UNITARY)


def parity_permutation(setup: MeasurementSetup) -> np.ndarray:
    """Index map of (lambda, a, zeta_n) -> (-lambda, a, zeta_-n)."""
    observable, grid = setup.observable, setup.grid
    negation = observable.negation_index()
    n = grid.n_points
    d = observable.degeneracy
    perm = np.empty(setup.total_dim, dtype=int)
    for i in range(observable.n_eigenvalues):
        for a in range(d):
            src = (i * d + a) * n
            dst = (negation[i] * d + a) * n
            for gi in range(n):
                perm[src + gi] = dst + (n - 1 - gi)
    return perm


def parity_swap(setup: MeasurementSetup) -> DenseOperator:
    """Sign-flip swap in the position representation (an exact involution)."""
    return _permutation_operator(parity_permutation(setup))


def parity_swap_momentum(setup: MeasurementSetup) -> DenseOperator:
    """Sign-flip swap built in the momentum basis, (lambda, p) -> (-lambda, -p),
    conjugated back to the position representation."""
    observable, grid = setup.observable, setup.grid
    negation = observable.negation_index()
    d = observable.degeneracy
    sys_dim = observable.system_dim
    sys_perm = np.zeros((sys_dim, sys_dim))
    for i in range(observable.n_eigenvalues):
        for a in range(d):
            sys_perm[negation[i] * d + a, i * d + a] = 1.0
    momentum_parity = np.eye(grid.n_points)[::-1]
    pointer_part = grid.fourier.conj().T @ momentum_parity @ grid.fourier
    return DenseOperator(np.kron(sys_perm, pointer_part), UNITARY)


def corrupted_swap(setup: MeasurementSetup) -> DenseOperator:
    """Negative control: the parity swap with the transposition that carries the
    first evolved outcome branch removed (those two kets become fixed points)."""
    perm = parity_permutation(setup).copy()
    grid = setup.grid
    target = -setup.coupling * setup.duration * setup.observable.eigenvalues[0]
    grid_index = int(np.argmin(np.abs(grid.zeta - target)))
    i = setup.observable.system_index(0, 0) * grid.n_points + grid_index
    j = perm[i]
    perm[i] = i
    perm[j] = j
    return _permutation_operator(perm)


def certify_lemma1(
    setup: MeasurementSetup,
    tolerances: SwapTolerances = None,
    swap: DenseOperator = None,
    construction: str = None,
) -> SwapCertificate:
    """Certify the sign-flip swap: unitarity, commutation with H, intertwining
    with the evolution at sampled times, outcome inversion on evolved ready
    states, and agreement between the two constructions."""
    tolerances = tolerances or SwapTolerances()
    if construction is None:
        construction = "position-basis" if swap is None else "custom"
    candidate = swap if swap is not None else parity_swap(setup)
    momentum_twin = parity_swap_momentum(setup)

    hamiltonian = interaction_hamiltonian(setup)
    hnorm = frobenius_norm(hamiltonian.entries)
    commutator = commutator_norm(hamiltonian, candidate)
    commutator_residual = commutator / hnorm if hnorm > 0 else commutator
    defect = unitarity_defect(candidate)

    observable = setup.observable
    negation = observable.negation_index()
    final = evolution_matrix(setup, setup.duration)
    swap_residual = 0.0
    for i in range(observable.n_eigenvalues):
        for a in range(observable.degeneracy):
            source = ready_state(setup, system_basis_state(observable, i, a))
            mirror = ready_state(setup, system_basis_state(observable, int(negation[i]), a))
            lhs = candidate.entries @ (final @ source.amplitudes)
            rhs = final @ mirror.amplitudes
            swap_residual = max(swap_residual, float(np.linalg.norm(lhs - rhs)))

    intertwining_residual = 0.0
    for fraction in SAMPLE_FRACTIONS:
        u = evolution_matrix(setup, fraction * setup.duration)
        deviation = frobenius_norm(u @ candidate.entries - candidate.entries @ u)
        intertwining_residual = max(intertwining_residual, deviation)

    cross_distance = operator_distance(candidate, momentum_twin)
    passed = (
        commutator_residual <= tolerances.commutator
        and defect <= tolerances.unitarity
        and swap_residual <= tolerances.swap
        and intertwining_residual <= tolerances.intertwining
        and cross_distance <= tolerances.cross_construction
    )
    return SwapCertificate(
        construction=construction,
        commutator_residual=float(commutator_residual),
        unitarity_defect=float(defect),
        swap_residual=float(swap_residual),
        intertwining_residual=float(intertwining_residual),
        cross_construction_distance=float(cross_distance),
        passed=passed,
    )


@dataclass(frozen=True)
class GeometricDiagonalModel:
    """Diagonal surrogate for a continuous symmetric spectrum.

    Observable eigenvalues are +-base_eigenvalue * ratio**m and momentum
    eigenvalues +-base_momentum * ratio**k, with m, k in
    [exponent_min, exponent_max] wrapped cyclically. The Hamiltonian is
    diagonal with weight -coupling * lambda * p, the total exponent m + k
    reduced into the canonical window (see module docstring).
    """

    ratio: float
    exponent_min: int
    exponent_max: int
    base_eigenvalue: float = 1.0
    base_momentum: float = 1.0
    coupling: float = 1.0
    degeneracy: int = 1
    hbar: float = 1.0

    def __post_init__(self):
        if self.ratio <= 0:
            raise ValueError(
                f"scaling ratio must be positive, got {self.ratio}; opposite-sign "
                "outcome pairs are handled by the sign-flip swap"
            )
        if self.base_eigenvalue <= 0:
            raise ValueError(
                "base_eigenvalue must be positive: zero is excluded (a null outcome "
                "cannot be rescaled) and negative eigenvalues come from the sign sector"
            )
        if self.base_momentum <= 0:
            raise ValueError(f"base_momentum must be positive, got {self.base_momentum}")
        if self.exponent_min > self.exponent_max:
            raise ValueError("exponent_min must not exceed exponent_max")
        if self.degeneracy < 1:
            raise ValueError(f"degeneracy must be >= 1, got {self.degeneracy}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def cycle_length(self) -> int:
        return self.exponent_max - self.exponent_min + 1

    @property
    def n_system(self) -> int:
        return 2 * self.cycle_length * self.degeneracy

    @property
    def n_pointer(self) -> int:
        return 2 * self.cycle_length

    @property
    def dim(self) -> int:
        return self.n_system * self.n_pointer

    def basis_index(self, sign_sys: int, m_index: int, label: int, sign_p: int, k_index: int) -> int:
        system = (sign_sys * self.cycle_length + m_index) * self.degeneracy + label
        pointer = sign_p * self.cycle_length + k_index
        return system * self.n_pointer + pointer

    def a_eigenvalues(self) -> tuple:
        signs = (1.0, -1.0)
        return tuple(
            sign * self.base_eigenvalue * self.ratio**(self.exponent_min + m)
            for sign in signs
            for m in range(self.cycle_length)
        )

    def _power_table(self) -> np.ndarray:
        # shared lookup keeps wrapped index orbits bitwise equal on the diagonal
        return np.array(
            [self.ratio ** (self.exponent_min + r) for r in range(self.cycle_length)]
        )

    def diagonal_weights(self) -> np.ndarray:
        length = self.cycle_length
        powers = self._power_table()
        scale = self.coupling * self.base_eigenvalue * self.base_momentum
        weights = np.empty(self.dim)
        for sign_sys, sig_s in enumerate((1.0, -1.0)):
            for m in range(length):
                for label in range(self.degeneracy):
                    for sign_p, sig_p in enumerate((1.0, -1.0)):
                        for k in range(length):
                            reduced = (self.exponent_min + m + k) % length
                            weights[self.basis_index(sign_sys, m, label, sign_p, k)] = (
                                -scale * sig_s * sig_p * powers[reduced]
                            )
        return weights

    def hamiltonian(self) -> DenseOperator:
        return DenseOperator(np.diag(self.diagonal_weights().astype(complex)), HERMITIAN)


def scaling_permutation(model: GeometricDiagonalModel) -> np.ndarray:
    """Exponent shift (m, k) -> (m+1, k-1) with cyclic wrap; identity at ratio 1."""
    if model.ratio == 1.0:
        return np.arange(model.dim)
    length = model.cycle_length
    perm = np.empty(model.dim, dtype=int)
    for sign_sys in range(2):
        for m in range(length):
            for label in range(model.degeneracy):
                for sign_p in range(2):
                    for k in range(length):
                        src = model.basis_index(sign_sys, m, label, sign_p, k)
                        perm[src] = model.basis_index(
                            sign_sys, (m + 1) % length, label, sign_p, (k - 1) % length
                        )
    return perm


def scaling_swap(model: GeometricDiagonalModel) -> DenseOperator:
    """Outcome-rescaling swap; commutes with the diagonal Hamiltonian exactly."""
    return _permutation_operator(scaling_permutation(model))


NORMALIZATION_NOTE = (
    "continuum delta-normalized amplitudes carry the factor |ratio|; "
    "in this orthonormal discrete basis the coefficient is 1"
)


def locate_eigenvalue(model: GeometricDiagonalModel, value: float) -> tuple:
    if value == 0:
        raise ValueError("swap endpoints must be nonzero eigenvalues")
    for sign_idx, sign in enumerate((1.0, -1.0)):
        for m in range(model.cycle_length):
            candidate = sign * model.base_eigenvalue * model.ratio ** (model.exponent_min + m)
            if abs(candidate - value) <= 1e-9 * abs(value):
                return sign_idx, m
    raise ValueError(f"{value} is not an eigenvalue of the geometric model")


def certify_lemma2(
    model: GeometricDiagonalModel,
    eigenvalue_from: float,
    eigenvalue_to: float,
    tolerances: SwapTolerances = None,
    sample_times: tuple = (0.0, 0.5, 1.0),
) -> SwapCertificate:
    """Certify the scaling swap: exact commutation with the diagonal Hamiltonian
    and mapping of the eigenvalue_from branch family onto the eigenvalue_to
    family, for every degeneracy label (index-level and on evolved states)."""
    tolerances = tolerances or SwapTolerances()
    sign_from, m_from = locate_eigenvalue(model, eigenvalue_from)
    sign_to, m_to = locate_eigenvalue(model, eigenvalue_to)

    if eigenvalue_from == eigenvalue_to:
        return SwapCertificate(
            construction="scaling",
            commutator_residual=0.0,
            unitarity_defect=0.0,
            swap_residual=0.0,
            intertwining_residual=0.0,
            cross_construction_distance=None,
            passed=True,
            note="identity automorphism: equal outcome eigenvalues leave nothing to swap; "
            + NORMALIZATION_NOTE,
        )

    requested_ratio = eigenvalue_to / eigenvalue_from
    if abs(requested_ratio - model.ratio) > 1e-9 * model.ratio:
        raise ValueError(
            f"outcome ratio {requested_ratio} does not match the model ratio {model.ratio}"
        )

    swap = scaling_swap(model)
    perm = scaling_permutation(model)
    hamiltonian = model.hamiltonian()
    hnorm = frobenius_norm(hamiltonian.entries)
    commutator = commutator_norm(hamiltonian, swap)
    commutator_residual = commutator / hnorm if hnorm > 0 else commutator
    defect = unitarity_defect(swap)

    length = model.cycle_length
    weights = model.diagonal_weights()
    mapping_exact = all(
        perm[model.basis_index(sign_from, m_from, label, sign_p, k)]
        == model.basis_index(sign_to, m_to, label, sign_p, (k - 1) % length)
        for label in range(model.degeneracy)
        for sign_p in range(2)
        for k in range(length)
    )

    swap_residual = 0.0 if mapping_exact else 1.0
    intertwining_residual = 0.0
    for label in range(model.degeneracy):
        source = np.zeros(model.dim, dtype=complex)
        for sign_p in range(2):
            for k in range(length):
                source[model.basis_index(sign_from, m_from, label, sign_p, k)] = 1.0
        source /= np.linalg.norm(source)
        mapped = np.empty_like(source)
        mapped[perm] = source
        target_indices = [
            model.basis_index(sign_to, m_to, label, sign_p, k)
            for sign_p in range(2)
            for k in range(length)
        ]
        sector_deficit = abs(1.0 - float(np.linalg.norm(mapped[target_indices])))
        swap_residual = max(swap_residual, sector_deficit)
        for t in sample_times:
            phases = np.exp(-1j * weights * t / model.hbar)
            evolved_then_swapped = np.empty_like(source)
            evolved_then_swapped[perm] = phases * source
            swapped_then_evolved = phases * mapped
            intertwining_residual = max(
                intertwining_residual,
                float(np.linalg.norm(evolved_then_swapped - swapped_then_evolved)),
            )

    passed = (
        commutator_residual <= tolerances.commutator
        and defect <= tolerances.unitarity
        and swap_residual <= tolerances.swap
        and intertwining_residual <= tolerances.intertwining
    )
    return SwapCertificate(
        construction="scaling",
        commutator_residual=float(commutator_residual),
        unitarity_defect=float(defect),
        swap_residual=float(swap_residual),
        intertwining_residual=float(intertwining_residual),
        cross_construction_distance=None,
        passed=passed,
        note=NORMALIZATION_NOTE,
    )
