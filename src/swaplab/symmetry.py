"""Outcome-swapping symmetries of the measurement Hamiltonian.

Every swap is a basis permutation and is stored as an integer index array:
``perm[j]`` is the image of basis ket j, so the swap S acts on amplitudes as
(S v)[i] = v[inverse[i]] and no dim x dim permutation matrix is built. S is
unitary exactly when the index array is a bijection.

Certificates are computed on the spectrum H = W^dag diag(w) W. When W carries
S onto the same index array (``Spectrum.carried_factor``), H S - S H =
W^dag (diag(w) S - S diag(w)) W has the Frobenius norm |w[perm] - w|, and
U(t) S - S U(t) likewise |phi[perm] - phi| with phi = exp(-i w t / hbar); no
dim x dim Hamiltonian or propagator is formed. Two families are certified:

* the sign-flip swap (``parity_swap``): the basis permutation sending
  (lambda, a, zeta) to (-lambda, a, -zeta). It commutes with H = -g A x p_Z
  because parity flips the sign of p_Z while the observable flips lambda. It
  is sigma x R with R the pointer reversal, and the centred DFT maps R to R.
  That last fact ties the eigenbasis to the position basis; it is checked
  numerically at pointer-factor size (the cross-construction distance). The
  dense momentum-basis twin (``parity_swap_momentum``) is an oracle;
* the scaling swap (``scaling_permutation``): on a geometric eigenvalue ladder
  it shifts the observable exponent up and the momentum exponent down,
  preserving each diagonal energy -g*lambda*p exactly.

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
    Spectrum,
    frobenius_norm,
    permutation_inverse,
)
from .measurement import (
    MeasurementSetup,
    ObservableSpec,
    circulant_columns,
    pointer_spectrum,
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
    commutator_residual: float | None
    unitarity_defect: float
    swap_residual: float
    intertwining_residual: float | None
    cross_construction_distance: float | None
    passed: bool
    note: str = ""


def _weight_commutator(weights: np.ndarray, perm: np.ndarray) -> float:
    """|H S - S H|_F / |H|_F for H = diag(weights) and the swap ``perm`` in
    H's eigenbasis: the commutator has one entry per column,
    weights[perm[j]] - weights[j] at (perm[j], j)."""
    commutator = frobenius_norm(weights[perm] - weights)
    hnorm = frobenius_norm(weights)
    return commutator / hnorm if hnorm > 0 else commutator


def _system_negation(observable: ObservableSpec) -> np.ndarray:
    """System index map (lambda, a) -> (-lambda, a)."""
    labels = np.arange(observable.system_dim).reshape(observable.n_eigenvalues, -1)
    return labels[observable.negation_index()].reshape(-1)


def parity_swap(setup: MeasurementSetup) -> np.ndarray:
    """Sign-flip swap (lambda, a, zeta_n) -> (-lambda, a, zeta_-n) as an index
    array (an exact involution)."""
    n = setup.grid.n_points
    system = _system_negation(setup.observable)
    return (system[:, None] * n + np.arange(n - 1, -1, -1)).reshape(-1)


def parity_swap_momentum(setup: MeasurementSetup) -> DenseOperator:
    """Sign-flip swap built in the momentum basis, (lambda, p) -> (-lambda, -p),
    conjugated back to the position representation (a dense oracle)."""
    sys_dim = setup.observable.system_dim
    sys_perm = np.zeros((sys_dim, sys_dim))
    sys_perm[_system_negation(setup.observable), np.arange(sys_dim)] = 1.0
    grid = setup.grid
    momentum_parity = np.eye(grid.n_points)[::-1]
    pointer_part = grid.fourier.conj().T @ momentum_parity @ grid.fourier
    return DenseOperator(np.kron(sys_perm, pointer_part), UNITARY)


def corrupted_swap(setup: MeasurementSetup) -> np.ndarray:
    """Negative control: the parity swap with the transposition that carries the
    first evolved outcome branch removed (those two kets become fixed points)."""
    perm = parity_swap(setup)
    grid = setup.grid
    target = -setup.coupling * setup.duration * setup.observable.eigenvalues[0]
    grid_index = int(np.argmin(np.abs(grid.zeta - target)))
    i = setup.observable.system_index(0, 0) * grid.n_points + grid_index
    j = perm[i]
    perm[i] = i
    perm[j] = j
    return perm


def _swap_residual(setup: MeasurementSetup, spectrum: Spectrum, inverse: np.ndarray) -> float:
    """max over outcome branches of |S U(T) ready(lambda, a) - U(T) ready(-lambda, a)|,
    in the position basis. U(T) applied to a ready ket is one column of U(T):
    the block's evolved first column, rotated to the pointer centre."""
    observable, grid = setup.observable, setup.grid
    columns = circulant_columns(spectrum, setup.duration, grid.hbar)

    def evolved_ready(system_index: int) -> np.ndarray:
        state = np.zeros(columns.shape, dtype=complex)
        state[system_index] = np.roll(columns[system_index], grid.center_index)
        return state.reshape(-1)

    negation = observable.negation_index()
    residual = 0.0
    for i in range(observable.n_eigenvalues):
        for a in range(observable.degeneracy):
            lhs = evolved_ready(observable.system_index(i, a))[inverse]
            rhs = evolved_ready(observable.system_index(int(negation[i]), a))
            residual = max(residual, float(np.linalg.norm(lhs - rhs)))
    return residual


#: identity columns per FFT batch of the cross-construction, so that its work
#: arrays stay N x 64 instead of N x N
CROSS_CHUNK = 64


def _cross_construction(spectrum: Spectrum, factor: np.ndarray) -> float:
    """|S - T|_F between the swap S = sigma x tau and its twin
    T = sigma x W^dag tau W, with tau applied in the momentum basis and
    conjugated back through the spectrum's own maps. Only the pointer factor
    differs, so the distance is sqrt(system_dim) |tau - W^dag tau W|_F. The
    N x N identity is mapped in column batches; each column's squared
    deviation is summed down the column, so the batch size does not change
    the value (batches are near-equal, so none is one column wide, which
    numpy would sum pairwise instead of row by row)."""
    n = factor.size
    squares = np.empty(n)
    for batch in np.array_split(np.arange(n), -(-n // CROSS_CHUNK)):
        columns = np.eye(n, batch.size, -batch[0], dtype=complex)
        deviation = columns[factor] - spectrum.from_eigen(spectrum.to_eigen(columns)[factor])
        squares[batch] = (deviation.real**2 + deviation.imag**2).sum(axis=0)
    return float(np.sqrt(spectrum.dim // n * squares.sum()))


NOT_CARRIED_NOTE = (
    "the swap is not sigma x tau with tau the pointer identity or reversal, so the "
    "momentum basis does not carry it: commutator, intertwining and cross-construction "
    "are not computed"
)


def certify_lemma1(
    setup: MeasurementSetup,
    tolerances: SwapTolerances = None,
    swap: np.ndarray = None,
) -> SwapCertificate:
    """Certify a sign-flip swap given as an index array (the position-basis
    parity swap by default) on the pointer spectrum: unitarity, commutation
    with H and intertwining with the evolution at sampled times from the
    weights, outcome inversion on evolved ready states in the position basis,
    and agreement with the momentum-basis construction. A swap that the
    spectrum's basis map does not carry fails, with those three fields None."""
    tolerances = tolerances or SwapTolerances()
    construction = "position-basis" if swap is None else "custom"
    perm = parity_swap(setup) if swap is None else np.asarray(swap)
    # raises unless perm is a bijection; a bijection's 0/1 matrix is exactly unitary
    inverse = permutation_inverse(perm, setup.total_dim)
    defect = 0.0
    spectrum = pointer_spectrum(setup)
    swap_residual = _swap_residual(setup, spectrum, inverse)

    factor = spectrum.carried_factor(perm)
    if factor is None:
        return SwapCertificate(
            construction=construction,
            commutator_residual=None,
            unitarity_defect=defect,
            swap_residual=swap_residual,
            intertwining_residual=None,
            cross_construction_distance=None,
            passed=False,
            note=NOT_CARRIED_NOTE,
        )

    weights = spectrum.weights
    commutator_residual = _weight_commutator(weights, perm)
    intertwining_residual = 0.0
    for fraction in SAMPLE_FRACTIONS:
        phases = np.exp(-1j * weights * (fraction * setup.duration) / setup.grid.hbar)
        intertwining_residual = max(
            intertwining_residual, frobenius_norm(phases[perm] - phases)
        )
    cross_distance = _cross_construction(spectrum, factor)
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
        cross_construction_distance=cross_distance,
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
    def axes(self) -> tuple:
        """Basis shape over (sign_sys, m, label, sign_p, k): system index
        (sign_sys, m, label), pointer index (sign_p, k), in C order."""
        return (2, self.cycle_length, self.degeneracy, 2, self.cycle_length)

    @property
    def dim(self) -> int:
        return 4 * self.cycle_length**2 * self.degeneracy

    def basis_index(self, sign_sys: int, m_index: int, label: int, sign_p: int, k_index: int) -> int:
        return int(np.ravel_multi_index((sign_sys, m_index, label, sign_p, k_index), self.axes))

    def basis_indices(self) -> np.ndarray:
        """Every basis index, laid out over the axes."""
        return np.arange(self.dim).reshape(self.axes)

    def spread(self, values) -> np.ndarray:
        """Flat basis array of `values` broadcast over the axes."""
        return np.broadcast_to(values, self.axes).flatten()

    def sector_state(self, sign_sys: int, m_index: int, label: int) -> np.ndarray:
        """Unit vector spread evenly over one (sign, exponent, label) sector."""
        state = np.zeros(self.axes, dtype=complex)
        state[sign_sys, m_index, label] = 1.0
        state = state.reshape(-1)
        return state / np.linalg.norm(state)

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
        signs = np.array([1.0, -1.0])
        exponents = np.arange(length)
        reduced = (self.exponent_min + exponents[:, None] + exponents[None, :]) % length
        sig_s = signs.reshape(2, 1, 1, 1, 1)
        sig_p = signs.reshape(1, 1, 1, 2, 1)
        return self.spread(
            -scale * sig_s * sig_p * powers[reduced].reshape(1, length, 1, 1, length)
        )

    def hamiltonian(self) -> DenseOperator:
        return DenseOperator(np.diag(self.diagonal_weights().astype(complex)), HERMITIAN)


def scaling_permutation(model: GeometricDiagonalModel) -> np.ndarray:
    """Scaling swap as an index array: the exponent shift (m, k) -> (m+1, k-1)
    with cyclic wrap; the identity at ratio 1. Commutes with the diagonal
    Hamiltonian exactly."""
    index = model.basis_indices()
    if model.ratio == 1.0:
        return index.reshape(-1)
    return np.roll(index, (-1, 1), axis=(1, 4)).reshape(-1)


NORMALIZATION_NOTE = (
    "continuum delta-normalized amplitudes carry the factor |ratio|; "
    "in this orthonormal discrete basis the coefficient is 1"
)


def locate_eigenvalue(model: GeometricDiagonalModel, value: float) -> tuple:
    if value == 0:
        raise ValueError("swap endpoints must be nonzero eigenvalues")
    for index, candidate in enumerate(model.a_eigenvalues()):
        if abs(candidate - value) <= 1e-9 * abs(value):
            return divmod(index, model.cycle_length)  # (sign index, exponent index)
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

    perm = scaling_permutation(model)
    # raises unless perm is a bijection; a bijection's 0/1 matrix is exactly unitary
    inverse = permutation_inverse(perm, model.dim)
    defect = 0.0
    weights = model.diagonal_weights()
    commutator_residual = _weight_commutator(weights, perm)

    index = model.basis_indices()
    # index[sign_to, m_to, label, sign_p, k - 1], for every label, sign_p and k
    targets = np.roll(index[sign_to, m_to], 1, axis=-1)
    mapping_exact = np.array_equal(perm[index[sign_from, m_from]], targets)

    swap_residual = 0.0 if mapping_exact else 1.0
    intertwining_residual = 0.0
    for label in range(model.degeneracy):
        source = model.sector_state(sign_from, m_from, label)
        mapped = source[inverse]
        target_indices = index[sign_to, m_to, label].reshape(-1)
        sector_deficit = abs(1.0 - float(np.linalg.norm(mapped[target_indices])))
        swap_residual = max(swap_residual, sector_deficit)
        for t in sample_times:
            phases = np.exp(-1j * weights * t / model.hbar)
            evolved_then_swapped = (phases * source)[inverse]
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
