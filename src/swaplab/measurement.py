"""Pointer-measurement model on a symmetric periodic grid.

The apparatus pointer lives on N = 2M+1 positions n*spacing for n in -M..M,
so both the position grid and the discrete-Fourier momentum grid are symmetric
under negation. Boundary conditions are periodic: translations are exact
cyclic shifts and the momentum operator stays exactly Hermitian, at the price
of pointer wraparound (configs must keep |g*T*lambda_max| <= M*spacing/2).

Conventions:
  * tensor ordering is (system x pointer); full index = system_index * N + grid_index
  * momentum eigenvector components are exp(i*p*zeta/hbar)/sqrt(N)
  * hbar appears uniformly, translations are exp(-i p_Z tau / hbar)
  * free Hamiltonians are identically zero; only the measurement coupling acts
  * H is ``pointer_spectrum``: diagonal in the system eigenbasis x the DFT
    momentum basis, so evolving is an FFT along the pointer axis, a phase and
    an inverse FFT. The dense ``interaction_hamiltonian``, ``evolution_matrix``
    and ``propagator`` are oracles; no certificate builds them
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    HERMITIAN,
    UNITARY,
    ComplexVector,
    DenseOperator,
    DimensionError,
    Spectrum,
    basis_vector,
    tensor_product,
)

#: dense-operator size guard for a single measurement setup
MAX_TOTAL_DIM = 4096

#: branch probabilities below this are reported with undefined pointer statistics
ZERO_BRANCH_TOL = 1e-12


@dataclass(eq=False)
class PointerGrid:
    """Discretized pointer space: positions ``zeta`` (the position operator's
    diagonal) and momenta. The dense N x N DFT analysis map and momentum
    operator are built on first access, for the dense oracles and
    ``ccr_defect``; no certificate reads them."""

    half_width: int
    spacing: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("half_width must be >= 1 (a single-point pointer is degenerate)")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        n = 2 * self.half_width + 1
        index = np.arange(-self.half_width, self.half_width + 1)
        self.n_points = n
        self.zeta = index * self.spacing
        self.momenta = 2 * np.pi * self.hbar * index / (n * self.spacing)

    @cached_property
    def fourier(self) -> np.ndarray:
        """Analysis map (position -> momentum amplitudes); row j is <p_j|zeta>."""
        index = np.arange(-self.half_width, self.half_width + 1)
        n = self.n_points
        return np.exp(-2j * np.pi * np.outer(index, index) / n) / np.sqrt(n)

    @cached_property
    def momentum_operator(self) -> DenseOperator:
        momentum = self.fourier.conj().T @ np.diag(self.momenta) @ self.fourier
        return DenseOperator(momentum, HERMITIAN)

    @property
    def center_index(self) -> int:
        return self.half_width


def make_pointer_grid(half_width: int, spacing: float, hbar: float = 1.0) -> PointerGrid:
    """Build the symmetric N = 2*half_width + 1 point pointer grid."""
    return PointerGrid(half_width, spacing, hbar)


@dataclass(frozen=True)
class ObservableSpec:
    """Measured observable: distinct eigenvalues, all with equal degeneracy."""

    eigenvalues: tuple
    degeneracy: int = 1

    def __post_init__(self):
        values = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", values)
        if len(values) == 0:
            raise ValueError("at least one eigenvalue is required")
        if len(set(values)) != len(values):
            raise ValueError(f"eigenvalues must be distinct, got {values}")
        if self.degeneracy < 1:
            raise ValueError(f"degeneracy must be >= 1, got {self.degeneracy}")

    @property
    def n_eigenvalues(self) -> int:
        return len(self.eigenvalues)

    @property
    def system_dim(self) -> int:
        return self.n_eigenvalues * self.degeneracy

    def has_symmetric_spectrum(self) -> bool:
        values = set(self.eigenvalues)
        return all(-v in values for v in values)

    def negation_index(self) -> np.ndarray:
        """Index map i -> j with eigenvalue[j] == -eigenvalue[i]."""
        positions = {v: i for i, v in enumerate(self.eigenvalues)}
        mapping = np.empty(self.n_eigenvalues, dtype=int)
        for i, v in enumerate(self.eigenvalues):
            if -v not in positions:
                raise ValueError(
                    f"spectrum is not closed under negation: {v} has no partner -{v}; "
                    "the outcome-sign swap needs every eigenvalue's negation in the spectrum"
                )
            mapping[i] = positions[-v]
        return mapping

    def system_index(self, eig_index: int, label: int = 0) -> int:
        if not 0 <= eig_index < self.n_eigenvalues:
            raise DimensionError(f"eigenvalue index {eig_index} out of range")
        if not 0 <= label < self.degeneracy:
            raise DimensionError(f"degeneracy label {label} out of range")
        return eig_index * self.degeneracy + label

    def values(self) -> np.ndarray:
        """The observable's diagonal on the system basis, eigenvalue-major."""
        return np.repeat(self.eigenvalues, self.degeneracy)


@dataclass(eq=False)
class MeasurementSetup:
    """Observable + pointer grid + coupling window [0, duration]."""

    observable: ObservableSpec
    grid: PointerGrid
    coupling: float
    duration: float

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError(f"coupling must be nonnegative, got {self.coupling}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def total_dim(self) -> int:
        return self.observable.system_dim * self.grid.n_points


@dataclass(frozen=True)
class BranchReadout:
    """Born-rule weight and pointer statistics of one outcome branch."""

    eigenvalue: float
    probability: float
    pointer_mean: float | None
    inferred_outcome: float | None


def pointer_basis_state(grid: PointerGrid, grid_index: int) -> ComplexVector:
    return basis_vector(grid.n_points, grid_index)


def ready_pointer(grid: PointerGrid) -> ComplexVector:
    """Calibrated ready state: pointer parked at zeta = 0."""
    return pointer_basis_state(grid, grid.center_index)


def system_basis_state(observable: ObservableSpec, eig_index: int, label: int = 0) -> ComplexVector:
    return basis_vector(observable.system_dim, observable.system_index(eig_index, label))


def ready_state(setup: MeasurementSetup, system_state: ComplexVector) -> ComplexVector:
    """system_state on the system factor, pointer calibrated at zeta = 0."""
    if system_state.dim != setup.observable.system_dim:
        raise DimensionError(
            f"system state dim {system_state.dim} != observable dim {setup.observable.system_dim}"
        )
    return tensor_product(system_state, ready_pointer(setup.grid))


def interaction_hamiltonian(setup: MeasurementSetup) -> DenseOperator:
    """-coupling * (A x p_Z) on the (system x pointer) basis: A is diagonal,
    so the system index s carries the block -coupling * (a_s * p_Z)."""
    if setup.total_dim > MAX_TOTAL_DIM:
        raise DimensionError(
            f"total dimension {setup.total_dim} exceeds the dense cap {MAX_TOTAL_DIM}"
        )
    values = setup.observable.values()
    momentum = setup.grid.momentum_operator.entries
    n_points = setup.grid.n_points
    blocks = np.zeros((values.size, n_points, values.size, n_points), dtype=complex)
    blocks[np.arange(values.size), :, np.arange(values.size), :] = (
        values[:, None, None] * momentum
    )
    entries = -setup.coupling * blocks.reshape(setup.total_dim, setup.total_dim)
    return DenseOperator(entries, HERMITIAN)


def pointer_spectrum(setup: MeasurementSetup) -> Spectrum:
    """H = -coupling * (A x p_Z) with weights -coupling * lambda_s * p_j, in
    the system eigenbasis x the centred DFT momentum basis of the pointer."""
    weights = -setup.coupling * np.outer(setup.observable.values(), setup.grid.momenta)
    return Spectrum.centred_dft(weights.reshape(-1), setup.grid.n_points)


def circulant_columns(spectrum: Spectrum, t: float, hbar: float) -> np.ndarray:
    """First columns of the pointer blocks of exp(-i H t / hbar) for a
    centred-DFT spectrum, one row per block. Each block is circulant, so its
    first column, the evolved first basis vector of the block, fixes it."""
    n_points = spectrum.dft_size
    starts = np.zeros((spectrum.dim // n_points, n_points), dtype=complex)
    starts[:, 0] = 1.0
    return spectrum.evolve(starts.reshape(-1), t, hbar).reshape(starts.shape)


def _block_circulant(spectrum: Spectrum, t: float, hbar: float) -> np.ndarray:
    # the dense propagator, each circulant block read off its first column
    columns = circulant_columns(spectrum, t, hbar)
    blocks, n_points = columns.shape
    index = np.arange(n_points)
    circulant = columns[:, (index[:, None] - index[None, :]) % n_points]
    entries = np.zeros((blocks, n_points, blocks, n_points), dtype=complex)
    entries[np.arange(blocks), :, np.arange(blocks), :] = circulant
    return entries.reshape(spectrum.dim, spectrum.dim)


def translation_map(grid: PointerGrid, steps: int) -> DenseOperator:
    """exp(-i p_Z (steps*spacing) / hbar): exact cyclic shift by `steps`."""
    spectrum = Spectrum.centred_dft(grid.momenta, grid.n_points)
    shift = _block_circulant(spectrum, steps * grid.spacing, grid.hbar)
    return DenseOperator(shift, UNITARY)


def _require_window(setup: MeasurementSetup, t: float) -> None:
    if not 0 <= t <= setup.duration:
        raise ValueError(
            f"time {t} outside [0, {setup.duration}]: the coupling is only defined there"
        )


def evolution_matrix(setup: MeasurementSetup, t: float) -> np.ndarray:
    """Entries of exp(-i H t / hbar), assembled block by block from the
    pointer spectrum without a unitarity check (a dense oracle)."""
    return _block_circulant(pointer_spectrum(setup), t, setup.grid.hbar)


def propagator(setup: MeasurementSetup, t: float) -> DenseOperator:
    """Evolution operator exp(-i H t / hbar) for t inside the coupling window."""
    _require_window(setup, t)
    return DenseOperator(evolution_matrix(setup, t), UNITARY)


def evolve(setup: MeasurementSetup, state: ComplexVector, t: float) -> ComplexVector:
    """Premeasurement evolution: each branch's pointer moves by -coupling*t*lambda."""
    if state.dim != setup.total_dim:
        raise DimensionError(f"state dim {state.dim} != setup dim {setup.total_dim}")
    _require_window(setup, t)
    return ComplexVector(pointer_spectrum(setup).evolve(state.amplitudes, t, setup.grid.hbar))


def readout(
    state: ComplexVector, setup: MeasurementSetup, zero_tol: float = ZERO_BRANCH_TOL
) -> tuple:
    """Per-eigenvalue branch probability, pointer mean, and inferred outcome.

    The inferred outcome is -<Z>_branch / (coupling * duration); it is reported
    as None (not NaN) for branches with probability below `zero_tol`, and also
    when coupling * duration == 0, where the calibration is undefined.
    """
    if state.dim != setup.total_dim:
        raise DimensionError(f"state dim {state.dim} != setup dim {setup.total_dim}")
    observable = setup.observable
    weights = np.abs(state.amplitudes.reshape(observable.system_dim, setup.grid.n_points)) ** 2
    scale = setup.coupling * setup.duration
    table = []
    for i, eigenvalue in enumerate(observable.eigenvalues):
        block = weights[i * observable.degeneracy : (i + 1) * observable.degeneracy]
        probability = float(block.sum())
        if probability < zero_tol:
            table.append(BranchReadout(eigenvalue, probability, None, None))
            continue
        pointer_mean = float((block.sum(axis=0) * setup.grid.zeta).sum() / probability)
        inferred = -pointer_mean / scale if scale > 0 else None
        table.append(BranchReadout(eigenvalue, probability, pointer_mean, inferred))
    return tuple(table)


def gaussian_pointer_state(grid: PointerGrid, width: float) -> ComplexVector:
    """Normalized Gaussian centered at zeta = 0 with the given position width."""
    profile = np.exp(-grid.zeta**2 / (4 * width**2)).astype(complex)
    return ComplexVector(profile / np.linalg.norm(profile))


def ccr_defect(grid: PointerGrid, state: ComplexVector = None) -> float:
    """Norm of ([Z, p_Z] - i hbar) applied to a smooth centered test state.

    The canonical commutation relation cannot hold as a matrix identity in
    finite dimension (the two sides have unequal traces), so the residual is
    measured on states supported in the central half of the grid, where it
    decays under grid refinement.
    """
    if state is None:
        state = gaussian_pointer_state(grid, grid.n_points * grid.spacing / 10)
    if state.dim != grid.n_points:
        raise DimensionError(f"state dim {state.dim} != grid size {grid.n_points}")
    # the position operator is diag(zeta), so Z p and p Z scale rows and columns
    p = grid.momentum_operator.entries
    commutator = grid.zeta[:, None] * p - p * grid.zeta
    residual = commutator @ state.amplitudes - 1j * grid.hbar * state.amplitudes
    return float(np.linalg.norm(residual))
