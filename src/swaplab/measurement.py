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
    an inverse FFT. The dense ``interaction_hamiltonian`` is an oracle; no
    certificate builds it
  * a ``Factor`` is a measured factor as data, the pointer's or the ladder's;
    ``evolved_ready`` evolves its worlds once
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN,
    UNITARY,
    ComplexVector,
    DenseOperator,
    DimensionError,
    Spectrum,
    basis_vector,
)

#: dense-operator size guard for a single measurement setup
MAX_TOTAL_DIM = 4096

#: branch probabilities below this are reported with undefined pointer statistics
ZERO_BRANCH_TOL = 1e-12


@dataclass(eq=False)
class PointerGrid:
    """Discretized pointer space: positions ``zeta`` (the position operator's
    diagonal) and momenta (the momentum operator's diagonal in the centred
    DFT basis)."""

    half_width: int
    spacing: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("half_width must be >= 1 (a single-point pointer is degenerate)")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        n = 2 * self.half_width + 1
        index = np.arange(-self.half_width, self.half_width + 1)
        self.n_points = n
        self.zeta = index * self.spacing
        self.momenta = 2 * np.pi * self.hbar * index / (n * self.spacing)

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
        if not self.coupling >= 0:
            raise ValueError(f"coupling must be nonnegative, got {self.coupling}")
        if not self.duration > 0:
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


def system_basis_state(observable: ObservableSpec, eig_index: int, label: int = 0) -> ComplexVector:
    return basis_vector(observable.system_dim, observable.system_index(eig_index, label))


def ready_state(setup: MeasurementSetup, system_state: ComplexVector) -> ComplexVector:
    """system_state on the system factor, pointer calibrated at zeta = 0: the
    product state has one nonzero pointer column, the centre one."""
    if system_state.dim != setup.observable.system_dim:
        raise DimensionError(
            f"system state dim {system_state.dim} != observable dim {setup.observable.system_dim}"
        )
    state = np.zeros((system_state.dim, setup.grid.n_points), dtype=complex)
    state[:, setup.grid.center_index] = system_state.amplitudes
    return ComplexVector(state.reshape(-1))


def interaction_hamiltonian(setup: MeasurementSetup) -> DenseOperator:
    """-coupling * (A x p_Z) on the (system x pointer) basis: A is diagonal,
    so the system index s carries the block -coupling * (a_s * p_Z), with
    p_Z = F^dag diag(momenta) F for the explicit centred DFT matrix F."""
    if setup.total_dim > MAX_TOTAL_DIM:
        raise DimensionError(
            f"total dimension {setup.total_dim} exceeds the dense cap {MAX_TOTAL_DIM}"
        )
    values = setup.observable.values()
    grid = setup.grid
    n_points = grid.n_points
    index = np.arange(-grid.half_width, grid.half_width + 1)
    fourier = np.exp(-2j * np.pi * np.outer(index, index) / n_points) / np.sqrt(n_points)
    momentum = fourier.conj().T @ np.diag(grid.momenta) @ fourier
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
    return Spectrum(weights.reshape(-1), setup.grid.n_points)


@dataclass(frozen=True, eq=False)
class Factor:
    """One measured factor as data: H as ``spectrum``, and the swap S as the
    index array ``swap`` with S v = v[inverse]. The basis is (system ket,
    pointer) in C order, ``block`` pointer amplitudes per system ket. World w
    starts in e_{starts[w]} (x) ``ready``, labelled ``outcomes[w]``; a run
    needs the two distinct when the starts differ. ``frame`` holds the
    reference observables as (name, local diagonal): a system (n_kets, 1)
    column or a pointer (block,) row, broadcast over (system ket, block). Only
    the pointer has a ``setup``, for branch readouts and lemma 1 on the rows
    at T; only the ladder a ``certificate``, lemma 2's, on no evolved state."""

    spectrum: Spectrum
    swap: np.ndarray
    inverse: np.ndarray
    block: int
    ready: np.ndarray
    starts: tuple
    outcomes: tuple
    frame: tuple
    hbar: float
    setup: MeasurementSetup | None = None
    certificate: object = None


def evolved_ready(factor: Factor, times, kets=None):
    """Row i: U(t) (e_s (x) ready) for s = kets[i] (the world starts by
    default) at each of ``times``, from one evolution of their sum.
    H never mixes system blocks and a zero block stays zero through FFT,
    phase and inverse FFT, so each row, full length kept, is the evolution
    of its own ket: bitwise on its block, and +0.0 off it."""
    kets = factor.starts if kets is None else tuple(kets)
    start = np.zeros((factor.spectrum.dim // factor.block, factor.block), dtype=complex)
    start[list(kets)] = factor.ready  # the sum of e_s (x) ready over the distinct kets s
    for state in factor.spectrum.evolutions(start.reshape(-1), times, factor.hbar):
        blocks = state.reshape(start.shape)
        rows = np.zeros((len(kets), *start.shape), dtype=complex)
        for row, ket in zip(rows, kets):
            row[ket] = blocks[ket]
        yield rows.reshape(len(kets), -1)


def translation_map(grid: PointerGrid, steps: int) -> DenseOperator:
    """exp(-i p_Z (steps*spacing) / hbar): exact cyclic shift by `steps`."""
    spectrum = Spectrum(grid.momenta, grid.n_points)
    shift = spectrum.evolve(np.eye(grid.n_points), steps * grid.spacing, grid.hbar)
    return DenseOperator(shift, UNITARY)


def evolve(setup: MeasurementSetup, state: ComplexVector, t: float) -> ComplexVector:
    """Premeasurement evolution: each branch's pointer moves by -coupling*t*lambda."""
    if state.dim != setup.total_dim:
        raise DimensionError(f"state dim {state.dim} != setup dim {setup.total_dim}")
    if not 0 <= t <= setup.duration:
        raise ValueError(
            f"time {t} outside [0, {setup.duration}]: the coupling is only defined there"
        )
    return ComplexVector(pointer_spectrum(setup).evolve(state.amplitudes, t, setup.grid.hbar))


def branch_distribution(state, setup: MeasurementSetup) -> np.ndarray:
    """|psi|^2 of the amplitude array ``state`` as an (n_eigenvalues, N) array
    over (outcome branch, pointer position), degeneracy labels summed."""
    amplitudes = np.asarray(state, dtype=complex)
    if amplitudes.shape != (setup.total_dim,):
        raise DimensionError(f"state shape {amplitudes.shape} != setup dim ({setup.total_dim},)")
    observable = setup.observable
    weights = np.abs(amplitudes.reshape(observable.system_dim, setup.grid.n_points)) ** 2
    return weights.reshape(observable.n_eigenvalues, observable.degeneracy, -1).sum(axis=1)


def readout(state, setup: MeasurementSetup) -> tuple:
    """Per-eigenvalue branch probability, pointer mean, and inferred outcome
    of the amplitude array ``state``.

    The inferred outcome is -<Z>_branch / (coupling * duration); it is reported
    as None (not NaN) for branches with probability below ZERO_BRANCH_TOL, and
    also when coupling * duration == 0, where the calibration is undefined.
    """
    distribution = branch_distribution(state, setup)
    scale = setup.coupling * setup.duration
    table = []
    for eigenvalue, branch in zip(setup.observable.eigenvalues, distribution):
        probability = float(branch.sum())
        if probability < ZERO_BRANCH_TOL:
            table.append(BranchReadout(eigenvalue, probability, None, None))
            continue
        pointer_mean = float((branch * setup.grid.zeta).sum() / probability)
        inferred = -pointer_mean / scale if scale > 0 else None
        table.append(BranchReadout(eigenvalue, probability, pointer_mean, inferred))
    return tuple(table)
