"""Outcome-swapping symmetries of the measurement Hamiltonian.

Every swap is a basis permutation and is stored as an integer index array:
``perm[j]`` is the image of basis ket j, so the swap S acts on amplitudes as
(S v)[i] = v[inverse[i]] and no dim x dim permutation matrix is built. S is
unitary exactly when the index array is a bijection.

Certificates are computed on the spectrum H = W^dag diag(w) W. When W carries
S onto the same index array (``Spectrum.carried_factor``), one certificate
function (``_spectral_certificate``) reads both residuals of both lemmas off
its ``Factor``'s one drift array d = w[perm] - w: |HS - SH|_F = |d| and
|U(t)S - SU(t)|_F = |2 sin(d t / (2 hbar))|; no dim x dim operator and no phase
array is formed. Each lemma adds its own swap residual, lemma 1 from the rows
U(T) ready(s) of one evolution of the summed ready kets (``evolved_ready``),
lemma 2 from the start rows; a run shares the one ``Factor`` record with its
worlds (``sign_flip_factor``, ``scaling_factor``). Two families are certified:

* the sign-flip swap (``parity_swap``): the basis permutation sending
  (lambda, a, zeta) to (-lambda, a, -zeta). It commutes with H = -g A x p_Z
  because parity flips the sign of p_Z while the observable flips lambda. It
  is sigma x R with R the pointer reversal, and the centred DFT has
  W[-j, -k] = W[j, k], so W^dag R W = R exactly; ``carried_factor`` decides
  with integers that a swap has this form. The cross-construction distance
  maps three pointer columns through the FFT maps, so it reads their rounding;
* the scaling swap (``scaling_permutation``): on a geometric eigenvalue ladder
  it shifts the observable exponent up and the momentum exponent down,
  preserving each diagonal energy -g*lambda*p exactly.

The scaling family is verified in the diagonal (eigenbasis) representation:
scaling is not a bijection of a uniform grid, but the exponent shift with
cyclic wrap is an exact bijection of a geometric ladder. The diagonal weight
depends on the total exponent reduced modulo the cycle length (into
[exponent_min, exponent_max]), so mapped basis entries are bitwise identical
and the commutator vanishes exactly; wrapped index pairs are this model's
analogue of the pointer grid's periodic wraparound. The weights take
2 * cycle_length values, kept as the spectrum's level table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, _freeze, frobenius_norm, permutation_inverse
from .measurement import (
    Factor,
    MeasurementSetup,
    ObservableSpec,
    evolved_ready,
    pointer_spectrum,
)

#: intertwining with the evolution operator is checked at these fractions of T
SAMPLE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SwapCertificate:
    """Residuals of one swap, each passing at most the one tolerance: the
    commutator relative to |H|_F, the others absolute (unit states). None
    marks a residual that was not computed. ``drift_norm`` is |w[perm] - w|,
    the absolute commutator that the world engine reads as its Hamiltonian
    residual; reports do not render it."""

    construction: str
    swap_residual: float
    passed: bool
    commutator_residual: float | None = None
    intertwining_residual: float | None = None
    cross_construction_distance: float | None = None
    note: str = ""
    # every swap is an index array that permutation_inverse checks is a
    # bijection, and a bijection's 0/1 matrix is exactly unitary
    unitarity_defect: float = 0.0
    drift_norm: float | None = None


def _spectral_certificate(
    construction: str,
    factor: Factor,
    times,
    swap_residual: float,
    cross_distance: float | None,
    tol: float,
    note: str = "",
) -> SwapCertificate:
    """The certificate of the ``factor``'s swap, which its spectrum's basis
    map carries onto the same index array, so that in the eigenbasis it is the
    same permutation of diag(weights) (module docstring), read off the drift
    d = weights[swap] - weights: the commutator |d| / |w|, and the
    intertwining residual, the largest |2 sin(d t / (2 hbar))| over ``times``.
    Maxima and the pass rule keep a NaN, which max() would drop when not first."""
    weights = factor.spectrum.weights
    drift = weights[factor.swap] - weights
    commutator = frobenius_norm(drift)
    hnorm = frobenius_norm(weights)
    commutator_residual = commutator / hnorm if hnorm > 0 else commutator
    # halved first, so an angle overflows no sooner than its phase w t / hbar; a
    # row of +-0 drifts is all +-0 or all NaN, so its first entry has its norm
    half = 0.5 * (drift if drift.any() else drift[:1])
    deviations = [2.0 * frobenius_norm(np.sin(t * half / factor.hbar)) for t in times]
    intertwining_residual = float(np.max(deviations))
    residuals = (commutator_residual, swap_residual, intertwining_residual, cross_distance)
    return SwapCertificate(
        construction=construction,
        commutator_residual=commutator_residual,
        swap_residual=swap_residual,
        intertwining_residual=intertwining_residual,
        cross_construction_distance=cross_distance,
        passed=all(r <= tol for r in residuals if r is not None),
        note=note,
        drift_norm=commutator,
    )


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


def _cross_construction(spectrum: Spectrum, tau: np.ndarray) -> float:
    """sqrt(system_dim) |(tau - W^dag tau W) P|_F for the swap sigma x tau, with
    tau applied in the momentum basis through the spectrum's own maps and P
    the pointer centre column and its two neighbours (all columns at N = 3).
    W^dag tau W = tau exactly (module docstring), so this reads the FFT maps'
    rounding at O(N log N); a miscentred map makes it O(1). Squares are
    summed down each column, as in the same sum over all N columns."""
    n = tau.size
    columns = np.eye(n, 3, 1 - n // 2, dtype=complex)
    deviation = columns[tau] - spectrum.from_eigen(spectrum.to_eigen(columns)[tau])
    squares = (deviation.real**2 + deviation.imag**2).sum(axis=0)
    return float(np.sqrt(spectrum.dim // n * squares.sum()))


NOT_CARRIED_NOTE = (
    "the swap is not sigma x tau with tau the pointer identity or reversal, so the "
    "momentum basis does not carry it: commutator, intertwining and cross-construction "
    "are not computed"
)


def sign_flip_factor(setup: MeasurementSetup, swap: np.ndarray = None) -> Factor:
    """The pointer factor of ``setup`` under a sign-flip swap (the parity
    swap by default): worlds + and - start in the kets of the first
    eigenvalue and its negation with the pointer ready at zeta = 0."""
    perm = parity_swap(setup) if swap is None else np.asarray(swap)
    inverse = permutation_inverse(perm, setup.total_dim)  # raises unless a bijection
    grid, observable = setup.grid, setup.observable
    partner = int(observable.negation_index()[0])
    frame = (
        ("pointer_position", grid.zeta),
        ("system_observable", observable.values()[:, None]),
    )
    ready = np.eye(1, grid.n_points, grid.center_index).ravel()
    starts = (observable.system_index(0), observable.system_index(partner))
    return Factor(
        pointer_spectrum(setup), perm, inverse, grid.n_points, ready, starts, "+-",
        frame, grid.hbar, setup=setup,
    )


def certify_lemma1(
    setup: MeasurementSetup, tol: float = 1e-10, swap: np.ndarray = None, factor=None, evolved=None
) -> SwapCertificate:
    """Certify a sign-flip swap given as an index array (the position-basis
    parity swap by default) on the pointer spectrum: unitarity, commutation
    with H and intertwining with the evolution at sampled times from the
    weights, outcome inversion on evolved ready states in the position basis,
    and agreement with the momentum-basis construction. A swap that the
    spectrum's basis map does not carry fails, with those three fields None.
    A run passes its worlds' ``Factor`` and their rows U(T) ready(s), one per
    system ket (``evolved``)."""
    factor = sign_flip_factor(setup, swap) if factor is None else factor
    spectrum, inverse = factor.spectrum, factor.inverse
    negation = _system_negation(setup.observable)
    if evolved is None:
        evolved = next(evolved_ready(factor, (setup.duration,), range(negation.size)))
    # |S U(T) ready(lambda, a) - U(T) ready(-lambda, a)| per branch, in the position basis
    residuals = [frobenius_norm(evolved[s][inverse] - evolved[p]) for s, p in enumerate(negation)]
    swap_residual = float(np.max(residuals))  # max() would drop a NaN that is not first
    construction = "position-basis" if swap is None else "custom"

    carried = spectrum.carried_factor(factor.swap)
    if carried is None:
        return SwapCertificate(construction, swap_residual, passed=False, note=NOT_CARRIED_NOTE)
    times = [fraction * setup.duration for fraction in SAMPLE_FRACTIONS]
    return _spectral_certificate(
        construction, factor, times, swap_residual, _cross_construction(spectrum, carried), tol
    )


@dataclass(frozen=True)
class GeometricDiagonalModel:
    """Diagonal surrogate for a continuous symmetric spectrum.

    Observable eigenvalues are +-base_eigenvalue * ratio**m and momentum
    eigenvalues +-ratio**k, with m, k in [exponent_min, exponent_max]
    wrapped cyclically. The Hamiltonian is diagonal with weight
    -coupling * lambda * p, the total exponent m + k reduced into the
    canonical window (see module docstring).
    """

    ratio: float
    exponent_min: int
    exponent_max: int
    base_eigenvalue: float = 1.0
    coupling: float = 1.0
    degeneracy: int = 1
    hbar: float = 1.0

    def __post_init__(self):
        if not self.ratio > 0:
            raise ValueError(
                f"scaling ratio must be positive, got {self.ratio}; opposite-sign "
                "outcome pairs are handled by the sign-flip swap"
            )
        if not self.base_eigenvalue > 0:
            raise ValueError(
                "base_eigenvalue must be positive: zero is excluded (a null outcome "
                "cannot be rescaled) and negative eigenvalues come from the sign sector"
            )
        if self.exponent_min > self.exponent_max:
            raise ValueError("exponent_min must not exceed exponent_max")
        if self.degeneracy < 1:
            raise ValueError(f"degeneracy must be >= 1, got {self.degeneracy}")
        if not self.hbar > 0:
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

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """ratio**(exponent_min + r) for r in range(cycle_length): the one
        table every eigenvalue and weight reads, so wrapped index orbits stay
        bitwise equal on the diagonal. Built once per model, read-only."""
        powers = [self.ratio ** (self.exponent_min + r) for r in range(self.cycle_length)]
        return _freeze(np.array(powers))

    @functools.cached_property
    def a_eigenvalues(self) -> np.ndarray:
        """(+base * powers, -base * powers), built once per model, read-only."""
        return _freeze(np.outer([1.0, -1.0], self.base_eigenvalue * self.powers).ravel())

    def spectrum(self) -> Spectrum:
        """The Hamiltonian on its level table: -g * lambda * p is level (sign_sys !=
        sign_p) * cycle_length + reduced[m, k] of (-scale, +scale) * powers."""
        length = self.cycle_length
        scale = self.coupling * self.base_eigenvalue
        exponents = np.arange(length)
        reduced = (self.exponent_min + exponents[:, None] + exponents[None, :]) % length
        flipped = np.array([[0, length], [length, 0]]).reshape(2, 1, 1, 2, 1)
        index = flipped + reduced.reshape(1, length, 1, 1, length)
        return Spectrum.on_levels(
            np.concatenate((-scale * self.powers, scale * self.powers)),
            np.broadcast_to(index, self.axes).flatten(),
        )

    def diagonal_weights(self) -> np.ndarray:
        return self.spectrum().weights


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
    """(sign, exponent) index of the rung nearest ``value``, within 1e-9 relative."""
    if value == 0:
        raise ValueError("swap endpoints must be nonzero eigenvalues")
    distances = np.abs(model.a_eigenvalues - value)
    index = int(np.argmin(distances))
    if not distances[index] <= 1e-9 * abs(value):
        raise ValueError(f"{value} is not an eigenvalue of the geometric model")
    return divmod(index, model.cycle_length)


def scaling_factor(model: GeometricDiagonalModel, value_from: float, value_to: float) -> Factor:
    """The ladder as a factor under the scaling swap: system (sign_sys, m,
    label), pointer (sign_p, k), and worlds starting in the outcomes' label-0
    kets with the pointer spread evenly."""
    values = (value_from, value_to)
    sectors = [locate_eigenvalue(model, value) for value in values]
    perm = scaling_permutation(model)
    starts = tuple(model.degeneracy * (sign * model.cycle_length + m) for sign, m in sectors)
    block = 2 * model.cycle_length
    frame = (
        ("system_observable", np.repeat(model.a_eigenvalues, model.degeneracy)[:, None]),
        ("pointer_momentum", np.outer([1.0, -1.0], model.powers).ravel()),
    )
    ready = np.full(block, 1.0 / np.sqrt(block))
    # the shortest text that round-trips: distinct outcomes never share a label
    outcomes = tuple(f"outcome {repr(float(value)).removesuffix('.0')}" for value in values)
    return Factor(
        model.spectrum(), perm, permutation_inverse(perm, model.dim), block, ready, starts,
        outcomes, frame, model.hbar,
    )


def certify_lemma2(
    model: GeometricDiagonalModel,
    eigenvalue_from: float,
    eigenvalue_to: float,
    tol: float = 1e-10,
    sample_times: tuple = (0.0, 0.5, 1.0),
    factor: Factor = None,
) -> SwapCertificate:
    """Certify the scaling swap: exact commutation with the diagonal Hamiltonian
    and intertwining with its evolution at ``sample_times``, and mapping of the
    eigenvalue_from branch family onto the eigenvalue_to family, for every
    degeneracy label as an exact index check. A run
    passes the ``scaling_factor`` its worlds share; alone, it builds its own."""
    if factor is None:
        factor = scaling_factor(model, eigenvalue_from, eigenvalue_to)
    note, swap_residual = NORMALIZATION_NOTE, 0.0
    if eigenvalue_from == eigenvalue_to:  # no ratio to check and no sector to map
        note = "identity automorphism: equal outcome eigenvalues leave nothing to swap; " + note
    else:
        requested_ratio = eigenvalue_to / eigenvalue_from
        if abs(requested_ratio - model.ratio) > 1e-9 * model.ratio:
            raise ValueError(
                f"outcome ratio {requested_ratio} does not match the model ratio {model.ratio}"
            )
        (sign_from, m_from), (sign_to, m_to) = (
            divmod(start // model.degeneracy, model.cycle_length) for start in factor.starts
        )
        index = model.basis_indices()
        # index[sign_to, m_to, label, sign_p, k - 1], for every label, sign_p and k
        targets = np.roll(index[sign_to, m_to], 1, axis=-1)
        mapping_exact = np.array_equal(factor.swap[index[sign_from, m_from]], targets)
        swap_residual = 0.0 if mapping_exact else 1.0
    return _spectral_certificate("scaling", factor, sample_times, swap_residual, None, tol, note)
