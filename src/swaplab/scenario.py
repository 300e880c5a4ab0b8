"""End-to-end narrative experiments.

Three runs are provided:

* ``run_prince_pauper``: one qubit measured by one pointer; the sign-flip swap
  relates the two post-measurement worlds while fixed reference observables
  (pointer position, system observable) tell them apart.
* ``run_multiworld``: k independent, simultaneous qubit measurements; all 2^k
  outcome sign patterns are enumerated, every pair is certified isomorphic
  (products of per-factor swaps) yet observably distinct.
* ``run_classical_level``: two macroscopically different outcome readings on a
  continuous-spectrum surrogate (geometric diagonal ladder) connected by an
  exactly H-preserving scaling swap.

The ready state is modeled as the calibrated pointer zeta = 0 basis state per
factor; "wealth" narratives reduce to outcome sign patterns in the labels.
Multiworld operators are never materialized on the product space: states are
dense vectors, per-factor operators act by tensor reshaping, and the
Hamiltonian-conjugation residual uses the exact per-factor Frobenius
factorization (each factor deviation is traceless, so cross terms vanish).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .isomorphism import (
    EvolutionTriple,
    Witness,
    check_isomorphism,
    distinctness_witness,
    is_distinct,
)
from .linalg import (
    HERMITIAN,
    ComplexVector,
    DenseOperator,
    Spectrum,
    frobenius_norm,
    identity,
    permutation_inverse,
    tensor_product,
)
from .measurement import (
    MeasurementSetup,
    ObservableSpec,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_spectrum,
    readout,
    ready_state,
    system_basis_state,
)
from .symmetry import (
    GeometricDiagonalModel,
    SwapTolerances,
    certify_lemma1,
    certify_lemma2,
    locate_eigenvalue,
    parity_swap,
    scaling_permutation,
)

if TYPE_CHECKING:  # config imports this module, so the type is named in annotations only
    from .config import RunConfig

#: the measured qubits have outcomes +-1
QUBIT_EIGENVALUES = (1.0, -1.0)
#: degeneracy labels per eigenvalue of the classical-level ladder model
MODEL_DEGENERACY = 2


@dataclass(frozen=True)
class WorldReadout:
    label: str
    per_factor: tuple


@dataclass(frozen=True)
class PairCertificate:
    """Automorphism + distinctness record for one pair of worlds."""

    world_a: str
    world_b: str
    state_residual: float
    hamiltonian_residual: float
    pointer_gaps: tuple
    system_gaps: tuple
    witnesses: tuple
    isomorphic: bool
    distinct: bool


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    world_labels: tuple
    readouts: tuple
    swap_certificates: tuple
    isomorphism_reports: tuple
    pairs: tuple
    distinctness_matrix: tuple
    passed: bool


def qubit_setup(config: RunConfig) -> MeasurementSetup:
    grid = make_pointer_grid(config.M, config.delta, config.hbar)
    return MeasurementSetup(ObservableSpec(QUBIT_EIGENVALUES), grid, config.g, config.T)


def reference_observables(setup: MeasurementSetup) -> tuple:
    """The fixed observable frame that operationalizes physical distinctness."""
    pointer = tensor_product(identity(setup.observable.system_dim), setup.grid.position_operator)
    system = tensor_product(setup.observable.operator(), identity(setup.grid.n_points))
    return (("pointer_position", pointer), ("system_observable", system))


def run_prince_pauper(config: RunConfig) -> ScenarioReport:
    """Single qubit: both outcome worlds share the triple, differ observably."""
    setup = qubit_setup(config)
    tolerances = SwapTolerances.uniform(config.tol)
    certificate = certify_lemma1(setup, tolerances=tolerances)

    hamiltonian = interaction_hamiltonian(setup)
    observable = setup.observable
    plus0 = ready_state(setup, system_basis_state(observable, 0))
    minus0 = ready_state(setup, system_basis_state(observable, 1))
    spectrum = pointer_spectrum(setup)
    triple_plus = EvolutionTriple(hamiltonian, plus0, config.sample_times, config.hbar, spectrum)
    triple_minus = EvolutionTriple(hamiltonian, minus0, config.sample_times, config.hbar, spectrum)

    swap = parity_swap(setup)
    iso = check_isomorphism(
        swap, triple_plus, triple_minus, config.tol, config.phase_insensitive
    )
    inverse = permutation_inverse(swap, setup.total_dim)
    initial_residual = float(np.linalg.norm(plus0.amplitudes[inverse] - minus0.amplitudes))

    final_plus = triple_plus.states_at((config.T,))[0]
    final_minus = triple_minus.states_at((config.T,))[0]
    witnesses = distinctness_witness(
        final_plus, final_minus, reference_observables(setup), config.tol
    )
    distinct = is_distinct(witnesses)
    gaps = {w.observable: w.gap for w in witnesses}
    max_gap = max(w.gap for w in witnesses)

    pair = PairCertificate(
        world_a="+",
        world_b="-",
        state_residual=max(iso.state_residuals),
        hamiltonian_residual=iso.hamiltonian_residual,
        pointer_gaps=(gaps["pointer_position"],),
        system_gaps=(gaps["system_observable"],),
        witnesses=witnesses,
        isomorphic=iso.passed,
        distinct=distinct,
    )
    readouts = (
        WorldReadout("+", (readout(final_plus, setup),)),
        WorldReadout("-", (readout(final_minus, setup),)),
    )
    passed = (
        certificate.passed and iso.passed and distinct and initial_residual <= config.tol
    )
    return ScenarioReport(
        scenario="prince-pauper",
        world_labels=("+", "-"),
        readouts=readouts,
        swap_certificates=(certificate,),
        isomorphism_reports=(iso,),
        pairs=(pair,),
        distinctness_matrix=((0.0, max_gap), (max_gap, 0.0)),
        passed=passed,
    )


def _factor_swap_residual(state_a, state_b, inverse_perm, factors, buffers) -> float:
    """|(per-factor swaps on `factors`) state_a - state_b|, computed in two
    preallocated product-space buffers: a fresh product-size array per pair and
    time is large enough to go through mmap and page-fault on every call."""
    tensor = state_a.reshape(buffers[0].shape)
    for n, axis in enumerate(factors):
        # the permutation indices are always in range; mode="clip" lets take
        # write straight into `out`, where the default mode copies through a buffer
        tensor = np.take(tensor, inverse_perm, axis=axis, out=buffers[n % 2], mode="clip")
    spare = buffers[len(factors) % 2].reshape(-1)
    return float(np.linalg.norm(np.subtract(tensor.reshape(-1), state_b, out=spare)))


def run_multiworld(config: RunConfig) -> ScenarioReport:
    """k independent simultaneous measurements: 2^k isomorphic, distinct worlds."""
    k = config.k
    setup = qubit_setup(config)
    factor_dim = setup.total_dim
    tolerance = config.tol
    certificate = certify_lemma1(setup, tolerances=SwapTolerances.uniform(tolerance))

    hamiltonian = interaction_hamiltonian(setup)
    inverse_perm = permutation_inverse(parity_swap(setup), factor_dim)
    # exact permutation conjugation: (S H S^dag)[a, b] = H[inv(a), inv(b)]
    conjugated = hamiltonian.entries[np.ix_(inverse_perm, inverse_perm)]
    factor_deviation = frobenius_norm(conjugated - hamiltonian.entries)

    spectrum = pointer_spectrum(setup)
    observable = setup.observable

    def evolved(sign: int, t: float) -> np.ndarray:
        initial = ready_state(setup, system_basis_state(observable, sign)).amplitudes
        return spectrum.evolve(initial, t, config.hbar)

    times = config.sample_times
    factor_states = {(sign, ti): evolved(sign, t) for sign in (0, 1) for ti, t in enumerate(times)}
    final_states = {sign: evolved(sign, config.T) for sign in (0, 1)}

    zeta = setup.grid.zeta
    lam = np.asarray(observable.eigenvalues)
    pointer_mean = {}
    system_mean = {}
    readout_tables = {}
    for sign in (0, 1):
        weights = np.abs(final_states[sign].reshape(observable.system_dim, -1)) ** 2
        pointer_mean[sign] = float((weights.sum(axis=0) * zeta).sum())
        system_mean[sign] = float((weights.sum(axis=1) * lam).sum())
        readout_tables[sign] = readout(ComplexVector(final_states[sign]), setup)

    patterns = list(itertools.product((0, 1), repeat=k))
    labels = ["".join("+" if s == 0 else "-" for s in pattern) for pattern in patterns]
    full_states = [
        [reduce(np.kron, [factor_states[(s, ti)] for s in pattern]) for ti in range(len(times))]
        for pattern in patterns
    ]

    buffers = [np.empty((factor_dim,) * k, dtype=complex) for _ in range(2)]
    pairs = []
    n_worlds = len(patterns)
    matrix = [[0.0] * n_worlds for _ in range(n_worlds)]
    for i, j in itertools.combinations(range(n_worlds), 2):
        differing = [f for f in range(k) if patterns[i][f] != patterns[j][f]]
        state_residual = 0.0
        for ti in range(len(times)):
            residual = _factor_swap_residual(
                full_states[i][ti], full_states[j][ti], inverse_perm, differing, buffers
            )
            state_residual = max(state_residual, residual)
        hamiltonian_residual = float(
            factor_deviation * np.sqrt(len(differing) * factor_dim ** (k - 1))
        )
        pointer_gaps, system_gaps, witnesses = [], [], []
        for f in range(k):
            za, zb = pointer_mean[patterns[i][f]], pointer_mean[patterns[j][f]]
            aa, ab = system_mean[patterns[i][f]], system_mean[patterns[j][f]]
            zgap, agap = abs(za - zb), abs(aa - ab)
            pointer_gaps.append(zgap)
            system_gaps.append(agap)
            witnesses.append(Witness(f"pointer_position[{f}]", za, zb, zgap, zgap > tolerance))
            witnesses.append(Witness(f"system_observable[{f}]", aa, ab, agap, agap > tolerance))
        isomorphic = state_residual <= tolerance and hamiltonian_residual <= tolerance
        distinct = is_distinct(witnesses)
        matrix[i][j] = matrix[j][i] = max(w.gap for w in witnesses)
        pairs.append(
            PairCertificate(
                world_a=labels[i],
                world_b=labels[j],
                state_residual=state_residual,
                hamiltonian_residual=hamiltonian_residual,
                pointer_gaps=tuple(pointer_gaps),
                system_gaps=tuple(system_gaps),
                witnesses=tuple(witnesses),
                isomorphic=isomorphic,
                distinct=distinct,
            )
        )

    readouts = tuple(
        WorldReadout(labels[i], tuple(readout_tables[s] for s in patterns[i]))
        for i in range(n_worlds)
    )
    passed = (
        certificate.passed
        and n_worlds == 2**k
        and all(p.isomorphic for p in pairs)
        and all(p.distinct for p in pairs)
    )
    return ScenarioReport(
        scenario="multiworld",
        world_labels=tuple(labels),
        readouts=readouts,
        swap_certificates=(certificate,),
        isomorphism_reports=(),
        pairs=tuple(pairs),
        distinctness_matrix=tuple(tuple(row) for row in matrix),
        passed=passed,
    )


def _model_observable(model: GeometricDiagonalModel) -> DenseOperator:
    values = model.spread(np.reshape(model.a_eigenvalues(), (2, -1, 1, 1, 1)))
    return DenseOperator(np.diag(values.astype(complex)), HERMITIAN)


def _model_momentum(model: GeometricDiagonalModel) -> DenseOperator:
    momenta = [
        sign * model.base_momentum * model.ratio ** (model.exponent_min + k)
        for sign in (1.0, -1.0)
        for k in range(model.cycle_length)
    ]
    values = model.spread(np.reshape(momenta, (1, 1, 1, 2, -1)))
    return DenseOperator(np.diag(values.astype(complex)), HERMITIAN)


def build_diagonal_model(config: RunConfig) -> GeometricDiagonalModel:
    """Geometric ladder model containing both requested outcome eigenvalues."""
    return GeometricDiagonalModel(
        ratio=config.lambda2 / config.lambda1,
        exponent_min=-config.ratio_exponent_range,
        exponent_max=config.ratio_exponent_range,
        base_eigenvalue=abs(config.lambda1),
        coupling=config.g,
        degeneracy=MODEL_DEGENERACY,
        hbar=config.hbar,
    )


def run_classical_level(config: RunConfig) -> ScenarioReport:
    """Two macroscopically different readings connected by an H-preserving swap."""
    value_from, value_to = config.lambda1, config.lambda2
    model = build_diagonal_model(config)
    tolerances = SwapTolerances.uniform(config.tol)
    certificate = certify_lemma2(
        model, value_from, value_to, tolerances=tolerances, sample_times=config.sample_times
    )

    sign_from, m_from = locate_eigenvalue(model, value_from)
    start = ComplexVector(model.sector_state(sign_from, m_from, 0))
    swap = scaling_permutation(model)
    image = ComplexVector(start.amplitudes[permutation_inverse(swap, model.dim)])
    hamiltonian = model.hamiltonian()
    spectrum = Spectrum.diagonal(model.diagonal_weights())
    triple_from = EvolutionTriple(hamiltonian, start, config.sample_times, config.hbar, spectrum)
    triple_to = EvolutionTriple(hamiltonian, image, config.sample_times, config.hbar, spectrum)
    iso = check_isomorphism(swap, triple_from, triple_to, config.tol, config.phase_insensitive)

    final_from = triple_from.states_at((config.T,))[0]
    final_to = triple_to.states_at((config.T,))[0]
    observables = (
        ("system_observable", _model_observable(model)),
        ("pointer_momentum", _model_momentum(model)),
    )
    witnesses = distinctness_witness(final_from, final_to, observables, config.tol)
    distinct = is_distinct(witnesses)
    max_gap = max(w.gap for w in witnesses)
    gaps = {w.observable: w.gap for w in witnesses}

    pair = PairCertificate(
        world_a=f"outcome {value_from:g}",
        world_b=f"outcome {value_to:g}",
        state_residual=max(iso.state_residuals),
        hamiltonian_residual=iso.hamiltonian_residual,
        pointer_gaps=(gaps["pointer_momentum"],),
        system_gaps=(gaps["system_observable"],),
        witnesses=witnesses,
        isomorphic=iso.passed,
        distinct=distinct,
    )
    distinct_required = value_from != value_to
    passed = certificate.passed and iso.passed and (distinct or not distinct_required)
    return ScenarioReport(
        scenario="classical-level",
        world_labels=(pair.world_a, pair.world_b),
        readouts=(WorldReadout(pair.world_a, ()), WorldReadout(pair.world_b, ())),
        swap_certificates=(certificate,),
        isomorphism_reports=(iso,),
        pairs=(pair,),
        distinctness_matrix=((0.0, max_gap), (max_gap, 0.0)),
        passed=passed,
    )
