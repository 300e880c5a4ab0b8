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
Every Hamiltonian is a ``Spectrum``; no run builds a dim x dim operator.
Multiworld operators are never materialized on the product space: states are
dense vectors, per-factor operators act by tensor reshaping, and the
Hamiltonian-conjugation residual uses the exact per-factor Frobenius
factorization (each factor deviation is traceless, so cross terms vanish).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .isomorphism import (
    EvolutionTriple,
    check_isomorphism,
    distinctness_witness,
    is_distinct,
)
from .linalg import (
    ComplexVector,
    Spectrum,
    frobenius_norm,
    permutation_inverse,
)
from .measurement import (
    MeasurementSetup,
    ObservableSpec,
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
    """The fixed observable frame that operationalizes physical distinctness,
    as real diagonals on the (system x pointer) basis."""
    pointer = np.tile(setup.grid.zeta, setup.observable.system_dim)
    system = np.repeat(setup.observable.values(), setup.grid.n_points)
    return (("pointer_position", pointer), ("system_observable", system))


def run_prince_pauper(config: RunConfig) -> ScenarioReport:
    """Single qubit: both outcome worlds share the triple, differ observably."""
    setup = qubit_setup(config)
    tolerances = SwapTolerances.uniform(config.tol)
    certificate = certify_lemma1(setup, tolerances=tolerances)

    observable = setup.observable
    plus0 = ready_state(setup, system_basis_state(observable, 0))
    minus0 = ready_state(setup, system_basis_state(observable, 1))
    hamiltonian = pointer_spectrum(setup)
    triple_plus = EvolutionTriple(hamiltonian, plus0, config.sample_times, config.hbar)
    triple_minus = EvolutionTriple(hamiltonian, minus0, config.sample_times, config.hbar)

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


def _product_into(out: np.ndarray, factors: list) -> None:
    """reduce(np.kron, factors), with its last product written into ``out``:
    np.kron of two vectors is this broadcast multiply, so the entries are
    bitwise those of the fresh array."""
    if len(factors) == 1:
        out[:] = factors[0]
        return
    head = reduce(np.kron, factors[:-1])
    np.multiply(head[:, None], factors[-1][None, :], out=out.reshape(head.size, -1))


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

    spectrum = pointer_spectrum(setup)
    inverse_perm = permutation_inverse(parity_swap(setup), factor_dim)
    # |S H S^dag - H|_F on one factor; the basis map carries the parity swap
    # (certify_lemma1 checks it), so it is read off the weights
    factor_deviation = frobenius_norm(spectrum.weights[inverse_perm] - spectrum.weights)

    observable = setup.observable

    def evolved(sign: int, t: float) -> np.ndarray:
        initial = ready_state(setup, system_basis_state(observable, sign)).amplitudes
        return spectrum.evolve(initial, t, config.hbar)

    times = config.sample_times
    factor_states = {(sign, ti): evolved(sign, t) for sign in (0, 1) for ti, t in enumerate(times)}
    final_states = {sign: ComplexVector(evolved(sign, config.T)) for sign in (0, 1)}
    readout_tables = {sign: readout(final_states[sign], setup) for sign in (0, 1)}
    frame = reference_observables(setup)
    # a pair's witnesses are its factors' witnesses, and each factor ends in
    # one of two states, so four witness calls serve every pair
    factor_witnesses = {
        (a, b): distinctness_witness(final_states[a], final_states[b], frame, tolerance)
        for a in (0, 1)
        for b in (0, 1)
    }

    patterns = list(itertools.product((0, 1), repeat=k))
    labels = ["".join("+" if s == 0 else "-" for s in pattern) for pattern in patterns]
    n_worlds = len(patterns)
    pair_worlds = list(itertools.combinations(range(n_worlds), 2))
    differing = [[f for f in range(k) if patterns[i][f] != patterns[j][f]] for i, j in pair_worlds]

    # the worlds of one sample time at a time, in one array allocated once
    # (see _factor_swap_residual for why no product-size array is fresh)
    worlds = np.empty((n_worlds, factor_dim**k), dtype=complex)
    buffers = [np.empty((factor_dim,) * k, dtype=complex) for _ in range(2)]
    state_residuals = [0.0] * len(pair_worlds)
    for ti in range(len(times)):
        for world, pattern in zip(worlds, patterns):
            _product_into(world, [factor_states[(s, ti)] for s in pattern])
        for n, (i, j) in enumerate(pair_worlds):
            residual = _factor_swap_residual(
                worlds[i], worlds[j], inverse_perm, differing[n], buffers
            )
            state_residuals[n] = max(state_residuals[n], residual)

    pairs = []
    matrix = [[0.0] * n_worlds for _ in range(n_worlds)]
    for n, (i, j) in enumerate(pair_worlds):
        state_residual = state_residuals[n]
        hamiltonian_residual = float(
            factor_deviation * np.sqrt(len(differing[n]) * factor_dim ** (k - 1))
        )
        pointer_gaps, system_gaps, witnesses = [], [], []
        for f in range(k):
            pointer, system = factor_witnesses[(patterns[i][f], patterns[j][f])]
            pointer_gaps.append(pointer.gap)
            system_gaps.append(system.gap)
            witnesses.append(replace(pointer, observable=f"{pointer.observable}[{f}]"))
            witnesses.append(replace(system, observable=f"{system.observable}[{f}]"))
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


def _model_observable(model: GeometricDiagonalModel) -> np.ndarray:
    return model.spread(np.reshape(model.a_eigenvalues(), (2, -1, 1, 1, 1)))


def _model_momentum(model: GeometricDiagonalModel) -> np.ndarray:
    momenta = [
        sign * model.base_momentum * model.ratio ** (model.exponent_min + k)
        for sign in (1.0, -1.0)
        for k in range(model.cycle_length)
    ]
    return model.spread(np.reshape(momenta, (1, 1, 1, 2, -1)))


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
    hamiltonian = Spectrum.diagonal(model.diagonal_weights())
    triple_from = EvolutionTriple(hamiltonian, start, config.sample_times, config.hbar)
    triple_to = EvolutionTriple(hamiltonian, image, config.sample_times, config.hbar)
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
