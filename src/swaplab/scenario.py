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

The first and the last share one two-world runner (``_two_worlds``), which
builds the report of a compared pair; each keeps only its own setup,
reference frame, labels and readouts. Each pointer run evolves its summed
ready kets once (``evolved_ready``): the blocks are both qubit worlds, and at
T lemma 1's swap residual, which shares the run's ``sign_flip``.

The ready state is modeled as the calibrated pointer zeta = 0 basis state per
factor; "wealth" narratives reduce to outcome sign patterns in the labels.
Every Hamiltonian is a ``Spectrum``; no run builds a dim x dim operator.
Multiworld builds nothing on the product space: a pair's state residual is
computed from per-factor inner products (``product_distance``), and its
Hamiltonian-conjugation residual from the exact per-factor Frobenius
factorization (each factor deviation is traceless, so cross terms vanish).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .isomorphism import (
    EvolutionTriple,
    compare_evolutions,
    compare_states,
    distinctness_witness,
    is_distinct,
)
from .linalg import ComplexVector, Spectrum, frobenius_norm
from .measurement import (
    MeasurementSetup,
    ObservableSpec,
    evolved_ready,
    make_pointer_grid,
    readout,
    ready_state,
    system_basis_state,
)
from .symmetry import (
    GeometricDiagonalModel,
    SwapCertificate,
    certify_lemma1,
    certify_lemma2,
    locate_eigenvalue,
    scaling_permutation,
    sign_flip,
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
    factors: tuple


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
    world_labels: tuple
    readouts: tuple
    swap_certificates: tuple
    isomorphism_reports: tuple
    pairs: tuple
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


def _two_worlds(
    certificate: SwapCertificate,
    compared: tuple,
    starts: tuple,
    swap: np.ndarray,
    config: RunConfig,
    frame: tuple,
    labels: tuple,
    read,
    distinct_required: bool = True,
) -> ScenarioReport:
    """The report of two worlds that start in ``starts``, with ``compared`` their
    isomorphism report under ``swap`` and final states: that isomorphism and its
    t = 0 residual, and the witnesses of ``frame`` (one pointer observable and
    ``system_observable``) on the final states, which ``read`` turns into readouts."""
    iso, finals = compared
    # |S a - b| as |a - S^dag b|: the swap's inverse has checked it is a bijection
    initial_residual = float(np.linalg.norm(starts[0].amplitudes - starts[1].amplitudes[swap]))

    witnesses = distinctness_witness(*finals, frame, config.tol)
    distinct = is_distinct(witnesses)
    pair = PairCertificate(
        world_a=labels[0],
        world_b=labels[1],
        state_residual=float(np.max(iso.state_residuals)),
        hamiltonian_residual=iso.hamiltonian_residual,
        pointer_gaps=tuple(w.gap for w in witnesses if w.observable != "system_observable"),
        system_gaps=tuple(w.gap for w in witnesses if w.observable == "system_observable"),
        witnesses=witnesses,
        isomorphic=iso.passed,
        distinct=distinct,
    )
    passed = (
        certificate.passed
        and iso.passed
        and initial_residual <= config.tol
        and (distinct or not distinct_required)
    )
    return ScenarioReport(
        world_labels=labels,
        readouts=tuple(WorldReadout(label, read(final)) for label, final in zip(labels, finals)),
        swap_certificates=(certificate,),
        isomorphism_reports=(iso,),
        pairs=(pair,),
        passed=passed,
    )


def run_prince_pauper(config: RunConfig) -> ScenarioReport:
    """Single qubit: both outcome worlds share the triple, differ observably.
    One evolution of their summed ready kets serves both worlds and lemma 1."""
    setup = qubit_setup(config)
    flip = sign_flip(setup)
    spectrum, swap, inverse, factor = flip
    times = config.sample_times
    # T evolves in the same batch as the sample times, once when it is the last
    extra = () if times[-1] == config.T else (config.T,)
    worlds = evolved_ready(setup, spectrum, times + extra)
    weights = spectrum.weights
    deviation = None if factor is None else frobenius_norm(weights[inverse] - weights)
    iso, finals = compare_states(
        worlds, times, bool(extra), inverse, deviation, config.tol, config.phase_insensitive
    )
    del worlds  # frees the spectral coefficients before the copies below
    return _two_worlds(
        certify_lemma1(setup, tol=config.tol, flip=flip, evolved=finals),
        (iso, tuple(ComplexVector(state) for state in finals)),
        tuple(ready_state(setup, system_basis_state(setup.observable, s)) for s in (0, 1)),
        swap,
        config,
        reference_observables(setup),
        ("+", "-"),
        lambda state: (readout(state, setup),),
    )


def _gram_table(x: np.ndarray, y: np.ndarray) -> list:
    """Inner products <u, v> for u, v in (y, x - y, x), as Python complexes."""
    vectors = (y, x - y, x)
    return [[complex(np.vdot(u, v)) for v in vectors] for u in vectors]


def product_distance(tables, differing) -> float:
    """|x_1 (x) ... (x) x_k - y_1 (x) ... (x) y_k| from the per-factor tables
    ``_gram_table(x_f, y_f)``, where x_f == y_f outside ``differing``.

    The difference telescopes into sum_f T_f over f in ``differing``, with
    T_f = y_1 (x) ... (x) y_{f-1} (x) (x_f - y_f) (x) x_{f+1} (x) ... (x) x_k,
    so its squared norm sum_{f,g} <T_f, T_g> is a sum of products of table
    entries. Every term carries two differences, so nothing cancels against 1
    (unlike 2 - 2 Re prod <x_f, y_f>), and it is exactly 0.0 when they are."""
    total = 0j
    for f in differing:
        for g in differing:
            term = 1 + 0j
            for h, table in enumerate(tables):
                term *= table[(h > f) - (h < f) + 1][(h > g) - (h < g) + 1]
            total += term
    return math.sqrt(max(0.0, total.real))


def run_multiworld(config: RunConfig) -> ScenarioReport:
    """k independent simultaneous measurements: 2^k isomorphic, distinct worlds."""
    k = config.k
    setup = qubit_setup(config)
    factor_dim = setup.total_dim
    tolerance = config.tol
    flip = sign_flip(setup)
    spectrum, _, inverse_perm, _ = flip
    # |S H S^dag - H|_F on one factor; the basis map carries the parity swap
    # (certify_lemma1 checks it), so it is read off the weights
    factor_deviation = frobenius_norm(spectrum.weights[inverse_perm] - spectrum.weights)
    times = config.sample_times
    # T evolves in the same batch as the sample times, once when it is the last
    extra = () if times[-1] == config.T else (config.T,)
    worlds = evolved_ready(setup, spectrum, times + extra)

    patterns = list(itertools.product((0, 1), repeat=k))
    labels = ["".join("+" if s == 0 else "-" for s in pattern) for pattern in patterns]
    n_worlds = len(patterns)
    pair_worlds = list(itertools.combinations(range(n_worlds), 2))
    differing = [[f for f in range(k) if patterns[i][f] != patterns[j][f]] for i, j in pair_worlds]

    # each factor of a pair holds one of two states at a sample time, swapped
    # (x = S a, y = b) where the worlds differ and equal elsewhere, so four
    # Gram tables per time serve every pair: no product-space state is built
    residuals = np.zeros((len(times), len(pair_worlds)))
    for row, states in zip(residuals, worlds):
        tables = {
            (a, b): _gram_table(states[a][inverse_perm] if a != b else states[a], states[b])
            for a, b in itertools.product((0, 1), repeat=2)
        }
        for n, (i, j) in enumerate(pair_worlds):
            factor_tables = [tables[(a, b)] for a, b in zip(patterns[i], patterns[j])]
            row[n] = product_distance(factor_tables, differing[n])
    # one maximum over the sample times, which keeps a NaN that max() would drop
    state_residuals = residuals.max(axis=0)
    if extra:
        states = next(worlds)
    del worlds  # frees the spectral coefficients before the copies below
    certificate = certify_lemma1(setup, tol=tolerance, flip=flip, evolved=states)
    final_states = [ComplexVector(state) for state in states]
    readout_tables = [readout(state, setup) for state in final_states]
    frame = reference_observables(setup)
    # a pair's witnesses are its factors' witnesses, and each factor ends in
    # one of two states, so four witness calls, renamed per factor, serve every pair
    factor_witnesses = {}
    for a, b in itertools.product((0, 1), repeat=2):
        found = distinctness_witness(final_states[a], final_states[b], frame, tolerance)
        factor_witnesses[(a, b)] = [
            tuple(replace(w, observable=f"{w.observable}[{f}]") for w in found) for f in range(k)
        ]

    pairs = []
    for n, (i, j) in enumerate(pair_worlds):
        state_residual = float(state_residuals[n])
        hamiltonian_residual = float(
            factor_deviation * np.sqrt(len(differing[n]) * factor_dim ** (k - 1))
        )
        factors = [
            factor_witnesses[(a, b)][f] for f, (a, b) in enumerate(zip(patterns[i], patterns[j]))
        ]
        witnesses = tuple(w for factor in factors for w in factor)
        isomorphic = state_residual <= tolerance and hamiltonian_residual <= tolerance
        distinct = is_distinct(witnesses)
        pairs.append(
            PairCertificate(
                world_a=labels[i],
                world_b=labels[j],
                state_residual=state_residual,
                hamiltonian_residual=hamiltonian_residual,
                pointer_gaps=tuple(pointer.gap for pointer, _ in factors),
                system_gaps=tuple(system.gap for _, system in factors),
                witnesses=witnesses,
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
        world_labels=tuple(labels),
        readouts=readouts,
        swap_certificates=(certificate,),
        isomorphism_reports=(),
        pairs=tuple(pairs),
        passed=passed,
    )


def _model_observable(model: GeometricDiagonalModel) -> np.ndarray:
    return model.spread(np.reshape(model.a_eigenvalues(), (2, -1, 1, 1, 1)))


def _model_momentum(model: GeometricDiagonalModel) -> np.ndarray:
    return model.spread(np.reshape(np.outer([1.0, -1.0], model.powers()), (1, 1, 1, 2, -1)))


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
    starts = tuple(
        ComplexVector(model.sector_state(*locate_eigenvalue(model, value), 0))
        for value in (value_from, value_to)
    )
    observables = (
        ("system_observable", _model_observable(model)),
        ("pointer_momentum", _model_momentum(model)),
    )
    swap = scaling_permutation(model)
    certificate = certify_lemma2(model, value_from, value_to, config.tol, config.sample_times)
    hamiltonian = Spectrum(model.diagonal_weights())
    triples = [
        EvolutionTriple(hamiltonian, start, config.sample_times, config.hbar) for start in starts
    ]
    return _two_worlds(
        certificate,
        compare_evolutions(swap, *triples, config.T, config.tol, config.phase_insensitive),
        starts,
        swap,
        config,
        observables,
        (f"outcome {value_from:g}", f"outcome {value_to:g}"),
        lambda state: (),
        distinct_required=value_from != value_to,
    )
