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

One world engine (``_worlds``) builds every report: the 2^k worlds of k
identical factors, each ending in one of two outcome states. Prince-pauper is
multiworld's k = 1 case, and classical-level runs the engine at k = 1 on the
ladder; each run keeps only its own setup, frame, labels and readouts. Each
pointer run evolves its summed ready kets once (``evolved_ready``): the
blocks are both qubit worlds, and at T lemma 1's swap residual, which shares
the run's ``sign_flip``.

The ready state is modeled as the calibrated pointer zeta = 0 basis state per
factor; "wealth" narratives reduce to outcome sign patterns in the labels.
Every Hamiltonian is a ``Spectrum``; no run builds a dim x dim operator.
At k >= 2 nothing is built on the product space: a pair's state residual is
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

from .isomorphism import IsomorphismReport, _state_residual, distinctness_witness, is_distinct
from .linalg import ComplexVector, Spectrum, frobenius_norm, permutation_inverse
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


def _worlds(
    config: RunConfig,
    k: int,
    evolve,
    inverse: np.ndarray,
    weights: np.ndarray,
    start_residual: float,
    certify,
    build_frame,
    outcomes,
    read,
    distinct_required: bool = True,
) -> ScenarioReport:
    """The report of the 2^k worlds of k identical factors, each ending in one
    of two outcome states. ``evolve(times)`` yields a factor's two states
    (a, b) at each time; they are compared under the swap S a = a[inverse]
    on the spectrum of ``weights``, and ``start_residual`` is |S a - b| at
    t = 0. ``certify`` turns the states at T into the swap certificate;
    ``build_frame()`` builds the reference observables once the evolution is
    freed; ``outcomes`` labels the two states, and ``read`` turns a final
    state into its tuple of readout tables.

    At k = 1 the pair's state residual is ``_state_residual`` (phase-minimized
    when the config asks), the isomorphism report is kept and witness names
    carry no factor index. At k >= 2 residuals come from per-factor Gram
    tables and are literal, an upper bound on the phase-minimized ones; no
    isomorphism report is built and witnesses are named per factor ``[f]``."""
    tolerance = config.tol
    times = config.sample_times
    patterns = list(itertools.product((0, 1), repeat=k))
    labels = ["".join(outcomes[s] for s in pattern) for pattern in patterns]
    pair_worlds = list(itertools.combinations(range(len(patterns)), 2))
    factor_outcomes = [list(zip(patterns[i], patterns[j])) for i, j in pair_worlds]
    differing = [[f for f, (a, b) in enumerate(pair) if a != b] for pair in factor_outcomes]
    # |S H S^dag - H|_F on one factor: the spectrum's basis map carries the
    # swap (certify_lemma1 checks a pointer's; the ladder's is the identity)
    deviation = frobenius_norm(weights[inverse] - weights)

    # T evolves in the same batch as the sample times, once when it is the last
    stream = evolve(times if times[-1] == config.T else times + (config.T,))
    residuals = np.zeros((len(times), len(pair_worlds)))
    for row in residuals:
        states = None  # no earlier pair is held while the next one is evolved
        states = next(stream)
        if k == 1:
            row[0] = _state_residual(states[0][inverse], states[1], config.phase_insensitive)
            continue
        # each factor of a pair holds one of two states, swapped (x = S a, y = b)
        # where the worlds differ and equal elsewhere, so four Gram tables per
        # time serve every pair: no product-space state is built
        tables = {
            (a, b): _gram_table(states[a][inverse] if a != b else states[a], states[b])
            for a, b in itertools.product((0, 1), repeat=2)
        }
        for n, pair in enumerate(factor_outcomes):
            row[n] = product_distance([tables[outcome] for outcome in pair], differing[n])
    if times[-1] != config.T:
        states = None
        states = next(stream)
    del stream  # frees the spectral coefficients before the copies below
    certificate = certify(states)
    final_states = [ComplexVector(state) for state in states]
    del states
    readout_tables = [read(state) for state in final_states]
    frame = build_frame()
    # a pair's witnesses are its factors' witnesses, and each factor ends in
    # one of two states, so one witness call per outcome pair that occurs,
    # named once per factor, serves every pair
    factor_witnesses = {}
    for a, b in sorted(set(itertools.chain.from_iterable(factor_outcomes))):
        found = distinctness_witness(final_states[a], final_states[b], frame, tolerance)
        factor_witnesses[(a, b)] = [found] if k == 1 else [
            tuple(replace(w, observable=f"{w.observable}[{f}]") for w in found) for f in range(k)
        ]

    # one maximum over the sample times, which keeps a NaN that max() would drop
    state_residuals = residuals.max(axis=0)
    factor_dim = final_states[0].dim
    pairs = []
    for n, (i, j) in enumerate(pair_worlds):
        state_residual = float(state_residuals[n])
        hamiltonian_residual = deviation * math.sqrt(len(differing[n]) * factor_dim ** (k - 1))
        witnesses = tuple(
            w for f, outcome in enumerate(factor_outcomes[n]) for w in factor_witnesses[outcome][f]
        )
        pairs.append(
            PairCertificate(
                world_a=labels[i],
                world_b=labels[j],
                state_residual=state_residual,
                hamiltonian_residual=hamiltonian_residual,
                # by name: the ladder's frame puts its system observable first
                pointer_gaps=tuple(w.gap for w in witnesses if w.observable.startswith("pointer")),
                system_gaps=tuple(w.gap for w in witnesses if w.observable.startswith("system")),
                witnesses=witnesses,
                # at k = 1 this is the isomorphism report's pass rule
                isomorphic=state_residual <= tolerance and hamiltonian_residual <= tolerance,
                distinct=is_distinct(witnesses),
            )
        )

    readouts = tuple(
        WorldReadout(labels[i], tuple(table for s in pattern for table in readout_tables[s]))
        for i, pattern in enumerate(patterns)
    )
    reports = ()
    if k == 1:
        reports = (IsomorphismReport.judged(times, residuals[:, 0].tolist(), deviation, tolerance),)
    passed = (
        certificate.passed
        and start_residual <= tolerance
        and len(patterns) == 2**k
        and all(p.isomorphic and (p.distinct or not distinct_required) for p in pairs)
    )
    return ScenarioReport(
        world_labels=tuple(labels),
        readouts=readouts,
        swap_certificates=(certificate,),
        isomorphism_reports=reports,
        pairs=tuple(pairs),
        passed=passed,
    )


def run_prince_pauper(config: RunConfig) -> ScenarioReport:
    """Single qubit: both outcome worlds share the triple, differ observably.
    Multiworld's k = 1 case: the config guards force k = 1 here."""
    return run_multiworld(config)


def run_multiworld(config: RunConfig) -> ScenarioReport:
    """k independent simultaneous measurements: 2^k isomorphic, distinct worlds.
    One evolution of the summed ready kets serves every world and lemma 1."""
    setup = qubit_setup(config)
    flip = sign_flip(setup)
    spectrum, _, inverse, _ = flip
    plus, minus = (ready_state(setup, system_basis_state(setup.observable, s)) for s in (0, 1))
    start_residual = float(np.linalg.norm(plus.amplitudes[inverse] - minus.amplitudes))
    del plus, minus  # the evolution holds no ready ket
    return _worlds(
        config,
        config.k,
        lambda times: evolved_ready(setup, spectrum, times),
        inverse,
        spectrum.weights,
        start_residual,
        lambda states: certify_lemma1(setup, tol=config.tol, flip=flip, evolved=states),
        lambda: reference_observables(setup),
        "+-",
        lambda state: (readout(state, setup),),
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
    # certified before the ladder's spectrum is built, which its evolution holds
    certificate = certify_lemma2(model, value_from, value_to, config.tol, config.sample_times)
    swap = scaling_permutation(model)
    inverse = permutation_inverse(swap, model.dim)  # raises unless a bijection
    starts = [
        model.sector_state(*locate_eigenvalue(model, value), 0) for value in (value_from, value_to)
    ]
    spectrum = Spectrum(model.diagonal_weights())
    return _worlds(
        config,
        1,
        # one evolution per start: at lambda1 = lambda2 the two are the same state
        lambda times: zip(*(spectrum.evolutions(start, times, config.hbar) for start in starts)),
        inverse,
        spectrum.weights,
        float(np.linalg.norm(starts[0][inverse] - starts[1])),
        lambda states: certificate,
        lambda: (
            ("system_observable", _model_observable(model)),
            ("pointer_momentum", _model_momentum(model)),
        ),
        (f"outcome {value_from:g}", f"outcome {value_to:g}"),
        lambda state: (),
        distinct_required=value_from != value_to,
    )
