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

One world engine (``_worlds(config, factor, k)``) builds every report: the
2^k worlds of k copies of one ``Factor`` record (``sign_flip_factor`` of
``qubit_setup``, or ``ladder_factor``). Prince-pauper is multiworld's k = 1 case, and
classical-level runs the engine at k = 1 on the ladder. Every run evolves the
sum of its start kets once (``evolved_ready``), rows split per system block:
both worlds, and for the qubit at T lemma 1's swap residual; the certificates
read the weights' drift. Every Hamiltonian is a ``Spectrum``, and no run
builds a dim x dim operator or a product-space state. At k >= 2 the pair
residuals come from one stacked pass over each sample time's per-factor inner
products (``_pair_residuals``), the Hamiltonian-conjugation residuals from the
exact per-factor Frobenius factorization (each factor deviation is traceless),
and a pair's witnesses, gaps and ``distinct`` flag from its factors' parts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import MODEL_DEGENERACY, QUBIT_EIGENVALUES, RunConfig
from .isomorphism import IsomorphismReport, Witness, _expectations, _state_residual, _witnesses
from .measurement import (
    Factor,
    MeasurementSetup,
    ObservableSpec,
    evolved_ready,
    make_pointer_grid,
    readout,
)
from .symmetry import (
    GeometricDiagonalModel,
    certify_lemma1,
    certify_lemma2,
    scaling_factor,
    sign_flip_factor,
)


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


def _gram_row(states, inverse: np.ndarray) -> list:
    """One time's inner products, as Python complexes: 0j, then <u, v> for u, v
    in (y, x - y, x), at x, y = S s_0, s_1 and then at x, y = S s_1, s_0."""
    row = [0j]
    for x, y in ((states[0][inverse], states[1]), (states[1][inverse], states[0])):
        vectors = (y, x - y, x)
        row += [complex(np.vdot(u, v)) for u in vectors for v in vectors]
    return row


@functools.cache
def _pair_plan(k: int) -> tuple:
    """The 2^k world patterns, their pairs, each pair's factor outcomes and
    differing factors D, and the ``_gram_row`` index of each (factor h, term
    (f, g) in D x D, pair) entry; padded terms read the row's 0j."""
    patterns = tuple(itertools.product((0, 1), repeat=k))
    pair_worlds = tuple(itertools.combinations(range(len(patterns)), 2))
    outcomes = tuple(tuple(zip(patterns[i], patterns[j])) for i, j in pair_worlds)
    differing = tuple(tuple(f for f, (a, b) in enumerate(pair) if a != b) for pair in outcomes)
    index = np.zeros((k, k * k, len(pair_worlds)), dtype=int)
    for n, (pair, factors) in enumerate(zip(outcomes, differing)):
        for m, (f, g) in enumerate(itertools.product(factors, repeat=2)):
            for h, (a, b) in enumerate(pair):
                u, v = (h > f) - (h < f) + 1, (h > g) - (h < g) + 1  # y, x - y or x
                index[h, m, n] = 1 + 9 * a + 3 * u + v if a != b else 1 + 9 * (1 - b)
    index.setflags(write=False)
    return patterns, pair_worlds, outcomes, differing, index


def _pair_residuals(rows, k: int) -> np.ndarray:
    """|x_1 (x) ... (x) x_k - y_1 (x) ... (x) y_k| of every pair (column) at
    every time of ``rows`` (a ``_gram_row`` each), in one stacked pass. The
    difference telescopes into sum_f T_f over f in D, with
    T_f = y_1 (x) ... (x) y_{f-1} (x) (x_f - y_f) (x) x_{f+1} (x) ... (x) x_k,
    so its squared norm sum_{f,g} <T_f, T_g> is a sum of products of table
    entries. Every term carries two differences, so nothing cancels against 1
    (unlike 2 - 2 Re prod <x_f, y_f>), and it is exactly 0.0 when they are.
    Products run from 1 + 0j as Python's complex ``*`` (no fused multiply-add)
    and terms add in (f, g) order, bitwise as a loop over Python complexes."""
    table = np.array(rows).T[_pair_plan(k)[-1]]  # (factor, term, pair, time)
    real, imag = table.real, table.imag
    term_real, term_imag = np.ones(real.shape[1:]), np.zeros(real.shape[1:])
    for br, bi in zip(real, imag):
        term_real, term_imag = term_real * br - term_imag * bi, term_real * bi + term_imag * br
    total = functools.reduce(np.add, term_real, np.zeros(term_real.shape[1:]))
    # keeps a NaN (max(0.0, nan) is 0.0) and never yields -0.0, rendered "-0"
    return np.sqrt(np.where(total > 0, total, np.where(np.isnan(total), np.nan, 0.0))).T


def _worlds(config: RunConfig, factor: Factor, k: int) -> ScenarioReport:
    """The report of the 2^k worlds of k copies of ``factor``, each ending in
    one of its two outcome states (a, b), compared under the swap
    S a = a[inverse]. The certificate is the factor's own (the ladder's) or
    lemma 1 on the rows at T; expectations are read once per world, and only
    a factor with a pointer setup has branch readouts.

    At k = 1 the pair's state residual is ``_state_residual`` (phase-minimized
    when the config asks), the isomorphism report is kept and witness names
    carry no factor index. At k >= 2 the residuals are literal (an upper bound
    on the phase-minimized ones), no isomorphism report is built, and a pair
    joins its factors' witnesses, named ``[f]``, their gaps and flags."""
    tolerance = config.tol
    times = config.sample_times
    patterns, pair_worlds, factor_outcomes, differing, _ = _pair_plan(k)
    labels = ["".join(factor.outcomes[s] for s in pattern) for pattern in patterns]
    inverse = factor.inverse

    # T evolves in the same batch as the sample times, once when it is the last
    stream = evolved_ready(factor, times if times[-1] == config.T else times + (config.T,))
    rows = []  # per time: the pair's residual at k = 1, else every pair's _gram_row
    for _ in times:
        states = None  # no earlier pair is held while the next one is evolved
        states = next(stream)
        rows.append(
            [_state_residual(states[0][inverse], states[1], config.phase_insensitive)]
            if k == 1
            else _gram_row(states, inverse)
        )
    if times[-1] != config.T:
        states = None
        states = next(stream)
    del stream  # frees the spectral coefficients before the copies below
    certificate = factor.certificate
    if certificate is None:  # lemma 1 reads the rows at T
        certificate = certify_lemma1(factor.setup, tol=tolerance, factor=factor, evolved=states)
    # |S H S^dag - H|_F on one factor is the certificate's |w[perm] - w|: the
    # spectrum's basis map carries the swap (certify_lemma1 checks a pointer's;
    # the ladder's is the identity); an uncarried swap has no drift to read
    deviation = certificate.drift_norm
    if deviation is None:
        raise ValueError(f"no Hamiltonian residual for this swap: {certificate.note}")
    setup = factor.setup  # only a pointer has branch readouts
    readout_tables = [() if setup is None else (readout(s, setup),) for s in states]
    names = [name for name, _ in factor.frame]
    expectations = [_expectations(s.reshape(-1, factor.block), factor.frame) for s in states]
    # one witness set per outcome pair serves every pair; factor f's part of
    # it holds the witnesses named for f, their gaps by name (the ladder's
    # frame lists its system observable first) and whether any is distinct
    parts = {}
    for a, b in sorted(set(itertools.chain.from_iterable(factor_outcomes))):
        found = _witnesses(names, expectations[a], expectations[b], tolerance)
        gaps = [
            tuple(w.gap for w in found if w.observable.startswith(o)) for o in ("pointer", "system")
        ]
        for f in range(k):
            named = found if k == 1 else tuple(
                Witness(f"{w.observable}[{f}]", w.expectation_a, w.expectation_b, w.gap, w.distinct)
                for w in found
            )
            parts[f, (a, b)] = (named, *gaps, any(w.distinct for w in found))

    # one maximum over the sample times, which keeps a NaN that max() would drop
    residuals = np.array(rows) if k == 1 else _pair_residuals(rows, k)
    state_residuals = residuals.max(axis=0)
    factor_dim = states.shape[1]
    pairs = []
    for n, ((i, j), pair) in enumerate(zip(pair_worlds, factor_outcomes)):
        state_residual = float(state_residuals[n])
        hamiltonian_residual = deviation * math.sqrt(len(differing[n]) * factor_dim ** (k - 1))
        witnesses, pointer, system, distinct = zip(*[parts[f, o] for f, o in enumerate(pair)])
        pairs.append(
            PairCertificate(
                world_a=labels[i],
                world_b=labels[j],
                state_residual=state_residual,
                hamiltonian_residual=hamiltonian_residual,
                pointer_gaps=sum(pointer, ()),
                system_gaps=sum(system, ()),
                witnesses=sum(witnesses, ()),
                # at k = 1 this is the isomorphism report's pass rule
                isomorphic=state_residual <= tolerance and hamiltonian_residual <= tolerance,
                distinct=any(distinct),
            )
        )

    readouts = tuple(
        WorldReadout(labels[i], tuple(table for s in pattern for table in readout_tables[s]))
        for i, pattern in enumerate(patterns)
    )
    reports = ()
    if k == 1:
        reports = (IsomorphismReport.judged(times, residuals[:, 0].tolist(), deviation, tolerance),)
    passed = certificate.passed and all(  # equal starts need no distinct pair
        p.isomorphic and (p.distinct or factor.starts[0] == factor.starts[1]) for p in pairs
    )
    return ScenarioReport(
        world_labels=tuple(labels),
        readouts=readouts,
        swap_certificates=(certificate,),
        isomorphism_reports=reports,
        pairs=tuple(pairs),
        passed=passed,
    )


def run_multiworld(config: RunConfig) -> ScenarioReport:
    """k independent simultaneous measurements: 2^k isomorphic, distinct worlds.
    One evolution of the summed ready kets serves every world and lemma 1."""
    return _worlds(config, sign_flip_factor(qubit_setup(config)), config.k)


# a single qubit is multiworld's k = 1 case: the config guards force k = 1 here
run_prince_pauper = run_multiworld


def ladder_factor(config: RunConfig) -> Factor:
    """The ladder factor of ``build_diagonal_model`` under the scaling swap,
    with its lemma-2 certificate: it reads no evolved state, so it is computed once."""
    model = build_diagonal_model(config)
    factor = scaling_factor(model, config.lambda1, config.lambda2)
    certificate = certify_lemma2(
        model, config.lambda1, config.lambda2, config.tol, config.sample_times, factor
    )
    return replace(factor, certificate=certificate)


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
    return _worlds(config, ladder_factor(config), 1)
