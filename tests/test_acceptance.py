"""Acceptance suite: one test per criterion, stated tolerances, PASS line each."""

import itertools
import json
import time

import numpy as np
import pytest

from swaplab.cli import main
from swaplab.config import RunConfig, parse_config
from swaplab.isomorphism import EvolutionTriple, check_isomorphism, distinctness_witness
from swaplab.linalg import (
    HERMITIAN,
    ComplexVector,
    DenseOperator,
    frobenius_norm,
    random_unitary,
    tensor_product,
    unitarity_defect,
)
from swaplab.measurement import (
    MeasurementSetup,
    ObservableSpec,
    evolve,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_basis_state,
    readout,
    ready_state,
    system_basis_state,
    translation_map,
)
from swaplab.scenario import run_multiworld, run_prince_pauper
from swaplab.symmetry import (
    GeometricDiagonalModel,
    certify_lemma1,
    certify_lemma2,
    corrupted_swap,
    parity_swap,
    scaling_permutation,
)

from test_linalg import kron_oracle, taylor_exponential_oracle

SAMPLE_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def desk_setup():
    grid = make_pointer_grid(8, 0.25, 1.0)
    return MeasurementSetup(ObservableSpec((1.0, -1.0)), grid, 1.0, 1.0)


def report(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


def test_criterion_1_sign_flip_certificate():
    start = time.perf_counter()
    certificate = certify_lemma1(desk_setup())
    elapsed = time.perf_counter() - start
    assert certificate.unitarity_defect <= 1e-12
    assert certificate.commutator_residual <= 1e-12  # relative to |H|_F
    assert certificate.swap_residual <= 1e-10
    assert certificate.cross_construction_distance <= 1e-10
    assert certificate.passed
    assert elapsed < 1.0
    report(1, f"sign-flip certificate ({elapsed:.3f}s)")


def test_criterion_2_premeasurement_translation():
    setup = desk_setup()
    center = setup.grid.center_index
    for eig_index, eigenvalue in enumerate(setup.observable.eigenvalues):
        # g*t*lambda = +-1 is on-grid (4 steps of 0.25)
        state = ready_state(setup, system_basis_state(setup.observable, eig_index))
        evolved = evolve(setup, state, 1.0)
        steps = int(round(-setup.coupling * 1.0 * eigenvalue / setup.grid.spacing))
        target = tensor_product(
            system_basis_state(setup.observable, eig_index),
            pointer_basis_state(setup.grid, center + steps),
        )
        fidelity = abs(np.vdot(target.amplitudes, evolved.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-10
        branch = readout(evolved, setup)[eig_index]
        expected_mean = -setup.coupling * setup.duration * eigenvalue
        assert branch.pointer_mean == pytest.approx(expected_mean, abs=1e-9)
    report(2, "premeasurement pointer translation")


def test_criterion_3_same_triple_distinct_worlds():
    setup = desk_setup()
    hamiltonian = interaction_hamiltonian(setup)
    plus = ready_state(setup, system_basis_state(setup.observable, 0))
    minus = ready_state(setup, system_basis_state(setup.observable, 1))
    prince = EvolutionTriple(hamiltonian, plus, SAMPLE_TIMES)
    pauper = EvolutionTriple(hamiltonian, minus, SAMPLE_TIMES)
    swap = parity_swap(setup)

    iso = check_isomorphism(swap, prince, pauper, tolerance=1e-10)
    assert iso.passed
    assert len(iso.state_residuals) == 5

    pointer = np.tile(setup.grid.zeta, 2)
    final_prince = prince.states_at((setup.duration,))[0]
    final_pauper = pauper.states_at((setup.duration,))[0]
    witnesses = distinctness_witness(
        final_prince, final_pauper, [("pointer_position", pointer)]
    )
    expected_gap = 2 * setup.coupling * setup.duration
    assert witnesses[0].gap == pytest.approx(expected_gap, abs=1e-9)
    assert witnesses[0].distinct
    report(3, "isomorphic triples, distinct worlds")


def test_criterion_4_multiworld_k3():
    start = time.perf_counter()
    config = RunConfig(scenario="multiworld", k=3)
    result = run_multiworld(config)
    elapsed = time.perf_counter() - start

    assert len(result.world_labels) == 8
    assert len(result.pairs) == 28
    expected_gap = 2 * config.g * config.T
    for pair in result.pairs:
        assert pair.state_residual <= 1e-10
        assert pair.hamiltonian_residual <= 1e-10
        assert pair.isomorphic
        assert max(pair.pointer_gaps) >= expected_gap - 1e-6
        assert pair.distinct
    assert result.passed
    assert elapsed < 60.0
    report(4, f"multiworld k=3, 8 worlds, 28 pairs ({elapsed:.2f}s)")


def test_criterion_5_scaling_model():
    model = GeometricDiagonalModel(ratio=2.0, exponent_min=-4, exponent_max=4, degeneracy=2)
    certificate = certify_lemma2(model, 1.0, 2.0)
    assert certificate.commutator_residual == 0.0  # <= 1e-13 required
    assert certificate.passed

    # index-level mapping for every degeneracy label
    perm = scaling_permutation(model)
    weights = model.diagonal_weights()
    assert np.array_equal(weights[perm], weights)
    length = model.cycle_length
    m_from = 4  # exponent 0, eigenvalue +1
    for label in range(model.degeneracy):
        for sign_p in range(2):
            for k in range(length):
                source = model.basis_index(0, m_from, label, sign_p, k)
                target = model.basis_index(0, m_from + 1, label, sign_p, (k - 1) % length)
                assert perm[source] == target
    report(5, "scaling swap, exact commutation, per-label mapping")


def test_criterion_6_oracle_suites():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        hermitian = DenseOperator((raw + raw.conj().T) / 2, HERMITIAN)
        theta = float(rng.uniform(-2, 2))
        from swaplab.linalg import hermitian_exponential

        expected = taylor_exponential_oracle(hermitian.entries, theta)
        got = hermitian_exponential(hermitian, theta)
        assert frobenius_norm(got.entries - expected) <= 1e-9

    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(
        tensor_product(DenseOperator(a), DenseOperator(b)).entries, kron_oracle(a, b)
    )

    grid = make_pointer_grid(8, 0.25)
    n = grid.n_points
    for steps in (1, 2, 5):
        permutation = np.zeros((n, n))
        permutation[(np.arange(n) + steps) % n, np.arange(n)] = 1.0
        assert frobenius_norm(translation_map(grid, steps).entries - permutation) <= 1e-10
    report(6, "exponential, kronecker, translation oracles")


def test_criterion_7_negative_controls():
    setup = desk_setup()
    certificate = certify_lemma1(setup, swap=corrupted_swap(setup))
    assert certificate.swap_residual > 0.1
    assert not certificate.passed

    hamiltonian = interaction_hamiltonian(setup)
    failures = 0
    for seed in range(20):
        q = random_unitary(setup.total_dim, seed=seed).entries
        residual = frobenius_norm(q @ hamiltonian.entries @ q.conj().T - hamiltonian.entries)
        if residual > 0.1:
            failures += 1
    assert failures >= 19
    report(7, f"negative controls (corrupted swap, {failures}/20 random unitaries fail)")


def test_criterion_8_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scenario": "prince-pauper", "seed": 0}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(config_path), "--out", str(out_a)]) == 0
    assert main(["run", str(config_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "report.json").read_bytes()
    bytes_b = (out_b / "report.json").read_bytes()
    assert bytes_a == bytes_b
    report(8, "byte-identical reports")
