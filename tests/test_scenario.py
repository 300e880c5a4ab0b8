import itertools

import numpy as np
import pytest

from swaplab.config import ConfigError, RunConfig
from swaplab.linalg import frobenius_norm, tensor_product, vector_distance
from swaplab.measurement import interaction_hamiltonian, ready_state, system_basis_state
from swaplab.scenario import (
    _model_momentum,
    _model_observable,
    build_diagonal_model,
    qubit_setup,
    run_classical_level,
    run_multiworld,
    run_prince_pauper,
)
from swaplab.symmetry import GeometricDiagonalModel, parity_swap

from test_linalg import permutation_matrix


def small_config(**overrides):
    defaults = dict(M=3, delta=1.0, tol=1e-10)
    defaults.update(overrides)
    return RunConfig(**defaults)


def multiworld_config(k, **overrides):
    return small_config(scenario="multiworld", k=k, **overrides)


class TestScenarioConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.M == 8
        assert config.sample_times == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_sample_times_follow_duration(self):
        config = RunConfig(T=2.0, delta=0.5)
        assert config.sample_times == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_wraparound_guard(self):
        with pytest.raises(ConfigError, match="wraparound"):
            RunConfig(M=2, delta=0.25)

    def test_dimension_cap(self):
        # (2 * (2 * 9 + 1))^3 = 54 872 product entries exceed the 40 000 cap
        with pytest.raises(ConfigError, match="cap"):
            RunConfig(scenario="multiworld", k=3, M=9)

    def test_qubit_count_range(self):
        with pytest.raises(ConfigError, match="k must be between"):
            RunConfig(scenario="multiworld", k=4)

    def test_sample_times_must_stay_in_window(self):
        with pytest.raises(ConfigError, match="sample_times"):
            RunConfig(sample_times=(0.0, 2.0))


class TestPrincePauper:
    def test_default_run_passes(self):
        report = run_prince_pauper(RunConfig())
        assert report.passed
        assert report.scenario == "prince-pauper"
        assert report.world_labels == ("+", "-")
        iso = report.isomorphism_reports[0]
        assert max(iso.state_residuals) <= 1e-10
        assert iso.hamiltonian_residual <= 1e-10
        assert report.swap_certificates[0].passed

    def test_pointer_gap_is_twice_gT(self):
        config = RunConfig()
        report = run_prince_pauper(config)
        gaps = {w.observable: w.gap for w in report.pairs[0].witnesses}
        assert gaps["pointer_position"] == pytest.approx(2.0, abs=1e-9)

    def test_swap_fixes_initial_ready_state(self):
        config = RunConfig()
        setup = qubit_setup(config)
        swap = permutation_matrix(parity_swap(setup))
        plus = ready_state(setup, system_basis_state(setup.observable, 0))
        minus = ready_state(setup, system_basis_state(setup.observable, 1))
        assert vector_distance(swap @ plus, minus) == 0.0

    def test_zero_coupling_distinct_via_system_only(self):
        report = run_prince_pauper(small_config(g=0.0))
        gaps = {w.observable: w.gap for w in report.pairs[0].witnesses}
        assert gaps["pointer_position"] <= 1e-12
        assert gaps["system_observable"] == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_readouts_identify_outcomes(self):
        report = run_prince_pauper(RunConfig())
        tables = dict(zip(report.world_labels, report.readouts))
        plus_branches = tables["+"].per_factor[0]
        assert plus_branches[0].probability == pytest.approx(1.0, abs=1e-10)
        assert plus_branches[0].inferred_outcome == pytest.approx(1.0, abs=1e-9)
        assert plus_branches[1].pointer_mean is None

    def test_distinctness_matrix_symmetric(self):
        report = run_prince_pauper(RunConfig())
        matrix = np.array(report.distinctness_matrix)
        assert matrix.shape == (2, 2)
        assert matrix[0, 1] == matrix[1, 0] > 0
        assert matrix[0, 0] == matrix[1, 1] == 0.0


class TestMultiworld:
    def test_base_case_matches_prince_pauper(self):
        config = RunConfig(scenario="multiworld", k=1)
        report = run_multiworld(config)
        assert report.world_labels == ("+", "-")
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert pair.isomorphic and pair.distinct
        assert pair.state_residual <= 1e-10
        assert pair.hamiltonian_residual <= 1e-10

    def test_world_and_pair_counts(self):
        report = run_multiworld(multiworld_config(2))
        assert len(report.world_labels) == 4
        assert len(report.pairs) == 6
        assert report.passed

    def test_three_qubits_small_grid(self):
        report = run_multiworld(multiworld_config(3, M=2))
        assert len(report.world_labels) == 8
        assert len(report.pairs) == 28
        assert report.passed

    def test_factored_residuals_match_dense_oracle(self):
        # build the k=2 total Hamiltonian and swap densely and compare
        config = multiworld_config(2)
        setup = qubit_setup(config)
        h = interaction_hamiltonian(setup).entries
        swap = permutation_matrix(parity_swap(setup)).entries
        eye = np.eye(setup.total_dim)
        h_total = np.kron(h, eye) + np.kron(eye, h)

        report = run_multiworld(config)
        for pair in report.pairs:
            factors = [
                np.array(swap) if a != b else eye
                for a, b in zip(pair.world_a, pair.world_b)
            ]
            s_total = np.kron(factors[0], factors[1])
            dense_residual = frobenius_norm(s_total @ h_total @ s_total.conj().T - h_total)
            assert pair.hamiltonian_residual == pytest.approx(dense_residual, abs=1e-11)

    def test_factored_state_residual_matches_dense_oracle(self):
        config = multiworld_config(2)
        setup = qubit_setup(config)
        swap = permutation_matrix(parity_swap(setup)).entries
        eye = np.eye(setup.total_dim)

        h = interaction_hamiltonian(setup)
        w, v = np.linalg.eigh(h.entries)
        u_final = (v * np.exp(-1j * w * config.T)) @ v.conj().T

        def world_state(pattern):
            parts = []
            for sign in pattern:
                system = system_basis_state(setup.observable, 0 if sign == "+" else 1)
                parts.append(u_final @ ready_state(setup, system).amplitudes)
            return np.kron(parts[0], parts[1])

        report = run_multiworld(config)
        pair = next(p for p in report.pairs if (p.world_a, p.world_b) == ("++", "--"))
        s_total = np.kron(swap, swap)
        dense = np.linalg.norm(s_total @ world_state("++") - world_state("--"))
        assert pair.state_residual == pytest.approx(dense, abs=1e-11)

    def test_differing_factor_carries_the_gap(self):
        config = multiworld_config(2)
        expected_gap = 2 * config.g * config.T
        report = run_multiworld(config)
        for pair in report.pairs:
            for f, (a, b) in enumerate(zip(pair.world_a, pair.world_b)):
                if a != b:
                    assert pair.pointer_gaps[f] == pytest.approx(expected_gap, abs=1e-9)
                else:
                    assert pair.pointer_gaps[f] <= 1e-9

    def test_swaps_commute_and_order_is_irrelevant(self):
        config = small_config()
        setup = qubit_setup(config)
        swap = permutation_matrix(parity_swap(setup)).entries
        eye = np.eye(setup.total_dim)
        first = np.kron(swap, eye)
        second = np.kron(eye, swap)
        assert np.array_equal(first @ second, second @ first)
        # each factor swap is an involution
        assert np.array_equal(swap @ swap, eye)

    def test_rejects_large_k(self):
        with pytest.raises(ConfigError):
            multiworld_config(4)


class TestClassicalLevel:
    def test_default_run_passes(self):
        report = run_classical_level(RunConfig(scenario="classical-level"))
        assert report.passed
        assert report.scenario == "classical-level"
        certificate = report.swap_certificates[0]
        assert certificate.commutator_residual == 0.0
        assert certificate.construction == "scaling"

    def test_branches_connected_and_distinct(self):
        report = run_classical_level(
            RunConfig(scenario="classical-level", lambda1=1.0, lambda2=2.0)
        )
        iso = report.isomorphism_reports[0]
        assert max(iso.state_residuals) <= 1e-12
        gaps = {w.observable: w.gap for w in report.pairs[0].witnesses}
        assert gaps["system_observable"] == pytest.approx(1.0, abs=1e-9)

    def test_equal_eigenvalues_note_identity(self):
        report = run_classical_level(
            RunConfig(scenario="classical-level", lambda1=2.0, lambda2=2.0)
        )
        assert "identity" in report.swap_certificates[0].note
        assert not report.pairs[0].distinct

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            RunConfig(scenario="classical-level", lambda1=0.0, lambda2=2.0)


class TestWorldEnumeration:
    def test_labels_are_sign_patterns(self):
        report = run_multiworld(multiworld_config(3, M=2))
        expected = ["".join(p) for p in itertools.product("+-", repeat=3)]
        assert list(report.world_labels) == expected

    def test_paradox_property(self):
        # the same dynamical triple supports isomorphic yet observably distinct worlds
        report = run_prince_pauper(RunConfig())
        assert report.isomorphism_reports[0].passed
        assert report.pairs[0].distinct


# Loop constructions of the ladder's reference observables, kept as oracles.


def model_observable_loops(model):
    values = np.empty(model.dim)
    for sign_idx, sign in enumerate((1.0, -1.0)):
        for m in range(model.cycle_length):
            value = sign * model.base_eigenvalue * model.ratio ** (model.exponent_min + m)
            for label in range(model.degeneracy):
                for sign_p in range(2):
                    for kk in range(model.cycle_length):
                        values[model.basis_index(sign_idx, m, label, sign_p, kk)] = value
    return values


def model_momentum_loops(model):
    values = np.empty(model.dim)
    for sign_idx in range(2):
        for m in range(model.cycle_length):
            for label in range(model.degeneracy):
                for sign_p, sig in enumerate((1.0, -1.0)):
                    for kk in range(model.cycle_length):
                        values[model.basis_index(sign_idx, m, label, sign_p, kk)] = (
                            sig * model.base_momentum * model.ratio ** (model.exponent_min + kk)
                        )
    return values


@pytest.mark.parametrize(
    "model",
    [
        build_diagonal_model(RunConfig(scenario="classical-level")),
        GeometricDiagonalModel(ratio=1.5, exponent_min=-2, exponent_max=2, degeneracy=3),
        GeometricDiagonalModel(
            ratio=0.3, exponent_min=-1, exponent_max=3, base_eigenvalue=0.7, base_momentum=1.3
        ),
    ],
)
def test_model_observables_match_loop_oracles(model):
    observable = np.diagonal(_model_observable(model).entries)
    momentum = np.diagonal(_model_momentum(model).entries)
    assert np.array_equal(observable, model_observable_loops(model).astype(complex))
    assert np.array_equal(momentum, model_momentum_loops(model).astype(complex))
