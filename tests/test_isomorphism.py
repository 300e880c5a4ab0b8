import numpy as np
import pytest

from swaplab.isomorphism import (
    EvolutionTriple,
    basis_transport_check,
    check_isomorphism,
    distinctness_witness,
    is_distinct,
)
from swaplab.linalg import (
    HERMITIAN,
    ComplexVector,
    DenseOperator,
    DimensionError,
    KindError,
    basis_vector,
    identity,
    random_unitary,
)
from swaplab.measurement import (
    MeasurementSetup,
    ObservableSpec,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_spectrum,
    ready_state,
    system_basis_state,
)
from swaplab.symmetry import parity_swap

SAMPLE_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def world_pair():
    grid = make_pointer_grid(8, 0.25)
    setup = MeasurementSetup(ObservableSpec((1.0, -1.0)), grid, 1.0, 1.0)
    h = interaction_hamiltonian(setup)
    plus = EvolutionTriple(h, ready_state(setup, system_basis_state(setup.observable, 0)), SAMPLE_TIMES)
    minus = EvolutionTriple(h, ready_state(setup, system_basis_state(setup.observable, 1)), SAMPLE_TIMES)
    return setup, plus, minus


class TestEvolutionTriple:
    def test_requires_unit_state(self, world_pair):
        setup, plus, _ = world_pair
        with pytest.raises(ValueError):
            EvolutionTriple(plus.hamiltonian, ComplexVector(2 * plus.initial_state.amplitudes), SAMPLE_TIMES)

    def test_requires_sorted_times(self, world_pair):
        _, plus, _ = world_pair
        with pytest.raises(ValueError):
            EvolutionTriple(plus.hamiltonian, plus.initial_state, (0.5, 0.25))

    def test_requires_nonempty_times(self, world_pair):
        _, plus, _ = world_pair
        with pytest.raises(ValueError):
            EvolutionTriple(plus.hamiltonian, plus.initial_state, ())

    def test_requires_hermitian_hamiltonian(self, world_pair):
        _, plus, _ = world_pair
        with pytest.raises(KindError):
            EvolutionTriple(identity(plus.dim, kind="unitary"), plus.initial_state, SAMPLE_TIMES)

    def test_states_are_normalized(self, world_pair):
        _, plus, _ = world_pair
        for state in plus.states():
            assert abs(state.norm() - 1.0) <= 1e-12


class TestCheckIsomorphism:
    def test_identity_on_same_triple(self, world_pair):
        _, plus, _ = world_pair
        report = check_isomorphism(np.arange(plus.dim), plus, plus)
        assert report.passed
        assert max(report.state_residuals) == 0.0
        assert report.hamiltonian_residual == 0.0

    def test_parity_swap_relates_the_two_worlds(self, world_pair):
        setup, plus, minus = world_pair
        report = check_isomorphism(parity_swap(setup), plus, minus, tolerance=1e-10)
        assert report.passed
        assert max(report.state_residuals) <= 1e-10
        assert report.hamiltonian_residual <= 1e-10

    def test_random_unitary_fails_hamiltonian_condition(self, world_pair):
        _, plus, minus = world_pair
        shuffle = np.random.default_rng(0).permutation(plus.dim)
        report = check_isomorphism(shuffle, plus, minus)
        assert not report.passed
        assert report.hamiltonian_residual > 0.1

    def test_non_unitary_swap_rejected(self, world_pair):
        _, plus, minus = world_pair
        with pytest.raises(KindError, match="unitary"):
            check_isomorphism(np.zeros(plus.dim, dtype=int), plus, minus)

    def test_dim_mismatch_rejected(self, world_pair):
        _, plus, _ = world_pair
        small = EvolutionTriple(
            DenseOperator(np.zeros((2, 2)), HERMITIAN), basis_vector(2, 0), SAMPLE_TIMES
        )
        with pytest.raises(DimensionError):
            check_isomorphism(np.arange(2), small, plus)

    def test_sample_times_must_agree(self, world_pair):
        _, plus, _ = world_pair
        other = EvolutionTriple(plus.hamiltonian, plus.initial_state, (0.0, 1.0))
        with pytest.raises(ValueError):
            check_isomorphism(np.arange(plus.dim), plus, other)

    def test_residual_symmetry_under_inverse(self, world_pair):
        setup, plus, minus = world_pair
        swap = parity_swap(setup)
        forward = check_isomorphism(swap, plus, minus)
        backward = check_isomorphism(np.argsort(swap), minus, plus)
        assert np.allclose(forward.state_residuals, backward.state_residuals, atol=1e-12)
        assert forward.hamiltonian_residual == pytest.approx(
            backward.hamiltonian_residual, abs=1e-12
        )

    def test_phase_insensitive_mode(self, world_pair):
        _, plus, _ = world_pair
        rotated = EvolutionTriple(
            plus.hamiltonian,
            ComplexVector(np.exp(0.3j) * plus.initial_state.amplitudes),
            SAMPLE_TIMES,
        )
        literal = check_isomorphism(np.arange(plus.dim), plus, rotated)
        assert not literal.passed
        modded = check_isomorphism(np.arange(plus.dim), plus, rotated, phase_insensitive=True)
        assert modded.passed


@pytest.fixture(scope="module")
def spectral_pair(world_pair):
    setup, plus, minus = world_pair
    spectrum = pointer_spectrum(setup)
    return (
        setup,
        EvolutionTriple(spectrum, plus.initial_state, SAMPLE_TIMES),
        EvolutionTriple(spectrum, minus.initial_state, SAMPLE_TIMES),
    )


class TestSpectralHamiltonianResidual:
    def test_parity_swap_is_exact(self, spectral_pair):
        setup, plus, minus = spectral_pair
        report = check_isomorphism(parity_swap(setup), plus, minus, tolerance=1e-10)
        assert report.passed
        assert report.hamiltonian_residual == 0.0

    def test_weights_of_two_hamiltonians(self, world_pair, spectral_pair):
        # |S H_a S^dag - H_b|_F for two couplings of one grid, against the dense gather
        setup, plus, _ = spectral_pair
        other = MeasurementSetup(setup.observable, setup.grid, 0.6, setup.duration)
        stronger = EvolutionTriple(pointer_spectrum(other), plus.initial_state, SAMPLE_TIMES)
        swap = parity_swap(setup)
        report = check_isomorphism(swap, plus, stronger)
        inverse = np.argsort(swap)
        a, b = interaction_hamiltonian(setup).entries, interaction_hamiltonian(other).entries
        dense = np.linalg.norm(a[np.ix_(inverse, inverse)] - b)
        assert report.hamiltonian_residual == pytest.approx(dense, rel=1e-12)
        assert not report.passed

    def test_uncarried_swap_fails_without_residual(self, spectral_pair):
        _, plus, minus = spectral_pair
        shuffle = np.random.default_rng(0).permutation(plus.dim)
        report = check_isomorphism(shuffle, plus, minus)
        assert report.hamiltonian_residual is None
        assert not report.passed

    def test_mixed_kinds_fail_without_residual(self, world_pair, spectral_pair):
        setup, dense_plus, _ = world_pair
        _, _, minus = spectral_pair
        report = check_isomorphism(parity_swap(setup), dense_plus, minus)
        assert report.hamiltonian_residual is None
        assert not report.passed

    def test_basis_transport_needs_dense_hamiltonians(self, spectral_pair):
        setup, plus, minus = spectral_pair
        basis = [basis_vector(plus.dim, i) for i in range(plus.dim)]
        with pytest.raises(KindError, match="dense"):
            basis_transport_check(parity_swap(setup), basis, plus, minus, SAMPLE_TIMES)


class TestBasisTransport:
    def test_standard_basis_identity(self, world_pair):
        _, plus, _ = world_pair
        basis = [basis_vector(plus.dim, i) for i in range(plus.dim)]
        assert basis_transport_check(np.arange(plus.dim), basis, plus, plus, SAMPLE_TIMES)

    def test_standard_basis_swapped_worlds(self, world_pair):
        setup, plus, minus = world_pair
        basis = [basis_vector(plus.dim, i) for i in range(plus.dim)]
        assert basis_transport_check(parity_swap(setup), basis, plus, minus, SAMPLE_TIMES, tolerance=1e-10)

    def test_random_orthonormal_basis(self, world_pair):
        setup, plus, minus = world_pair
        columns = random_unitary(plus.dim, seed=11).entries
        basis = [ComplexVector(columns[:, i]) for i in range(plus.dim)]
        assert basis_transport_check(parity_swap(setup), basis, plus, minus, SAMPLE_TIMES, tolerance=1e-9)

    def test_scaled_vector_rejected(self, world_pair):
        _, plus, _ = world_pair
        basis = [basis_vector(plus.dim, i) for i in range(plus.dim)]
        basis[0] = ComplexVector(1.01 * basis[0].amplitudes)
        with pytest.raises(ValueError, match="orthonormal"):
            basis_transport_check(np.arange(plus.dim), basis, plus, plus, SAMPLE_TIMES)


class TestDistinctness:
    def test_identical_states_not_distinct(self, world_pair):
        _, plus, _ = world_pair
        state = plus.initial_state
        witnesses = distinctness_witness(state, state, [("anything", np.arange(plus.dim) - 7.5)])
        assert all(w.gap == 0.0 for w in witnesses)
        assert not is_distinct(witnesses)

    def test_pointer_gap_between_worlds(self, world_pair):
        setup, plus, minus = world_pair
        pointer = np.tile(setup.grid.zeta, setup.observable.system_dim)
        final_plus = plus.states()[-1]
        final_minus = minus.states()[-1]
        witnesses = distinctness_witness(final_plus, final_minus, [("pointer", pointer)])
        assert witnesses[0].gap == pytest.approx(2.0, abs=1e-9)
        assert is_distinct(witnesses)

    def test_identity_observable_never_distinguishes(self, world_pair):
        _, plus, minus = world_pair
        witnesses = distinctness_witness(
            plus.states()[-1], minus.states()[-1], [("identity", np.ones(plus.dim))]
        )
        assert witnesses[0].gap <= 1e-12

    def test_non_hermitian_observable_rejected(self, world_pair):
        # a diagonal operator is Hermitian exactly when its diagonal is real
        _, plus, minus = world_pair
        lopsided = np.ones(plus.dim) + 1j * np.arange(plus.dim)
        with pytest.raises(KindError):
            distinctness_witness(plus.initial_state, minus.initial_state, [("bad", lopsided)])

    @pytest.mark.parametrize("shape", ["dense", "short", "scalar"])
    def test_observable_must_be_a_diagonal(self, world_pair, shape):
        _, plus, minus = world_pair
        values = {
            "dense": np.eye(plus.dim),
            "short": np.ones(plus.dim - 1),
            "scalar": np.float64(1.0),
        }[shape]
        with pytest.raises(DimensionError):
            distinctness_witness(plus.initial_state, minus.initial_state, [("bad", values)])

    def test_transport_follows_isomorphism(self, world_pair):
        # a passing isomorphism transports amplitudes in any orthonormal basis
        setup, plus, minus = world_pair
        swap = parity_swap(setup)
        report = check_isomorphism(swap, plus, minus, tolerance=1e-10)
        assert report.passed
        for seed in (1, 2, 3):
            columns = random_unitary(plus.dim, seed=seed).entries
            basis = [ComplexVector(columns[:, i]) for i in range(plus.dim)]
            assert basis_transport_check(swap, basis, plus, minus, SAMPLE_TIMES, tolerance=1e-9)
