import numpy as np
import pytest

from swaplab.isomorphism import (
    EvolutionTriple,
    IsomorphismReport,
    _phase_minimized_distance,
    check_isomorphism,
    distinctness_witness,
)
from swaplab.linalg import (
    HERMITIAN,
    UNITARY,
    ComplexVector,
    DenseOperator,
    DimensionError,
    KindError,
    basis_vector,
    random_unitary,
)
from swaplab.measurement import (
    MeasurementSetup,
    ObservableSpec,
    PointerGrid,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_spectrum,
    ready_state,
    system_basis_state,
)
from swaplab.symmetry import GeometricDiagonalModel, parity_swap

from dense_reference import basis_transport_check

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
            unitary = DenseOperator(np.eye(plus.dim), UNITARY)
            EvolutionTriple(unitary, plus.initial_state, SAMPLE_TIMES)

    def test_requires_dense_hamiltonian(self, world_pair):
        # the runs read their spectra off one evolution of their worlds; a
        # triple is the dense oracle, so a spectrum is not its Hamiltonian
        setup, plus, _ = world_pair
        with pytest.raises(KindError, match="DenseOperator"):
            EvolutionTriple(pointer_spectrum(setup), plus.initial_state, SAMPLE_TIMES)

    def test_states_are_normalized(self, world_pair):
        _, plus, _ = world_pair
        for state in plus.states_at(SAMPLE_TIMES):
            assert abs(state.norm() - 1.0) <= 1e-12


class TestCheckIsomorphism:
    def test_identity_on_same_triple(self, world_pair):
        _, plus, _ = world_pair
        report = check_isomorphism(np.arange(plus.dim), plus, plus)
        assert report.passed
        assert max(report.state_residuals) == 0.0
        assert report.hamiltonian_residual == 0.0

    def test_nan_state_residual_fails(self):
        # the phase 1e150 * 1e200 overflows, so the evolution at the second time
        # is NaN, which its unitary tag rejects before a residual is read
        hamiltonian = DenseOperator(np.diag([1e150, 1e150, 1.0, 1.0]), HERMITIAN)
        triple = EvolutionTriple(hamiltonian, ComplexVector(np.full(4, 0.5)), (0.0, 1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(KindError, match="unitary"):
            check_isomorphism(np.array([1, 0, 3, 2]), triple, triple)
        # a NaN residual after the first still fails the report; max() would drop it
        report = IsomorphismReport.judged((0.0, 1.0), [0.0, np.nan], 0.0, 1e-10)
        assert np.isnan(report.state_residuals[1])
        assert not report.passed

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


def random_states(seed, count=2, dim=34):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


class TestPhaseMinimizedDistance:
    def test_rotated_copy_has_no_residual(self):
        # |a|^2 + |b|^2 - 2|<a, b>| gave 1.5e-08 or 2.1e-08 for 8 of these states
        for a in random_states(0, count=100, dim=200):
            assert _phase_minimized_distance(a, np.exp(0.3j) * a) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_at_most_the_literal_residual(self, seed):
        a, b = random_states(seed)
        for scale in (1.0, 1e-6, 1e-12):
            # b near a, so the residual runs from O(1) down to rounding
            near = a + scale * b
            near /= np.linalg.norm(near)
            assert _phase_minimized_distance(a, near) <= np.linalg.norm(a - near)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_phase_grid_minimum(self, seed):
        a, b = random_states(seed)
        b = 0.2 * b + np.exp(2.1j) * a
        b /= np.linalg.norm(b)
        n_phases = 20000
        phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
        on_grid = np.linalg.norm(a[None, :] - phases[:, None] * b[None, :], axis=1).min()
        found = _phase_minimized_distance(a, b)
        # the grid misses the optimal phase by at most pi / n_phases, which
        # moves a distance between unit vectors by at most that much
        assert found <= on_grid
        assert on_grid - found <= np.pi / n_phases

    def test_orthogonal_states(self):
        a, b = np.eye(2, dtype=complex)
        assert _phase_minimized_distance(a, b) == np.sqrt(2.0)


class TestSpectralHamiltonianResidual:
    # a spectrum is the runs' Hamiltonian, whose residual the world engine
    # reads off its weights; the dense checks refuse it before any residual
    def test_mixed_kinds_fail_without_residual(self, world_pair):
        setup, dense_plus, minus = world_pair
        with pytest.raises(KindError, match="DenseOperator"):
            spectral_minus = EvolutionTriple(pointer_spectrum(setup), minus.initial_state, SAMPLE_TIMES)
            check_isomorphism(parity_swap(setup), dense_plus, spectral_minus)

    def test_basis_transport_needs_dense_hamiltonian(self, world_pair):
        setup, plus, minus = world_pair
        basis = [basis_vector(plus.dim, i) for i in range(plus.dim)]
        with pytest.raises(KindError, match="DenseOperator"):
            spectral_minus = EvolutionTriple(pointer_spectrum(setup), minus.initial_state, SAMPLE_TIMES)
            basis_transport_check(parity_swap(setup), basis, plus, spectral_minus, SAMPLE_TIMES)


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
        assert not any(w.distinct for w in witnesses)

    def test_pointer_gap_between_worlds(self, world_pair):
        setup, plus, minus = world_pair
        pointer = np.tile(setup.grid.zeta, setup.observable.system_dim)
        final_plus = plus.states_at(SAMPLE_TIMES)[-1]
        final_minus = minus.states_at(SAMPLE_TIMES)[-1]
        witnesses = distinctness_witness(final_plus, final_minus, [("pointer", pointer)])
        assert witnesses[0].gap == pytest.approx(2.0, abs=1e-9)
        assert witnesses[0].distinct

    def test_gap_equal_to_tol_is_not_distinct(self):
        # distinct means a gap above tol: e_0 and e_1 under the diagonal
        # (tol, 0) differ by exactly tol, and by one ulp more under nextafter
        tol = 1e-10
        states = np.eye(2, dtype=complex)
        for value, distinct in ((tol, False), (np.nextafter(tol, 1.0), True)):
            (witness,) = distinctness_witness(*states, [("edge", np.array([value, 0.0]))], tol)
            assert witness.gap == value
            assert witness.distinct is distinct

    def test_identity_observable_never_distinguishes(self, world_pair):
        _, plus, minus = world_pair
        final_plus, final_minus = plus.states_at((1.0,))[0], minus.states_at((1.0,))[0]
        witnesses = distinctness_witness(final_plus, final_minus, [("identity", np.ones(plus.dim))])
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


NAN = float("nan")
QUBIT = ObservableSpec((1.0, -1.0))
NAN_DIAGONAL = np.diag([NAN, 1.0])

#: a NaN in each positivity guard and dense kind check; every one of these
#: comparisons is written so that NaN fails it
NAN_INPUTS = {
    "grid-spacing": lambda: PointerGrid(8, NAN),
    "grid-hbar": lambda: PointerGrid(8, 0.25, NAN),
    "coupling": lambda: MeasurementSetup(QUBIT, PointerGrid(8, 0.25), NAN, 1.0),
    "duration": lambda: MeasurementSetup(QUBIT, PointerGrid(8, 0.25), 1.0, NAN),
    "ratio": lambda: GeometricDiagonalModel(NAN, -1, 1),
    "base-eigenvalue": lambda: GeometricDiagonalModel(2.0, -1, 1, base_eigenvalue=NAN),
    "ladder-hbar": lambda: GeometricDiagonalModel(2.0, -1, 1, hbar=NAN),
    "sample-time": lambda: EvolutionTriple(
        DenseOperator(np.eye(2), HERMITIAN), basis_vector(2, 0), (0.0, NAN)
    ),
    "triple-hbar": lambda: EvolutionTriple(
        DenseOperator(np.eye(2), HERMITIAN), basis_vector(2, 0), (0.0,), NAN
    ),
    "hermitian": lambda: DenseOperator(NAN_DIAGONAL, HERMITIAN),
    "unitary": lambda: DenseOperator(NAN_DIAGONAL, UNITARY),
    "unit-vector": lambda: ComplexVector([NAN, 0.0]).require_unit(),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_fails_every_guard(build):
    with pytest.raises((ValueError, KindError)):
        build()
