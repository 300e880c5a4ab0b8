import numpy as np
import pytest

from swaplab.linalg import (
    ComplexVector,
    DimensionError,
    basis_vector,
    frobenius_norm,
    tensor_product,
    unitarity_defect,
    vector_distance,
)
from swaplab.measurement import (
    MAX_TOTAL_DIM,
    MeasurementSetup,
    ObservableSpec,
    ccr_defect,
    evolve,
    gaussian_pointer_state,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_basis_state,
    readout,
    ready_state,
    system_basis_state,
    translation_map,
)


def qubit_setup(half_width=8, spacing=0.25, coupling=1.0, duration=1.0, hbar=1.0):
    grid = make_pointer_grid(half_width, spacing, hbar)
    observable = ObservableSpec((1.0, -1.0))
    return MeasurementSetup(observable, grid, coupling, duration)


def cyclic_shift_matrix(n, steps):
    """Permutation matrix moving grid index i to i + steps (mod n)."""
    out = np.zeros((n, n))
    for i in range(n):
        out[(i + steps) % n, i] = 1.0
    return out


class TestPointerGrid:
    def test_grid_points(self):
        grid = make_pointer_grid(2, 1.0, 1.0)
        assert np.array_equal(grid.zeta, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_momentum_points(self):
        grid = make_pointer_grid(2, 1.0, 1.0)
        expected = np.array([-4, -2, 0, 2, 4]) * np.pi / 5
        assert np.allclose(grid.momenta, expected, atol=1e-15)

    def test_momentum_operator_hermitian(self):
        grid = make_pointer_grid(8, 0.5, 1.0)
        p = grid.momentum_operator.entries
        assert frobenius_norm(p - p.conj().T) <= 1e-13

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            make_pointer_grid(0, 1.0)

    def test_invalid_spacing_rejected(self):
        with pytest.raises(ValueError):
            make_pointer_grid(2, 0.0)

    def test_grid_symmetry(self):
        grid = make_pointer_grid(5, 0.3)
        assert np.allclose(grid.zeta, -grid.zeta[::-1])
        assert np.allclose(grid.momenta, -grid.momenta[::-1])


class TestObservableSpec:
    def test_system_dim(self):
        assert ObservableSpec((1.0, 0.0, -1.0), degeneracy=2).system_dim == 6

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            ObservableSpec((1.0, 1.0))

    def test_symmetric_spectrum_flag(self):
        assert ObservableSpec((1.0, -1.0)).has_symmetric_spectrum()
        assert ObservableSpec((1.0, 0.0, -1.0)).has_symmetric_spectrum()
        assert not ObservableSpec((1.0, 2.0)).has_symmetric_spectrum()

    def test_negation_index(self):
        observable = ObservableSpec((1.0, 0.0, -1.0))
        assert list(observable.negation_index()) == [2, 1, 0]

    def test_negation_index_requires_symmetry(self):
        with pytest.raises(ValueError, match="negation"):
            ObservableSpec((1.0, 2.0)).negation_index()

    def test_operator_ordering(self):
        observable = ObservableSpec((3.0, -3.0), degeneracy=2)
        assert np.array_equal(observable.values(), [3, 3, -3, -3])


class TestTranslation:
    def test_zero_steps_is_identity(self):
        grid = make_pointer_grid(4, 0.5)
        assert np.allclose(translation_map(grid, 0).entries, np.eye(grid.n_points), atol=1e-13)

    def test_single_step_moves_center(self):
        grid = make_pointer_grid(4, 0.5)
        moved = translation_map(grid, 1) @ pointer_basis_state(grid, 4)
        target = pointer_basis_state(grid, 5)
        fidelity = abs(np.vdot(target.amplitudes, moved.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-12

    @pytest.mark.parametrize("steps", [1, 3, -2])
    def test_matches_cyclic_permutation(self, steps):
        grid = make_pointer_grid(5, 0.4)
        expected = cyclic_shift_matrix(grid.n_points, steps)
        assert frobenius_norm(translation_map(grid, steps).entries - expected) <= 1e-10

    def test_translation_unitary(self):
        grid = make_pointer_grid(6, 0.3)
        assert unitarity_defect(translation_map(grid, 2)) <= 1e-12


class TestInteractionHamiltonian:
    def test_zero_coupling(self):
        setup = qubit_setup(coupling=0.0)
        assert frobenius_norm(interaction_hamiltonian(setup).entries) == 0.0

    def test_spectrum_matches_product_enumeration(self):
        setup = qubit_setup(half_width=2, spacing=1.0)
        h = interaction_hamiltonian(setup)
        eigenvalues = np.sort(np.linalg.eigvalsh(h.entries))
        products = np.sort(
            [-setup.coupling * lam * p for lam in (1.0, -1.0) for p in setup.grid.momenta]
        )
        assert np.allclose(eigenvalues, products, atol=1e-12)

    def test_diagonal_in_momentum_basis(self):
        # on a system eigenvector paired with a momentum eigenvector the
        # Hamiltonian acts as the scalar -g*lambda*p
        setup = qubit_setup(half_width=3, spacing=0.5, coupling=0.7)
        grid = setup.grid
        h = interaction_hamiltonian(setup).entries
        j = 5  # momentum index
        momentum_vec = grid.fourier.conj().T[:, j]
        state = np.kron([1.0, 0.0], momentum_vec)  # lambda = +1 branch
        expected = -setup.coupling * 1.0 * grid.momenta[j] * state
        assert np.linalg.norm(h @ state - expected) <= 1e-12

    def test_dimension_guard(self):
        # 242 system states x 17 grid points = 4114 > MAX_TOTAL_DIM
        observable = ObservableSpec((1.0, -1.0), degeneracy=121)
        setup = MeasurementSetup(observable, make_pointer_grid(8, 0.25), 1.0, 1.0)
        assert setup.total_dim > MAX_TOTAL_DIM
        with pytest.raises(DimensionError, match="dense cap"):
            interaction_hamiltonian(setup)

    def test_hermitian(self):
        assert interaction_hamiltonian(qubit_setup()).kind == "hermitian"


class TestEvolve:
    def test_time_zero_leaves_state(self):
        setup = qubit_setup()
        state = ready_state(setup, system_basis_state(setup.observable, 0))
        assert vector_distance(evolve(setup, state, 0.0), state) <= 1e-12

    @pytest.mark.parametrize("eig_index,shift", [(0, -4), (1, 4)])
    def test_on_grid_branch_translation(self, eig_index, shift):
        # g*t*lambda = 1 = 4 grid steps; the pointer moves by -g*t*lambda
        setup = qubit_setup(half_width=8, spacing=0.25)
        state = ready_state(setup, system_basis_state(setup.observable, eig_index))
        evolved = evolve(setup, state, 1.0)
        center = setup.grid.half_width
        target = tensor_product(
            system_basis_state(setup.observable, eig_index),
            pointer_basis_state(setup.grid, center + shift),
        )
        fidelity = abs(np.vdot(target.amplitudes, evolved.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-10

    def test_norm_preserved(self):
        setup = qubit_setup()
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(setup.total_dim) + 1j * rng.standard_normal(setup.total_dim)
        state = ComplexVector(raw / np.linalg.norm(raw))
        for t in (0.1, 0.37, 0.5, 1.0):
            assert abs(evolve(setup, state, t).norm() - 1.0) <= 1e-12

    def test_composition(self):
        setup = qubit_setup()
        state = ready_state(setup, system_basis_state(setup.observable, 0))
        two_step = evolve(setup, evolve(setup, state, 0.3), 0.45)
        one_step = evolve(setup, state, 0.75)
        assert vector_distance(two_step, one_step) <= 1e-10

    def test_time_domain_enforced(self):
        setup = qubit_setup()
        state = ready_state(setup, system_basis_state(setup.observable, 0))
        with pytest.raises(ValueError):
            evolve(setup, state, -0.1)
        with pytest.raises(ValueError):
            evolve(setup, state, setup.duration + 0.1)

    def test_dim_mismatch(self):
        setup = qubit_setup()
        with pytest.raises(DimensionError):
            evolve(setup, basis_vector(3, 0), 0.5)


class TestReadout:
    def test_pure_branch(self):
        setup = qubit_setup()
        # pointer parked at zeta = -g*T = -1, i.e. 4 steps left of center
        state = tensor_product(
            system_basis_state(setup.observable, 0),
            pointer_basis_state(setup.grid, setup.grid.half_width - 4),
        )
        table = readout(state, setup)
        assert table[0].eigenvalue == 1.0
        assert table[0].probability == pytest.approx(1.0, abs=1e-12)
        assert table[0].inferred_outcome == pytest.approx(1.0, abs=1e-9)
        assert table[1].probability == pytest.approx(0.0, abs=1e-12)
        assert table[1].pointer_mean is None
        assert table[1].inferred_outcome is None

    def test_equal_superposition(self):
        setup = qubit_setup()
        system = ComplexVector(np.array([1.0, 1.0]) / np.sqrt(2))
        state = evolve(setup, ready_state(setup, system), setup.duration)
        table = readout(state, setup)
        assert table[0].probability == pytest.approx(0.5, abs=1e-10)
        assert table[1].probability == pytest.approx(0.5, abs=1e-10)

    def test_branch_pointer_mean(self):
        setup = qubit_setup()
        state = ready_state(setup, system_basis_state(setup.observable, 0))
        evolved = evolve(setup, state, setup.duration)
        table = readout(evolved, setup)
        assert table[0].pointer_mean == pytest.approx(-1.0, abs=1e-9)
        assert table[0].inferred_outcome == pytest.approx(1.0, abs=1e-9)

    def test_zero_coupling_has_undefined_inference(self):
        setup = qubit_setup(coupling=0.0)
        state = ready_state(setup, system_basis_state(setup.observable, 0))
        table = readout(state, setup)
        assert table[0].pointer_mean == pytest.approx(0.0, abs=1e-12)
        assert table[0].inferred_outcome is None

    def test_degenerate_observable(self):
        grid = make_pointer_grid(4, 0.5)
        observable = ObservableSpec((2.0, -2.0), degeneracy=2)
        setup = MeasurementSetup(observable, grid, 0.5, 1.0)
        system = ComplexVector(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))
        table = readout(ready_state(setup, system), setup)
        assert table[0].probability == pytest.approx(1.0, abs=1e-12)


class TestCcrCaveat:
    def test_traces_cannot_match(self):
        grid = make_pointer_grid(6, 0.5)
        z = np.diag(grid.zeta)
        p = grid.momentum_operator.entries
        commutator_trace = np.trace(z @ p - p @ z)
        identity_trace = 1j * grid.hbar * grid.n_points
        assert abs(commutator_trace) <= 1e-12
        assert abs(identity_trace) == grid.n_points

    def test_defect_decreases_under_refinement(self):
        # smooth state supported in the central half of the grid; the defect
        # norm must fall as the grid refines (fixed test state width)
        defects = []
        for half_width in (4, 8, 16, 32):
            n = 2 * half_width + 1
            grid = make_pointer_grid(half_width, 3.0 / np.sqrt(n))
            defects.append(ccr_defect(grid, gaussian_pointer_state(grid, 1.0)))
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[-1] < 1e-6 * defects[0]


class TestSetupValidation:
    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            qubit_setup(coupling=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            qubit_setup(duration=0.0)

    def test_total_dim(self):
        assert qubit_setup(half_width=8).total_dim == 34
