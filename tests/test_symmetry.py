import itertools
from dataclasses import replace

import numpy as np
import pytest

from swaplab import linalg, symmetry
from swaplab.isomorphism import EvolutionTriple, check_isomorphism
from swaplab.linalg import (
    Spectrum,
    frobenius_norm,
    hermitian_exponential,
    permutation_inverse,
    tensor_product,
    unitarity_defect,
)
from swaplab.measurement import (
    Factor,
    MeasurementSetup,
    ObservableSpec,
    evolved_ready,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_basis_state,
    pointer_spectrum,
    ready_state,
    system_basis_state,
)
from swaplab.symmetry import (
    SAMPLE_FRACTIONS,
    GeometricDiagonalModel,
    certify_lemma1,
    certify_lemma2,
    corrupted_swap,
    locate_eigenvalue,
    parity_swap,
    scaling_factor,
    scaling_permutation,
)

from dense_reference import RESIDUAL_BOUNDS, dft_matrix, parity_swap_momentum
from test_linalg import permutation_matrix

SWAP_BOUND = RESIDUAL_BOUNDS["swap_residual"]


def qubit_setup(half_width=8, spacing=0.25, coupling=1.0, duration=1.0):
    grid = make_pointer_grid(half_width, spacing)
    return MeasurementSetup(ObservableSpec((1.0, -1.0)), grid, coupling, duration)


def bare_factor(weights, perm, hbar=1.0):
    """A factor with only what ``_spectral_certificate`` reads: the diagonal
    spectrum ``weights``, the swap ``perm`` and hbar."""
    perm = np.asarray(perm)
    inverse = permutation_inverse(perm, perm.size)
    return Factor(Spectrum(weights), perm, inverse, 1, np.ones(1), (0, 1), "ab", (), hbar)


def start_row(factor, ket):
    """e_ket (x) ready as a flat amplitude array: the factor's start row of ``ket``."""
    state = np.zeros((factor.spectrum.dim // factor.block, factor.block), dtype=complex)
    state[ket] = factor.ready
    return state.reshape(-1)


def circulant_columns(spectrum, t, hbar):
    """First columns of the pointer blocks of exp(-i H t / hbar) for a
    centred-DFT spectrum, one row per block. Each block is circulant, so its
    first column, the evolved first basis vector of the block, fixes it."""
    n_points = spectrum.dft_size
    starts = np.zeros((spectrum.dim // n_points, n_points), dtype=complex)
    starts[:, 0] = 1.0
    return spectrum.evolve(starts.reshape(-1), t, hbar).reshape(starts.shape)


def circulant_swap_residual(setup, perm):
    """Lemma 1's swap residual from circulant columns, an oracle independent
    of the summed ready kets: U(T) ready(s) is block s's evolved first column,
    rotated to the pointer centre, in an otherwise zero state."""
    observable, grid = setup.observable, setup.grid
    columns = circulant_columns(pointer_spectrum(setup), setup.duration, grid.hbar)
    inverse = linalg.permutation_inverse(perm, setup.total_dim)

    def evolved_ready_ket(system_index):
        state = np.zeros(columns.shape, dtype=complex)
        state[system_index] = np.roll(columns[system_index], grid.center_index)
        return state.reshape(-1)

    negation = observable.negation_index()
    residuals = []
    for i in range(observable.n_eigenvalues):
        for a in range(observable.degeneracy):
            lhs = evolved_ready_ket(observable.system_index(i, a))[inverse]
            rhs = evolved_ready_ket(observable.system_index(int(negation[i]), a))
            residuals.append(np.linalg.norm(lhs - rhs))
    return float(np.max(residuals))


def dense_evolution(setup, t):
    """exp(-i H t / hbar) from the dense eigendecomposition of the dense H."""
    return hermitian_exponential(interaction_hamiltonian(setup), t / setup.grid.hbar)


def basis_ket(setup, eig_index, label, grid_index):
    return tensor_product(
        system_basis_state(setup.observable, eig_index, label),
        pointer_basis_state(setup.grid, grid_index),
    )


class TestParitySwap:
    def test_defining_action(self):
        # (lambda=+1, zeta=+1) must go to (lambda=-1, zeta=-1)
        setup = qubit_setup(half_width=2, spacing=1.0)
        swap = permutation_matrix(parity_swap(setup))
        start = basis_ket(setup, 0, 0, setup.grid.center_index + 1)
        target = basis_ket(setup, 1, 0, setup.grid.center_index - 1)
        assert np.linalg.norm((swap @ start).amplitudes - target.amplitudes) == 0.0

    def test_center_is_parity_fixed(self):
        setup = qubit_setup(half_width=2, spacing=1.0)
        swap = permutation_matrix(parity_swap(setup))
        start = basis_ket(setup, 0, 0, setup.grid.center_index)
        target = basis_ket(setup, 1, 0, setup.grid.center_index)
        assert np.linalg.norm((swap @ start).amplitudes - target.amplitudes) == 0.0

    def test_involution_as_permutation(self):
        setup = qubit_setup(half_width=3)
        perm = parity_swap(setup)
        assert np.array_equal(perm[perm], np.arange(setup.total_dim))

    def test_involution_as_matrix(self):
        setup = qubit_setup(half_width=3)
        swap = permutation_matrix(parity_swap(setup))
        assert np.array_equal((swap @ swap).entries, np.eye(setup.total_dim))

    def test_degeneracy_label_preserved(self):
        grid = make_pointer_grid(2, 0.5)
        setup = MeasurementSetup(ObservableSpec((1.0, -1.0), degeneracy=2), grid, 1.0, 1.0)
        swap = permutation_matrix(parity_swap(setup))
        start = basis_ket(setup, 0, 1, 0)
        target = basis_ket(setup, 1, 1, grid.n_points - 1)
        assert np.linalg.norm((swap @ start).amplitudes - target.amplitudes) == 0.0

    def test_zero_eigenvalue_fixed_sector(self):
        grid = make_pointer_grid(2, 0.5)
        setup = MeasurementSetup(ObservableSpec((1.0, 0.0, -1.0)), grid, 1.0, 1.0)
        swap = permutation_matrix(parity_swap(setup))
        start = basis_ket(setup, 1, 0, grid.center_index + 2)
        target = basis_ket(setup, 1, 0, grid.center_index - 2)
        assert np.linalg.norm((swap @ start).amplitudes - target.amplitudes) == 0.0

    def test_asymmetric_spectrum_rejected(self):
        grid = make_pointer_grid(2, 0.5)
        setup = MeasurementSetup(ObservableSpec((1.0, 2.0)), grid, 1.0, 1.0)
        with pytest.raises(ValueError, match="negation"):
            parity_swap(setup)

    def test_commutes_with_hamiltonian(self):
        setup = qubit_setup()
        h = interaction_hamiltonian(setup).entries
        swap = permutation_matrix(parity_swap(setup)).entries
        assert frobenius_norm(h @ swap - swap @ h) <= 1e-12 * frobenius_norm(h)


class TestMomentumConstruction:
    def test_momentum_index_action(self):
        # in the momentum representation the swap is (lambda, p_j) -> (-lambda, p_-j)
        setup = qubit_setup(half_width=2, spacing=1.0)
        grid = setup.grid
        swap = parity_swap_momentum(setup)
        j = 3  # momentum column index, p_j = momenta[3]
        synthesis = dft_matrix(grid.half_width).conj().T
        start = np.kron([1.0, 0.0], synthesis[:, j])
        mirrored = synthesis[:, grid.n_points - 1 - j]
        target = np.kron([0.0, 1.0], mirrored)
        assert np.linalg.norm(swap.entries @ start - target) <= 1e-12

    def test_position_action_recovered(self):
        setup = qubit_setup(half_width=3, spacing=0.5)
        swap = parity_swap_momentum(setup)
        start = basis_ket(setup, 0, 0, setup.grid.center_index + 2)
        target = basis_ket(setup, 1, 0, setup.grid.center_index - 2)
        assert np.linalg.norm((swap @ start).amplitudes - target.amplitudes) <= 1e-12

    def test_matches_position_construction(self):
        setup = qubit_setup()
        swap = permutation_matrix(parity_swap(setup))
        assert np.linalg.norm(swap.entries - parity_swap_momentum(setup).entries) <= 1e-10


class TestCertifyLemma1:
    def test_desk_scale_pass(self):
        certificate = certify_lemma1(qubit_setup())
        assert certificate.passed
        assert certificate.construction == "position-basis"
        assert certificate.commutator_residual <= 1e-10
        assert certificate.unitarity_defect <= 1e-10
        assert certificate.swap_residual <= 1e-10
        assert certificate.intertwining_residual <= 1e-10
        assert certificate.cross_construction_distance <= 1e-10

    def test_zero_coupling_pass(self):
        assert certify_lemma1(qubit_setup(coupling=0.0)).passed

    def test_corrupted_swap_fails(self):
        setup = qubit_setup()
        certificate = certify_lemma1(setup, swap=corrupted_swap(setup))
        assert not certificate.passed
        assert certificate.swap_residual > 0.1

    def test_momentum_swap_certifies(self):
        # the dense momentum twin's own lemma-1 residuals: certify_lemma1 takes
        # index arrays only, and the twin is a dense operator
        setup = qubit_setup()
        twin = parity_swap_momentum(setup)
        h = interaction_hamiltonian(setup).entries
        assert frobenius_norm(h @ twin.entries - twin.entries @ h) <= 1e-10 * frobenius_norm(h)
        u = dense_evolution(setup, setup.duration)
        plus = ready_state(setup, system_basis_state(setup.observable, 0))
        minus = ready_state(setup, system_basis_state(setup.observable, 1))
        assert np.linalg.norm((twin @ (u @ plus)).amplitudes - (u @ minus).amplitudes) <= 1e-10
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            u = dense_evolution(setup, fraction * setup.duration)
            assert frobenius_norm(u.entries @ twin.entries - twin.entries @ u.entries) <= 1e-10

    def test_intertwining_at_sampled_times(self):
        setup = qubit_setup()
        swap = permutation_matrix(parity_swap(setup))
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            u = dense_evolution(setup, fraction * setup.duration)
            assert frobenius_norm(u.entries @ swap.entries - swap.entries @ u.entries) <= 1e-10

    def test_tolerances_configurable(self):
        # one tolerance bounds every residual; the cross-construction carries
        # FFT rounding (about 1e-15), so a healthy swap fails at 1e-30
        certificate = certify_lemma1(qubit_setup(), tol=1e-30)
        assert certificate.cross_construction_distance > 1e-30
        assert not certificate.passed

    def test_nan_residual_fails(self, monkeypatch):
        # max() would drop a NaN that is not its first argument
        monkeypatch.setattr(symmetry, "_cross_construction", lambda spectrum, factor: np.nan)
        certificate = certify_lemma1(qubit_setup())
        assert np.isnan(certificate.cross_construction_distance)
        assert not certificate.passed

    def test_nan_swap_residual_fails(self, monkeypatch):
        # a NaN in the last branch's evolved ready state; max() from 0.0
        # would drop it
        def nan_last_block(factor, times, kets=None):
            for rows in evolved_ready(factor, times, kets):
                rows[-1] = np.nan
                yield rows

        monkeypatch.setattr(symmetry, "evolved_ready", nan_last_block)
        certificate = certify_lemma1(qubit_setup())
        assert np.isnan(certificate.swap_residual)
        assert not certificate.passed

    @pytest.mark.parametrize("eigenvalues", [(1.0, -1.0), (2.0, 1.0, -1.0, -2.0)])
    @pytest.mark.parametrize("half_width", [8, 40])
    def test_swap_residual_matches_circulant_columns(self, eigenvalues, half_width):
        # the summed-ready-ket evolution against the circulant-column oracle,
        # with two degeneracy labels per eigenvalue
        grid = make_pointer_grid(half_width, 0.25)
        setup = MeasurementSetup(ObservableSpec(eigenvalues, degeneracy=2), grid, 0.3, 1.0)
        certificate = certify_lemma1(setup)
        assert certificate.passed
        oracle = circulant_swap_residual(setup, parity_swap(setup))
        assert abs(certificate.swap_residual - oracle) <= 1e-15
        corrupted = corrupted_swap(setup)
        residual = certify_lemma1(setup, swap=corrupted).swap_residual
        assert abs(residual - circulant_swap_residual(setup, corrupted)) <= 1e-15

    def test_nan_intertwining_residual_fails(self):
        # the drift (2, -2, 0, 0) is finite, but its angle 1e300 / 1e-10
        # overflows at the second sample time only, so the NaN is not first
        with np.errstate(over="ignore", invalid="ignore"):
            factor = bare_factor([1.0, 3.0, 2.0, 2.0], [1, 0, 3, 2], hbar=1e-10)
            certificate = symmetry._spectral_certificate(
                "custom", factor, (0.0, 1e300), 0.0, None, 1.0
            )
        assert certificate.commutator_residual <= 1.0
        assert np.isnan(certificate.intertwining_residual)
        assert not certificate.passed

    def test_swap_maps_evolved_branches(self):
        setup = qubit_setup()
        swap = permutation_matrix(parity_swap(setup))
        u = dense_evolution(setup, setup.duration)
        plus = ready_state(setup, system_basis_state(setup.observable, 0))
        minus = ready_state(setup, system_basis_state(setup.observable, 1))
        assert np.linalg.norm((swap @ (u @ plus)).amplitudes - (u @ minus).amplitudes) <= 1e-10


def diagonal_model(ratio=2.0, span=4, degeneracy=1):
    return GeometricDiagonalModel(
        ratio=ratio,
        exponent_min=-span,
        exponent_max=span,
        degeneracy=degeneracy,
    )


class TestGeometricDiagonalModel:
    def test_dimension(self):
        model = diagonal_model(span=2, degeneracy=2)
        # system: 2 signs * 5 exponents * 2 labels; pointer: 2 signs * 5 exponents
        assert model.dim == 20 * 10

    def test_hamiltonian_is_diagonal(self):
        # the evolution moves no amplitude between basis kets
        model = diagonal_model(span=2)
        u = Spectrum(model.diagonal_weights()).evolve(np.eye(model.dim), 0.7)
        assert np.count_nonzero(u - np.diag(np.diagonal(u))) == 0

    def test_eigenvalue_set(self):
        model = diagonal_model(ratio=3.0, span=1)
        values = sorted(model.a_eigenvalues)
        assert values == sorted([s * 3.0**m for s in (1, -1) for m in (-1, 0, 1)])

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            diagonal_model(ratio=-2.0)

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            GeometricDiagonalModel(ratio=2.0, exponent_min=-1, exponent_max=1, base_eigenvalue=0.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"exponent_min": 2}, "exponent_min must not exceed"),
            ({"degeneracy": 0}, "degeneracy must be"),
            ({"hbar": 0.0}, "hbar must be positive"),
        ],
    )
    def test_invalid_parameters_rejected(self, overrides, message):
        parameters = {"ratio": 2.0, "exponent_min": -1, "exponent_max": 1, **overrides}
        with pytest.raises(ValueError, match=message):
            GeometricDiagonalModel(**parameters)


class TestScalingSwap:
    def test_index_shift_preserves_weight(self):
        # (lambda=1, p=4) -> (lambda=2, p=2) keeps the -g*lambda*p weight
        model = diagonal_model(ratio=2.0, span=2)
        h = model.diagonal_weights()
        perm = scaling_permutation(model)
        before = model.basis_index(0, 2, 0, 0, 4)  # lambda = 2^0, p = 2^2
        after = perm[before]
        assert after == model.basis_index(0, 3, 0, 0, 3)  # lambda = 2^1, p = 2^1
        assert h[before] == h[after]
        assert h[before] == -1.0 * 1.0 * 4.0  # -g * lambda * p

    def test_ratio_one_is_identity(self):
        model = diagonal_model(ratio=1.0, span=2)
        assert np.array_equal(scaling_permutation(model), np.arange(model.dim))

    def test_commutator_exactly_zero(self):
        model = diagonal_model(ratio=2.0, span=4)
        h = np.diag(model.diagonal_weights())
        swap = permutation_matrix(scaling_permutation(model)).entries
        assert frobenius_norm(h @ swap - swap @ h) == 0.0

    def test_permutation_bijective(self):
        model = diagonal_model(ratio=1.5, span=3, degeneracy=2)
        perm = scaling_permutation(model)
        assert sorted(perm) == list(range(model.dim))

    def test_swap_unitary(self):
        model = diagonal_model(span=2)
        assert unitarity_defect(permutation_matrix(scaling_permutation(model))) == 0.0


class TestCertifyLemma2:
    def test_pass_with_exact_commutation(self):
        certificate = certify_lemma2(diagonal_model(ratio=2.0, span=4), 1.0, 2.0)
        assert certificate.passed
        assert certificate.construction == "scaling"
        assert certificate.commutator_residual == 0.0
        assert certificate.unitarity_defect == 0.0
        assert certificate.swap_residual == 0.0

    def test_every_degeneracy_label(self):
        certificate = certify_lemma2(diagonal_model(ratio=2.0, span=4, degeneracy=3), 1.0, 2.0)
        assert certificate.passed

    def test_negative_sector_pair(self):
        certificate = certify_lemma2(diagonal_model(ratio=2.0, span=4), -1.0, -2.0)
        assert certificate.passed

    def test_equal_eigenvalues_yield_identity_note(self):
        certificate = certify_lemma2(diagonal_model(ratio=2.0, span=4), 2.0, 2.0)
        assert certificate.passed
        assert "identity" in certificate.note

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            certify_lemma2(diagonal_model(), 0.0, 2.0)

    def test_ratio_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            certify_lemma2(diagonal_model(ratio=2.0), 1.0, 8.0)

    @pytest.mark.parametrize(
        "lambda1, lambda2, span, sectors",
        [
            # rungs 0.9999999995, 1 and 1.0000000005: all within 1e-9 of 1.0
            (1.0, 1.0000000005, 1, ((0, 1), (0, 2))),
            # rungs 2e-16 apart: all five within 1e-9 of either outcome
            (1.9999999999999998, 2.0, 2, ((0, 2), (0, 3))),
        ],
    )
    def test_outcomes_sit_on_their_nearest_rungs(self, lambda1, lambda2, span, sectors):
        model = GeometricDiagonalModel(lambda2 / lambda1, -span, span, base_eigenvalue=lambda1)
        assert (locate_eigenvalue(model, lambda1), locate_eigenvalue(model, lambda2)) == sectors
        certificate = certify_lemma2(model, lambda1, lambda2)
        assert certificate.swap_residual == 0.0
        assert certificate.passed

    def test_outcome_off_a_rung_rejected(self):
        # 1e-7 relative off the rung 2.0: past the lookup's 1e-9 reach
        model = diagonal_model(ratio=2.0, span=1)
        assert locate_eigenvalue(model, 2.0) == (0, 2)
        with pytest.raises(ValueError, match="not an eigenvalue"):
            locate_eigenvalue(model, 2.0 * (1 + 1e-7))

    def test_rungs_two_apart_fail_the_ratio_check(self):
        # both outcomes are rungs of the ratio-1.0001 ladder, but their
        # ratio is 1.0001^2, 1e-4 off the model ratio
        model = GeometricDiagonalModel(1.0001, -2, 2)
        rung = {m: model.a_eigenvalues[m] for m in (2, 4)}  # exponents 0 and 2
        with pytest.raises(ValueError, match="does not match the model ratio"):
            certify_lemma2(model, rung[2], rung[4])

    def test_unknown_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            certify_lemma2(diagonal_model(ratio=2.0, span=1), 0.7, 1.4)

    def test_swap_scrambled_inside_a_target_sector_fails(self):
        # two label-0 sources exchange their targets: still a bijection, and
        # every sector keeps its norm, so only the index-level map sees it
        model = diagonal_model(ratio=2.0, span=4)
        factor = scaling_factor(model, 1.0, 2.0)
        sign, m = locate_eigenvalue(model, 1.0)
        first, second = model.basis_indices()[sign, m, 0, 0, :2]
        swap = factor.swap.copy()
        swap[[first, second]] = swap[[second, first]]
        scrambled = replace(factor, swap=swap, inverse=permutation_inverse(swap, model.dim))
        certificate = certify_lemma2(model, 1.0, 2.0, factor=scrambled)
        assert certificate.swap_residual == 1.0
        assert not certificate.passed

    def test_normalization_note_present(self):
        certificate = certify_lemma2(diagonal_model(), 1.0, 2.0)
        assert "orthonormal" in certificate.note


# Loop constructions that the vectorized index maps replaced, kept as oracles.


def parity_swap_loops(setup):
    observable, grid = setup.observable, setup.grid
    negation = observable.negation_index()
    n = grid.n_points
    d = observable.degeneracy
    perm = np.empty(setup.total_dim, dtype=int)
    for i in range(observable.n_eigenvalues):
        for a in range(d):
            src = (i * d + a) * n
            dst = (negation[i] * d + a) * n
            for gi in range(n):
                perm[src + gi] = dst + (n - 1 - gi)
    return perm


def scaling_permutation_loops(model):
    if model.ratio == 1.0:
        return np.arange(model.dim)
    length = model.cycle_length
    perm = np.empty(model.dim, dtype=int)
    for sign_sys in range(2):
        for m in range(length):
            for label in range(model.degeneracy):
                for sign_p in range(2):
                    for k in range(length):
                        src = model.basis_index(sign_sys, m, label, sign_p, k)
                        perm[src] = model.basis_index(
                            sign_sys, (m + 1) % length, label, sign_p, (k - 1) % length
                        )
    return perm


def diagonal_weights_loops(model):
    length = model.cycle_length
    powers = model.powers
    scale = model.coupling * model.base_eigenvalue
    weights = np.empty(model.dim)
    for sign_sys, sig_s in enumerate((1.0, -1.0)):
        for m in range(length):
            for label in range(model.degeneracy):
                for sign_p, sig_p in enumerate((1.0, -1.0)):
                    for k in range(length):
                        reduced = (model.exponent_min + m + k) % length
                        weights[model.basis_index(sign_sys, m, label, sign_p, k)] = (
                            -scale * sig_s * sig_p * powers[reduced]
                        )
    return weights


def sector_state_loops(model, sign_idx, m_idx, label):
    state = np.zeros(model.dim, dtype=complex)
    for sign_p in range(2):
        for kk in range(model.cycle_length):
            state[model.basis_index(sign_idx, m_idx, label, sign_p, kk)] = 1.0
    return state / np.linalg.norm(state)


ORACLE_MODELS = (
    GeometricDiagonalModel(ratio=2.0, exponent_min=-4, exponent_max=4),
    GeometricDiagonalModel(ratio=1.5, exponent_min=-3, exponent_max=3, degeneracy=2),
    GeometricDiagonalModel(
        ratio=0.3, exponent_min=-1, exponent_max=3, base_eigenvalue=0.7,
        coupling=0.9, degeneracy=3,
    ),
)


class TestLoopOracles:
    @pytest.mark.parametrize(
        "degeneracy, eigenvalues", [(1, (1.0, -1.0)), (2, (1.0, -1.0)), (1, (2.0, 0.0, -2.0))]
    )
    def test_parity_swap(self, degeneracy, eigenvalues):
        setup = MeasurementSetup(
            ObservableSpec(eigenvalues, degeneracy), make_pointer_grid(4, 0.5), 1.0, 1.0
        )
        assert np.array_equal(parity_swap(setup), parity_swap_loops(setup))

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_scaling_permutation(self, model):
        assert np.array_equal(scaling_permutation(model), scaling_permutation_loops(model))

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_diagonal_weights_bitwise(self, model):
        weights = model.diagonal_weights()
        assert weights.tobytes() == diagonal_weights_loops(model).tobytes()
        assert np.array_equal(weights[scaling_permutation(model)], weights)

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_sector_states(self, model):
        # the ladder factor's start row of every system ket (sign, m, label)
        factor = scaling_factor(model, *model.a_eigenvalues[:2])
        for sign in range(2):
            for m in range(model.cycle_length):
                for label in range(model.degeneracy):
                    ket = model.degeneracy * (sign * model.cycle_length + m) + label
                    expected = sector_state_loops(model, sign, m, label)
                    assert np.array_equal(start_row(factor, ket), expected)


class TestLevelTable:
    @pytest.mark.parametrize("span", [1, 2, 5, 12])
    def test_weights_and_phases_bitwise(self, span):
        # the level table against the loop oracle's weights, values and sign
        # bits (g = 0 gives -0.0 where the two signs agree), and the gathered
        # phases against exponentiating every weight
        times = (0.0, 0.3, 1.0, 2.5, 17.0)
        for ratio, coupling, degeneracy, hbar in itertools.product(
            (2.0, 1.01, 7.0, 0.5, 1.0), (1.0, 0.0, 0.3, 1e-300), (1, 2), (1.0, 0.7)
        ):
            model = GeometricDiagonalModel(
                ratio, -span, span, coupling=coupling, degeneracy=degeneracy, hbar=hbar
            )
            spectrum = model.spectrum()
            assert spectrum.levels.size == 2 * model.cycle_length
            oracle = diagonal_weights_loops(model)
            assert np.array_equal(spectrum.weights, oracle)
            assert np.array_equal(np.signbit(spectrum.weights), np.signbit(oracle))
            assert np.array_equal(model.diagonal_weights(), oracle)
            for t in times:
                direct = np.exp(-1j * oracle * t / hbar)
                assert spectrum.phases(t, hbar).tobytes() == direct.tobytes()


def dense_lemma1(setup, perm):
    """certify_lemma1's residuals from dense permutation-matrix products in the
    position basis, and the dense momentum twin's distance to the swap."""
    swap = permutation_matrix(perm)
    s = swap.entries
    h = interaction_hamiltonian(setup).entries
    observable = setup.observable
    negation = observable.negation_index()
    final = dense_evolution(setup, setup.duration).entries
    swap_residual = 0.0
    for i in range(observable.n_eigenvalues):
        for a in range(observable.degeneracy):
            source = ready_state(setup, system_basis_state(observable, i, a)).amplitudes
            mirror = ready_state(
                setup, system_basis_state(observable, int(negation[i]), a)
            ).amplitudes
            deviation = s @ (final @ source) - final @ mirror
            swap_residual = max(swap_residual, float(np.linalg.norm(deviation)))
    intertwining = 0.0
    for fraction in SAMPLE_FRACTIONS:
        u = dense_evolution(setup, fraction * setup.duration).entries
        intertwining = max(intertwining, frobenius_norm(u @ s - s @ u))
    return {
        "commutator_residual": frobenius_norm(h @ s - s @ h) / frobenius_norm(h),
        "unitarity_defect": unitarity_defect(swap),
        "swap_residual": swap_residual,
        "intertwining_residual": intertwining,
        "momentum_twin_distance": frobenius_norm(
            swap.entries - parity_swap_momentum(setup).entries
        ),
    }


def rendered_cross(setup, tau, columns=None):
    """sqrt(system_dim) |(tau - W^dag tau W) P|_F, with W^dag tau W rendered
    from the N x N identity's ``columns`` (all of them by default) by
    np.fft's own centring shifts, and each column's squares summed down the
    column."""
    identity = np.eye(tau.size, dtype=complex)
    if columns is not None:
        identity = identity[:, columns]
    momentum = np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(identity, axes=0), axis=0, norm="ortho"), axes=0
    )
    twin = np.fft.fftshift(
        np.fft.ifft(np.fft.ifftshift(momentum[tau], axes=0), axis=0, norm="ortho"), axes=0
    )
    deviation = identity[tau] - twin
    squares = (deviation.real**2 + deviation.imag**2).sum(axis=0)
    return float(np.sqrt(setup.observable.system_dim * squares.sum()))


def probe_columns(setup):
    """The cross-construction's probe: the pointer centre and its neighbours."""
    return setup.grid.center_index + np.arange(-1, 2)


def dense_lemma2(model, eigenvalue_from, eigenvalue_to, sample_times=(0.0, 0.5, 1.0)):
    """certify_lemma2's residuals from dense permutation-matrix products and
    the index loops it used to run."""
    perm = scaling_permutation_loops(model)
    swap = permutation_matrix(perm)
    s = swap.entries
    h = np.diag(model.diagonal_weights())
    sign_from, m_from = locate_eigenvalue(model, eigenvalue_from)
    sign_to, m_to = locate_eigenvalue(model, eigenvalue_to)
    length = model.cycle_length
    weights = diagonal_weights_loops(model)
    mapping_exact = all(
        perm[model.basis_index(sign_from, m_from, label, sign_p, k)]
        == model.basis_index(sign_to, m_to, label, sign_p, (k - 1) % length)
        for label in range(model.degeneracy)
        for sign_p in range(2)
        for k in range(length)
    )
    swap_residual = 0.0 if mapping_exact else 1.0
    intertwining = 0.0
    for label in range(model.degeneracy):
        source = np.zeros(model.dim, dtype=complex)
        for sign_p in range(2):
            for k in range(length):
                source[model.basis_index(sign_from, m_from, label, sign_p, k)] = 1.0
        source /= np.linalg.norm(source)
        mapped = s @ source
        target_indices = [
            model.basis_index(sign_to, m_to, label, sign_p, k)
            for sign_p in range(2)
            for k in range(length)
        ]
        swap_residual = max(
            swap_residual, abs(1.0 - float(np.linalg.norm(mapped[target_indices])))
        )
        for t in sample_times:
            phases = np.exp(-1j * weights * t / model.hbar)
            deviation = s @ (phases * source) - phases * mapped
            intertwining = max(intertwining, float(np.linalg.norm(deviation)))
    return {
        "commutator_residual": frobenius_norm(h @ s - s @ h) / frobenius_norm(h),
        "unitarity_defect": unitarity_defect(swap),
        "swap_residual": swap_residual,
        "intertwining_residual": intertwining,
    }


def dense_triples(setup):
    """The two outcome worlds with the dense H."""
    hamiltonian = interaction_hamiltonian(setup)
    starts = [ready_state(setup, system_basis_state(setup.observable, s)) for s in (0, 1)]
    return [EvolutionTriple(hamiltonian, start, SAMPLE_FRACTIONS) for start in starts]


class TestDenseOracle:
    """Residuals read off the spectrum against dense permutation-matrix products."""

    @pytest.mark.parametrize("half_width", [1, 8, 50])
    @pytest.mark.parametrize("kind", ["parity", "corrupted", "random"])
    def test_lemma1_and_isomorphism(self, half_width, kind):
        setup = qubit_setup(half_width=half_width, spacing=2.0 if half_width == 1 else 0.25)
        # both swaps of the paper are involutions; a random permutation is not,
        # so it tells a swap from its inverse
        perm = {
            "parity": parity_swap,
            "corrupted": corrupted_swap,
            "random": lambda s: np.random.default_rng(half_width).permutation(s.total_dim),
        }[kind](setup)
        certificate = certify_lemma1(setup, swap=perm)
        dense = dense_lemma1(setup, perm)
        # the dense U is an eigendecomposition, independent of the FFT, so
        # the two agree to the dense reference's bound, not bitwise
        assert abs(certificate.swap_residual - dense["swap_residual"]) <= SWAP_BOUND
        assert certificate.unitarity_defect == dense["unitarity_defect"]

        plus, minus = dense_triples(setup)
        report = check_isomorphism(perm, plus, minus)
        s = permutation_matrix(perm).entries
        # the report against the dense swap on its triples' states
        states = zip(plus.states_at(SAMPLE_FRACTIONS), minus.states_at(SAMPLE_FRACTIONS))
        for residual, (a, b) in zip(report.state_residuals, states, strict=True):
            assert residual == float(np.linalg.norm(s @ a.amplitudes - b.amplitudes))
        h = plus.hamiltonian.entries
        conjugation = frobenius_norm(s @ h @ s.conj().T - h)
        assert report.hamiltonian_residual == conjugation

        if kind == "parity":
            assert certificate.commutator_residual == 0.0
            assert certificate.intertwining_residual == 0.0
            reversal = np.arange(setup.grid.n_points)[::-1]
            probe = probe_columns(setup)
            assert certificate.cross_construction_distance == rendered_cross(setup, reversal, probe)
            assert certificate.passed and report.passed
            for value in (dense["commutator_residual"], dense["intertwining_residual"]):
                assert value <= 1e-13
            assert conjugation <= 1e-13
            assert dense["momentum_twin_distance"] <= 1e-12
        else:
            assert certificate.construction == "custom"
            assert certificate.note == symmetry.NOT_CARRIED_NOTE
            assert certificate.commutator_residual is None
            assert certificate.intertwining_residual is None
            assert certificate.cross_construction_distance is None
            assert not certificate.passed
            assert dense["commutator_residual"] > 0.1
            assert not report.passed

    @pytest.mark.parametrize(
        "system, pointer", [("cycle", "identity"), ("identity", "reversal"), ("cycle", "reversal")]
    )
    def test_product_swaps(self, system, pointer):
        # a 3-outcome observable: the cyclic system permutation is no
        # involution, so a swap and its inverse differ
        grid = make_pointer_grid(8, 0.25)
        setup = MeasurementSetup(ObservableSpec((1.0, 0.0, -1.0)), grid, 1.0, 1.0)
        n = grid.n_points
        sigma = {"cycle": np.array([1, 2, 0]), "identity": np.arange(3)}[system]
        tau = {"identity": np.arange(n), "reversal": np.arange(n)[::-1]}[pointer]
        perm = (sigma[:, None] * n + tau[None, :]).reshape(-1)
        certificate = certify_lemma1(setup, swap=perm)
        dense = dense_lemma1(setup, perm)
        # the dense U is an eigendecomposition, independent of the FFT, so
        # the two agree to the dense reference's bound, not bitwise
        assert abs(certificate.swap_residual - dense["swap_residual"]) <= SWAP_BOUND
        assert certificate.unitarity_defect == dense["unitarity_defect"]
        for name in ("commutator_residual", "intertwining_residual"):
            assert dense[name] > 0.1
            assert getattr(certificate, name) == pytest.approx(dense[name], rel=1e-12, abs=0)
        probe = probe_columns(setup)
        assert certificate.cross_construction_distance == rendered_cross(setup, tau, probe)
        assert not certificate.passed

    def test_sigma_only_swap_negates_the_weights(self):
        # negative control: negating the system with the pointer fixed is
        # carried, but it maps every weight to its negation
        setup = qubit_setup()
        n = setup.grid.n_points
        perm = (np.array([1, 0])[:, None] * n + np.arange(n)).reshape(-1)
        weights = pointer_spectrum(setup).weights
        assert np.array_equal(weights[perm], -weights)
        certificate = certify_lemma1(setup, swap=perm)
        dense = dense_lemma1(setup, perm)
        for name in ("commutator_residual", "intertwining_residual"):
            assert dense[name] > 0.1
            assert getattr(certificate, name) == pytest.approx(dense[name], rel=1e-12, abs=0)
        assert not certificate.passed

    @pytest.mark.parametrize("factor", ["pointer", "ladder"])
    def test_one_ulp_drift_shows_at_every_time(self, factor):
        # negative control: the exact zeros of a commuting swap turn nonzero
        # when one weight moves by one ulp, at every sample time after 0
        if factor == "pointer":
            setup = qubit_setup()
            weights, perm = pointer_spectrum(setup).weights, parity_swap(setup)
        else:
            model = diagonal_model()
            weights, perm = model.spectrum().weights, scaling_permutation(model)
        perturbed = weights.copy()
        j = int(np.argmax(np.abs(weights)))
        perturbed[j] = np.nextafter(weights[j], np.inf)
        for t in SAMPLE_FRACTIONS[1:]:
            exact, nudged = (
                symmetry._spectral_certificate(
                    "custom", bare_factor(w, perm), (t,), 0.0, None, 1e-10
                )
                for w in (weights, perturbed)
            )
            assert exact.commutator_residual == exact.intertwining_residual == 0.0
            assert nudged.commutator_residual > 0.0
            assert nudged.intertwining_residual > 0.0

    @pytest.mark.parametrize("half_width", [1, 8, 50])
    @pytest.mark.parametrize("pointer", ["identity", "reversal"])
    def test_cross_construction_probe(self, half_width, pointer):
        # the probe's columns are summed as the full rendering sums them, so
        # it equals the rendering over the probe and is at most the full one
        setup = qubit_setup(half_width=half_width)
        n = setup.grid.n_points
        tau = {"identity": np.arange(n), "reversal": np.arange(n)[::-1]}[pointer]
        probe = symmetry._cross_construction(pointer_spectrum(setup), tau)
        assert probe == rendered_cross(setup, tau, probe_columns(setup))
        assert probe <= rendered_cross(setup, tau)
        assert 0.0 < probe <= 1e-14

    @pytest.mark.parametrize("shift", ["none", "off-by-one"])
    def test_miscentred_dft_fails(self, monkeypatch, shift):
        # the certificate's identity W^dag R W = R holds for the centred DFT
        # only; an unshifted or off-by-one map must show in the probe
        setup = qubit_setup()
        half = setup.grid.center_index
        roll = {"none": 0, "off-by-one": half + 1}[shift]

        def miscentred(transform, n_points, amplitudes):
            blocks = amplitudes.reshape(-1, n_points, *amplitudes.shape[1:])
            out = transform(np.roll(blocks, -roll, axis=1), axis=1, norm="ortho")
            return np.roll(out, roll, axis=1).reshape(amplitudes.shape)

        monkeypatch.setattr(linalg, "_centred_dft_axis", miscentred)
        n = setup.grid.n_points
        spectrum = pointer_spectrum(setup)
        assert symmetry._cross_construction(spectrum, np.arange(n)[::-1]) > 1e-10
        assert not certify_lemma1(setup).passed

    @pytest.mark.parametrize("span", [1, 3])
    @pytest.mark.parametrize("degeneracy", [1, 2])
    @pytest.mark.parametrize("pair", [(1.0, 2.0), (-0.5, -1.0)])
    def test_lemma2(self, span, degeneracy, pair):
        model = diagonal_model(ratio=2.0, span=span, degeneracy=degeneracy)
        certificate = certify_lemma2(model, *pair)
        for name, value in dense_lemma2(model, *pair).items():
            assert getattr(certificate, name) == value, name
