import numpy as np
import pytest

from swaplab.isomorphism import EvolutionTriple, check_isomorphism
from swaplab.linalg import (
    commutator_norm,
    frobenius_norm,
    operator_distance,
    tensor_product,
    unitarity_defect,
    vector_distance,
)
from swaplab.measurement import (
    MeasurementSetup,
    ObservableSpec,
    evolution_matrix,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_basis_state,
    pointer_spectrum,
    propagator,
    ready_state,
    system_basis_state,
)
from swaplab.symmetry import (
    SAMPLE_FRACTIONS,
    GeometricDiagonalModel,
    SwapTolerances,
    certify_lemma1,
    certify_lemma2,
    corrupted_swap,
    locate_eigenvalue,
    parity_swap,
    parity_swap_momentum,
    scaling_permutation,
)

from test_linalg import permutation_matrix


def qubit_setup(half_width=8, spacing=0.25, coupling=1.0, duration=1.0):
    grid = make_pointer_grid(half_width, spacing)
    return MeasurementSetup(ObservableSpec((1.0, -1.0)), grid, coupling, duration)


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
        assert vector_distance(swap @ start, target) == 0.0

    def test_center_is_parity_fixed(self):
        setup = qubit_setup(half_width=2, spacing=1.0)
        swap = permutation_matrix(parity_swap(setup))
        start = basis_ket(setup, 0, 0, setup.grid.center_index)
        target = basis_ket(setup, 1, 0, setup.grid.center_index)
        assert vector_distance(swap @ start, target) == 0.0

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
        assert vector_distance(swap @ start, target) == 0.0

    def test_zero_eigenvalue_fixed_sector(self):
        grid = make_pointer_grid(2, 0.5)
        setup = MeasurementSetup(ObservableSpec((1.0, 0.0, -1.0)), grid, 1.0, 1.0)
        swap = permutation_matrix(parity_swap(setup))
        start = basis_ket(setup, 1, 0, grid.center_index + 2)
        target = basis_ket(setup, 1, 0, grid.center_index - 2)
        assert vector_distance(swap @ start, target) == 0.0

    def test_asymmetric_spectrum_rejected(self):
        grid = make_pointer_grid(2, 0.5)
        setup = MeasurementSetup(ObservableSpec((1.0, 2.0)), grid, 1.0, 1.0)
        with pytest.raises(ValueError, match="negation"):
            parity_swap(setup)

    def test_commutes_with_hamiltonian(self):
        setup = qubit_setup()
        h = interaction_hamiltonian(setup)
        swap = permutation_matrix(parity_swap(setup))
        assert commutator_norm(h, swap) <= 1e-12 * frobenius_norm(h.entries)


class TestMomentumConstruction:
    def test_momentum_index_action(self):
        # in the momentum representation the swap is (lambda, p_j) -> (-lambda, p_-j)
        setup = qubit_setup(half_width=2, spacing=1.0)
        grid = setup.grid
        swap = parity_swap_momentum(setup)
        j = 3  # momentum column index, p_j = momenta[3]
        momentum_vec = grid.fourier.conj().T[:, j]
        start = np.kron([1.0, 0.0], momentum_vec)
        mirrored = grid.fourier.conj().T[:, grid.n_points - 1 - j]
        target = np.kron([0.0, 1.0], mirrored)
        assert np.linalg.norm(swap.entries @ start - target) <= 1e-12

    def test_position_action_recovered(self):
        setup = qubit_setup(half_width=3, spacing=0.5)
        swap = parity_swap_momentum(setup)
        start = basis_ket(setup, 0, 0, setup.grid.center_index + 2)
        target = basis_ket(setup, 1, 0, setup.grid.center_index - 2)
        assert vector_distance(swap @ start, target) <= 1e-12

    def test_matches_position_construction(self):
        setup = qubit_setup()
        swap = permutation_matrix(parity_swap(setup))
        assert operator_distance(swap, parity_swap_momentum(setup)) <= 1e-10


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
        h = interaction_hamiltonian(setup)
        assert commutator_norm(h, twin) <= 1e-10 * frobenius_norm(h.entries)
        u = propagator(setup, setup.duration)
        plus = ready_state(setup, system_basis_state(setup.observable, 0))
        minus = ready_state(setup, system_basis_state(setup.observable, 1))
        assert vector_distance(twin @ (u @ plus), u @ minus) <= 1e-10
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            u = propagator(setup, fraction * setup.duration)
            assert frobenius_norm(u.entries @ twin.entries - twin.entries @ u.entries) <= 1e-10

    def test_intertwining_at_sampled_times(self):
        setup = qubit_setup()
        swap = permutation_matrix(parity_swap(setup))
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            u = propagator(setup, fraction * setup.duration)
            assert frobenius_norm(u.entries @ swap.entries - swap.entries @ u.entries) <= 1e-10

    def test_tolerances_configurable(self):
        certificate = certify_lemma1(qubit_setup(), tolerances=SwapTolerances(swap=1e-30))
        assert not certificate.passed

    def test_swap_maps_evolved_branches(self):
        setup = qubit_setup()
        swap = permutation_matrix(parity_swap(setup))
        u = propagator(setup, setup.duration)
        plus = ready_state(setup, system_basis_state(setup.observable, 0))
        minus = ready_state(setup, system_basis_state(setup.observable, 1))
        assert vector_distance(swap @ (u @ plus), u @ minus) <= 1e-10


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
        model = diagonal_model(span=2)
        h = model.hamiltonian()
        assert np.count_nonzero(h.entries - np.diag(np.diagonal(h.entries))) == 0

    def test_eigenvalue_set(self):
        model = diagonal_model(ratio=3.0, span=1)
        values = sorted(model.a_eigenvalues())
        assert values == sorted([s * 3.0**m for s in (1, -1) for m in (-1, 0, 1)])

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            diagonal_model(ratio=-2.0)

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            GeometricDiagonalModel(ratio=2.0, exponent_min=-1, exponent_max=1, base_eigenvalue=0.0)


class TestScalingSwap:
    def test_index_shift_preserves_weight(self):
        # (lambda=1, p=4) -> (lambda=2, p=2) keeps the -g*lambda*p weight
        model = diagonal_model(ratio=2.0, span=2)
        h = np.diagonal(model.hamiltonian().entries).real
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
        swap = permutation_matrix(scaling_permutation(model))
        assert commutator_norm(model.hamiltonian(), swap) == 0.0

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
        assert certificate.swap_residual <= 1e-13

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

    def test_unknown_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            certify_lemma2(diagonal_model(ratio=2.0, span=1), 0.7, 1.4)

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
    powers = model._power_table()
    scale = model.coupling * model.base_eigenvalue * model.base_momentum
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
        base_momentum=1.3, coupling=0.9, degeneracy=3,
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
        for sign in range(2):
            for m in range(model.cycle_length):
                for label in range(model.degeneracy):
                    expected = sector_state_loops(model, sign, m, label)
                    assert np.array_equal(model.sector_state(sign, m, label), expected)


def dense_lemma1(setup, perm):
    """certify_lemma1's residuals from dense permutation-matrix products in the
    position basis, and the dense momentum twin's distance to the swap."""
    swap = permutation_matrix(perm)
    s = swap.entries
    h = interaction_hamiltonian(setup)
    observable = setup.observable
    negation = observable.negation_index()
    final = evolution_matrix(setup, setup.duration)
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
        u = evolution_matrix(setup, fraction * setup.duration)
        intertwining = max(intertwining, frobenius_norm(u @ s - s @ u))
    return {
        "commutator_residual": commutator_norm(h, swap) / frobenius_norm(h.entries),
        "unitarity_defect": unitarity_defect(swap),
        "swap_residual": swap_residual,
        "intertwining_residual": intertwining,
        "momentum_twin_distance": operator_distance(swap, parity_swap_momentum(setup)),
    }


def rendered_cross(setup, tau):
    """sqrt(system_dim) |tau - W^dag tau W|_F, with W^dag tau W rendered from
    an N x N identity by np.fft's own centring shifts, and each column's
    squares summed down the column."""
    identity = np.eye(tau.size, dtype=complex)
    momentum = np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(identity, axes=0), axis=0, norm="ortho"), axes=0
    )
    twin = np.fft.fftshift(
        np.fft.ifft(np.fft.ifftshift(momentum[tau], axes=0), axis=0, norm="ortho"), axes=0
    )
    deviation = identity[tau] - twin
    squares = (deviation.real**2 + deviation.imag**2).sum(axis=0)
    return float(np.sqrt(setup.observable.system_dim * squares.sum()))


def dense_lemma2(model, eigenvalue_from, eigenvalue_to, sample_times=(0.0, 0.5, 1.0)):
    """certify_lemma2's residuals from dense permutation-matrix products and
    the index loops it used to run."""
    perm = scaling_permutation_loops(model)
    swap = permutation_matrix(perm)
    s = swap.entries
    h = model.hamiltonian()
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
        "commutator_residual": commutator_norm(h, swap) / frobenius_norm(h.entries),
        "unitarity_defect": unitarity_defect(swap),
        "swap_residual": swap_residual,
        "intertwining_residual": intertwining,
    }


def spectral_and_dense_triples(setup):
    """The two outcome worlds with the spectrum as H, and with the dense H."""
    spectrum = pointer_spectrum(setup)
    hamiltonian = interaction_hamiltonian(setup)
    starts = [ready_state(setup, system_basis_state(setup.observable, s)) for s in (0, 1)]
    spectral = [EvolutionTriple(spectrum, start, SAMPLE_FRACTIONS) for start in starts]
    dense = [
        EvolutionTriple(hamiltonian, start, SAMPLE_FRACTIONS, spectrum=spectrum)
        for start in starts
    ]
    return spectral, dense


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
        assert certificate.swap_residual == dense["swap_residual"]
        assert certificate.unitarity_defect == dense["unitarity_defect"]

        (plus, minus), (dense_plus, dense_minus) = spectral_and_dense_triples(setup)
        report = check_isomorphism(perm, plus, minus)
        dense_report = check_isomorphism(perm, dense_plus, dense_minus)
        s = permutation_matrix(perm).entries
        for residual, a, b in zip(report.state_residuals, plus.states(), minus.states()):
            assert residual == float(np.linalg.norm(s @ a.amplitudes - b.amplitudes))
        assert report.state_residuals == dense_report.state_residuals
        h = dense_plus.hamiltonian.entries
        conjugation = frobenius_norm(s @ h @ s.conj().T - h)
        assert dense_report.hamiltonian_residual == conjugation

        if kind == "parity":
            assert certificate.commutator_residual == 0.0
            assert certificate.intertwining_residual == 0.0
            assert report.hamiltonian_residual == 0.0
            reversal = np.arange(setup.grid.n_points)[::-1]
            assert certificate.cross_construction_distance == rendered_cross(setup, reversal)
            assert certificate.passed and report.passed
            for value in (dense["commutator_residual"], dense["intertwining_residual"]):
                assert value <= 1e-13
            assert conjugation <= 1e-13
            assert dense["momentum_twin_distance"] <= 1e-12
        else:
            assert certificate.commutator_residual is None
            assert certificate.intertwining_residual is None
            assert certificate.cross_construction_distance is None
            assert not certificate.passed
            assert dense["commutator_residual"] > 0.1
            assert report.hamiltonian_residual is None
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
        assert certificate.swap_residual == dense["swap_residual"]
        assert certificate.unitarity_defect == dense["unitarity_defect"]
        for name in ("commutator_residual", "intertwining_residual"):
            assert dense[name] > 0.1
            assert getattr(certificate, name) == pytest.approx(dense[name], rel=1e-12, abs=0)
        assert certificate.cross_construction_distance == rendered_cross(setup, tau)
        assert not certificate.passed

    @pytest.mark.parametrize("span", [1, 3])
    @pytest.mark.parametrize("degeneracy", [1, 2])
    @pytest.mark.parametrize("pair", [(1.0, 2.0), (-0.5, -1.0)])
    def test_lemma2(self, span, degeneracy, pair):
        model = diagonal_model(ratio=2.0, span=span, degeneracy=degeneracy)
        certificate = certify_lemma2(model, *pair)
        for name, value in dense_lemma2(model, *pair).items():
            assert getattr(certificate, name) == value, name
