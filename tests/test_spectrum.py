import json

import numpy as np
import pytest

from swaplab.cli import main
from swaplab import linalg
from swaplab.isomorphism import EvolutionTriple
from swaplab.linalg import (
    DimensionError,
    KindError,
    Spectrum,
    frobenius_norm,
    hermitian_exponential,
)
from swaplab.measurement import (
    MeasurementSetup,
    ObservableSpec,
    evolve,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_spectrum,
    propagator,
    ready_state,
    system_basis_state,
)

from test_linalg import random_hermitian

HBAR = 0.7
SPACING = 0.3
DURATION = 1.0


def degenerate_setup(half_width, coupling=0.8):
    grid = make_pointer_grid(half_width, SPACING, HBAR)
    return MeasurementSetup(ObservableSpec((1.0, -1.0), degeneracy=2), grid, coupling, DURATION)


def random_state(dim, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


class TestPointerSpectrum:
    @pytest.mark.parametrize("half_width", [1, 8, 50])
    def test_basis_map_is_the_grid_fourier_matrix(self, half_width):
        setup = degenerate_setup(half_width)
        n, blocks = setup.grid.n_points, setup.observable.system_dim
        dense = np.kron(np.eye(blocks), setup.grid.fourier)
        to_eigen = pointer_spectrum(setup).to_eigen(np.eye(setup.total_dim))
        assert np.abs(to_eigen - dense).max() <= 1e-13 * n
        back = pointer_spectrum(setup).from_eigen(dense)
        assert np.abs(back - np.eye(setup.total_dim)).max() <= 1e-13

    @pytest.mark.parametrize("half_width", [1, 8, 50])
    @pytest.mark.parametrize("t", [0.0, 0.37, DURATION])
    def test_matches_dense_eigendecomposition(self, half_width, t):
        setup = degenerate_setup(half_width)
        oracle = hermitian_exponential(interaction_hamiltonian(setup), t / HBAR).entries
        state = random_state(setup.total_dim)
        spectral = pointer_spectrum(setup).evolve(state, t, HBAR)
        assert np.linalg.norm(spectral - oracle @ state) <= 1e-12
        assert frobenius_norm(propagator(setup, t).entries - oracle) <= 1e-12

    def test_apply_is_the_hamiltonian(self):
        setup = degenerate_setup(8)
        columns = np.stack([random_state(setup.total_dim, seed) for seed in range(3)], axis=1)
        hamiltonian = interaction_hamiltonian(setup).entries
        assert np.abs(pointer_spectrum(setup).apply(columns) - hamiltonian @ columns).max() <= 1e-13

    def test_evolve_acts_column_by_column(self):
        setup = degenerate_setup(8)
        spectrum = pointer_spectrum(setup)
        columns = np.stack([random_state(setup.total_dim, seed) for seed in range(3)], axis=1)
        together = spectrum.evolve(columns, 0.37, HBAR)
        for j in range(3):
            alone = spectrum.evolve(columns[:, j], 0.37, HBAR)
            assert np.abs(together[:, j] - alone).max() <= 1e-15

    def test_evolve_wraps_the_spectrum(self):
        setup = degenerate_setup(8)
        state = ready_state(setup, system_basis_state(setup.observable, 1, 1))
        expected = pointer_spectrum(setup).evolve(state.amplitudes, 0.37, HBAR)
        assert np.array_equal(evolve(setup, state, 0.37).amplitudes, expected)


class TestSpectrumConstructors:
    def test_diagonal_phases_are_exact(self):
        weights = np.array([-2.0, 0.5, 3.0])
        state = random_state(3)
        got = Spectrum.diagonal(weights).evolve(state, 0.4, 1.3)
        assert np.array_equal(got, np.exp(-1j * weights * 0.4 / 1.3) * state)

    def test_from_hermitian_matches_the_exponential(self):
        herm = random_hermitian(7, np.random.default_rng(2))
        spectrum = Spectrum.from_hermitian(herm.entries)
        state = random_state(7)
        expected = hermitian_exponential(herm, 0.9 / 1.5).entries @ state
        assert np.linalg.norm(spectrum.evolve(state, 0.9, 1.5) - expected) <= 1e-12
        assert np.linalg.norm(spectrum.apply(state) - herm.entries @ state) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Spectrum.diagonal(np.ones(3)).evolve(np.ones(4), 0.1)

    def test_weights_must_be_a_nonempty_vector(self):
        with pytest.raises(DimensionError):
            Spectrum.diagonal(np.ones((2, 2)))


class TestTripleSpectrumGuard:
    def test_matching_spectrum_gives_the_dense_states(self):
        setup = degenerate_setup(8)
        hamiltonian = interaction_hamiltonian(setup)
        start = ready_state(setup, system_basis_state(setup.observable, 0, 1))
        times = (0.0, 0.37, DURATION)
        spectral = EvolutionTriple(hamiltonian, start, times, HBAR, pointer_spectrum(setup))
        dense = EvolutionTriple(hamiltonian, start, times, HBAR)
        for a, b in zip(spectral.states(), dense.states()):
            assert np.linalg.norm(a.amplitudes - b.amplitudes) <= 1e-12

    def test_dense_spectrum_is_derived_once(self, monkeypatch):
        setup = degenerate_setup(2)
        start = ready_state(setup, system_basis_state(setup.observable, 0))
        triple = EvolutionTriple(interaction_hamiltonian(setup), start, (0.0, DURATION), HBAR)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda entries: calls.append(1) or eigh(entries))
        triple.states()
        triple.states_at((0.5,))
        assert len(calls) == 1

    def test_wrong_spectrum_rejected(self):
        setup = degenerate_setup(8)
        other = degenerate_setup(8, coupling=0.81)
        start = ready_state(setup, system_basis_state(setup.observable, 0))
        with pytest.raises(KindError, match="spectrum"):
            EvolutionTriple(
                interaction_hamiltonian(setup), start, (0.0, DURATION), HBAR,
                pointer_spectrum(other),
            )

    def test_wrong_spectrum_dimension_rejected(self):
        setup = degenerate_setup(8)
        start = ready_state(setup, system_basis_state(setup.observable, 0))
        with pytest.raises(DimensionError):
            EvolutionTriple(
                interaction_hamiltonian(setup), start, (0.0,), HBAR,
                Spectrum.diagonal(np.zeros(3)),
            )


def _no_eigh(*args, **kwargs):
    raise AssertionError("numpy.linalg.eigh called on a production path")


def _no_unitarity_check(*args, **kwargs):
    raise AssertionError("dense unitarity check on a production path")


PRODUCTION_JOBS = pytest.mark.parametrize(
    "words, extra, config",
    [
        (["run"], [], {"scenario": "prince-pauper"}),
        (["run"], [], {"scenario": "multiworld", "k": 2}),
        (["run"], [], {"scenario": "classical-level"}),
        (["certify", "lemma1"], [], {}),
        (["certify", "lemma2"], [], {}),
        (["export-distribution"], ["--time", "0.37"], {}),
    ],
)


@PRODUCTION_JOBS
def test_production_paths_make_no_eigh_call(tmp_path, monkeypatch, words, extra, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
    assert main([*words, str(path), *extra]) == 0


@PRODUCTION_JOBS
def test_production_paths_make_no_unitarity_check(tmp_path, monkeypatch, words, extra, config):
    # swaps are index arrays and propagators are never tagged unitary in
    # production, so no dim x dim U^dag U product is formed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(linalg, "unitarity_defect_of", _no_unitarity_check)
    assert main([*words, str(path), *extra]) == 0
