import json
import sys

import numpy as np
import pytest

from swaplab.cli import main
from swaplab.config import RunConfig
from swaplab import linalg
from swaplab import measurement
from swaplab.isomorphism import EvolutionTriple, distinctness_witness
from swaplab.linalg import (
    HERMITIAN,
    DenseOperator,
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
    evolved_ready,
    interaction_hamiltonian,
    make_pointer_grid,
    pointer_spectrum,
    readout,
    ready_state,
    system_basis_state,
)
from swaplab.reporting import emit_distribution_csv
from swaplab.scenario import build_diagonal_model, run_multiworld
from swaplab.symmetry import (
    corrupted_swap,
    locate_eigenvalue,
    parity_swap,
    scaling_factor,
    sign_flip_factor,
)

from dense_reference import dft_matrix
from test_symmetry import sector_state_loops

HBAR = 0.7
SPACING = 0.3
DURATION = 1.0
WORLDS = ("plus", "minus", "superposition")


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
        dense = np.kron(np.eye(blocks), dft_matrix(setup.grid.half_width))
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
        propagator = pointer_spectrum(setup).evolve(np.eye(setup.total_dim), t, HBAR)
        assert frobenius_norm(propagator - oracle) <= 1e-12

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
        got = Spectrum(weights).evolve(state, 0.4, 1.3)
        assert np.array_equal(got, np.exp(-1j * weights * 0.4 / 1.3) * state)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Spectrum(np.ones(3)).evolve(np.ones(4), 0.1)

    def test_weights_must_be_a_nonempty_vector(self):
        with pytest.raises(DimensionError):
            Spectrum(np.ones((2, 2)))

    def test_complex_weights_rejected(self):
        # a cast to float would drop the imaginary part with only a warning
        with pytest.raises(KindError, match="real"):
            Spectrum([1 + 1e-3j, 2])

    @pytest.mark.parametrize(
        "n_weights, dft_size", [(3, 0), (3, -1), (4, 4), (6, 2), (6, 4), (6, 5), (4, 3)]
    )
    def test_dft_size_must_be_odd_and_divide_the_weights(self, n_weights, dft_size):
        # the centring shifts are rotations by N // 2 only for odd N, and the
        # transform reshapes the weights into blocks of N: an even size would
        # map off the centred DFT without an error, and a non-divisor would
        # fail later in a bare reshape
        with pytest.raises(DimensionError, match="dft_size"):
            Spectrum(np.zeros(n_weights), dft_size)
        assert Spectrum(np.zeros(3 * n_weights), 3).dft_size == 3

    def test_level_table_evolves_as_its_weights(self):
        levels, index = np.array([-2.0, 0.5, -0.0]), np.array([1, 0, 2, 2, 0])
        leveled = Spectrum.on_levels(levels, index)
        assert np.array_equal(leveled.weights, levels[index])
        assert leveled.dft_size == 1 and Spectrum(np.ones(5)).level_index is None
        state = random_state(5)
        got = leveled.evolve(state, 0.4, 1.3)
        assert got.tobytes() == Spectrum(levels[index]).evolve(state, 0.4, 1.3).tobytes()

    @pytest.mark.parametrize(
        "levels, index, error",
        [
            (np.ones(2), np.array([0, -1]), DimensionError),
            (np.ones(2), np.array([0.0, 1.0]), DimensionError),
            (np.ones(2), np.array([[0, 1]]), DimensionError),
            (np.array([1 + 1e-3j, 2]), np.array([0, 1]), KindError),
        ],
    )
    def test_level_table_rejects_bad_tables(self, levels, index, error):
        with pytest.raises(error):
            Spectrum.on_levels(levels, index)


def per_time_evolution(spectrum, amplitudes, t, hbar):
    """W^dag exp(-i w t / hbar) W applied for one time, as a call per time does."""
    coefficients = spectrum.to_eigen(np.asarray(amplitudes, dtype=complex))
    phases = np.exp(-1j * spectrum.weights * t / hbar)
    column = phases.reshape(phases.shape + (1,) * (coefficients.ndim - 1))
    return spectrum.from_eigen(column * coefficients)


class TestBatchedEvolution:
    TIMES = (0.0, 0.37, 0.37, 1.3, 0.0, 2.9, 11.0)

    @pytest.mark.parametrize("dft_size", [1, 17, 2001])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("times_per_batch", [None, 2, 1])
    def test_bitwise_equal_to_per_time_evolution(
        self, monkeypatch, dft_size, shape, times_per_batch
    ):
        rng = np.random.default_rng(dft_size)
        spectrum = Spectrum(rng.standard_normal(2 * dft_size), dft_size)
        start = rng.standard_normal((spectrum.dim, *shape)) + 1j * rng.standard_normal(
            (spectrum.dim, *shape)
        )
        if times_per_batch is not None:
            monkeypatch.setattr(linalg, "EVOLVE_BATCH", times_per_batch * start.size)
        evolved = list(spectrum.evolutions(start, self.TIMES, HBAR))
        assert len(evolved) == len(self.TIMES)
        for t, state in zip(self.TIMES, evolved):
            # contiguous, or np.vdot sums a strided state in another order
            assert state.flags.c_contiguous
            assert np.array_equal(state, per_time_evolution(spectrum, start, t, HBAR))

    @pytest.mark.parametrize("times_per_batch, calls", [(7, 1), (3, 3), (1, 7)])
    def test_one_inverse_transform_per_batch(self, monkeypatch, times_per_batch, calls):
        spectrum = pointer_spectrum(degenerate_setup(8))
        monkeypatch.setattr(linalg, "EVOLVE_BATCH", times_per_batch * spectrum.dim)
        inverse = np.fft.ifft
        counted = []
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: counted.append(1) or inverse(*a, **k))
        states = spectrum.evolutions(random_state(spectrum.dim), self.TIMES, HBAR)
        assert not counted  # nothing is evolved before the first state is asked for
        assert len(list(states)) == len(self.TIMES)
        assert len(counted) == calls


def pointer_rows_case(degeneracy, half_width):
    """A pointer factor, every system ket, and each ket's ready state."""
    grid = make_pointer_grid(half_width, SPACING, HBAR)
    observable = ObservableSpec((1.0, -1.0), degeneracy=degeneracy)
    setup = MeasurementSetup(observable, grid, 0.8, DURATION)
    kets = range(observable.system_dim)
    starts = [ready_state(setup, linalg.basis_vector(len(kets), s)).amplitudes for s in kets]
    return sign_flip_factor(setup), kets, starts


def ladder_rows_case(r, lambda1, lambda2):
    """A ladder factor, its world starts, and each outcome's sector state."""
    config = RunConfig(
        scenario="classical-level", ratio_exponent_range=r, lambda1=lambda1, lambda2=lambda2,
        g=0.8, hbar=HBAR,
    )
    model = build_diagonal_model(config)
    values = (lambda1, lambda2)
    starts = [sector_state_loops(model, *locate_eigenvalue(model, value), 0) for value in values]
    return scaling_factor(model, *values), None, starts


#: evolved_ready inputs by id: pointer (degeneracy-half_width) and ladder
#: factors, the last with lambda1 = lambda2, where one start serves both worlds
ROW_SPLIT_CASES = {
    **{
        f"{d}-{m}": (pointer_rows_case, (d, m))
        for d, m in [(1, 1), (1, 8), (1, 150), (1, 2000), (2, 8)]
    },
    **{f"ladder-{r}": (ladder_rows_case, (r, 1.0, 2.0)) for r in (1, 5, 12)},
    "ladder-12-one-start": (ladder_rows_case, (12, 2.0, 2.0)),
}


class TestEvolvedReady:
    TIMES = (0.0, 0.25, 0.37, 0.75, 1.0)

    @pytest.mark.parametrize("case", ROW_SPLIT_CASES.values(), ids=ROW_SPLIT_CASES.keys())
    @pytest.mark.parametrize("one_time_per_batch", [False, True])
    def test_rows_equal_each_ready_kets_own_evolution(self, monkeypatch, case, one_time_per_batch):
        # H never mixes system blocks and a zero row stays exactly zero through
        # the FFT, phase and inverse FFT: block s of one evolution of the summed
        # ready kets is the evolution of ready(s) alone. Off its block a lone
        # evolution holds phase * 0, which may be -0.0 where the rows hold
        # +0.0, so values are compared, not bytes
        build, args = case
        factor, kets, starts = build(*args)
        if one_time_per_batch:
            monkeypatch.setattr(linalg, "EVOLVE_BATCH", 1)
        split = list(evolved_ready(factor, self.TIMES, kets))
        assert len(split) == len(self.TIMES)
        for s, start in enumerate(starts):
            alone = list(factor.spectrum.evolutions(start, self.TIMES, HBAR))
            for rows, state in zip(split, alone, strict=True):
                assert rows.shape == (len(starts), factor.spectrum.dim)
                assert rows[s].flags.c_contiguous
                assert np.array_equal(rows[s], state)


class TestCarriedFactor:
    def test_diagonal_carries_every_swap(self):
        perm = np.random.default_rng(3).permutation(12)
        assert np.array_equal(Spectrum(np.arange(12.0)).carried_factor(perm), [0])

    @pytest.mark.parametrize("pointer", ["identity", "reversal"])
    def test_pointer_products(self, pointer):
        setup = degenerate_setup(3)
        n = setup.grid.n_points
        tau = {"identity": np.arange(n), "reversal": np.arange(n)[::-1]}[pointer]
        sigma = np.array([2, 0, 3, 1])  # no involution
        perm = (sigma[:, None] * n + tau[None, :]).reshape(-1)
        assert np.array_equal(pointer_spectrum(setup).carried_factor(perm), tau)

    def test_parity_swap_is_carried(self):
        setup = degenerate_setup(8)
        reversal = np.arange(setup.grid.n_points)[::-1]
        assert np.array_equal(pointer_spectrum(setup).carried_factor(parity_swap(setup)), reversal)

    @pytest.mark.parametrize("kind", ["corrupted", "random", "shift", "misaligned"])
    def test_other_swaps_are_not_carried(self, kind):
        setup = degenerate_setup(3)
        n, dim = setup.grid.n_points, setup.total_dim
        perm = {
            "corrupted": corrupted_swap(setup),
            "random": np.random.default_rng(0).permutation(dim),
            # a pointer translation commutes with p_Z but the DFT does not
            # carry it onto a permutation
            "shift": (np.arange(dim).reshape(-1, n)[:, np.r_[1:n, 0]]).reshape(-1),
            # blocks of n consecutive indices that straddle two system blocks
            "misaligned": np.roll(np.arange(dim), 1),
        }[kind]
        assert pointer_spectrum(setup).carried_factor(perm) is None


class TestSpectrumTriple:
    def test_matching_spectrum_gives_the_dense_states(self):
        # the dense H is evolved through its own exponential, not the spectrum
        setup = degenerate_setup(8)
        start = ready_state(setup, system_basis_state(setup.observable, 0, 1))
        times = (0.0, 0.37, DURATION)
        spectral = pointer_spectrum(setup).evolutions(start.amplitudes, times, HBAR)
        dense = EvolutionTriple(interaction_hamiltonian(setup), start, times, HBAR)
        for a, b in zip(spectral, dense.states_at(times), strict=True):
            assert np.linalg.norm(a - b.amplitudes) <= 1e-12

    def test_dimension_checked(self):
        setup = degenerate_setup(2)
        start = ready_state(setup, system_basis_state(setup.observable, 0))
        with pytest.raises(DimensionError):
            EvolutionTriple(DenseOperator(np.zeros((3, 3)), HERMITIAN), start, (0.0,), HBAR)


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


def _no_dense(*args, **kwargs):
    raise AssertionError("dense dim x dim operator built on a production path")


@PRODUCTION_JOBS
def test_production_paths_build_no_dense_operator(tmp_path, monkeypatch, words, extra, config):
    # every certificate is computed from the spectrum weights, the position-basis
    # gathers and pointer-factor FFTs; the dense Hamiltonian raises in every
    # module that binds it, and so does every dense operator's constructor
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    dense = measurement.interaction_hamiltonian
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "swaplab" and getattr(module, dense.__name__, None) is dense:
            monkeypatch.setattr(module, dense.__name__, _no_dense)
    monkeypatch.setattr(linalg.DenseOperator, "__init__", _no_dense)
    assert main([*words, str(path), *extra]) == 0


@PRODUCTION_JOBS
def test_production_paths_make_no_unitarity_check(tmp_path, monkeypatch, words, extra, config):
    # swaps are index arrays and propagators are never tagged unitary in
    # production, so no dim x dim U^dag U product is formed (only linalg binds
    # the check, and DenseOperator's unitary tag calls it)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(linalg, "unitarity_defect", _no_unitarity_check)
    assert main([*words, str(path), *extra]) == 0


@pytest.mark.parametrize(
    "words, extra, config, calls",
    [
        (["run"], [], {"scenario": "prince-pauper"}, 4),
        (["run"], [], {"scenario": "multiworld", "k": 3}, 4),
        (["run"], [], {"scenario": "classical-level"}, 0),
        (["certify", "lemma1"], [], {}, 4),
        (["export-distribution"], ["--time", "0.37"], {}, 2),
        # prince-pauper's one-factor case, through the same engine
        (["run"], [], {"scenario": "multiworld", "k": 1}, 4),
    ],
)
def test_fft_calls_per_job(tmp_path, monkeypatch, words, extra, config, calls):
    # a pointer run evolves its summed ready kets once, and both worlds and
    # lemma 1's swap residual read that one evolution: the sum maps to the
    # eigenbasis in one call and its sample times and T back in one more.
    # Lemma 1 maps three pointer columns there and back (two calls), and alone
    # evolves the sum to T itself (two more); the ladder is diagonal
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    counted = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _transform=transform, **k: counted.append(1) or _transform(*a, **k)
        )
    assert main([*words, str(path), *extra]) == 0
    assert len(counted) == calls


@pytest.mark.parametrize(
    "words, extra, config",
    [
        (["run"], [], {"scenario": "prince-pauper"}),
        (["run"], [], {"scenario": "multiworld", "k": 2}),
        (["run"], [], {"scenario": "classical-level"}),
        (["certify", "lemma1"], [], {}),
        (["certify", "lemma2"], [], {}),
        *[(["export-distribution"], ["--time", "0.37", "--world", w], {}) for w in WORLDS],
    ],
)
def test_complex_vectors_per_job(tmp_path, monkeypatch, words, extra, config):
    # the production functions take amplitude arrays end to end: the evolved
    # rows of a run and the evolved export state are read as they are, with
    # no ComplexVector copy (a run made 2 and an export 1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    counted = []
    init = linalg.ComplexVector.__init__
    monkeypatch.setattr(
        linalg.ComplexVector, "__init__", lambda self, *a: counted.append(1) or init(self, *a)
    )
    assert main([*words, str(path), *extra]) == 0
    assert len(counted) == 0


@pytest.mark.parametrize("function", ["readout", "distinctness_witness", "emit_distribution_csv"])
def test_state_arrays_must_be_one_dimensional(function):
    # a (system, pointer) array holds the right number of amplitudes, so only
    # the 1-d check rejects it; so does a witness pair of unequal lengths
    setup = degenerate_setup(3)
    state = ready_state(setup, system_basis_state(setup.observable, 0)).amplitudes
    frame = [("pointer", np.ones(state.shape))]
    call = {
        "readout": lambda s: readout(s, setup),
        "distinctness_witness": lambda s: distinctness_witness(s, s, frame),
        "emit_distribution_csv": lambda s: emit_distribution_csv(s, setup),
    }[function]
    call(state)  # the 1-d state is read
    with pytest.raises(DimensionError):
        call(state.reshape(setup.observable.system_dim, -1))
    with pytest.raises(DimensionError):
        distinctness_witness(state, state[:-1], frame)


@pytest.mark.parametrize(
    "words, config, elements",
    [
        # a pointer run exponentiates its M = 8 weights (dim 34) at the 5 sample
        # times for the evolution only: lemma 1's certificate reads the
        # weights' drift, and lemma 1 alone evolves to T once
        (["run"], {"scenario": "prince-pauper"}, 170),
        (["run"], {"scenario": "multiworld", "k": 3}, 170),
        (["certify", "lemma1"], {}, 34),
        (["export-distribution", "--time", "0.37"], {}, 34),
        # the ladder at r = 5 has 968 weights on 22 levels: one exponential per
        # level at each of 5 times for the one evolution of both starts, and
        # none for the certificate, which evolves nothing
        (["run"], {"scenario": "classical-level", "ratio_exponent_range": 5}, 110),
        (["certify", "lemma2"], {"scenario": "classical-level", "ratio_exponent_range": 5}, 0),
    ],
)
def test_complex_exp_elements_per_job(tmp_path, monkeypatch, words, config, elements):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    counted = []
    exp = np.exp
    monkeypatch.setattr(
        np, "exp", lambda x, *a, **k: counted.append(np.size(x) * np.iscomplexobj(x)) or exp(x, *a, **k)
    )
    split = 2 if words[0] == "certify" else 1
    assert main([*words[:split], str(path), *words[split:]]) == 0
    assert sum(counted) == elements


@pytest.mark.parametrize("k", [2, 3])
def test_inner_products_per_multiworld_run(monkeypatch, k):
    # at each of the 5 sample times the pairs read 18 distinct inner products
    # (two 3x3 tables; a factor whose worlds agree reads <y, y> of one of
    # them), and the witnesses read 2 observables once in each of the 2
    # world states: 18 * 5 + 4 = 94 calls, where 36 per time were 196 and one
    # witness call per outcome pair, 4 expectations each, made 106
    counted = []
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda *a: counted.append(1) or vdot(*a))
    assert run_multiworld(RunConfig(scenario="multiworld", k=k)).passed
    assert len(counted) == 18 * 5 + 4
