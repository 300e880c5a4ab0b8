import contextlib
import io
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from swaplab import scenario, symmetry
from swaplab.cli import main
from swaplab.config import ConfigError, RunConfig, parse_config
from swaplab.isomorphism import distinctness_witness
from swaplab.linalg import (
    ComplexVector,
    DenseOperator,
    Spectrum,
    frobenius_norm,
    tensor_product,
)
from swaplab.measurement import (
    evolved_ready,
    interaction_hamiltonian,
    pointer_spectrum,
    ready_state,
    system_basis_state,
)
from swaplab.scenario import (
    _gram_row,
    _pair_residuals,
    build_diagonal_model,
    ladder_factor,
    qubit_setup,
    run_classical_level,
    run_multiworld,
    run_prince_pauper,
)
from swaplab.reporting import emit_report, render_json
from swaplab.symmetry import (
    GeometricDiagonalModel,
    certify_lemma1,
    parity_swap,
    scaling_factor,
    sign_flip_factor,
)

import dense_reference
from test_linalg import permutation_matrix
from test_symmetry import sector_state_loops


def small_config(**overrides):
    defaults = dict(M=3, delta=1.0, tol=1e-10)
    defaults.update(overrides)
    return RunConfig(**defaults)


def multiworld_config(k, **overrides):
    return small_config(scenario="multiworld", k=k, **overrides)


def _gram_table(x: np.ndarray, y: np.ndarray) -> list:
    """Inner products <u, v> for u, v in (y, x - y, x), as Python complexes."""
    vectors = (y, x - y, x)
    return [[complex(np.vdot(u, v)) for v in vectors] for u in vectors]


def product_distance(tables, differing) -> float:
    """Oracle of the stacked pass: |x_1 (x) ... (x) x_k - y_1 (x) ... (x) y_k|
    from the per-factor tables ``_gram_table(x_f, y_f)``, where x_f == y_f
    outside ``differing``, one Python complex term at a time: the sum over
    f, g in ``differing`` of the products of each factor's table entries.
    A NaN total stays NaN (max(0.0, nan) would be 0.0)."""
    total = 0j
    for f in differing:
        for g in differing:
            term = 1 + 0j
            for h, table in enumerate(tables):
                term *= table[(h > f) - (h < f) + 1][(h > g) - (h < g) + 1]
            total += term
    return 0.0 if total.real <= 0.0 else math.sqrt(total.real)


def loop_pair_residuals(states_per_time, inverse, k) -> np.ndarray:
    """Every pair's residual at every time, pair by pair through four Gram
    tables per time and ``product_distance``: the (time, pair) array the
    stacked pass must match bit for bit."""
    patterns = list(itertools.product((0, 1), repeat=k))
    pairs = [list(zip(patterns[i], patterns[j])) for i, j in itertools.combinations(range(2**k), 2)]
    rows = []
    for states in states_per_time:
        tables = {
            (a, b): _gram_table(states[a][inverse] if a != b else states[a], states[b])
            for a, b in itertools.product((0, 1), repeat=2)
        }
        row = []
        for pair in pairs:
            differing = [f for f, (a, b) in enumerate(pair) if a != b]
            row.append(product_distance([tables[o] for o in pair], differing))
        rows.append(row)
    return np.array(rows)


def near_swapped_states(rng, dim, inverse, scale, times=3) -> list:
    """Per time, two unit states (rows) with row 1 within about ``scale`` of
    row 0 swapped, as the evolved ready kets of a run."""

    def unit(v):
        return v / np.linalg.norm(v)

    def random_unit():
        return unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))

    states = []
    for _ in range(times):
        first = random_unit()
        states.append(np.stack([first, unit(first[inverse] + scale * random_unit())]))
    return states


def nan_evolved_ready(at: int):
    """``evolved_ready`` with NaN put into row 0 (the first world) at time ``at``."""
    evolved_ready = scenario.evolved_ready

    def evolved(factor, times, kets=None):
        for n, states in enumerate(evolved_ready(factor, times, kets)):
            if n == at:
                states = states.copy()
                states[0, 0] = np.nan
            yield states

    return evolved


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

    def test_multiworld_beyond_old_product_cap_runs(self):
        # (2 * (2 * 9 + 1))^3 = 54 872 product entries: no product state is
        # built, so this config runs and passes
        report = run_multiworld(parse_config('{"scenario": "multiworld", "k": 3, "M": 9}'))
        assert len(report.pairs) == 28
        assert report.passed

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
        assert np.linalg.norm((swap @ plus).amplitudes - minus.amplitudes) == 0.0

    def test_zero_coupling_distinct_via_system_only(self):
        report = run_prince_pauper(small_config(g=0.0))
        gaps = {w.observable: w.gap for w in report.pairs[0].witnesses}
        assert gaps["pointer_position"] <= 1e-12
        assert gaps["system_observable"] == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_readouts_identify_outcomes(self):
        report = run_prince_pauper(RunConfig())
        tables = dict(zip(report.world_labels, report.readouts))
        plus_branches = tables["+"].factors[0]
        assert plus_branches[0].probability == pytest.approx(1.0, abs=1e-10)
        assert plus_branches[0].inferred_outcome == pytest.approx(1.0, abs=1e-9)
        assert plus_branches[1].pointer_mean is None


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

    def test_product_distance_matches_dense_kron(self):
        # the stacked pass against the dense world states: x_f = S s_a and
        # y_f = s_b where a pair's worlds differ, x_f = y_f = s_a elsewhere, so
        # the dense side applies S on the differing factors
        rng = np.random.default_rng(7)
        dim = 5
        perm = rng.permutation(dim)
        assert not np.array_equal(perm[perm], np.arange(dim))  # not an involution
        swap = permutation_matrix(perm).entries
        inverse = np.argsort(perm)
        for k in (1, 2, 3):
            patterns = list(itertools.product((0, 1), repeat=k))
            for scale in (1e-14, 1e-10, 1e-6, 1e-2, 1.0):
                (states,) = near_swapped_states(rng, dim, inverse, scale, times=1)
                (stacked,) = _pair_residuals([_gram_row(states, inverse)], k)
                for n, (i, j) in enumerate(itertools.combinations(range(2**k), 2)):
                    p, q = patterns[i], patterns[j]
                    factors = [swap if a != b else np.eye(dim) for a, b in zip(p, q)]
                    s_total = reduce(np.kron, factors)
                    world_a, world_b = (reduce(np.kron, [states[s] for s in w]) for w in (p, q))
                    dense = np.linalg.norm(s_total @ world_a - world_b)
                    assert abs(stacked[n] - dense) <= 1e-15 + 1e-12 * dense
                    assert dense > 0.1 * scale

    def test_product_distance_is_zero_when_every_factor_matches(self):
        # S is an involution and s_1 = S s_0 exactly, so every difference
        # x_f - y_f is exactly zero, and so is every term: 0.0, never -0.0
        rng = np.random.default_rng(3)
        inverse = np.arange(6)[::-1].copy()
        first = rng.normal(size=6) + 1j * rng.normal(size=6)
        rows = [_gram_row(np.stack([first, first[inverse]]), inverse)]
        for k in (1, 2, 3):
            residuals = _pair_residuals(rows, k)
            assert residuals.shape == (1, 2**k * (2**k - 1) // 2)
            assert np.all(residuals == 0.0) and not np.any(np.signbit(residuals))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_stacked_pass_matches_the_pair_loop_bitwise(self, k):
        # NumPy's complex multiply may fuse multiply-adds where Python's
        # complex * does not; the stacked pass forms each product as Python
        # does and sums the terms in the loop's order, so no bit moves
        rng = np.random.default_rng(100 + k)
        dim = 7
        inverse = rng.permutation(dim)
        for scale in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0):
            states = near_swapped_states(rng, dim, inverse, scale)
            stacked = _pair_residuals([_gram_row(row, inverse) for row in states], k)
            looped = loop_pair_residuals(states, inverse, k)
            assert stacked.shape == looped.shape == (3, 2**k * (2**k - 1) // 2)
            assert np.array_equal(stacked, looped)
            assert np.all(stacked > 0.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_stacked_pass_keeps_a_nan(self, k):
        # a NaN in one state at one time makes that time's every pair NaN in
        # both, where max(0.0, nan) once made it 0.0; the other times match
        rng = np.random.default_rng(200 + k)
        inverse = rng.permutation(6)
        states = near_swapped_states(rng, 6, inverse, 1e-9)
        states[1][0, 2] = np.nan
        stacked = _pair_residuals([_gram_row(row, inverse) for row in states], k)
        assert np.array_equal(stacked, loop_pair_residuals(states, inverse, k), equal_nan=True)
        assert np.all(np.isnan(stacked[1]))
        assert not np.any(np.isnan(stacked[[0, 2]]))

    def test_off_grid_pairs_match_dense_product_residuals(self):
        # off the grid the swapped worlds differ at the rounding level, so
        # every pair has a nonzero residual to compare
        config = RunConfig(scenario="multiworld", k=3, M=7, delta=0.3, g=0.7, hbar=0.7, T=1.3)
        setup = qubit_setup(config)
        spectrum = pointer_spectrum(setup)
        inverse = np.argsort(parity_swap(setup))
        initial = [
            ready_state(setup, system_basis_state(setup.observable, s)).amplitudes for s in (0, 1)
        ]
        shape = (setup.total_dim,) * config.k
        report = run_multiworld(config)
        assert len(report.pairs) == 28
        for pair in report.pairs:
            patterns = [[0 if c == "+" else 1 for c in w] for w in (pair.world_a, pair.world_b)]
            differing = [f for f in range(config.k) if patterns[0][f] != patterns[1][f]]
            dense = 0.0
            for t in config.sample_times:
                states = [spectrum.evolve(v, t, config.hbar) for v in initial]
                world_a, world_b = (reduce(np.kron, [states[s] for s in p]) for p in patterns)
                swapped = world_a.reshape(shape)
                for axis in differing:
                    swapped = np.take(swapped, inverse, axis=axis)
                dense = max(dense, np.linalg.norm(swapped.reshape(-1) - world_b))
            assert dense > 0.0
            assert abs(pair.state_residual - dense) <= 1e-15 + 1e-12 * dense

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

    def test_phase_insensitive_is_ignored(self):
        # multiworld residuals are literal, an upper bound on the
        # phase-minimized ones; off grid they are nonzero
        config = multiworld_config(2, M=7, delta=0.3, g=0.7, hbar=0.7, T=1.3)
        literal = run_multiworld(config)
        assert min(pair.state_residual for pair in literal.pairs) > 0.0
        assert run_multiworld(replace(config, phase_insensitive=True)) == literal

    def test_nan_pair_residual_is_not_isomorphic(self, monkeypatch):
        # a NaN in one evolved state at the first sample time reaches every
        # pair, since each differing factor reads both states; it must
        # survive the maximum over the later, finite times
        monkeypatch.setattr(scenario, "evolved_ready", nan_evolved_ready(0))
        report = run_multiworld(multiworld_config(2))
        assert all(np.isnan(pair.state_residual) for pair in report.pairs)
        assert [pair.isomorphic for pair in report.pairs] == [False] * 6
        assert not report.passed

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nan_state_fails_the_run_at_every_k(self, tmp_path, monkeypatch, k):
        # a NaN in the + world at the second sample time: no pair is
        # isomorphic, the report fails, and the CLI exits 4 (a non-finite
        # residual cannot be rendered) at k >= 2 as at k = 1
        monkeypatch.setattr(scenario, "evolved_ready", nan_evolved_ready(1))
        report = run_multiworld(RunConfig(scenario="multiworld", k=k))
        assert len(report.pairs) == 2**k * (2**k - 1) // 2
        assert not any(pair.isomorphic for pair in report.pairs)
        assert not report.passed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "multiworld", "k": k}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["run", str(path)]) == 4
        assert "non-finite value nan" in stderr.getvalue()
        assert stdout.getvalue() == ""

    def test_rejects_large_k(self):
        with pytest.raises(ConfigError):
            multiworld_config(4)

    @pytest.mark.parametrize("times", [None, [0.0]], ids=["default-times", "time-0"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_non_commuting_swap_matches_dense_reference(self, monkeypatch, k, times):
        # the sigma-only swap (system negated, pointer fixed) maps every weight
        # to its negation, so |S H S^dag - H|_F = 2 |H|_F per differing factor.
        # At time 0 alone it carries e_+ (x) ready onto e_- (x) ready exactly,
        # so only that residual keeps a pair from being isomorphic
        def sigma_only(setup):
            n = setup.grid.n_points
            perm = np.array([1, 0])[:, None] * n + np.arange(n)
            return symmetry.sign_flip_factor(setup, perm.ravel())

        dense_init = dense_reference._PointerFactor.__init__

        def dense_sigma_only(factor, config):
            dense_init(factor, config)
            factor.swap = np.kron(np.eye(2)[::-1], np.eye(factor.n)).astype(complex)

        monkeypatch.setattr(scenario, "sign_flip_factor", sigma_only)
        monkeypatch.setattr(dense_reference._PointerFactor, "__init__", dense_sigma_only)
        payload = {"scenario": "multiworld", "k": k, "M": 4, "delta": 0.5, "g": 0.8}
        if times is not None:
            payload["sample_times"] = times
        config = parse_config(json.dumps(payload))
        report = run_multiworld(config)
        dense = dense_reference.dense_report(config)
        dense_pairs = [doc for doc in dense["certificates"] if doc["type"] == "pair-certificate"]
        assert len(report.pairs) == len(dense_pairs) == 2**k * (2**k - 1) // 2
        for pair, twin in zip(report.pairs, dense_pairs):
            assert twin["hamiltonian_residual"] > 1.0
            expected = twin["hamiltonian_residual"]
            assert pair.hamiltonian_residual == pytest.approx(expected, rel=1e-12)
            assert (pair.state_residual == 0.0) == (times is not None)
            assert pair.isomorphic is twin["isomorphic"] is False
        assert report.passed is dense["pass"] is False

    @pytest.mark.parametrize("k", [1, 2])
    def test_uncarried_swap_names_the_missing_residual(self, tmp_path, monkeypatch, k):
        # the spectrum's basis map does not carry the corrupted swap, so its
        # certificate has no drift and the engine has no Hamiltonian residual
        # to report: the run raises with the certificate's note, and the CLI
        # exits 4 with it on stderr and nothing on stdout
        def corrupted(setup):
            return symmetry.sign_flip_factor(setup, symmetry.corrupted_swap(setup))

        monkeypatch.setattr(scenario, "sign_flip_factor", corrupted)
        with pytest.raises(ValueError, match="no Hamiltonian residual") as raised:
            run_multiworld(multiworld_config(k))
        assert symmetry.NOT_CARRIED_NOTE in str(raised.value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "multiworld", "k": k}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["run", str(path)]) == 4
        assert symmetry.NOT_CARRIED_NOTE in stderr.getvalue()
        assert stdout.getvalue() == ""


class TestClassicalLevel:
    def test_default_run_passes(self):
        report = run_classical_level(RunConfig(scenario="classical-level"))
        assert report.passed
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

    def test_nan_world_row_exits_numerical(self, tmp_path, monkeypatch):
        # the ladder's worlds come from the one evolution entry point, so a
        # NaN in its first world's row at the second sample time fails the
        # report and the CLI exits 4: a non-finite residual cannot be rendered
        monkeypatch.setattr(scenario, "evolved_ready", nan_evolved_ready(1))
        report = run_classical_level(RunConfig(scenario="classical-level"))
        assert np.isnan(report.isomorphism_reports[0].state_residuals[1])
        assert not report.pairs[0].isomorphic and not report.passed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "classical-level"}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["run", str(path)]) == 4
        assert "non-finite value nan" in stderr.getvalue()
        assert stdout.getvalue() == ""

    def test_second_world_holds_lambda2(self, monkeypatch):
        # a shift of two exponents, (m, k) -> (m+2, k-2), is a bijection that
        # commutes with H, but it carries the lambda1 world onto outcome
        # lambda1 * ratio^2 = 4, not onto the lambda2 = 2 world the report names;
        # the worlds and lemma 2 share the one swap, so both catch it
        def double_shift(model):
            return np.roll(model.basis_indices(), (-2, 2), axis=(1, 4)).reshape(-1)

        monkeypatch.setattr(symmetry, "scaling_permutation", double_shift)
        report = run_classical_level(RunConfig(scenario="classical-level"))
        assert report.swap_certificates[0].swap_residual == 1.0
        witnesses = {w.observable: w for w in report.pairs[0].witnesses}
        assert witnesses["system_observable"].expectation_b == pytest.approx(2.0, abs=1e-12)
        iso = report.isomorphism_reports[0]
        assert iso.hamiltonian_residual == 0.0
        assert iso.sample_times[0] == 0.0
        assert all(r == pytest.approx(np.sqrt(2), abs=1e-12) for r in iso.state_residuals)
        assert not iso.passed
        assert not report.passed


#: the byte audit's off-grid pointer and ladder outcome pairs
OFF_GRID = {"M": 7, "delta": 0.3, "g": 0.7, "hbar": 0.7, "T": 1.3}
LAMBDA_PAIRS = ((1.0, 1.0), (-1.0, -2.0), (3.0, 7.0), (2.0, 1.0), (1.0, 1.01))


def assert_starts_swap_bitwise(factor):
    a0, b0 = (factor.ready_sum([s]).reshape(-1) for s in factor.starts)
    assert np.array_equal(a0[factor.inverse], b0)


class TestStartSwap:
    """A run checks no t = 0 residual: each factor's swap carries its first
    start onto its second bitwise, and when it does not, the sample-time
    residuals fail the run."""

    @pytest.mark.parametrize(
        "fields",
        # the wraparound guard rejects M = 1 at the default delta
        [{"M": 8}, {"M": 150}, {"M": 1, "delta": 4.0}, OFF_GRID],
        ids=["M8", "M150", "M1", "off-grid"],
    )
    def test_pointer_starts(self, fields):
        assert_starts_swap_bitwise(sign_flip_factor(qubit_setup(RunConfig(**fields))))

    @pytest.mark.parametrize("span", [1, 2, 12])
    @pytest.mark.parametrize("lambda1, lambda2", LAMBDA_PAIRS)
    def test_ladder_starts(self, lambda1, lambda2, span):
        config = RunConfig(
            scenario="classical-level", lambda1=lambda1, lambda2=lambda2,
            ratio_exponent_range=span,
        )
        assert_starts_swap_bitwise(ladder_factor(config))

    def test_mis_started_pointer_factor_fails_at_every_time(self):
        config = RunConfig()
        factor = sign_flip_factor(qubit_setup(config))
        start = factor.starts[0]
        report = scenario._worlds(config, replace(factor, starts=(start, start)), 1)
        residuals = report.isomorphism_reports[0].state_residuals
        assert len(residuals) == len(config.sample_times)
        assert all(r > config.tol for r in residuals)
        assert not report.passed


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
                            sig * model.ratio ** (model.exponent_min + kk)
                        )
    return values


@pytest.mark.parametrize(
    "model",
    [
        build_diagonal_model(RunConfig(scenario="classical-level")),
        GeometricDiagonalModel(ratio=1.5, exponent_min=-2, exponent_max=2, degeneracy=3),
        GeometricDiagonalModel(ratio=0.3, exponent_min=-1, exponent_max=3, base_eigenvalue=0.7),
    ],
)
def test_model_observables_match_loop_oracles(model):
    value = model.base_eigenvalue
    factor = scaling_factor(model, value, value)
    (_, observable), (_, momentum) = factor.frame
    assert observable.shape == (model.dim // factor.block, 1)
    assert momentum.shape == (factor.block,)
    (_, observable), (_, momentum) = expanded_frame(factor)
    assert np.array_equal(observable, model_observable_loops(model))
    assert np.array_equal(momentum, model_momentum_loops(model))


def expanded_frame(factor) -> list:
    """The factor's reference observables as diagonals on its whole basis:
    each local diagonal broadcast over (system ket, block), in C order."""
    shape = (factor.spectrum.dim // factor.block, factor.block)
    return [(name, np.broadcast_to(values, shape).ravel()) for name, values in factor.frame]


# Witness oracle: a reference observable is its real diagonal, and every
# expectation must equal the dense product <psi| diag(values) |psi> bitwise.


def assert_witnesses_match_dense(state_a, state_b, frame):
    pair = (state_a, state_b)
    witnesses = distinctness_witness(state_a, state_b, frame)
    assert [w.observable for w in witnesses] == [name for name, _ in frame]
    for witness, (_, values) in zip(witnesses, frame):
        dense = np.diag(values)
        for expectation, state in zip((witness.expectation_a, witness.expectation_b), pair):
            psi = state.amplitudes
            assert expectation == np.vdot(psi, dense @ psi).real


@pytest.mark.parametrize("M", [1, 8, 50])
def test_pointer_frame_witnesses_match_dense_oracle(M):
    config = RunConfig(M=M, delta=2.0 / M**0.5, g=0.7, T=1.3, hbar=0.9)
    factor = sign_flip_factor(qubit_setup(config))
    setup, spectrum = factor.setup, factor.spectrum
    # an unequal superposition, so both frames see nonzero expectations
    system = ComplexVector(np.array([0.6, 0.8j]))
    start = ready_state(setup, system).amplitudes
    plus = ready_state(setup, system_basis_state(setup.observable, 0)).amplitudes
    (_, position), (_, observable) = factor.frame
    assert position.shape == (setup.grid.n_points,)
    assert observable.shape == (setup.observable.system_dim, 1)
    frame = expanded_frame(factor)
    assert [name for name, _ in frame] == ["pointer_position", "system_observable"]
    for t in (0.37, setup.duration):
        state_a = ComplexVector(spectrum.evolve(start, t, setup.grid.hbar))
        state_b = ComplexVector(spectrum.evolve(plus, t, setup.grid.hbar))
        assert_witnesses_match_dense(state_a, state_b, frame)


@pytest.mark.parametrize("r", [1, 3])
def test_ladder_frame_witnesses_match_dense_oracle(r):
    config = RunConfig(scenario="classical-level", ratio_exponent_range=r, g=0.8, hbar=0.6)
    model = build_diagonal_model(config)
    spectrum = Spectrum(model.diagonal_weights())
    factor = ladder_factor(config)
    (_, observable), (_, momentum) = factor.frame
    assert observable.shape == (model.dim // factor.block, 1)
    assert momentum.shape == (factor.block,)
    frame = expanded_frame(factor)
    assert [name for name, _ in frame] == ["system_observable", "pointer_momentum"]
    # a generic state spread over every basis ket, and one sector state
    generic = np.exp(0.3j * np.arange(model.dim) ** 2) * (1.0 + np.arange(model.dim) / model.dim)
    generic /= np.linalg.norm(generic)
    sector = sector_state_loops(model, 0, r, 1)
    for t in (0.0, 0.41, config.T):
        state_a = ComplexVector(spectrum.evolve(generic, t, config.hbar))
        state_b = ComplexVector(spectrum.evolve(sector, t, config.hbar))
        assert_witnesses_match_dense(state_a, state_b, frame)


def witness_bits(witnesses) -> list:
    return [
        (w.observable, w.expectation_a.hex(), w.expectation_b.hex(), w.gap.hex(), w.distinct)
        for w in witnesses
    ]


def assert_engine_witnesses_match_expanded(factor, report, config):
    # the engine reads each world's expectations once, on its (system ket,
    # block) view; they must equal distinctness_witness on the same final
    # rows against the frame expanded to whole-basis diagonals, bit for bit
    *_, states = evolved_ready(factor, config.sample_times)
    expected = distinctness_witness(states[0], states[1], expanded_frame(factor), config.tol)
    assert witness_bits(report.pairs[0].witnesses) == witness_bits(expected)


@pytest.mark.parametrize(
    "M, grid",
    [
        (1, {"delta": 2.0, "g": 0.0}),  # no travel: on the grid
        (1, {"delta": 2.0, "g": 0.7, "T": 1.3, "hbar": 0.7}),
        (8, {"delta": 0.25}),  # 4 grid steps
        (8, {"delta": 0.3, "g": 0.7, "T": 1.3, "hbar": 0.7}),
        (50, {"delta": 0.125}),
        (50, {"delta": 0.3, "g": 0.7, "T": 1.3, "hbar": 0.7}),
        (2000, {"delta": 1 / 64}),
        (2000, {"delta": 0.3, "g": 0.7, "T": 1.3, "hbar": 0.7}),
    ],
)
def test_engine_pointer_expectations_match_expanded_diagonals(M, grid):
    config = RunConfig(M=M, **grid)
    factor = sign_flip_factor(qubit_setup(config))
    assert_engine_witnesses_match_expanded(factor, run_prince_pauper(config), config)


@pytest.mark.parametrize("r", [1, 3, 12])
def test_engine_ladder_expectations_match_expanded_diagonals(r):
    config = RunConfig(scenario="classical-level", ratio_exponent_range=r, g=0.8, hbar=0.6)
    factor = ladder_factor(config)
    assert_engine_witnesses_match_expanded(factor, run_classical_level(config), config)


def dense_operators_built(monkeypatch, run, config) -> list:
    """Every DenseOperator constructed while `run(config)` executes."""
    built = []
    construct = DenseOperator.__init__

    def recording(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(DenseOperator, "__init__", recording)
    run(config)
    monkeypatch.undo()
    return built


@pytest.mark.parametrize(
    "run, config",
    [(run_prince_pauper, RunConfig()), (run_multiworld, RunConfig(scenario="multiworld", k=2))],
)
def test_pointer_runs_build_no_dense_observable(monkeypatch, run, config):
    # the Hamiltonian is the pointer spectrum and reference observables stay
    # diagonals, so no dense operator is built at all
    assert dense_operators_built(monkeypatch, run, config) == []


def test_classical_level_builds_only_its_hamiltonian(monkeypatch):
    # ... and that Hamiltonian is the ladder's diagonal spectrum, not an operator
    config = RunConfig(scenario="classical-level", ratio_exponent_range=2)
    assert dense_operators_built(monkeypatch, run_classical_level, config) == []


@pytest.mark.parametrize(
    "run, config, dim",
    [
        (run_prince_pauper, RunConfig(M=400), 2 * 801),
        (run_classical_level, RunConfig(scenario="classical-level", ratio_exponent_range=10), 3528),
    ],
)
def test_peak_allocation_below_one_dense_operator(run, config, dim):
    # a deterministic memory guard: the traced peak of a whole run stays below
    # the bytes of one dense dim x dim complex array
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * dim**2


def test_multiworld_peak_below_one_product_vector():
    # pairs are certified from per-factor states: the traced peak of a k = 3
    # run stays below one complex product vector of (2(2M+1))^3 = 34^3 entries
    tracemalloc.start()
    try:
        report = run_multiworld(RunConfig(scenario="multiworld", k=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 34**3


OFF_GRID = dict(M=7, delta=0.3, g=0.7, hbar=0.7, T=1.3)
SHORT_TIMES = dict(sample_times=(0.0, 0.3, 0.7))


@pytest.mark.parametrize(
    "run, base",
    [(run_prince_pauper, {}), (run_multiworld, {"scenario": "multiworld", "k": 2})],
    ids=["prince-pauper", "multiworld-k2"],
)
@pytest.mark.parametrize(
    "overrides",
    [{}, OFF_GRID, SHORT_TIMES, {**OFF_GRID, **SHORT_TIMES}, {"tol": 1e-30}],
    ids=["desk", "off-grid", "short-times", "off-grid-short-times", "tight"],
)
def test_run_swap_certificate_renders_as_certify_lemma1(run, base, overrides):
    # a run reads lemma 1's swap residual off its worlds' evolution at T,
    # whether T is a sample time or evolved after them; alone, lemma 1 evolves
    # the ready kets to T itself. The two records render byte for byte alike
    config = RunConfig(**base, **overrides)
    (certificate,) = run(config).swap_certificates
    alone = certify_lemma1(qubit_setup(config), tol=config.tol)
    assert render_json(certificate) == render_json(alone)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {**OFF_GRID, "phase_insensitive": False},
        {**OFF_GRID, "phase_insensitive": True},
        SHORT_TIMES,
        {"g": 0.0},
        {"M": 2000},
    ],
    ids=["desk", "off-grid", "off-grid-phase-insensitive", "short-times", "zero-coupling", "M2000"],
)
def test_multiworld_one_factor_reports_as_prince_pauper(overrides):
    # prince-pauper is multiworld's k = 1 case: rendered under one config
    # echo, the two reports are the same bytes
    config = RunConfig(**overrides)
    one_factor = run_multiworld(replace(config, scenario="multiworld", k=1))
    assert emit_report(one_factor, config) == emit_report(run_prince_pauper(config), config)


def test_multiworld_one_factor_fails_as_prince_pauper(tmp_path):
    # at tol 1e-30 both runs fail the same checks: the same stderr lines and
    # exit code, and the same report once the config echo names one scenario
    results = []
    for payload in ({"scenario": "prince-pauper"}, {"scenario": "multiworld", "k": 1}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", str(path), "--tol", "1e-30"])
        results.append((code, stdout.getvalue(), stderr.getvalue()))
    (pp_code, pp_out, pp_err), (mw_code, mw_out, mw_err) = results
    assert pp_code == mw_code == 3
    assert pp_err == mw_err and pp_err
    assert mw_out.count('"scenario": "multiworld"') == 1
    assert mw_out.replace('"scenario": "multiworld"', '"scenario": "prince-pauper"') == pp_out


@pytest.mark.parametrize(
    "run, config",
    [
        (run_prince_pauper, RunConfig()),
        (run_classical_level, RunConfig(scenario="classical-level", lambda1=1.0, lambda2=2.0)),
    ],
    ids=["prince-pauper", "classical-level"],
)
def test_nan_state_residual_fails_the_one_factor_run(monkeypatch, run, config):
    # the second call is the second sample time; its NaN must survive the
    # maximum over the later times, into the isomorphism report and the pair
    calls = []
    residual = scenario._state_residual

    def nan_on_second_call(mapped, state_b, phase_insensitive):
        calls.append(1)
        return np.nan if len(calls) == 2 else residual(mapped, state_b, phase_insensitive)

    monkeypatch.setattr(scenario, "_state_residual", nan_on_second_call)
    report = run(config)
    (iso,) = report.isomorphism_reports
    (pair,) = report.pairs
    assert np.isnan(iso.state_residuals[1])
    assert not any(np.isnan(r) for i, r in enumerate(iso.state_residuals) if i != 1)
    assert np.isnan(pair.state_residual)
    assert not iso.passed
    assert not pair.isomorphic
    assert not report.passed
