"""The dense reference: every numeric field of a report, recomputed the slow way.

``dense_report(config)`` shares no computation with the production path; it
reads only the config's fields:

* H from ``np.kron``, with the pointer momentum F^dag diag(p) F built from the
  explicit N x N DFT matrix F (no FFT), and the ladder's H as the dense
  diagonal of its weights, written out ket by ket;
* U(t) from ``numpy.linalg.eigh`` of H. For multiworld, U is the ``np.kron``
  of the per-factor exponentials and the states are Kronecker products, so
  the product space is never diagonalized;
* every swap as a dense 0/1 matrix, built from its definition on basis kets;
* witnesses as <psi| diag(v) |psi> = sum_i v_i |psi_i|^2, and readouts as
  traces of each factor's reduced density matrix with dense branch projectors;
* the cross-construction distance as sqrt(system_dim) |(tau - F^dag tau F) P|_F
  for the pointer reversal tau and the probe P of three pointer columns.

Its result has the layout of the parsed ``report.json`` without ``meta``.
``RESIDUAL_BOUNDS`` and ``VALUE_BOUND`` state how far a report may sit from
it; each residual bound is at least 100 times below the default tolerance
1e-10, so a pass flag cannot flip between the two.

The module also holds the dense test helpers that have no production caller:
the DFT matrix and momentum operator of a grid, the CCR defect and its
Gaussian test state, the momentum-basis twin of the parity swap and the
basis-transport check.
"""

from __future__ import annotations

import functools
import itertools
from functools import reduce

import numpy as np

from swaplab.linalg import (
    HERMITIAN,
    UNITARY,
    ComplexVector,
    DenseOperator,
    DimensionError,
    permutation_inverse,
)

#: largest |report - dense| of each residual field, absolute
RESIDUAL_BOUNDS = {
    "commutator_residual": 1e-13,  # relative to |H|_F on both sides
    "unitarity_defect": 0.0,
    "swap_residual": 1e-12,
    "intertwining_residual": 1e-12,
    "cross_construction_distance": 1e-13,
    "state_residuals": 1e-12,
    "state_residual": 1e-12,
    "hamiltonian_residual": 1e-12,
}
#: largest |report - dense| of a readout, witness expectation or gap
VALUE_BOUND = 1e-9
#: fields the report echoes from the config, which must match exactly
ECHOED_FIELDS = ("sample_times", "tolerance")

QUBIT = np.array([1.0, -1.0])
LADDER_DEGENERACY = 2
SAMPLE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
ZERO_BRANCH = 1e-12


def dft_matrix(half_width: int) -> np.ndarray:
    """Centred DFT analysis map on 2*half_width + 1 points; row j is <p_j|zeta>."""
    index = np.arange(-half_width, half_width + 1)
    n = index.size
    return np.exp(-2j * np.pi * np.outer(index, index) / n) / np.sqrt(n)


def momentum_operator(grid) -> DenseOperator:
    """p_Z = F^dag diag(momenta) F."""
    fourier = dft_matrix(grid.half_width)
    return DenseOperator(fourier.conj().T @ np.diag(grid.momenta) @ fourier, HERMITIAN)


def gaussian_pointer_state(grid, width: float) -> ComplexVector:
    """Normalized Gaussian centred at zeta = 0 with the given position width."""
    profile = np.exp(-grid.zeta**2 / (4 * width**2)).astype(complex)
    return ComplexVector(profile / np.linalg.norm(profile))


def ccr_defect(grid, state: ComplexVector = None) -> float:
    """Norm of ([Z, p_Z] - i hbar) applied to a smooth centred test state.

    The canonical commutation relation cannot hold as a matrix identity in
    finite dimension (the two sides have unequal traces), so the residual is
    measured on states supported in the central half of the grid, where it
    decays under grid refinement.
    """
    if state is None:
        state = gaussian_pointer_state(grid, grid.n_points * grid.spacing / 10)
    if state.dim != grid.n_points:
        raise DimensionError(f"state dim {state.dim} != grid size {grid.n_points}")
    # the position operator is diag(zeta), so Z p and p Z scale rows and columns
    p = momentum_operator(grid).entries
    commutator = grid.zeta[:, None] * p - p * grid.zeta
    residual = commutator @ state.amplitudes - 1j * grid.hbar * state.amplitudes
    return float(np.linalg.norm(residual))


def parity_swap_momentum(setup) -> DenseOperator:
    """Sign-flip swap built in the momentum basis, (lambda, p) -> (-lambda, -p),
    conjugated back to the position representation."""
    observable = setup.observable
    labels = np.arange(observable.system_dim).reshape(observable.n_eigenvalues, -1)
    negation = labels[observable.negation_index()].reshape(-1)
    sys_perm = np.zeros((observable.system_dim, observable.system_dim))
    sys_perm[negation, np.arange(observable.system_dim)] = 1.0
    fourier = dft_matrix(setup.grid.half_width)
    pointer_part = fourier.conj().T @ np.eye(setup.grid.n_points)[::-1] @ fourier
    return DenseOperator(np.kron(sys_perm, pointer_part), UNITARY)


def basis_transport_check(swap, basis, triple_a, triple_b, times, tolerance=1e-10) -> bool:
    """With beta_j = S alpha_j for the index-array swap S, verify
    <alpha_j|psi(t)> = <beta_j|phi(t)> for all j and t, and
    <alpha_j|H|alpha_k> = <beta_j|H'|beta_k> for all j, k."""
    matrix = np.column_stack([vector.amplitudes for vector in basis])
    if matrix.shape[0] != triple_a.dim:
        raise DimensionError("basis vectors must match the triple dimension")
    gram = matrix.conj().T @ matrix
    ortho_defect = float(np.abs(gram - np.eye(matrix.shape[1])).max())
    if ortho_defect > tolerance:
        raise ValueError(f"basis is not orthonormal: max deviation {ortho_defect:.3e}")

    transported = matrix[permutation_inverse(swap, triple_a.dim)]
    for state_a, state_b in zip(triple_a.states_at(times), triple_b.states_at(times)):
        amplitudes_a = matrix.conj().T @ state_a.amplitudes
        amplitudes_b = transported.conj().T @ state_b.amplitudes
        if np.abs(amplitudes_a - amplitudes_b).max() > tolerance:
            return False

    elements_a = matrix.conj().T @ triple_a.hamiltonian.entries @ matrix
    elements_b = transported.conj().T @ triple_b.hamiltonian.entries @ transported
    return bool(np.abs(elements_a - elements_b).max() <= tolerance)


# The dense report.


def _norm(matrix) -> float:
    return float(np.linalg.norm(matrix))


class _Eigh:
    """H = V diag(w) V^dag from one dense eigh, and exp(-i H t / hbar) through it."""

    def __init__(self, hamiltonian: np.ndarray, hbar: float):
        self.weights, self.vectors = np.linalg.eigh(hamiltonian)
        self.hbar = hbar

    def phases(self, t: float) -> np.ndarray:
        return np.exp(-1j * self.weights * t / self.hbar)

    def evolve(self, t: float, state: np.ndarray) -> np.ndarray:
        return self.vectors @ (self.phases(t) * (self.vectors.conj().T @ state))

    def exponential(self, t: float) -> np.ndarray:
        return (self.vectors * self.phases(t)) @ self.vectors.conj().T


def _distance(a: np.ndarray, b: np.ndarray, phase_insensitive: bool) -> float:
    """|a - b|, or its minimum over a global phase on b."""
    if phase_insensitive:
        inner = np.vdot(b, a)
        b = b * (inner / abs(inner) if inner != 0 else 1.0)
    return _norm(a - b)


def _expectations(frame, state) -> list:
    """<psi| diag(v) |psi> = sum_i v_i |psi_i|^2 for each (name, v) of the frame."""
    weights = np.abs(state) ** 2
    return [float(values @ weights) for _, values in frame]


def _witnesses(frame, expectations_a, expectations_b, tol) -> list:
    witnesses = []
    for (name, _), a, b in zip(frame, expectations_a, expectations_b):
        gap = abs(a - b)
        witnesses.append(
            {"observable": name, "expectation_a": a, "expectation_b": b, "gap": gap,
             "distinct": gap > tol}
        )
    return witnesses


def _swap_certificate(hamiltonian, swap, eigh, times, swap_residual, cross, tol, kind):
    """The residuals of a dense swap against a dense H. U(t) = V E V^dag, so
    |U S - S U|_F = |E M - M E|_F, whose entries are (e_i - e_j) M_ij for
    M = V^dag S V, the swap in the eigenbasis of the dense eigh."""
    hnorm = _norm(hamiltonian)
    commutator = _norm(hamiltonian @ swap - swap @ hamiltonian)
    twin = eigh.vectors.conj().T @ swap @ eigh.vectors
    intertwining = max(
        _norm((phases[:, None] - phases[None, :]) * twin)
        for phases in (eigh.phases(t) for t in times)
    )
    residuals = {
        "commutator_residual": commutator / hnorm if hnorm > 0 else commutator,
        "unitarity_defect": _norm(swap.conj().T @ swap - np.eye(len(swap))),
        "swap_residual": swap_residual,
        "intertwining_residual": intertwining,
        "cross_construction_distance": cross,
    }
    passed = all(value <= tol for value in residuals.values() if value is not None)
    return {"type": "swap-certificate", "construction": kind, **residuals, "passed": passed}


class _PointerFactor:
    """One qubit measured by one pointer: H = -g A x p_Z, its exponential, the
    parity swap sigma x R as a 0/1 matrix and the ready states."""

    def __init__(self, config):
        m, n = config.M, 2 * config.M + 1
        index = np.arange(-m, m + 1)
        self.n, self.zeta = n, index * config.delta
        momenta = 2 * np.pi * config.hbar * index / (n * config.delta)
        self.fourier = dft_matrix(m)
        momentum = self.fourier.conj().T @ np.diag(momenta) @ self.fourier
        self.hamiltonian = -config.g * np.kron(np.diag(QUBIT), momentum)
        self.reversal = np.eye(n)[::-1]
        self.swap = np.kron(np.eye(2)[::-1], self.reversal).astype(complex)
        self.eigh = _Eigh(self.hamiltonian, config.hbar)
        centre = np.eye(n)[m]
        self.ready = [np.kron(np.eye(2)[s], centre) for s in (0, 1)]
        self.frame = (
            ("pointer_position", np.kron(np.ones(2), self.zeta)),
            ("system_observable", np.kron(QUBIT, np.ones(n))),
        )

    def certificate(self, config) -> dict:
        final = [self.eigh.evolve(config.T, ready) for ready in self.ready]
        swap_residual = max(_norm(self.swap @ final[s] - final[1 - s]) for s in (0, 1))
        m = config.M
        probe = np.eye(self.n)[:, m - 1 : m + 2]
        twin = self.fourier.conj().T @ self.reversal @ self.fourier
        cross = np.sqrt(2) * _norm(self.reversal @ probe - twin @ probe)
        times = [fraction * config.T for fraction in SAMPLE_FRACTIONS]
        return _swap_certificate(
            self.hamiltonian, self.swap, self.eigh, times, swap_residual, cross,
            config.tol, "position-basis",
        )

    def readout(self, config, k: int):
        """state -> the branch readouts of each factor of a k-factor product
        state: traces of the factor's reduced density matrix with dense
        branch projectors and projected pointer positions."""
        dim = 2 * self.n
        branches = [
            (np.diag(np.kron(np.eye(2)[i], np.ones(self.n))),
             np.diag(np.kron(np.eye(2)[i], self.zeta)))
            for i in range(QUBIT.size)
        ]
        scale = config.g * config.T

        def table(density):
            rows = []
            for eigenvalue, (projector, position) in zip(QUBIT, branches):
                probability = float(np.trace(density @ projector).real)
                mean = inferred = None
                if probability >= ZERO_BRANCH:
                    mean = float(np.trace(density @ position).real) / probability
                    inferred = -mean / scale if scale > 0 else None
                rows.append({"eigenvalue": eigenvalue, "probability": probability,
                             "pointer_mean": mean, "inferred_outcome": inferred})
            return rows

        def read(state):
            amplitudes = state.reshape((dim,) * k)
            factors = (np.moveaxis(amplitudes, f, 0).reshape(dim, -1) for f in range(k))
            return [table(factor @ factor.conj().T) for factor in factors]

        return read


def _pair(labels, residual, hamiltonian_residual, witnesses, isomorphic) -> dict:
    system = [w["observable"].startswith("system_observable") for w in witnesses]
    return {
        "type": "pair-certificate", "world_a": labels[0], "world_b": labels[1],
        "state_residual": residual, "hamiltonian_residual": hamiltonian_residual,
        "pointer_gaps": [w["gap"] for w, s in zip(witnesses, system) if not s],
        "system_gaps": [w["gap"] for w, s in zip(witnesses, system) if s],
        "isomorphic": isomorphic, "distinct": any(w["distinct"] for w in witnesses),
    }


def _distinctness(pair, witnesses) -> dict:
    return {"world_a": pair["world_a"], "world_b": pair["world_b"],
            "max_gap": max((w["gap"] for w in witnesses), default=0.0),
            "witnesses": witnesses}


def _two_worlds(certificate, hamiltonian, swap, eigh, starts, config, frame, labels,
                read, distinct_required=True) -> dict:
    tol = config.tol
    residuals = [
        _distance(swap @ eigh.evolve(t, starts[0]), eigh.evolve(t, starts[1]),
                  config.phase_insensitive)
        for t in config.sample_times
    ]
    conjugation = _norm(swap @ hamiltonian @ swap.conj().T - hamiltonian)
    iso_passed = all(r <= tol for r in residuals) and conjugation <= tol
    iso = {"type": "isomorphism-report", "sample_times": list(config.sample_times),
           "state_residuals": residuals, "hamiltonian_residual": conjugation,
           "tolerance": tol, "passed": iso_passed}
    initial = _norm(swap @ starts[0] - starts[1])
    finals = [eigh.evolve(config.T, start) for start in starts]
    witnesses = _witnesses(frame, *(_expectations(frame, final) for final in finals), tol)
    pair = _pair(labels, max(residuals), conjugation, witnesses, iso_passed)
    passed = (certificate["passed"] and iso_passed and initial <= tol
              and (pair["distinct"] or not distinct_required))
    return {
        "certificates": [certificate, iso, pair],
        "distinctness": [_distinctness(pair, witnesses)],
        "worlds": [{"label": label, "factors": read(final)} for label, final in zip(labels, finals)],
        "pass": passed,
    }


def _lone(certificate) -> dict:
    return {"certificates": [certificate], "distinctness": [], "worlds": [],
            "pass": certificate["passed"]}


def _prince_pauper(config) -> dict:
    factor = _PointerFactor(config)
    return _two_worlds(
        factor.certificate(config), factor.hamiltonian, factor.swap, factor.eigh,
        factor.ready, config, factor.frame, ("+", "-"), factor.readout(config, 1),
    )


def _multiworld(config) -> dict:
    if config.k == 1:  # prince-pauper is multiworld's one-factor case
        return _prince_pauper(config)
    k, tol = config.k, config.tol
    factor = _PointerFactor(config)
    certificate = factor.certificate(config)
    eye = np.eye(2 * factor.n)

    def embed(operator, f):  # the factor-f operator on the product space
        return reduce(np.kron, [operator if g == f else eye for g in range(k)])

    patterns = list(itertools.product((0, 1), repeat=k))
    labels = ["".join("+-"[s] for s in pattern) for pattern in patterns]
    starts = [reduce(np.kron, [factor.ready[s] for s in pattern]) for pattern in patterns]

    @functools.cache
    def states(t):
        exponential = reduce(np.kron, [factor.eigh.exponential(t)] * k)
        return [exponential @ start for start in starts]

    finals = states(config.T)
    ones = np.ones(eye.shape[0])
    frame = [
        (f"{name}[{f}]", reduce(np.kron, [values if g == f else ones for g in range(k)]))
        for f in range(k) for name, values in factor.frame
    ]
    expectations = [_expectations(frame, final) for final in finals]
    # S H S^dag - H on the product space is the sum of the differing factors'
    # deviations, each embedded; no product-space matrix product is formed
    deviation = factor.swap @ factor.hamiltonian @ factor.swap.conj().T - factor.hamiltonian
    deviations = [embed(deviation, f) for f in range(k)]

    @functools.cache
    def swap_and_conjugation(differing: tuple):
        swap = reduce(np.kron, [factor.swap if f in differing else eye for f in range(k)])
        return swap, _norm(reduce(np.add, [deviations[f] for f in differing]))

    pairs, distinctness = [], []
    for i, j in itertools.combinations(range(len(patterns)), 2):
        differing = tuple(f for f in range(k) if patterns[i][f] != patterns[j][f])
        swap, conjugation = swap_and_conjugation(differing)
        residual = max(
            _norm(swap @ states(t)[i] - states(t)[j]) for t in config.sample_times
        )
        witnesses = _witnesses(frame, expectations[i], expectations[j], tol)
        isomorphic = residual <= tol and conjugation <= tol
        pair = _pair((labels[i], labels[j]), residual, conjugation, witnesses, isomorphic)
        pairs.append(pair)
        distinctness.append(_distinctness(pair, witnesses))

    read = factor.readout(config, k)
    passed = (certificate["passed"] and len(patterns) == 2**k
              and all(p["isomorphic"] and p["distinct"] for p in pairs))
    return {
        "certificates": [certificate, *pairs],
        "distinctness": distinctness,
        "worlds": [{"label": label, "factors": read(final)} for label, final in zip(labels, finals)],
        "pass": passed,
    }


class _Ladder:
    """The geometric ladder over (sign_sys, m, label, sign_p, k): its diagonal
    H, written out ket by ket, the scaling swap (m, k) -> (m+1, k-1) as a 0/1
    matrix, the sector states and the reference observables."""

    def __init__(self, config):
        r = config.ratio_exponent_range
        self.length = length = 2 * r + 1
        ratio = config.lambda2 / config.lambda1
        base = abs(config.lambda1)
        self.shape = (2, length, LADDER_DEGENERACY, 2, length)
        dim = int(np.prod(self.shape))
        signs = (1.0, -1.0)
        weights = np.empty(dim)
        self.swap = np.zeros((dim, dim))
        # kets in C order over the shape, so a ket's index is its position
        kets = list(itertools.product(*map(range, self.shape)))
        index = {ket: position for position, ket in enumerate(kets)}
        for source, (sign_sys, m, label, sign_p, k) in enumerate(kets):
            exponent = -r + (-r + m + k) % length
            weights[source] = -config.g * base * signs[sign_sys] * signs[sign_p] * ratio**exponent
            shifted = (sign_sys, (m + 1) % length, label, sign_p, (k - 1) % length)
            self.swap[source if ratio == 1.0 else index[shifted], source] = 1.0
        self.eigenvalues = {  # (sign_sys, m) -> outcome eigenvalue
            (sign_sys, m): signs[sign_sys] * base * ratio ** (-r + m)
            for sign_sys in (0, 1) for m in range(length)
        }
        self.hamiltonian = np.diag(weights)
        self.eigh = _Eigh(self.hamiltonian, config.hbar)
        powers = np.array([ratio ** (-r + m) for m in range(length)])
        system = np.kron(np.kron(signs, base * powers), np.ones(LADDER_DEGENERACY))
        momentum = np.kron(signs, powers)
        self.frame = (
            ("system_observable", np.kron(system, np.ones(2 * length))),
            ("pointer_momentum", np.kron(np.ones(system.size), momentum)),
        )

    def sector(self, value: float) -> tuple:
        return min(self.eigenvalues, key=lambda key: abs(self.eigenvalues[key] - value))

    def sector_state(self, sector: tuple, label: int) -> np.ndarray:
        state = np.zeros(self.shape, dtype=complex)
        state[sector + (label,)] = 1.0
        state = state.reshape(-1)
        return state / _norm(state)

    def certificate(self, config) -> dict:
        if config.lambda1 == config.lambda2:  # the identity automorphism
            residuals = dict.fromkeys(
                ("commutator_residual", "unitarity_defect", "swap_residual",
                 "intertwining_residual"), 0.0)
            return {"type": "swap-certificate", "construction": "scaling", **residuals,
                    "cross_construction_distance": None, "passed": True}
        source, target = self.sector(config.lambda1), self.sector(config.lambda2)
        kets = np.arange(self.swap.shape[0]).reshape(self.shape)
        mapping_exact = all(
            self.swap[kets[target + (label, sign_p, (k - 1) % self.length)],
                      kets[source + (label, sign_p, k)]] == 1.0
            for label in range(LADDER_DEGENERACY) for sign_p in (0, 1)
            for k in range(self.length)
        )
        deficits = [
            abs(1.0 - _norm((self.swap @ self.sector_state(source, label))[
                kets[target + (label,)].reshape(-1)]))
            for label in range(LADDER_DEGENERACY)
        ]
        swap_residual = max([0.0 if mapping_exact else 1.0, *deficits])
        return _swap_certificate(
            self.hamiltonian, self.swap, self.eigh, config.sample_times, swap_residual,
            None, config.tol, "scaling",
        )


def _classical_level(config) -> dict:
    ladder = _Ladder(config)
    values = (config.lambda1, config.lambda2)
    # the shortest text that round-trips each outcome
    labels = tuple(f"outcome {repr(float(value)).removesuffix('.0')}" for value in values)
    return _two_worlds(
        ladder.certificate(config), ladder.hamiltonian, ladder.swap, ladder.eigh,
        [ladder.sector_state(ladder.sector(value), 0) for value in values], config,
        ladder.frame, labels, lambda final: [],
        distinct_required=config.lambda1 != config.lambda2,
    )


def dense_report(config) -> dict:
    """The report of ``config`` (a parsed RunConfig) from dense linear algebra,
    laid out as the parsed report.json without its ``meta``."""
    if config.scenario == "prince-pauper":
        return _prince_pauper(config)
    if config.scenario == "multiworld":
        return _multiworld(config)
    if config.scenario == "classical-level":
        return _classical_level(config)
    if config.scenario == "certify-lemma1":
        return _lone(_PointerFactor(config).certificate(config))
    return _lone(_Ladder(config).certificate(config))
