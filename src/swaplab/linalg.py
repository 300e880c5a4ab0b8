"""Complex linear algebra substrate: the spectral Hamiltonian and the dense oracles.

Every Hamiltonian on a production path is a ``Spectrum``: real weights in
a basis that is the identity on a leading factor times the centred DFT on a
trailing one, and every state is an amplitude array. The dense oracles'
vectors and operators are thin immutable wrappers around numpy arrays; a
vector converts to its amplitude array. Operators carry an advisory kind tag
(``general``, ``hermitian``, ``unitary``) that is verified against its
tolerance on construction; operations that rely on a tag recheck it.

Everything here is a pure function of its inputs; the wrapped buffers are
frozen, so values are safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
UNIT_TOL = 1e-12

#: amplitudes per transform call of a batched evolution: a desk-scale run maps
#: all its sample times back in one call, and a run with a larger state one
#: time per call, so memory does not grow with the number of sample times
EVOLVE_BATCH = 2**14

GENERAL = "general"
HERMITIAN = "hermitian"
UNITARY = "unitary"
KINDS = (GENERAL, HERMITIAN, UNITARY)


class KindError(TypeError):
    """An operand's kind tag does not fit the requested operation."""


class DimensionError(ValueError):
    """Operand dimensions are incompatible."""


class NumericalError(RuntimeError):
    """A dense factorization failed; the message carries diagnostics."""


def frobenius_norm(matrix) -> float:
    """|matrix|_F of a float or complex array with ``numpy.linalg.norm``'s arithmetic."""
    x = np.asarray(matrix).ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class ComplexVector:
    """Vector in a finite-dimensional complex Hilbert space."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise DimensionError(
                f"expected a nonempty 1-d amplitude array, got shape {amps.shape}"
            )
        self.amplitudes = _freeze(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return frobenius_norm(self.amplitudes)

    def require_unit(self) -> "ComplexVector":
        deviation = abs(self.norm() - 1.0)
        if not deviation <= NORM_TOL:
            raise ValueError(f"state vector is not normalized: |norm - 1| = {deviation:.3e}")
        return self

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The frozen amplitudes, so that an array function takes the vector;
        a copy only when numpy 2 passes ``copy=True`` (numpy 1 passes none)."""
        if copy:
            return np.array(self.amplitudes, dtype=dtype)
        return np.asarray(self.amplitudes, dtype=dtype)


class DenseOperator:
    """Dense square operator with a verified kind tag."""

    __slots__ = ("entries", "kind")

    def __init__(self, entries, kind: str = GENERAL):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise DimensionError(f"expected a nonempty square matrix, got shape {mat.shape}")
        if kind not in KINDS:
            raise KindError(f"unknown operator kind {kind!r}")
        self.entries = _freeze(mat)
        self.kind = kind
        self._verify_kind()

    def _verify_kind(self) -> None:
        if self.kind == HERMITIAN:
            defect = frobenius_norm(self.entries - self.entries.conj().T)
            if not defect <= HERM_TOL * frobenius_norm(self.entries):
                raise KindError(f"hermitian tag rejected: |M - M^dag|_F = {defect:.3e}")
        elif self.kind == UNITARY:
            defect = unitarity_defect(self)
            if not defect <= UNIT_TOL * np.sqrt(self.dim):
                raise KindError(f"unitary tag rejected: |U^dag U - I|_F = {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other):
        if isinstance(other, DenseOperator):
            if other.dim != self.dim:
                raise DimensionError(f"operator dims differ: {self.dim} vs {other.dim}")
            return DenseOperator(self.entries @ other.entries)
        if isinstance(other, ComplexVector):
            if other.dim != self.dim:
                raise DimensionError(f"operator dim {self.dim} vs vector dim {other.dim}")
            return ComplexVector(self.entries @ other.amplitudes)
        return NotImplemented


def basis_vector(dim: int, index: int) -> ComplexVector:
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return ComplexVector(amps)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # complex Kronecker assembled from separately rounded real products, so
    # entries match scalar complex multiplication bitwise (no SIMD fusion)
    out = np.empty(tuple(nx * ny for nx, ny in zip(x.shape, y.shape)), dtype=complex)
    out.real = np.kron(x.real, y.real) - np.kron(x.imag, y.imag)
    out.imag = np.kron(x.real, y.imag) + np.kron(x.imag, y.real)
    return out


def tensor_product(a, b):
    """Kronecker product of two vectors or two operators."""
    if isinstance(a, ComplexVector) and isinstance(b, ComplexVector):
        return ComplexVector(_kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DenseOperator) and isinstance(b, DenseOperator):
        if a.kind == b.kind and a.kind in (HERMITIAN, UNITARY):
            kind = a.kind
        else:
            kind = GENERAL
        return DenseOperator(_kron(a.entries, b.entries), kind)
    raise KindError(
        "tensor_product expects two vectors or two operators, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def _centred_dft_axis(transform, n_points: int, amplitudes: np.ndarray) -> np.ndarray:
    # centred transform along the trailing factor of a (leading x trailing)
    # array, column by column: ifftshift, transform, fftshift; size 1 is the
    # identity. For odd N both shifts are the rotations below; slicing does
    # them without np.roll's overhead.
    if n_points == 1:
        return amplitudes
    half = n_points // 2
    blocks = amplitudes.reshape(-1, n_points, *amplitudes.shape[1:])
    shifted = np.concatenate((blocks[:, half:], blocks[:, :half]), axis=1)
    out = transform(shifted, axis=1, norm="ortho")
    del shifted  # freed before the second copy, so no third state-sized array is live
    return np.concatenate((out[:, half + 1 :], out[:, : half + 1]), axis=1).reshape(
        amplitudes.shape
    )


class Spectrum:
    """A Hermitian operator in its eigenbasis: H = W^dag diag(weights) W.

    W is the identity on a leading factor times the centred orthonormal DFT
    on a trailing factor of odd size ``dft_size``, which must divide the
    weight count; size 1 is the identity map.
    ``to_eigen`` applies W and ``from_eigen`` applies W^dag along the leading
    axis of an amplitude array, so a matrix is mapped column by column, and
    every time evolution in the package goes through ``evolutions``. Such a W
    carries a swap sigma x tau, tau the identity or the reversal of the
    trailing factor, onto the same index array, because the centred DFT maps
    reversal to reversal (``carried_factor``). A diagonal one may keep its
    weights as a table of their distinct values (``on_levels``).
    """

    __slots__ = ("weights", "dft_size", "levels", "level_index")

    def __init__(self, weights, dft_size: int = 1):
        values = np.asarray(weights)
        if np.iscomplexobj(values):
            raise KindError("spectrum weights must be real, as a Hermitian operator's are")
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DimensionError(f"expected a nonempty 1-d weight array, got shape {values.shape}")
        # the centring shifts are rotations by N // 2 only for odd N
        if dft_size < 1 or dft_size % 2 == 0 or values.size % dft_size:
            raise DimensionError(
                f"dft_size must be odd and divide the {values.size} weights, got {dft_size}"
            )
        self.weights = _freeze(values)
        self.dft_size = dft_size
        self.levels, self.level_index = self.weights, None  # no table: every weight a level

    @classmethod
    def on_levels(cls, levels, level_index) -> Spectrum:
        """The diagonal spectrum with weights ``levels[level_index]``, keeping the table."""
        index = _freeze(np.array(level_index))
        if index.dtype.kind not in "iu" or index.min(initial=0) < 0:
            raise DimensionError("level_index must hold nonnegative integers")
        spectrum = cls(np.asarray(levels)[index])  # rejects complex levels as it does weights
        spectrum.levels, spectrum.level_index = _freeze(np.array(levels, dtype=float)), index
        return spectrum

    @property
    def dim(self) -> int:
        return self.weights.size

    def to_eigen(self, amplitudes: np.ndarray) -> np.ndarray:
        """W applied along the leading axis."""
        return _centred_dft_axis(np.fft.fft, self.dft_size, amplitudes)

    def from_eigen(self, amplitudes: np.ndarray) -> np.ndarray:
        """W^dag applied along the leading axis."""
        return _centred_dft_axis(np.fft.ifft, self.dft_size, amplitudes)

    def carried_factor(self, perm) -> np.ndarray | None:
        """tau when the swap ``perm`` (a bijection of range(dim)) is
        sigma x tau over (dim / dft_size, dft_size) with tau the identity or
        the reversal, so that W carries it onto the same index array and
        W S W^dag = S; None for any other swap. An exact integer check."""
        n = self.dft_size
        rows = np.asarray(perm).reshape(-1, n)
        for tau in (np.arange(n), np.arange(n - 1, -1, -1)):
            offsets = rows[:, :1] - tau[0]
            # runs of n indices that tile range(dim) start at multiples of n
            if np.array_equal(rows, offsets + tau):
                return tau
        return None

    def phases(self, t: float, hbar: float = 1.0) -> np.ndarray:
        """exp(-i w t / hbar) per weight as ((-i w) t) / hbar, once per level if tabled."""
        phases = np.exp(-1j * self.levels * t / hbar)
        return phases if self.level_index is None else phases[self.level_index]

    def evolutions(self, amplitudes, times, hbar: float = 1.0):
        """exp(-i H t / hbar) applied to a vector, or to each column of a
        matrix, for each t in ``times``, yielded one C-contiguous array at a
        time. The start is mapped to the eigenbasis once; each batch of times
        holding at most EVOLVE_BATCH amplitudes (one time at least) is mapped
        back in one transform call, row for row the same arithmetic as a
        call per time."""
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape[0] != self.dim:
            raise DimensionError(f"amplitude dim {amplitudes.shape[0]} != spectrum dim {self.dim}")
        coefficients = self.to_eigen(amplitudes)
        times = list(times)
        per_batch = max(1, EVOLVE_BATCH // coefficients.size)
        for first in range(0, len(times), per_batch):
            yield from self._evolved_batch(coefficients, times[first : first + per_batch], hbar)

    def _evolved_batch(self, coefficients: np.ndarray, times, hbar: float) -> np.ndarray:
        """W^dag exp(-i w t / hbar) ``coefficients`` for each t in ``times``,
        stacked along a new leading axis. The stack is mapped back as one
        array of rows, each time's block on its own, so its temporaries are
        freed when this returns and a suspended ``evolutions`` holds only
        the coefficients and the states it yields."""
        column = (self.dim,) + (1,) * (coefficients.ndim - 1)
        batch = np.empty((len(times),) + coefficients.shape, dtype=complex)
        for phased, t in zip(batch, times):
            np.multiply(self.phases(t, hbar).reshape(column), coefficients, out=phased)
        return self.from_eigen(batch.reshape((-1,) + coefficients.shape[1:])).reshape(batch.shape)

    def evolve(self, amplitudes, t: float, hbar: float = 1.0) -> np.ndarray:
        """exp(-i H t / hbar) applied to a vector, or to each column of a matrix."""
        return next(self.evolutions(amplitudes, (t,), hbar))


def hermitian_exponential(hermitian: DenseOperator, angle: float) -> DenseOperator:
    """exp(-i * angle * H) for Hermitian H, via dense eigendecomposition.

    The dense reference that the spectral evolution is tested against, and
    the evolution of a triple with a dense Hamiltonian.
    """
    if hermitian.kind != HERMITIAN:
        raise KindError(
            f"hermitian_exponential needs a hermitian-tagged operator, got {hermitian.kind!r}"
        )
    entries = hermitian.entries
    defect = frobenius_norm(entries - entries.conj().T)
    if not defect <= HERM_TOL * frobenius_norm(entries):
        raise KindError(f"operator is not numerically hermitian: defect {defect:.3e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "eigendecomposition failed: "
            f"dim={hermitian.dim}, |H|_F={frobenius_norm(entries):.3e}, "
            f"max|entry|={float(np.abs(entries).max()):.3e}"
        ) from exc
    phases = np.exp(-1j * eigenvalues * float(angle))
    return DenseOperator(eigenvectors @ (phases[:, None] * eigenvectors.conj().T), UNITARY)


def unitarity_defect(operator: DenseOperator) -> float:
    """Frobenius norm of U^dag U - I."""
    entries = operator.entries
    return frobenius_norm(entries.conj().T @ entries - np.eye(operator.dim))


def permutation_inverse(perm, dim: int) -> np.ndarray:
    """Inverse of a swap stored as an index array, perm[j] being the image of
    basis ket j, so that the swap acts as (S v)[i] = v[inverse[i]]. S is
    unitary exactly when perm is a bijection of range(dim), which one
    ``np.bincount`` decides; anything else raises KindError."""
    perm = np.asarray(perm)
    integer = perm.shape == (dim,) and perm.dtype.kind in "iu"
    if not (integer and 0 <= perm.min() and perm.max() < dim):
        raise DimensionError(
            f"swap must be {dim} integer indices in [0, {dim}), got {perm.dtype} {perm.shape}"
        )
    if np.bincount(perm, minlength=dim).max() > 1:
        raise KindError("swap is not unitary: its index array is not a bijection")
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(dim)
    return inverse


def random_unitary(dim: int, seed: int = 0) -> DenseOperator:
    """Haar-distributed unitary (QR of a complex Gaussian, phase-corrected)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return DenseOperator(q, UNITARY)
