"""Dense complex linear algebra substrate.

Vectors and operators are thin immutable wrappers around numpy arrays.
Operators carry an advisory kind tag (``general``, ``hermitian``, ``unitary``)
that is verified against its tolerance on construction; operations that rely
on a tag recheck it instead of trusting it blindly.

Everything here is a pure function of its inputs; the wrapped buffers are
frozen, so values are safe to share across threads.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
UNIT_TOL = 1e-12

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
    return float(np.linalg.norm(matrix))


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class ComplexVector:
    """Vector in a finite-dimensional complex Hilbert space."""

    __slots__ = ("amplitudes", "_factors")

    def __init__(self, amplitudes, _factors=None):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise DimensionError(
                f"expected a nonempty 1-d amplitude array, got shape {amps.shape}"
            )
        self.amplitudes = _freeze(amps)
        # tensor factor list; kept so that nested tensor products materialize
        # with one fixed left-to-right multiplication order
        self._factors = tuple(_factors) if _factors is not None else (self.amplitudes,)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_unit(self, norm_tol: float = NORM_TOL) -> "ComplexVector":
        deviation = abs(self.norm() - 1.0)
        if deviation > norm_tol:
            raise ValueError(f"state vector is not normalized: |norm - 1| = {deviation:.3e}")
        return self

    def __repr__(self) -> str:
        return f"ComplexVector(dim={self.dim})"


class DenseOperator:
    """Dense square operator with a verified kind tag."""

    __slots__ = ("entries", "kind", "_factors")

    def __init__(self, entries, kind: str = GENERAL, _factors=None):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise DimensionError(f"expected a nonempty square matrix, got shape {mat.shape}")
        if kind not in KINDS:
            raise KindError(f"unknown operator kind {kind!r}")
        self.entries = _freeze(mat)
        self.kind = kind
        self._factors = tuple(_factors) if _factors is not None else (self.entries,)
        self._verify_kind()

    def _verify_kind(self) -> None:
        if self.kind == HERMITIAN:
            defect = frobenius_norm(self.entries - self.entries.conj().T)
            if defect > HERM_TOL * frobenius_norm(self.entries):
                raise KindError(f"hermitian tag rejected: |M - M^dag|_F = {defect:.3e}")
        elif self.kind == UNITARY:
            defect = unitarity_defect_of(self.entries)
            if defect > UNIT_TOL * np.sqrt(self.dim):
                raise KindError(f"unitary tag rejected: |U^dag U - I|_F = {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "DenseOperator":
        kind = self.kind if self.kind in (HERMITIAN, UNITARY) else GENERAL
        return DenseOperator(self.entries.conj().T, kind)

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

    def __repr__(self) -> str:
        return f"DenseOperator(dim={self.dim}, kind={self.kind!r})"


def identity(dim: int, kind: str = HERMITIAN) -> DenseOperator:
    return DenseOperator(np.eye(dim), kind)


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
    """Kronecker product of two vectors or two operators.

    Materialization always folds the accumulated factor list left to right,
    so nested products are associative with bitwise-equal entries.
    """
    if isinstance(a, ComplexVector) and isinstance(b, ComplexVector):
        factors = a._factors + b._factors
        return ComplexVector(reduce(_kron, factors), _factors=factors)
    if isinstance(a, DenseOperator) and isinstance(b, DenseOperator):
        factors = a._factors + b._factors
        if a.kind == b.kind and a.kind in (HERMITIAN, UNITARY):
            kind = a.kind
        else:
            kind = GENERAL
        return DenseOperator(reduce(_kron, factors), kind, _factors=factors)
    raise KindError(
        "tensor_product expects two vectors or two operators, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def _unchanged(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes


class Spectrum:
    """A Hermitian operator in its eigenbasis: H = W^dag diag(weights) W.

    ``to_eigen`` applies W and ``from_eigen`` applies W^dag along the leading
    axis of an amplitude array, so a matrix is mapped column by column. Every
    time evolution in the package goes through ``evolve``; the basis maps are
    chosen by the constructor that knows the operator's structure.
    """

    __slots__ = ("weights", "to_eigen", "from_eigen")

    def __init__(self, weights, to_eigen, from_eigen):
        values = np.array(weights, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DimensionError(f"expected a nonempty 1-d weight array, got shape {values.shape}")
        self.weights = _freeze(values)
        self.to_eigen = to_eigen
        self.from_eigen = from_eigen

    @classmethod
    def diagonal(cls, weights) -> "Spectrum":
        """An operator that is already diagonal in the working basis."""
        return cls(weights, _unchanged, _unchanged)

    @classmethod
    def from_hermitian(cls, entries) -> "Spectrum":
        """Dense eigendecomposition of an arbitrary Hermitian matrix."""
        entries = np.asarray(entries)
        try:
            eigenvalues, eigenvectors = np.linalg.eigh(entries)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "eigendecomposition failed: "
                f"dim={entries.shape[0]}, |H|_F={frobenius_norm(entries):.3e}, "
                f"max|entry|={float(np.abs(entries).max()):.3e}"
            ) from exc
        adjoint = eigenvectors.conj().T
        return cls(eigenvalues, adjoint.__matmul__, eigenvectors.__matmul__)

    @property
    def dim(self) -> int:
        return self.weights.size

    def _scale(self, factors: np.ndarray, amplitudes) -> np.ndarray:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape[0] != self.dim:
            raise DimensionError(f"amplitude dim {amplitudes.shape[0]} != spectrum dim {self.dim}")
        coefficients = self.to_eigen(amplitudes)
        factors = factors.reshape(factors.shape + (1,) * (coefficients.ndim - 1))
        return self.from_eigen(factors * coefficients)

    def apply(self, amplitudes) -> np.ndarray:
        """H applied to a vector, or to each column of a matrix."""
        return self._scale(self.weights, amplitudes)

    def evolve(self, amplitudes, t: float, hbar: float = 1.0) -> np.ndarray:
        """exp(-i H t / hbar) applied to a vector, or to each column of a matrix."""
        return self._scale(np.exp(-1j * self.weights * t / hbar), amplitudes)


def hermitian_exponential(hermitian: DenseOperator, angle: float) -> DenseOperator:
    """exp(-i * angle * H) for Hermitian H, via eigendecomposition.

    The dense reference that the spectral evolution is tested against.
    """
    if hermitian.kind != HERMITIAN:
        raise KindError(
            f"hermitian_exponential needs a hermitian-tagged operator, got {hermitian.kind!r}"
        )
    entries = hermitian.entries
    defect = frobenius_norm(entries - entries.conj().T)
    if defect > HERM_TOL * frobenius_norm(entries):
        raise KindError(f"operator is not numerically hermitian: defect {defect:.3e}")
    result = Spectrum.from_hermitian(entries).evolve(np.eye(hermitian.dim), float(angle))
    return DenseOperator(result, UNITARY)


def commutator_norm(a: DenseOperator, b: DenseOperator) -> float:
    """Frobenius norm of AB - BA."""
    if a.dim != b.dim:
        raise DimensionError(f"operator dims differ: {a.dim} vs {b.dim}")
    return frobenius_norm(a.entries @ b.entries - b.entries @ a.entries)


def unitarity_defect_of(entries: np.ndarray) -> float:
    dim = entries.shape[0]
    return frobenius_norm(entries.conj().T @ entries - np.eye(dim))


def unitarity_defect(operator: DenseOperator) -> float:
    """Frobenius norm of U^dag U - I."""
    return unitarity_defect_of(operator.entries)


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


def operator_distance(a: DenseOperator, b: DenseOperator) -> float:
    if a.dim != b.dim:
        raise DimensionError(f"operator dims differ: {a.dim} vs {b.dim}")
    return frobenius_norm(a.entries - b.entries)


def vector_distance(a: ComplexVector, b: ComplexVector) -> float:
    if a.dim != b.dim:
        raise DimensionError(f"vector dims differ: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.amplitudes - b.amplitudes))


def overlap(a: ComplexVector, b: ComplexVector) -> complex:
    """Scalar product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionError(f"vector dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def random_unitary(dim: int, seed: int = 0) -> DenseOperator:
    """Haar-distributed unitary (QR of a complex Gaussian, phase-corrected)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return DenseOperator(q, UNITARY)
