import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swaplab.linalg import (
    GENERAL,
    HERMITIAN,
    UNITARY,
    ComplexVector,
    DenseOperator,
    DimensionError,
    KindError,
    hermitian_exponential,
    permutation_inverse,
    random_unitary,
    tensor_product,
    unitarity_defect,
)

RNG = np.random.default_rng(0)


def random_hermitian(dim, rng=RNG):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DenseOperator((raw + raw.conj().T) / 2, HERMITIAN)


def kron_oracle(a, b):
    """Entrywise quadruple-loop Kronecker product."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def permutation_matrix(perm):
    """Dense 0/1 swap operator of an index array: column j holds a 1 at row perm[j]."""
    n = len(perm)
    entries = np.zeros((n, n))
    entries[perm, np.arange(n)] = 1.0
    return DenseOperator(entries, UNITARY)


def taylor_exponential_oracle(entries, angle, terms=20, squarings=20):
    """exp(-i*angle*H) via truncated Taylor series with 2**-squarings scaling."""
    dim = entries.shape[0]
    scaled = (-1j * angle) * entries / 2.0**squarings
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ scaled / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class TestConstruction:
    def test_vector_requires_1d(self):
        with pytest.raises(DimensionError):
            ComplexVector([[1.0, 0.0]])

    def test_vector_dim(self):
        assert ComplexVector([1.0, 0.0, 0.0]).dim == 3

    def test_require_unit_accepts_normalized(self):
        ComplexVector([1.0, 0.0]).require_unit()

    def test_require_unit_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ComplexVector([1.0, 1.0]).require_unit()

    def test_operator_requires_square(self):
        with pytest.raises(DimensionError):
            DenseOperator(np.zeros((2, 3)))

    def test_hermitian_tag_verified(self):
        with pytest.raises(KindError):
            DenseOperator([[0.0, 1.0], [0.0, 0.0]], HERMITIAN)

    def test_unitary_tag_verified(self):
        with pytest.raises(KindError):
            DenseOperator(2 * np.eye(2), UNITARY)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KindError):
            DenseOperator(np.eye(2), "special")

    def test_array_conversion(self):
        # numpy 2 asks for a copy with copy=True; otherwise the frozen buffer is shared
        vector = ComplexVector([1.0, 0.0])
        copied = np.array(vector, copy=True)
        copied[0] = 2.0
        assert vector.amplitudes[0] == 1.0
        shared = np.asarray(vector)
        assert np.shares_memory(shared, vector.amplitudes) and not shared.flags.writeable

    def test_entries_frozen(self):
        op = DenseOperator(np.eye(2), HERMITIAN)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestTensorProduct:
    def test_identity_case(self):
        left = DenseOperator(np.eye(2), HERMITIAN)
        right = DenseOperator(np.eye(3), HERMITIAN)
        assert np.array_equal(tensor_product(left, right).entries, np.eye(6))

    def test_diagonal_case(self):
        left = DenseOperator(np.diag([1.0, -1.0]), HERMITIAN)
        right = DenseOperator(np.diag([2.0, 3.0]), HERMITIAN)
        expected = np.diag([2.0, 3.0, -2.0, -3.0])
        assert np.array_equal(tensor_product(left, right).entries, expected)

    def test_quadruple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        product = tensor_product(DenseOperator(a), DenseOperator(b))
        assert np.linalg.norm(product.entries - kron_oracle(a, b)) <= 1e-15
        # element products round identically in both routes
        assert np.array_equal(product.entries, kron_oracle(a, b))

    def test_kind_tags_combine(self):
        herm = random_hermitian(2)
        unit = hermitian_exponential(herm, 0.3)
        assert tensor_product(herm, herm).kind == HERMITIAN
        assert tensor_product(unit, unit).kind == UNITARY
        assert tensor_product(herm, unit).kind == GENERAL

    def test_vector_tensor(self):
        v = tensor_product(ComplexVector([1.0, 0.0]), ComplexVector([0.0, 1.0]))
        assert np.array_equal(v.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_mixed_operands_rejected(self):
        with pytest.raises(KindError):
            tensor_product(DenseOperator(np.eye(2), HERMITIAN), ComplexVector([1.0, 0.0]))


class TestHermitianExponential:
    def test_zero_angle_is_identity(self):
        herm = random_hermitian(4)
        assert np.linalg.norm(hermitian_exponential(herm, 0.0).entries - np.eye(4)) <= 1e-14

    def test_diagonal_case(self):
        herm = DenseOperator(np.diag([1.0, -1.0]), HERMITIAN)
        result = hermitian_exponential(herm, np.pi)
        assert np.allclose(result.entries, -np.eye(2), atol=1e-14)

    def test_taylor_oracle(self):
        herm = random_hermitian(8)
        expected = taylor_exponential_oracle(herm.entries, 0.37)
        got = hermitian_exponential(herm, 0.37)
        assert np.linalg.norm(got.entries - expected) <= 1e-9

    def test_result_is_unitary(self):
        herm = random_hermitian(6)
        assert unitarity_defect(hermitian_exponential(herm, 1.7)) <= 1e-12 * np.sqrt(6)

    def test_rejects_untagged_input(self):
        with pytest.raises(KindError):
            hermitian_exponential(DenseOperator(np.eye(2)), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_group_property(self, theta1, theta2):
        herm = random_hermitian(16, np.random.default_rng(3))
        composed = hermitian_exponential(herm, theta1) @ hermitian_exponential(herm, theta2)
        direct = hermitian_exponential(herm, theta1 + theta2)
        assert np.linalg.norm(composed.entries - direct.entries) <= 1e-10


class TestPermutationInverse:
    def test_one_duplicate_rejected(self):
        # the identity with its last entry 0: index 0 twice, dim - 1 never
        perm = np.arange(6)
        perm[-1] = 0
        with pytest.raises(KindError, match="bijection"):
            permutation_inverse(perm, 6)

    @pytest.mark.parametrize(
        "perm",
        # -1 would index from the end, and np.bincount raises a bare ValueError on it
        [np.arange(4.0), np.array([0, 1, 2, 4]), np.array([-1, 0, 1, 2])],
        ids=["float", "out-of-range", "negative"],
    )
    def test_non_index_array_rejected(self, perm):
        with pytest.raises(DimensionError, match="integer indices"):
            permutation_inverse(perm, 4)


class TestNorms:
    def test_unitarity_defect_identity(self):
        assert unitarity_defect(DenseOperator(np.eye(5), HERMITIAN)) == 0.0

    def test_unitarity_defect_scaled_identity(self):
        scaled = DenseOperator(2 * np.eye(4))
        assert unitarity_defect(scaled) == pytest.approx(3 * np.sqrt(4), abs=1e-13)

    def test_random_unitary_is_unitary(self):
        assert unitarity_defect(random_unitary(9, seed=4)) <= 1e-13
