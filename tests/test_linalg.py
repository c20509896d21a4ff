import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhist.errors import DimMismatchError, NotHermitianError
from qhist.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerance,
    as_ket,
    as_matrix,
    commutator,
    dagger,
    hermitian_eigenprojectors,
    identity,
    is_projector,
    is_unitary,
    max_abs,
    tensor_product,
)

from helpers import random_unitary, reference_eigenprojectors

I2 = identity(2)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.norm == tol.herm == tol.proj == tol.comm == tol.cons == 1e-9

    @pytest.mark.parametrize("bad", [-1e-12, 2e-3, 1.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            Tolerance(cons=bad)

    def test_uniform(self):
        tol = Tolerance.uniform(1e-6)
        assert tol.proj == 1e-6 and tol.cons == 1e-6


class TestIdentity:
    """One read-only identity per dimension, shared by every caller."""

    @pytest.mark.parametrize("dim", [1, 2, 16, 64])
    def test_is_the_complex_identity(self, dim):
        eye = identity(dim)
        assert eye.dtype == complex
        assert eye.tobytes() == np.eye(dim, dtype=complex).tobytes()
        assert identity(dim) is eye

    def test_writing_to_it_raises(self):
        eye = identity(3)
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 1] = 1.0
        with pytest.raises(ValueError):
            eye += 1
        assert eye.tobytes() == np.eye(3, dtype=complex).tobytes()


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(tensor_product(I2, I2), identity(4))

    def test_pauli_identity_blocks(self):
        assert np.allclose(tensor_product(SIGMA_Z, I2), np.diag([1, 1, -1, -1]))

    def test_projector_tensor_projector_is_rank_one(self):
        p = tensor_product((I2 + SIGMA_X) / 2, (I2 - SIGMA_X) / 2)
        assert is_projector(p)
        assert abs(np.trace(p) - 1.0) < 1e-12

    def test_mixed_product_law(self, rng):
        # (A (x) B)(C (x) D) = AC (x) BD on random conforming matrices
        for _ in range(25):
            m, n, k, l = rng.integers(1, 5, size=4)
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            c = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            b = rng.normal(size=(k, l)) + 1j * rng.normal(size=(k, l))
            d = rng.normal(size=(l, m)) + 1j * rng.normal(size=(l, m))
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert max_abs(lhs - rhs) < 1e-12


class TestDagger:
    def test_shift_matrix(self):
        assert np.array_equal(dagger([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]))

    def test_imaginary_diagonal(self):
        assert np.array_equal(dagger(1j * I2), -1j * I2)

    def test_hermitian_fixed_point(self, rng):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        assert np.array_equal(dagger(h), h)

    def test_involution(self, rng):
        a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        assert np.array_equal(dagger(dagger(a)), a)


class TestPredicates:
    def test_projector_examples(self):
        assert is_projector(np.diag([1.0, 0.0]))
        assert is_projector((I2 + SIGMA_X) / 2)
        assert not is_projector(SIGMA_X)  # sigma_x squared is I, not sigma_x

    def test_projector_requires_square(self):
        with pytest.raises(DimMismatchError):
            is_projector(np.zeros((2, 3)))

    def test_unitary_examples(self):
        assert is_unitary(I2)
        assert is_unitary(SIGMA_Y)
        assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_unitary_requires_square(self):
        with pytest.raises(DimMismatchError):
            is_unitary(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            is_projector(np.array([[np.nan, 0], [0, 0]]))


class TestCoercion:
    @pytest.mark.parametrize("value", [[1, 0], np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2, 2)), 1])
    def test_a_matrix_is_a_nonempty_2d_array(self, value):
        with pytest.raises(DimMismatchError) as excinfo:
            as_matrix(value)
        assert str(excinfo.value) == f"expected a matrix, got shape {np.shape(value)}"

    @pytest.mark.parametrize("value", [[[1, 0]], [], np.zeros((2, 2)), 1])
    def test_a_ket_is_a_nonempty_vector(self, value):
        with pytest.raises(DimMismatchError) as excinfo:
            as_ket(value)
        assert str(excinfo.value) == f"expected a vector, got shape {np.shape(value)}"


class TestCommutator:
    def test_pauli_algebra(self):
        assert max_abs(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z) < 1e-15

    def test_self_commutator_vanishes(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert max_abs(commutator(a, a)) == 0.0

    def test_pauli_eigenprojector_pair(self):
        # [(1+sx)/2, (1+sy)/2] expands to (i/2) sz by the Pauli product rules
        got = commutator((I2 + SIGMA_X) / 2, (I2 + SIGMA_Y) / 2)
        assert max_abs(got - 0.5j * SIGMA_Z) < 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            commutator(I2, identity(3))


class TestEigenprojectors:
    def test_sigma_z(self):
        pairs = hermitian_eigenprojectors(SIGMA_Z)
        assert [round(v) for v, _ in pairs] == [-1, 1]
        assert np.allclose(pairs[0][1], np.diag([0, 1]))
        assert np.allclose(pairs[1][1], np.diag([1, 0]))

    def test_degenerate_identity_merges(self):
        pairs = hermitian_eigenprojectors(I2)
        assert len(pairs) == 1
        value, projector = pairs[0]
        assert abs(value - 1.0) < 1e-12
        assert np.allclose(projector, I2)

    def test_close_neighbours_chain_into_one_cluster(self):
        # each gap (0.9e-9) is under tol.herm, so the three small eigenvalues
        # form one cluster 1.8e-9 wide, valued at their mean
        pairs = hermitian_eigenprojectors(np.diag([0.0, 0.9e-9, 1.8e-9, 1.0]).astype(complex))
        assert [v for v, _ in pairs] == [pytest.approx(9e-10, rel=1e-12), 1.0]
        assert max_abs(pairs[0][1] - np.diag([1, 1, 1, 0])) < 1e-12
        assert max_abs(pairs[1][1] - np.diag([0, 0, 0, 1])) < 1e-12

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["under", "over", "wide"]), min_size=1, max_size=7),
        st.sampled_from([1e-9, 1e-6]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cluster_cuts_match_the_per_eigenvalue_loop(self, seed, gaps, herm):
        # runs of gaps just under and just over tol.herm, planted in a random basis
        rng = np.random.default_rng(seed)
        width = {"under": herm * (1 - 1e-3), "over": herm * (1 + 1e-3), "wide": 0.5}
        spectrum = np.cumsum([rng.uniform(-1, 1), *(width[g] for g in gaps)])
        u = random_unitary(rng, len(spectrum))
        h = u @ np.diag(spectrum) @ u.conj().T
        h = (h + h.conj().T) / 2
        tol = Tolerance(herm=herm)
        got, expected = hermitian_eigenprojectors(h, tol), reference_eigenprojectors(h, tol)
        assert len(got) == len(expected) == 1 + sum(g != "under" for g in gaps)
        for (value, projector), (ref_value, ref_projector) in zip(got, expected):
            assert value == ref_value
            assert projector.tobytes() == ref_projector.tobytes()

    def test_sigma_x(self):
        pairs = hermitian_eigenprojectors(SIGMA_X)
        assert np.allclose(pairs[0][1], (I2 - SIGMA_X) / 2)
        assert np.allclose(pairs[1][1], (I2 + SIGMA_X) / 2)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigenprojectors(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_random_hermitian_spectral_properties(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = h + h.conj().T
            pairs = hermitian_eigenprojectors(h)
            total = sum(p for _, p in pairs)
            assert max_abs(total - identity(d)) < 1e-9
            rebuilt = sum(v * p for v, p in pairs)
            assert max_abs(rebuilt - h) < 1e-9
            values = [v for v, _ in pairs]
            assert values == sorted(values)
            for i in range(len(pairs)):
                for j in range(i + 1, len(pairs)):
                    assert max_abs(pairs[i][1] @ pairs[j][1]) < 1e-9

    def test_commuting_projector_product_is_projector(self, rng):
        # subsets of one spectral family commute, and so do operators on
        # disjoint tensor factors
        for _ in range(20):
            d = int(rng.integers(2, 7))
            u = random_unitary(rng, d)
            mask_p = rng.integers(0, 2, size=d)
            mask_q = rng.integers(0, 2, size=d)
            p = u @ np.diag(mask_p.astype(complex)) @ u.conj().T
            q = u @ np.diag(mask_q.astype(complex)) @ u.conj().T
            assert is_projector(p) and is_projector(q)
            assert max_abs(commutator(p, q)) < 1e-12
            assert is_projector(p @ q, Tolerance.uniform(1e-9))
        p = tensor_product((I2 + SIGMA_X) / 2, I2)
        q = tensor_product(I2, (I2 + SIGMA_Y) / 2)
        assert max_abs(commutator(p, q)) < 1e-15
        assert is_projector(p @ q)
