import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexatc.linalg import (
    LinalgError,
    kron_apply,
    norm,
    range_solve,
    sym_eig,
)


def random_symmetric(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


BAD_MATRICES = {
    "non-square": np.ones((2, 3)),
    "one-dimensional": np.ones(2),
    "empty": np.zeros((0, 0)),
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [0.0, np.inf]]),
}


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)

    def test_2x2_against_closed_form(self):
        a, b, c = 2.0, 1.0, 2.0
        # roots of the characteristic polynomial of [[a, b], [b, c]]
        mid, half = (a + c) / 2.0, np.hypot((a - c) / 2.0, b)
        expected = sorted([mid - half, mid + half])
        dec = sym_eig([[a, b], [b, c]])
        assert np.allclose(dec.eigenvalues, expected, atol=1e-12)
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_diagonal_axis_vectors_up_to_sign(self):
        dec = sym_eig(np.diag([4.0, 9.0]))
        assert np.allclose(dec.eigenvalues, [4.0, 9.0], atol=1e-12)
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_rejects_bad_input(self):
        for bad in BAD_MATRICES.values():
            with pytest.raises(LinalgError):
                sym_eig(bad)

    def test_decomposes_the_symmetric_part(self):
        m = np.random.default_rng(11).standard_normal((6, 6))
        lam, vecs = sym_eig(m)
        expected = np.linalg.eigh(0.5 * (m + m.T))
        assert np.array_equal(lam, expected.eigenvalues)
        assert np.array_equal(vecs, expected.eigenvectors)

    def test_reconstruction_over_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            m = random_symmetric(rng, n)
            dec = sym_eig(m)
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)
            scale = 1.0 + np.max(np.abs(m))
            rec = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.max(np.abs(rec - m)) <= 1e-10 * scale
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
            # independent check against LAPACK
            assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(m),
                               atol=1e-10 * scale)


class TestNorm:
    def test_numpy_bits_below_overflow(self):
        rng = np.random.default_rng(7)
        for v in (rng.standard_normal(5), 1e150 * rng.standard_normal((3, 4)), np.zeros(2)):
            assert norm(v) == float(np.linalg.norm(v))

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e307])
    def test_finite_where_the_squares_overflow(self, scale):
        # the norm of (3s, 4s) is 5s, which float64 holds at each scale
        assert norm(np.array([[3.0 * scale], [4.0 * scale]])) == pytest.approx(5.0 * scale)

    def test_non_finite_entries(self):
        assert norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(norm(np.array([1.0, np.nan])))


class TestKronApply:
    def test_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(kron_apply(np.eye(3), x), x)

    def test_block_swap(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = kron_apply(m, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, [[3.0, 4.0], [1.0, 2.0]])

    def test_row_stochastic_fixes_constant_blocks(self, ring4):
        block = np.array([2.5, -1.0, 0.25])
        x = np.tile(block, (4, 1))
        assert np.allclose(kron_apply(ring4.w, x), x, atol=1e-14)

    def test_matches_explicit_kron(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            d = int(rng.integers(1, 1 + 60 // n))
            m = random_symmetric(rng, n)
            x = rng.standard_normal((n, d))
            explicit = (np.kron(m, np.eye(d)) @ x.reshape(-1)).reshape(n, d)
            assert np.max(np.abs(kron_apply(m, x) - explicit)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(LinalgError):
            kron_apply(np.eye(3), np.ones(7))
        with pytest.raises(LinalgError):
            kron_apply(np.eye(3), np.ones((4, 2)))

    def test_rejects_bad_matrix(self):
        for bad in BAD_MATRICES.values():
            with pytest.raises(LinalgError):
                kron_apply(bad, np.ones((2, 1)))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kron_property(self, n, d, seed):
        rng = np.random.default_rng(seed)
        m = random_symmetric(rng, n)
        x = rng.standard_normal((n, d))
        explicit = (np.kron(m, np.eye(d)) @ x.reshape(-1)).reshape(n, d)
        assert np.max(np.abs(kron_apply(m, x) - explicit)) <= 1e-12


class TestRangeSolve:
    def test_diagonal_min_norm(self):
        b = np.diag([2.0, 0.0])
        u = range_solve(b, np.array([[6.0], [0.0]]))
        assert np.allclose(u, [[3.0], [0.0]], atol=1e-14)

    def test_zero_matrix_zero_rhs(self):
        u = range_solve(np.zeros((2, 2)), np.zeros((2, 1)))
        assert np.array_equal(u, np.zeros((2, 1)))

    def test_round_trip_recovers_range_projection(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 4))
        b = g.T @ g  # rank 2, null dimension 2
        u0 = rng.standard_normal((4, 1))
        rhs = kron_apply(b, u0)
        u = range_solve(b, rhs)
        assert np.max(np.abs(kron_apply(b, u) - rhs)) <= 1e-9
        # independent projection of u0 onto range(b) via LAPACK
        lam, vecs = np.linalg.eigh(b)
        keep = lam > 1e-9 * lam.max()
        proj = vecs[:, keep] @ (vecs[:, keep].T @ u0)
        assert np.max(np.abs(u - proj)) <= 1e-9

    def test_round_trip_stacked(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((3, 5))
        b = g.T @ g
        u0 = rng.standard_normal((5, 2))
        rhs = kron_apply(b, u0)
        u = range_solve(b, rhs)
        assert np.max(np.abs(kron_apply(b, u) - rhs)) <= 1e-9

    def test_rejects_rhs_outside_range(self):
        b = np.diag([2.0, 0.0])
        with pytest.raises(LinalgError, match="outside range"):
            range_solve(b, np.array([[1.0], [1.0]]))

    def test_rejects_bad_matrix(self):
        for bad in BAD_MATRICES.values():
            with pytest.raises(LinalgError):
                range_solve(bad, np.zeros((2, 1)))
