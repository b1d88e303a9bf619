"""Symmetric kernel: eigendecomposition, cone projection, norms."""

import math

import numpy as np
import pytest

from lmisolve import (
    DimensionMismatch,
    NonFiniteInput,
    SymMatrix,
    eig_sym,
    lambda_max,
    norms,
    project_neg_semidef,
)
from lmisolve import symlinalg

RT2 = math.sqrt(2.0)


def rand_sym(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return SymMatrix(a + a.T)


class TestSymMatrix:
    """Container invariants: symmetrization, validation, immutability."""

    def test_symmetrizes_input(self):
        s = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert s.mat[0, 1] == 1.0
        assert s.mat[1, 0] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            SymMatrix([[np.nan]])
        with pytest.raises(NonFiniteInput):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_entries_read_only(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.mat[0, 0] = 5.0

    def test_dim_and_equality(self):
        assert SymMatrix(np.eye(3)).dim == 3
        assert SymMatrix(np.eye(2)) == SymMatrix(np.eye(2))
        assert SymMatrix(np.eye(2)) != SymMatrix(np.zeros((2, 2)))


class TestEigSym:
    """Descending eigenvalues, orthonormal vectors, fixed sign convention."""

    def test_diagonal(self):
        dec = eig_sym(SymMatrix(np.diag([3.0, -1.0])))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, -1.0])
        np.testing.assert_allclose(dec.eigenvectors, np.eye(2), atol=1e-15)

    def test_offdiagonal_pair(self):
        dec = eig_sym(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [1 / RT2, 1 / RT2], atol=1e-15)

    def test_scalar(self):
        dec = eig_sym(SymMatrix([[5.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [5.0])
        np.testing.assert_allclose(dec.eigenvectors, [[1.0]])

    def test_outputs_read_only(self):
        dec = eig_sym(SymMatrix(np.eye(2)))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 7.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 7.0

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(101)
        for k in range(120):
            n = int(rng.integers(1, 31))
            s = rand_sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            dec = eig_sym(s)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
            fro = float(np.linalg.norm(s.mat))
            assert np.linalg.norm(recon - s.mat) <= 1e-10 * max(1.0, fro)
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-10 * n

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        s = rand_sym(rng, 12)
        a, b = eig_sym(s), eig_sym(s)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestLambdaMax:
    def test_diagonal(self):
        val, vec = lambda_max(SymMatrix(np.diag([2.0, -7.0])))
        assert val == pytest.approx(2.0)
        np.testing.assert_allclose(vec, [1.0, 0.0], atol=1e-15)

    def test_offdiagonal(self):
        val, vec = lambda_max(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert val == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(vec), [1 / RT2, 1 / RT2], atol=1e-15)

    def test_zero_matrix(self):
        val, vec = lambda_max(SymMatrix(np.zeros((3, 3))))
        assert val == 0.0
        np.testing.assert_allclose(vec, [1.0, 0.0, 0.0])

    def test_rayleigh_quotient(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            s = rand_sym(rng, int(rng.integers(1, 20)))
            val, vec = lambda_max(s)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert float(vec @ s.mat @ vec) == pytest.approx(val, abs=1e-9)


class TestProjection:
    """Projection onto the negative-semidefinite cone and its residual."""

    def test_diagonal_split(self):
        proj, resid = project_neg_semidef(SymMatrix(np.diag([2.0, -1.0])))
        np.testing.assert_allclose(proj.mat, np.diag([0.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(resid.mat, np.diag([2.0, 0.0]), atol=1e-15)

    def test_nsd_fixed_point(self):
        s = SymMatrix(np.diag([-1.0, -2.0]))
        proj, resid = project_neg_semidef(s)
        np.testing.assert_allclose(proj.mat, s.mat, atol=1e-15)
        np.testing.assert_allclose(resid.mat, 0.0, atol=1e-15)

    def test_offdiagonal(self):
        proj, resid = project_neg_semidef(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(proj.mat, -0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-14)
        np.testing.assert_allclose(resid.mat, 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-14)

    def test_projection_properties(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            n = int(rng.integers(1, 31))
            s = rand_sym(rng, n)
            proj, resid = project_neg_semidef(s)
            # split, idempotence, Pythagoras, complementarity
            np.testing.assert_allclose(proj.mat + resid.mat, s.mat, atol=1e-12)
            again, _ = project_neg_semidef(proj)
            assert np.linalg.norm(again.mat - proj.mat) <= 1e-9
            total = float(np.linalg.norm(s.mat)) ** 2
            parts = float(np.linalg.norm(proj.mat)) ** 2 + float(np.linalg.norm(resid.mat)) ** 2
            assert abs(total - parts) <= 1e-8 * max(1.0, total)
            assert abs(float(np.sum(proj.mat * resid.mat))) <= 1e-9
            assert np.max(np.linalg.eigvalsh(proj.mat)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(resid.mat)) >= -1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(909)
        for _ in range(60):
            n = int(rng.integers(1, 20))
            a, b = rand_sym(rng, n), rand_sym(rng, n)
            pa, _ = project_neg_semidef(a)
            pb, _ = project_neg_semidef(b)
            assert np.linalg.norm(pa.mat - pb.mat) <= np.linalg.norm(a.mat - b.mat) + 1e-9


class TestNorms:
    def test_identity(self):
        fro, spec = norms(SymMatrix(np.eye(2)))
        assert fro == pytest.approx(RT2)
        assert spec == pytest.approx(1.0)

    def test_diagonal(self):
        fro, spec = norms(SymMatrix(np.diag([3.0, -4.0])))
        assert fro == pytest.approx(5.0)
        assert spec == pytest.approx(4.0)

    def test_offdiagonal(self):
        fro, spec = norms(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert fro == pytest.approx(RT2)
        assert spec == pytest.approx(1.0)

    def test_spectral_below_frobenius(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            s = rand_sym(rng, int(rng.integers(1, 25)))
            fro, spec = norms(s)
            assert spec <= fro + 1e-12


def with_spectrum(rng, w):
    """Q diag(w) Q^T for a random orthogonal Q, exactly symmetric."""
    q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    s = (q * np.asarray(w, dtype=float)) @ q.T
    return 0.5 * (s + s.T)


def top_space(s, tol):
    """Reference eigenvectors (from np.linalg.eigh) of the eigenvalues within
    tol of the largest."""
    w, v = np.linalg.eigh(s)
    return v[:, w >= w[-1] - tol]


class TestTopEigpair:
    """`_top_eigpair` against an `np.linalg.eigh` reference, on both sides of
    the size where inverse iteration takes over."""

    SIZES = (5, symlinalg._INVIT_MIN_DIM - 1, symlinalg._INVIT_MIN_DIM, 60, 150)

    def check(self, s, gap_tol):
        w = np.linalg.eigvalsh(s)
        radius = max(np.abs(w).max(), 1e-300)
        top, v = symlinalg._top_eigpair(s, w)
        assert top == w[-1]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(s @ v - top * v) <= symlinalg._INVIT_RESIDUAL * radius
        # v lies in the reference eigenspace of the top eigenvalue(s)
        assert np.linalg.norm(top_space(s, gap_tol).T @ v) == pytest.approx(1.0, abs=1e-9)

    def test_random_matrices(self):
        rng = np.random.default_rng(11)
        for n in self.SIZES:
            for scale in (1e-3, 1.0, 1e4):
                s = rand_sym(rng, n, scale).mat
                self.check(s, 0.0)
                # the public function agrees up to its canonical sign
                val, vec = lambda_max(SymMatrix(s))
                assert val == pytest.approx(np.linalg.eigvalsh(s)[-1], rel=1e-14)
                assert abs(float(vec @ symlinalg._top_eigpair(s)[1])) == pytest.approx(1.0)

    def test_inverse_iteration_runs_above_crossover(self):
        rng = np.random.default_rng(12)
        s = rand_sym(rng, symlinalg._INVIT_MIN_DIM).mat
        assert symlinalg._inverse_iteration(s, np.linalg.eigvalsh(s)) is not None

    def test_top_gap_1e10(self):
        rng = np.random.default_rng(13)
        for n in self.SIZES:
            rest = rng.uniform(-1.0, 0.9, n - 2)
            s = with_spectrum(rng, np.concatenate([[1.0, 1.0 - 1e-10], rest]))
            self.check(s, 1e-9)
            if n >= symlinalg._INVIT_MIN_DIM:
                assert symlinalg._inverse_iteration(s, np.linalg.eigvalsh(s)) is not None

    def test_repeated_top(self):
        rng = np.random.default_rng(14)
        for n in self.SIZES:
            rest = rng.uniform(-1.0, 0.9, n - 2)
            self.check(with_spectrum(rng, np.concatenate([[1.0, 1.0], rest])), 1e-9)
            # exactly equal in eigvalsh: the first tied column of eigh, as in
            # the canonical order
            s = np.diag(np.concatenate([rest, [1.0, 1.0]]))
            top, v = symlinalg._top_eigpair(s, np.linalg.eigvalsh(s))
            w_ref, v_ref = np.linalg.eigh(s)
            assert top == 1.0
            assert v.tobytes() == v_ref[:, np.flatnonzero(w_ref == 1.0)[0]].tobytes()

    def test_zero_matrix(self):
        for n in self.SIZES:
            z = np.zeros((n, n))
            for w in (None, np.linalg.eigvalsh(z)):
                top, v = symlinalg._top_eigpair(z, w)
                assert top == 0.0
                np.testing.assert_array_equal(np.abs(v), np.eye(n)[0])
            val, vec = lambda_max(SymMatrix(z))
            assert val == 0.0
            np.testing.assert_array_equal(vec, np.eye(n)[0])

    def test_forced_fallback(self, monkeypatch):
        # no inverse-iteration vector passes a negative bound, so each call
        # takes the column of one full eigh
        monkeypatch.setattr(symlinalg, "_INVIT_RESIDUAL", -1.0)
        rng = np.random.default_rng(15)
        for n in self.SIZES:
            s = rand_sym(rng, n).mat
            top, v = symlinalg._top_eigpair(s, np.linalg.eigvalsh(s))
            assert v.tobytes() == np.linalg.eigh(s)[1][:, -1].tobytes()

    def test_repeat_calls_byte_equal(self):
        rng = np.random.default_rng(16)
        for n in self.SIZES:
            s = rand_sym(rng, n).mat
            w = np.linalg.eigvalsh(s)
            first, again = symlinalg._top_eigpair(s, w), symlinalg._top_eigpair(s.copy(), w.copy())
            assert first[0] == again[0]
            assert first[1].tobytes() == again[1].tobytes()


class TestPositivePart:
    """`_positive_part` against V diag(max(w, 0)) V^T from `np.linalg.eigh`."""

    def check(self, s):
        w_ref, v_ref = np.linalg.eigh(s)
        pos, part = symlinalg._positive_part(s)
        np.testing.assert_allclose(pos, w_ref[w_ref > 0.0], rtol=1e-13)
        want = (v_ref * np.maximum(w_ref, 0.0)) @ v_ref.T
        scale = max(float(np.abs(w_ref).max()), 1e-300)
        np.testing.assert_allclose(part, want, atol=1e-12 * scale)
        return pos, part

    def test_few_and_many_positive(self):
        rng = np.random.default_rng(21)
        for n in (4, 9, 40, 101):
            for k in (1, n // 2, n // 2 + 1, n - 1, n):
                w = np.concatenate([rng.uniform(0.1, 2.0, k), -rng.uniform(0.1, 2.0, n - k)])
                pos, _ = self.check(with_spectrum(rng, w))
                assert pos.shape[0] == k

    def test_random_matrices(self):
        rng = np.random.default_rng(22)
        for n in (1, 2, 7, 33, 80):
            self.check(rand_sym(rng, n, 3.0).mat)

    def test_exact_zero_on_nsd_input(self):
        rng = np.random.default_rng(23)
        for n in (1, 5, 40):
            for s in (np.zeros((n, n)), with_spectrum(rng, -rng.uniform(0.0, 1.0, n))):
                pos, part = symlinalg._positive_part(s)
                assert pos.shape == (0,)
                np.testing.assert_array_equal(part, np.zeros((n, n)))

    def test_repeat_calls_byte_equal(self):
        rng = np.random.default_rng(24)
        for n in (6, 50):
            s = rand_sym(rng, n).mat
            a, b = symlinalg._positive_part(s), symlinalg._positive_part(s.copy())
            assert a[0].tobytes() == b[0].tobytes()
            assert a[1].tobytes() == b[1].tobytes()
