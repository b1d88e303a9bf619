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


def singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


DSYEVR = symlinalg._dsyevr()
needs_binding = pytest.mark.skipif(DSYEVR is None, reason="this numpy has no scipy_LAPACKE_dsyevr64_")
needs_lapack = pytest.mark.skipif(
    None in (DSYEVR, symlinalg._dsytrf(), symlinalg._dsyevd()),
    reason="this numpy lacks one of scipy_LAPACKE_{dsyevr,dsytrf,dsyevd}64_")


def failing(binding):
    """A LAPACKE binding made to report a failure (info > 0) after it has
    overwritten its matrix."""
    def call(*args):
        if binding is not None:
            binding(*args)
        return 1
    return call


failing_binding = failing(DSYEVR)


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

    def test_huge_symmetric_accepted(self):
        # finite entries whose sum A + A^T overflows keep their value
        a = np.full((2, 2), 1.5e308)
        np.testing.assert_array_equal(SymMatrix(a).mat, a)
        s = SymMatrix([[0.0, 1.5e308], [1.7e308, 0.0]])
        assert s.mat[0, 1] == s.mat[1, 0] == 1.6e308
        for bad in ([[np.inf, 1e308], [1e308, 0.0]], [[0.0, np.inf], [-np.inf, 0.0]]):
            with pytest.raises(NonFiniteInput, match="matrix contains NaN or Inf"):
                SymMatrix(bad)

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


class TestOverflowingSpectrum:
    """A finite SymMatrix whose eigenvalues overflow: every public kernel
    raises NonFiniteInput naming the overflow, with no RuntimeWarning (the
    tier-1 filter turns one into an error) and no blame on the input."""

    KERNELS = [eig_sym, lambda_max, norms, project_neg_semidef]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("n, entry", [(2, 1.5e308), (40, 1e307)])
    def test_raises_named_overflow(self, kernel, n, entry):
        # the top eigenvalue n * entry is beyond the float range; n = 40
        # takes lambda_max through dsyevr (or inverse iteration where the
        # binding is missing)
        with pytest.raises(NonFiniteInput, match="eigenvalues or norms of the matrix overflow"):
            kernel(SymMatrix(np.full((n, n), entry)))

    def test_finite_spectrum_still_computed(self):
        # eigenvalues of +-1e300 are finite; only the Frobenius norm's sum
        # of squares, 2e600, overflows, and norms scales it away
        s = SymMatrix(np.diag([1e300, -1e300]))

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * 1e300)

        close(eig_sym(s).eigenvalues, [1e300, -1e300])
        close(lambda_max(s)[0], 1e300)
        np.testing.assert_allclose(norms(s), (np.sqrt(2.0) * 1e300, 1e300), rtol=1e-14)
        proj, residual = project_neg_semidef(s)
        close(residual.mat, np.diag([1e300, 0.0]))
        close(proj.mat, np.diag([0.0, -1e300]))


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
    the size where `dsyevr` and inverse iteration take over. Given the
    eigenvalues w it takes inverse iteration, the path used where the
    `dsyevr` binding is missing; without them, `dsyevr`."""

    SIZES = (5, symlinalg._INVIT_MIN_DIM - 1, symlinalg._INVIT_MIN_DIM, 60, 150)

    def check(self, s, gap_tol):
        w = np.linalg.eigvalsh(s)
        radius = max(np.abs(w).max(), 1e-300)
        given = symlinalg._top_eigpair(s, w)
        assert given[0] == w[-1]
        # dsyevr's top may differ from eigvalsh's in the last bits
        alone = symlinalg._top_eigpair(s)
        assert abs(alone[0] - w[-1]) <= 1e-13 * radius
        for top, v in (given, alone):
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

    @pytest.mark.parametrize("start_share, solves", [(None, 1), (1e-6, 2)],
                             ids=["generic-start", "start-nearly-orthogonal"])
    def test_inverse_iteration_solve_count(self, monkeypatch, start_share, solves):
        # after one solve the residual is about delta ||v0|| / |<u, v0>| for
        # the top eigenvector u, so it meets the bound at once unless the
        # start vector v0 is nearly orthogonal to u
        rng = np.random.default_rng(15)
        n = 40
        if start_share is None:
            s = rand_sym(rng, n).mat
        else:
            v0 = 0.5 + (np.arange(n) * 0.6180339887498949) % 1.0
            v0 /= np.linalg.norm(v0)
            u = rng.standard_normal(n)
            u -= (u @ v0) * v0
            u = u / np.linalg.norm(u) + start_share * v0
            q, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
            s = (q * np.concatenate([[1.0], rng.uniform(-1.0, 0.5, n - 1)])) @ q.T
            s = 0.5 * (s + s.T)
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(b)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        w = np.linalg.eigvalsh(s)
        v = symlinalg._inverse_iteration(s, w)
        assert len(calls) == solves
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        radius = max(w[-1], -w[0])
        assert np.linalg.norm(s @ v - w[-1] * v) <= symlinalg._INVIT_RESIDUAL * radius

    @pytest.mark.parametrize("solve", [singular_solve, lambda a, b: np.zeros_like(b)],
                             ids=["solve-raises", "solve-returns-zeros"])
    def test_failed_solve_falls_back_to_eigh(self, monkeypatch, solve):
        # a shift that meets an eigenvalue exactly, or a solve with no
        # vector to normalize, leaves the top eigenpair to one full eigh
        s = rand_sym(np.random.default_rng(17), 40).mat
        w = np.linalg.eigvalsh(s)
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert symlinalg._inverse_iteration(s, w) is None
        self.check(s, 0.0)

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
            w_ref, v_ref = np.linalg.eigh(s)
            for top, v in (symlinalg._top_eigpair(s, np.linalg.eigvalsh(s)),
                           symlinalg._top_eigpair(s)):
                assert top == 1.0
                assert v.tobytes() == v_ref[:, np.flatnonzero(w_ref == 1.0)[0]].tobytes()

    @needs_binding
    @pytest.mark.parametrize("n", [symlinalg._INVIT_MIN_DIM, 60])
    def test_dsyevr_tie_takes_first_column(self, n):
        # on an exact tie dsyevr returns the last tied column (e_n for these
        # two); the kernel returns the first, as eigh and eig_sym order them
        rest = np.linspace(-1.0, 0.5, n - 2)
        for s in (np.zeros((n, n)), np.diag(np.concatenate([rest, [1.0, 1.0]]))):
            top, v = symlinalg._dsyevr_top(s)
            w_ref, v_ref = np.linalg.eigh(s)
            assert top == w_ref[-1]
            assert v.tobytes() == v_ref[:, np.flatnonzero(w_ref == w_ref[-1])[0]].tobytes()

    @needs_binding
    def test_dsyevr_small_sizes(self):
        # the kernel itself works from size 2; the size rule is the callers'
        rng = np.random.default_rng(18)
        for n in (2, 3, 5, 20):
            s = rand_sym(rng, n).mat
            w = np.linalg.eigvalsh(s)
            top, v = symlinalg._dsyevr_top(s)
            assert abs(top - w[-1]) <= 1e-13 * np.abs(w).max()
            assert np.linalg.norm(s @ v - top * v) <= symlinalg._INVIT_RESIDUAL * np.abs(w).max()

    @pytest.mark.parametrize("binding", [None, failing_binding],
                             ids=["binding-missing", "binding-fails"])
    def test_dsyevr_unavailable_takes_inverse_iteration(self, monkeypatch, binding):
        # a missing symbol, or info != 0 from a call that has overwritten its
        # matrix, leaves the intact block to eigvalsh and inverse iteration
        monkeypatch.setattr(symlinalg, "_dsyevr", lambda: binding)
        rng = np.random.default_rng(19)
        for n in (symlinalg._INVIT_MIN_DIM, 60, 150):
            s = rand_sym(rng, n).mat
            kept = s.copy()
            assert symlinalg._dsyevr_top(s) is None
            want = symlinalg._top_eigpair(kept, np.linalg.eigvalsh(kept))
            top, vector = symlinalg._block_top(s)
            for got in (symlinalg._top_eigpair(s), (top, vector())):
                assert got[0] == want[0]
                assert got[1].tobytes() == want[1].tobytes()
            assert s.tobytes() == kept.tobytes()

    def test_block_top_matches_top_eigpair(self):
        # the non-smooth oracle's per-block entry: from size 32 the pair of
        # _top_eigpair(s), below it eigvalsh's top and the vector for it
        rng = np.random.default_rng(21)
        for n in self.SIZES:
            s = rand_sym(rng, n).mat
            w = np.linalg.eigvalsh(s)
            top, vector = symlinalg._block_top(s)
            want = symlinalg._top_eigpair(s, None if n >= symlinalg._INVIT_MIN_DIM else w)
            assert top == want[0]
            assert vector().tobytes() == want[1].tobytes()

    @needs_binding
    def test_dsyevr_leaves_input_intact(self):
        s = rand_sym(np.random.default_rng(20), 40).mat
        kept = s.copy()
        symlinalg._dsyevr_top(s)
        symlinalg._block_top(s)
        assert s.tobytes() == kept.tobytes()

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
            for first, again in ((symlinalg._top_eigpair(s, w),
                                  symlinalg._top_eigpair(s.copy(), w.copy())),
                                 (symlinalg._top_eigpair(s), symlinalg._top_eigpair(s.copy()))):
                assert first[0] == again[0]
                assert first[1].tobytes() == again[1].tobytes()


class TestPositivePart:
    """`_positive_part` against V diag(max(w, 0)) V^T from `np.linalg.eigh`.
    From size 32 an inertia count picks the routine: `dsyevr` for at most
    n // 8 positive eigenvalues, a direct `dsyevd` for more."""

    # each binding, and the positive counts at n = 60 whose branch calls it
    BINDINGS = {"_dsytrf": (2, 30), "_dsyevr": (2,), "_dsyevd": (30,)}

    def check(self, s):
        w_ref, v_ref = np.linalg.eigh(s)
        pos, part = symlinalg._positive_part(s)
        np.testing.assert_allclose(pos, w_ref[w_ref > 0.0], rtol=1e-13)
        want = (v_ref * np.maximum(w_ref, 0.0)) @ v_ref.T
        scale = max(float(np.abs(w_ref).max()), 1e-300)
        np.testing.assert_allclose(part, want, atol=1e-12 * scale)
        return pos, part

    def eigh_formula(self, s):
        """The path below size 32, and the fallback: one `np.linalg.eigh`."""
        w, v = np.linalg.eigh(s)
        cut = int(np.searchsorted(w, 0.0, side="right"))
        side = v[:, cut:]
        return w[cut:], (side * w[cut:]) @ side.T

    def spied(self, monkeypatch):
        """The names of the LAPACK routines each `_positive_part` call runs."""
        calls = []
        for name in ("_dsyevr_rows", "_dsyevd_eigh"):
            real = getattr(symlinalg, name)

            def spy(s, *args, real=real, name=name):
                calls.append(name)
                return real(s, *args)

            monkeypatch.setattr(symlinalg, name, spy)
        return calls

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

    @needs_lapack
    def test_positive_count_matches_eigvalsh(self):
        rng = np.random.default_rng(25)
        for n in (1, 2, 5, 32, 60, 150):
            for k in sorted({0, 1, n // 3, n - 1, n}):
                w = np.concatenate([rng.uniform(1e-3, 2.0, k), -rng.uniform(1e-3, 2.0, n - k)])
                s = with_spectrum(rng, w)
                want = int(np.count_nonzero(np.linalg.eigvalsh(s) > 0.0))
                assert symlinalg._positive_count(s) == want
        assert symlinalg._positive_count(np.diag([1.0, -2.0, 3.0])) == 2

    @needs_lapack
    @pytest.mark.parametrize("shift", [-0.5, -0.25, 0.0, 0.25, 0.5])
    def test_positive_count_with_2x2_pivots(self, shift):
        # a diagonal below 0.64 (Bunch-Kaufman's alpha) under unit
        # off-diagonal pairs forces 2 x 2 pivots; each holds one eigenvalue
        # 1 + shift > 0 and one -1 + shift < 0
        for pairs in (1, 3, 20):
            s = np.kron(np.eye(pairs), [[0.0, 1.0], [1.0, 0.0]]) + shift * np.eye(2 * pairs)
            a = s.copy()
            ipiv = np.empty(2 * pairs, dtype=np.int64)
            assert symlinalg._dsytrf()(102, b"L", 2 * pairs, a.ctypes.data, 2 * pairs,
                                      ipiv.ctypes.data) == 0
            assert (ipiv < 0).all()
            assert symlinalg._positive_count(s) == pairs

    @needs_lapack
    @pytest.mark.parametrize("n", [32, 40, 300])
    def test_branch_by_inertia(self, monkeypatch, n):
        # n // 8 positive eigenvalues take dsyevr, one more takes dsyevd
        calls = self.spied(monkeypatch)
        rng = np.random.default_rng(26 + n)
        few = n // symlinalg._FEW_POSITIVE
        for k, routine in ((few, "_dsyevr_rows"), (few + 1, "_dsyevd_eigh")):
            w = np.concatenate([rng.uniform(0.1, 2.0, k), -rng.uniform(0.1, 2.0, n - k)])
            del calls[:]
            pos, _ = self.check(with_spectrum(rng, w))
            assert calls == [routine]
            assert pos.shape[0] == k

    @needs_lapack
    @pytest.mark.parametrize("n", [32, 40, 300])
    def test_top_at_row_sum_bound(self, monkeypatch, n):
        # diag(c, -1, ..., -1): its top eigenvalue c is the largest absolute
        # row sum, so the range (0, 2 c] that dsyevr searches holds it
        calls = self.spied(monkeypatch)
        for c in (1.0, 3.0, 1e150):
            s = np.diag(np.concatenate([[c], -np.ones(n - 1)]))
            pos, part = symlinalg._positive_part(s)
            assert calls.pop() == "_dsyevr_rows"
            assert pos == pytest.approx([c], rel=1e-15)
            np.testing.assert_allclose(part, c * np.outer(np.eye(n)[0], np.eye(n)[0]),
                                       atol=1e-15 * c)

    @pytest.mark.parametrize("name", BINDINGS)
    @pytest.mark.parametrize("broken", ["missing", "fails"])
    def test_unavailable_binding_falls_back_to_eigh(self, monkeypatch, name, broken):
        # a missing symbol, or info != 0 from a call that has overwritten its
        # copy, leaves the intact block to eigh, bit for bit
        rng = np.random.default_rng(27)
        binding = None if broken == "missing" else failing(getattr(symlinalg, name)())
        monkeypatch.setattr(symlinalg, name, lambda: binding)
        for k in self.BINDINGS[name]:
            s = with_spectrum(rng, np.concatenate([rng.uniform(0.1, 2.0, k),
                                                   -rng.uniform(0.1, 2.0, 60 - k)]))
            kept = s.copy()
            got, want = symlinalg._positive_part(s), self.eigh_formula(kept)
            assert s.tobytes() == kept.tobytes()
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_nonfinite_block_skips_lapack(self, monkeypatch):
        # NaN or Inf, or a row-sum bound that overflows, never reaches the
        # LAPACKE bindings; eigh decides the outcome, as below size 32
        calls = []
        for name in self.BINDINGS:
            monkeypatch.setattr(symlinalg, name, lambda: lambda *args: calls.append(args) or 0)
        s = np.zeros((40, 40))
        for entry in (np.inf, np.nan, 1e308):
            s[0, 0] = entry
            assert symlinalg._eigenpairs_above_zero(s) is None
        assert calls == []

    @needs_lapack
    def test_many_positive_bit_equal_to_eigh(self, monkeypatch):
        # the (n, k) pairs include ones where V+ in Fortran order would give
        # P+ other bits than the C-contiguous V+ that eigh returns
        calls = self.spied(monkeypatch)
        rng = np.random.default_rng(28)
        for n, k in ((32, 31), (33, 32), (60, 30), (100, 99), (150, 37), (300, 150)):
            w = np.concatenate([rng.uniform(0.1, 2.0, k), -rng.uniform(0.1, 2.0, n - k)])
            for s in (rand_sym(rng, n).mat, with_spectrum(rng, w)):
                got, want = symlinalg._positive_part(s), self.eigh_formula(s)
                assert calls.pop() == "_dsyevd_eigh"
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    def test_repeat_calls_byte_equal(self):
        rng = np.random.default_rng(24)
        for n in (6, 50, 300):
            for k in (1, n // 2):
                s = with_spectrum(rng, np.concatenate([rng.uniform(0.1, 2.0, k),
                                                       -rng.uniform(0.1, 2.0, n - k)]))
                a, b = symlinalg._positive_part(s), symlinalg._positive_part(s.copy())
                assert a[0].tobytes() == b[0].tobytes()
                assert a[1].tobytes() == b[1].tobytes()
