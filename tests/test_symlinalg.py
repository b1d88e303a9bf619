"""Symmetric kernel: eigendecomposition, cone projection, norms."""

import math

import numpy as np
import pytest

from lmisolve import (
    DimensionMismatch,
    LinIneqSystem,
    LmiProblem,
    NonFiniteInput,
    SymMatrix,
    constants,
    eig_sym,
    lambda_max,
    linsys_oracle,
    norms,
    project_neg_semidef,
)
from lmisolve import symlinalg

RT2 = math.sqrt(2.0)


DSYEVR = symlinalg._lapacke("dsyevr")
needs_binding = pytest.mark.skipif(DSYEVR is None, reason="this numpy has no scipy_LAPACKE_dsyevr64_")
needs_lapack = pytest.mark.skipif(
    None in [symlinalg._lapacke(name) for name in ("dsyevr", "dsytrf", "dsyevd")],
    reason="this numpy lacks one of scipy_LAPACKE_{dsyevr,dsytrf,dsyevd}64_")


def failing(binding, info=1):
    """A LAPACKE binding made to report a failure (info > 0 by default)
    after it has overwritten its matrix."""
    def call(*args):
        if binding is not None:
            binding(*args)
        return info
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

    def test_rejects_empty(self):
        # n = 0 would reach every kernel, and LAPACK, as an IndexError or a
        # ValueError; it is refused where the matrix comes in
        for empty in (np.zeros((0, 0)), []):
            with pytest.raises(DimensionMismatch, match="nonempty square"):
                SymMatrix(empty)

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

    def test_tiny_entries_do_not_underflow(self):
        # the squares underflow (to 0 or a subnormal), so a plain sum of squares
        # would give a Frobenius norm below the spectral norm
        for entry in (1e-200, 1e-160):
            fro, spec = norms(SymMatrix(np.diag([entry, entry])))
            assert spec == entry
            assert fro == pytest.approx(RT2 * entry, rel=1e-15, abs=0.0)

    def test_frobenius_bits_unchanged_on_ordinary_matrices(self):
        rng = np.random.default_rng(32)
        for scale in (1e-45, 1e-3, 1.0, 1e45):
            s = rand_sym(rng, 30, scale)
            assert norms(s)[0] == float(np.linalg.norm(s.mat))

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
    def test_spectral_is_eigvalsh_bit_for_bit(self, n):
        rng = np.random.default_rng(33 + n)
        for scale in (1e-3, 1.0, 1e3):
            s = rand_sym(rng, n, scale)
            assert norms(s)[1] == float(np.abs(np.linalg.eigvalsh(s.mat)).max())


    def test_lone_matrix_takes_eigvalsh_alone(self, monkeypatch, lapacke):
        # one matrix, as in norms, a single-coefficient block's M and both
        # Gram norms, looks up no LAPACKE routine and starts no thread
        looked = lapacke(dsyevd=None)
        monkeypatch.setattr(symlinalg, "threading", None)
        s = rand_sym(np.random.default_rng(35), 40)
        want = float(np.abs(np.linalg.eigvalsh(s.mat)).max())
        assert norms(s)[1] == want
        assert symlinalg._spectral_norms(40, 1, lambda i, a: np.copyto(a, s.mat))[0] == want
        constants(LmiProblem([s.mat], np.zeros((40, 40))))
        linsys_oracle(LinIneqSystem(s.mat, np.zeros(40), ["eq"] * 40))
        assert looked == []


class TestOverflowingSpectrum:
    """A finite SymMatrix whose eigenvalues overflow: every public kernel
    raises NonFiniteInput naming the overflow, with no RuntimeWarning (the
    tier-1 filter turns one into an error) and no blame on the input."""

    KERNELS = [eig_sym, lambda_max, norms, project_neg_semidef]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("n, entry", [(2, 1.5e308), (40, 1e307)])
    def test_raises_named_overflow(self, kernel, n, entry):
        # the top eigenvalue n * entry is beyond the float range; n = 40
        # takes lambda_max through dsyevr (or one eigh where the binding is
        # missing)
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


def signed(v):
    """v with lambda_max's canonical sign."""
    return symlinalg._canonical_signs(v[:, None])[:, 0]


def top_space(s, tol):
    """Reference eigenvectors (from np.linalg.eigh) of the eigenvalues within
    tol of the largest."""
    w, v = np.linalg.eigh(s)
    return v[:, w >= w[-1] - tol]


class TestTopEigpair:
    """`_block_top`, the non-smooth oracle's per-block entry, and
    `lambda_max` against an `np.linalg.eigh` reference, on both sides of the
    size where `dsyevr` takes over. Below it, or where the binding is
    missing or fails, both take numpy's routines: `_block_top` the top of
    `eigvalsh` and the first top column of one `eigh`, `lambda_max` the
    pair of that `eigh`."""

    SIZES = (5, symlinalg._LAPACKE_MIN_DIM - 1, symlinalg._LAPACKE_MIN_DIM, 60, 150)

    def check(self, s, gap_tol):
        w = np.linalg.eigvalsh(s)
        radius = max(np.abs(w).max(), 1e-300)
        top, vector = symlinalg._block_top(s)
        if s.shape[0] < symlinalg._LAPACKE_MIN_DIM:
            assert top == w[-1]
        for val, v in ((top, vector()), lambda_max(SymMatrix(s))):
            # dsyevr's and eigh's tops may differ from eigvalsh's in the last bits
            assert abs(val - w[-1]) <= 1e-13 * radius
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(s @ v - val * v) <= 1e-10 * radius
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
                assert abs(float(vec @ symlinalg._block_top(s)[1]())) == pytest.approx(1.0)

    def test_top_gap_1e10(self):
        rng = np.random.default_rng(13)
        for n in self.SIZES:
            rest = rng.uniform(-1.0, 0.9, n - 2)
            s = with_spectrum(rng, np.concatenate([[1.0, 1.0 - 1e-10], rest]))
            self.check(s, 1e-9)

    def test_repeated_top(self):
        rng = np.random.default_rng(14)
        for n in self.SIZES:
            rest = rng.uniform(-1.0, 0.9, n - 2)
            self.check(with_spectrum(rng, np.concatenate([[1.0, 1.0], rest])), 1e-9)
            # exactly equal in eigvalsh: the first tied column of eigh, as in
            # the canonical order
            s = np.diag(np.concatenate([rest, [1.0, 1.0]]))
            w_ref, v_ref = np.linalg.eigh(s)
            first = v_ref[:, np.flatnonzero(w_ref == 1.0)[0]]
            top, vector = symlinalg._block_top(s)
            val, vec = lambda_max(SymMatrix(s))
            assert top == val == 1.0
            assert vector().tobytes() == first.tobytes()
            assert vec.tobytes() == signed(first).tobytes()

    @needs_binding
    @pytest.mark.parametrize("n", [symlinalg._LAPACKE_MIN_DIM, 60])
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
            assert np.linalg.norm(s @ v - top * v) <= 1e-10 * np.abs(w).max()

    @pytest.mark.parametrize("binding", [None, failing_binding],
                             ids=["binding-missing", "binding-fails"])
    def test_dsyevr_unavailable_takes_eigh(self, lapacke, binding):
        # a missing symbol, or info != 0 from a call that has overwritten its
        # matrix, leaves the intact block to eigvalsh for the top and one
        # eigh for the vector; lambda_max takes that eigh's pair
        lapacke(dsyevr=binding)
        rng = np.random.default_rng(19)
        for n in (symlinalg._LAPACKE_MIN_DIM, 60, 150):
            s = rand_sym(rng, n).mat
            kept = s.copy()
            assert symlinalg._dsyevr_top(s) is None
            w = np.linalg.eigvalsh(kept)
            w_ref, v_ref = np.linalg.eigh(kept)
            first = v_ref[:, np.flatnonzero(w_ref == w_ref[-1])[0]]
            top, vector = symlinalg._block_top(s)
            assert top == w[-1]
            assert vector().tobytes() == first.tobytes()
            val, vec = lambda_max(SymMatrix(s))
            assert val == w_ref[-1]
            assert vec.tobytes() == signed(first).tobytes()
            assert s.tobytes() == kept.tobytes()

    def test_block_top_matches_top_eigpair(self):
        # the oracle's per-block entry and lambda_max find the same top
        # eigenpair: from size 32 both take dsyevr's, below it _block_top
        # takes eigvalsh's top and the column of lambda_max's eigh
        rng = np.random.default_rng(21)
        for n in self.SIZES:
            s = rand_sym(rng, n).mat
            w = np.linalg.eigvalsh(s)
            top, vector = symlinalg._block_top(s)
            val, vec = lambda_max(SymMatrix(s))
            if n >= symlinalg._LAPACKE_MIN_DIM and DSYEVR is not None:
                assert top == val
            else:
                assert top == w[-1]
                assert abs(top - val) <= 1e-13 * np.abs(w).max()
            assert vec.tobytes() == signed(vector()).tobytes()

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
            top, vector = symlinalg._block_top(z)
            assert top == 0.0
            np.testing.assert_array_equal(np.abs(vector()), np.eye(n)[0])
            val, vec = lambda_max(SymMatrix(z))
            assert val == 0.0
            np.testing.assert_array_equal(vec, np.eye(n)[0])

    def test_repeat_calls_byte_equal(self):
        rng = np.random.default_rng(16)
        for n in self.SIZES:
            s = rand_sym(rng, n).mat
            first, again = symlinalg._block_top(s), symlinalg._block_top(s.copy())
            assert first[0] == again[0]
            assert first[1]().tobytes() == again[1]().tobytes()
            first, again = lambda_max(SymMatrix(s)), lambda_max(SymMatrix(s.copy()))
            assert first[0] == again[0]
            assert first[1].tobytes() == again[1].tobytes()


class TestPositivePart:
    """`_positive_part` against V diag(max(w, 0)) V^T from `np.linalg.eigh`.
    From size 32 an inertia count k picks the routine: `dsyevr` for the top
    k eigenpairs by index where k <= n // 8 (no call for k = 0), a direct
    `dsyevd` for more."""

    # each binding, and the positive counts at n = 60 whose branch calls it
    BINDINGS = {"dsytrf": (2, 30), "dsyevr": (2,), "dsyevd": (30,)}

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
        """The names of the LAPACK helpers each `_positive_part` call runs."""
        calls = []
        for name in ("_syevr_rows", "_syevd_in_place"):
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
            assert symlinalg._lapacke("dsytrf")(102, b"L", 2 * pairs, a.ctypes.data, 2 * pairs,
                                                ipiv.ctypes.data) == 0
            assert (ipiv < 0).all()
            assert symlinalg._positive_count(s) == pairs

    @needs_lapack
    @pytest.mark.parametrize("n", [32, 40, 300])
    def test_branch_by_inertia(self, monkeypatch, n):
        # n // 8 positive eigenvalues take dsyevr, one more takes dsyevd,
        # and none take neither
        calls = self.spied(monkeypatch)
        rng = np.random.default_rng(26 + n)
        few = n // symlinalg._FEW_POSITIVE
        for k, routines in ((0, []), (few, ["_syevr_rows"]), (few + 1, ["_syevd_in_place"])):
            w = np.concatenate([rng.uniform(0.1, 2.0, k), -rng.uniform(0.1, 2.0, n - k)])
            del calls[:]
            pos, _ = self.check(with_spectrum(rng, w))
            assert calls == routines
            assert pos.shape[0] == k

    @needs_lapack
    @pytest.mark.parametrize("n", [32, 40, 300])
    def test_one_positive_by_index(self, monkeypatch, n):
        # diag(c, -1, ..., -1): dsyevr takes its one positive eigenpair by
        # index, at any scale
        calls = self.spied(monkeypatch)
        for c in (1.0, 3.0, 1e150):
            s = np.diag(np.concatenate([[c], -np.ones(n - 1)]))
            pos, part = symlinalg._positive_part(s)
            assert calls.pop() == "_syevr_rows"
            assert pos == pytest.approx([c], rel=1e-15)
            np.testing.assert_allclose(part, c * np.outer(np.eye(n)[0], np.eye(n)[0]),
                                       atol=1e-15 * c)

    # the ids keep the underscore of the per-routine getters these cases had
    @pytest.mark.parametrize("name", BINDINGS, ids=lambda name: f"_{name}")
    @pytest.mark.parametrize("broken", ["missing", "fails"])
    def test_unavailable_binding_falls_back_to_eigh(self, lapacke, name, broken):
        # a missing symbol, or info != 0 from a call that has overwritten its
        # copy, leaves the intact block to eigh, bit for bit
        rng = np.random.default_rng(27)
        # dsytrf reports a failure with info < 0: info > 0, an exactly zero
        # pivot, still ends a complete factorization
        info = -1 if name == "dsytrf" else 1
        lapacke(**{name: None if broken == "missing" else failing(symlinalg._lapacke(name), info)})
        for k in self.BINDINGS[name]:
            s = with_spectrum(rng, np.concatenate([rng.uniform(0.1, 2.0, k),
                                                   -rng.uniform(0.1, 2.0, 60 - k)]))
            kept = s.copy()
            got, want = symlinalg._positive_part(s), self.eigh_formula(kept)
            assert s.tobytes() == kept.tobytes()
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_nonfinite_block_skips_lapack(self, lapacke):
        # NaN or Inf, or an LDL^T whose D overflows, never reaches the
        # eigenvalue routines: the inertia count gives up on a non-finite
        # D, and eigh decides the outcome, as below size 32
        calls = []

        def record(*args):
            calls.append(args)
            return 0

        lapacke(dsyevr=record, dsyevd=record)
        s = np.zeros((40, 40))
        for entry in (np.inf, np.nan):
            s[0, 0] = entry
            assert symlinalg._positive_count(s.copy()) is None
            assert symlinalg._eigenpairs_above_zero(s.copy()) is None
        # the first pivot 1e308 leaves -1e308 - 1e308 = -inf in D
        s[0, 0], s[1, 1], s[0, 1], s[1, 0] = 1e308, -1e308, 1e308, 1e308
        assert symlinalg._positive_count(s.copy()) is None
        assert symlinalg._eigenpairs_above_zero(s.copy()) is None
        assert calls == []

    @needs_lapack
    def test_exactly_zero_pivot_still_counts(self, monkeypatch):
        # dsytrf ends these with info 1, an exactly zero 1 x 1 pivot, and
        # its inertia is exact: they take LAPACK's path, not eigh
        n = 40
        cases = [(np.diag(np.concatenate([[0.0, 1.0, 1.0, 1.0], -np.ones(n - 4)])), 3),
                 (np.zeros((n, n)), 0)]
        wants = [self.eigh_formula(s) for s, _ in cases]
        calls = self.spied(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", None)
        for (s, k), (w_want, part_want) in zip(cases, wants):
            a, ipiv = s.copy(), np.empty(n, dtype=np.int64)
            assert symlinalg._lapacke("dsytrf")(102, b"L", n, a.ctypes.data, n,
                                                ipiv.ctypes.data) == 1
            assert symlinalg._positive_count(s.copy()) == k
            del calls[:]
            pos, part = symlinalg._positive_part(s)
            assert calls == (["_syevr_rows"] if k else [])
            np.testing.assert_allclose(pos, w_want, rtol=1e-15)
            np.testing.assert_allclose(part, part_want, atol=1e-15)

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
                assert calls.pop() == "_syevd_in_place"
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


PRECISIONS = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])


def binding(dtype, routine):
    """The LAPACKE binding of routine ("syevr", ...) in dtype's precision;
    the test skips where it is missing."""
    name = ("s" if dtype == np.float32 else "d") + routine
    fn = symlinalg._lapacke(name)
    if fn is None:
        pytest.skip(f"this numpy has no scipy_LAPACKE_{name}64_")
    return fn


class TestLapackeTable:
    """Each routine of `symlinalg._ARGTYPES` in both precisions, through the
    helper that runs it in its array's dtype, on diagonal matrices."""

    @PRECISIONS
    def test_syevr(self, dtype):
        fn = binding(dtype, "syevr")
        w, z = symlinalg._syevr_rows(np.diag(np.array([1.0, 3.0, 2.0], dtype)), 3, 3)
        assert w.dtype == z.dtype == np.float64
        assert abs(w[0] - 3.0) <= 1e-6 and abs(abs(z[0, 1]) - 1.0) <= 1e-6
        # the helpers pass vl = vu = abstol = 0, which a real argument of the
        # wrong C type also passes as 0 on x86-64; a value range finds 3 in
        # (2.5, 3.5] only where vl and vu arrive as the routine's reals
        a = np.diag(np.array([1.0, 3.0, 2.0], dtype))
        found, w = np.zeros(1, dtype=np.int64), np.zeros(3, dtype)
        z, isuppz = np.zeros((3, 3), dtype), np.zeros(6, dtype=np.int64)
        info = fn(102, b"V", b"V", b"L", 3, a.ctypes.data, 3, 2.5, 3.5, 0, 0, 0.0,
                  found.ctypes.data, w.ctypes.data, z.ctypes.data, 3, isuppz.ctypes.data)
        assert (info, found[0], w[0]) == (0, 1, 3.0)

    @PRECISIONS
    def test_sytrf(self, dtype):
        binding(dtype, "sytrf")
        assert symlinalg._positive_count(np.diag(np.array([1.0, -2.0, 3.0], dtype))) == 2

    @PRECISIONS
    def test_syevd(self, dtype):
        binding(dtype, "syevd")
        a = np.diag(np.array([1.0, 3.0, 2.0], dtype))
        w = symlinalg._syevd_in_place(a, b"V")
        assert w.dtype == np.float64
        assert np.abs(w - [1.0, 2.0, 3.0]).max() <= 1e-6
        np.testing.assert_allclose(np.abs(a), np.eye(3)[[0, 2, 1]], atol=1e-6)

    def test_dsyevd_eigenvalues_are_eigvalshs(self):
        # jobz "N", as `_spectral_norms` runs it, is the call behind eigvalsh
        binding(np.float64, "syevd")
        g = np.random.default_rng(0).standard_normal((40, 40))
        s = g + g.T
        w = symlinalg._syevd_in_place(s.copy(), b"N")
        assert w is not None and w.tobytes() == np.linalg.eigvalsh(s).tobytes()

    def test_missing_symbol_binds_nothing(self):
        assert symlinalg._lapacke("dnosuch") is None


def exact_pairs(s):
    """`_block_top`'s and `_positive_part`'s pairs on s, the vector function
    called, as (top, bytes of the vector, of w, of P+)."""
    top, vector = symlinalg._block_top(s)
    w, part = symlinalg._positive_part(s)
    return top, vector().tobytes(), w.tobytes(), part.tobytes()


def bound_pairs(s):
    """`_block_top_bound`'s and `_positive_part_bound`'s pairs on s, in the
    form of `exact_pairs`."""
    top, vector = symlinalg._block_top_bound(s)
    w, part = symlinalg._positive_part_bound(s)
    return top, vector().tobytes(), w.tobytes(), part.tobytes()


class TestSinglePrecisionBounds:
    """`_block_top_bound` and `_positive_part_bound` from size 32: float64
    bounds from float32 eigenvectors, and no bound, but that block's exact
    pair bit for bit, where a single-precision routine is missing or fails
    or the block overflows float32."""

    # each routine, and the positive counts at n = 60 whose branch calls it
    ROUTINES = {"ssytrf": (2, 30), "ssyevr": (2,), "ssyevd": (30,)}

    def block(self, k):
        rng = np.random.default_rng(40 + k)
        return with_spectrum(rng, np.concatenate([rng.uniform(0.1, 2.0, k),
                                                  -rng.uniform(0.1, 2.0, 60 - k)]))

    def test_bounds_where_the_routines_resolve(self, lapacke):
        if not symlinalg._screened_dim(60):
            pytest.skip("this numpy lacks one of scipy_LAPACKE_{ssyevr,ssytrf,ssyevd}64_")
        for k in (2, 30):
            s = self.block(k)
            looked = lapacke()
            top, (h,) = symlinalg._block_top_bound(s)[0], symlinalg._positive_part_bound(s)[0]
            assert {"ssyevr", "ssytrf"} <= set(looked)
            # bounds, and not the exact values
            assert top < symlinalg._block_top(s)[0]
            assert 0.0 < h * h < float(np.sum(symlinalg._positive_part(s)[0] ** 2))

    @pytest.mark.parametrize("name", ROUTINES)
    @pytest.mark.parametrize("broken", ["missing", "fails"])
    def test_unavailable_routine_gives_no_bound(self, lapacke, name, broken):
        # ssytrf reports a failure with info < 0, as dsytrf does
        info = -1 if name == "ssytrf" else 1
        lapacke(**{name: None if broken == "missing" else failing(symlinalg._lapacke(name), info)})
        for k in self.ROUTINES[name]:
            s = self.block(k)
            kept = s.copy()
            want = exact_pairs(s)
            got = bound_pairs(s)
            assert got[2:] == want[2:]
            if name == "ssyevr":
                assert got[:2] == want[:2]
            assert s.tobytes() == kept.tobytes()

    def test_block_beyond_float32_gives_no_bound(self, lapacke):
        # 1e39 is finite in float64 and inf in float32: no routine runs
        calls = []

        def record(*args):
            calls.append(args)
            return 0

        lapacke(ssyevr=record, ssytrf=record, ssyevd=record)
        s = self.block(2)
        s[0, 0] = 1e39
        with np.errstate(over="ignore"):  # the cast to float32, as in the oracles
            assert bound_pairs(s) == exact_pairs(s)
        assert calls == []

    def test_float32_eigenvalue_overflow_gives_no_bound(self):
        # entries of 1e37 fit in float32, but the top eigenvalue, near 4e38,
        # does not: float32's P is not finite, and the block takes its exact
        # pair; the top vector keeps a finite quotient, and a bound
        if not symlinalg._screened_dim(40):
            pytest.skip("this numpy lacks one of scipy_LAPACKE_{ssyevr,ssytrf,ssyevd}64_")
        s = 1e37 * (np.ones((40, 40)) - np.diag(np.linspace(0.0, 1.0, 40)))
        with np.errstate(over="ignore", invalid="ignore"):  # as in the oracles
            assert bound_pairs(s)[2:] == exact_pairs(s)[2:]
            assert symlinalg._block_top_bound(s)[0] < symlinalg._block_top(s)[0]
