"""Dense symmetric-matrix kernel.

Everything downstream (oracles, solvers, instance generators) funnels its
linear algebra through here. The public API takes and returns checked,
immutable `SymMatrix` values: full eigendecomposition, extreme eigenvalue
with a unit eigenvector, projection onto the cone of negative-semidefinite
matrices, and the Frobenius/spectral norms. Its decompositions are
post-processed into a canonical form (eigenvalues descending, stable order
under ties, first non-negligible eigenvector component nonnegative) so that
identical inputs always yield identical outputs; the canonical form is for
the public API only. A finite `SymMatrix` whose eigenvalues or norms
overflow makes each public kernel raise NonFiniteInput, with no
RuntimeWarning.

The oracles call the private ndarray kernels directly, on blocks of
A(x) - B that are exactly symmetric and finite, and compute only the
spectrum they need, with LAPACKE routines of the OpenBLAS that numpy's own
wheels bundle and have loaded: `dsyevr`, `dsytrf` and `dsyevd` (the
`scipy_LAPACKE_*64_` symbols), bound with ctypes through the handle of
`numpy.linalg._umath_linalg` (`_lapacke`), so no library is loaded. Each
works on a copy, and where its symbol is missing or a call fails the
kernel takes numpy's own routine instead, on the intact block. Blocks
below size 32 use numpy's routines throughout.

`_top_eigpair` finds the top eigenvalue and one eigenvector for it. On
blocks of size 32 and up it takes both from one `dsyevr` call
(`_dsyevr_top`): a tridiagonal reduction, then only the top two
eigenvalues and the top vector; the fallback is `eigvalsh` and inverse
iteration (at most two LU solves). `_block_top` gives the non-smooth
oracle the top eigenvalue of a block and finds a vector only for the block
that needs one.

`_positive_part` gives the smooth oracle the positive eigenvalues and the
positive part V+ diag(w+) V+^T. On blocks of size 32 and up it first
counts the positive eigenvalues k by Sylvester's law of inertia on one
Bunch-Kaufman LDL^T (`_positive_count`, about a tenth of an `eigh`). For
k <= n / 8 one `dsyevr` call computes only the eigenpairs in (0, bound],
with twice the largest absolute row sum as the bound; for more, one
direct `dsyevd` call, the routine behind `np.linalg.eigh`, gives `eigh`'s
eigenpairs bit for bit for less overhead. The fallback is one `eigh`.

Their results are deterministic functions of the input but not
canonical. `lambda_max` and `project_neg_semidef` are built on them.

`model.constants` calls `dsyevd` for eigenvalues alone (jobz "N", as
`eigvalsh` does) on two threads.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

__all__ = [
    "SymMatrix",
    "EigDecomposition",
    "eig_sym",
    "lambda_max",
    "project_neg_semidef",
    "norms",
]

# Relative threshold below which a leading eigenvector component is treated
# as numerical noise when fixing the sign convention.
_SIGN_EPS = 1e-12

# Blocks smaller than this take their top eigenvector from one `eigh`: at
# n = 20 neither inverse iteration nor `dsyevr` is faster, and their
# vectors carry roundoff where `eigh` returns exact zeros (a diagonal
# block, for example).
_INVIT_MIN_DIM = 32
# From that size, a block with at most n // _FEW_POSITIVE positive
# eigenvalues takes them alone from `dsyevr`; more take a full `dsyevd`.
# On random spectra at n = 300 (one BLAS thread), `dsyevr` took 3.6 ms for
# k = 0 of them, 9.8 ms for k = 31 and 12.2 ms for k = 37, against 12.5 ms
# for `dsyevd`; at n = 60 and 150 the two cross near n / 8 as well.
_FEW_POSITIVE = 8
# Inverse iteration shifts by this much above the top eigenvalue, and keeps
# its vector v only if ||S v - lambda v|| is at most _INVIT_RESIDUAL; both
# are relative to the spectral radius of S. That residual also bounds
# lambda - v^T S v, the error of the Rayleigh quotient.
_INVIT_SHIFT = 1e-12
_INVIT_RESIDUAL = 1e-10


def _freeze(a):
    """a, marked read-only; every stored array of the package is made so here."""
    a.flags.writeable = False
    return a


class SymMatrix:
    """Dense real symmetric n x n matrix.

    The constructor symmetrizes the input as 0.5 * (A + A.T), which makes
    ``mat[i, j] == mat[j, i]`` hold exactly (IEEE addition commutes), and
    rejects NaN/Inf entries. Any finite input is accepted: an entry whose
    sum overflows (above about 8.99e307) is taken as 0.5 A + 0.5 A^T, the
    same value. The backing array is marked read-only; treat instances as
    immutable values.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
            s = 0.5 * (a + a.T)
            if not np.isfinite(s).all():
                # halving first never overflows but changes the bits of subnormal
                # sums, so only the entries that overflowed take that form
                bad = ~np.isfinite(s)
                s[bad] = 0.5 * a[bad] + 0.5 * a.T[bad]
                if not np.isfinite(s).all():
                    raise NonFiniteInput("matrix contains NaN or Inf entries")
        self.mat = _freeze(s)
        self.dim = s.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.mat, other.mat)

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues sorted descending; ``eigenvectors[:, k]`` is a unit
    eigenvector for ``eigenvalues[k]`` and the columns are orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _canonical_signs(v):
    """Flip each column of v so its first component that is not numerical
    noise comes out nonnegative."""
    scale = np.abs(v).max(axis=0)
    lead = (np.abs(v) > _SIGN_EPS * scale).argmax(axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0.0] = 1.0
    return v * signs


def _inverse_iteration(s, w):
    """Unit top eigenvector of s by at most two solves with
    S - (lambda + delta) I from a fixed start vector, or None when they fail
    or the residual bound is still missed after the second. The bound is
    checked after each solve: after the first the relative residual is
    about delta / |<u, v0>| for the top eigenvector u and the unit start v0,
    so the second runs only when v0 is nearly orthogonal to u. w holds all
    eigenvalues of s, ascending, with w[-1] > w[-2]."""
    n = w.shape[0]
    radius = max(w[-1], -w[0])
    # scaled to spectral radius 1, so the solves cannot overflow
    shifted = s / radius
    shifted.flat[:: n + 1] -= w[-1] / radius + _INVIT_SHIFT
    v = 0.5 + (np.arange(n) * 0.6180339887498949) % 1.0
    for _ in range(2):
        try:
            v = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError:  # the shift met an eigenvalue exactly
            return None
        size = np.linalg.norm(v)
        if not 0.0 < size < np.inf:
            return None
        v = v / size
        # (S - lambda I) v / radius = shifted v + delta v
        if np.linalg.norm(shifted @ v + _INVIT_SHIFT * v) <= _INVIT_RESIDUAL:
            return v
    return None


def _eigh_top(s) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric ndarray s from one full `eigh`,
    and the first of the columns that hold it, the one the canonical order
    puts first."""
    full, v = np.linalg.eigh(s)
    return float(full[-1]), v[:, int(np.argmax(full == full[-1]))]


def _lapacke(name, *argtypes):
    """LAPACKE's `name` with 64-bit integers, from the OpenBLAS that numpy's
    wheels bundle, or None where numpy links another LAPACK. It is looked
    up through the handle of `numpy.linalg._umath_linalg`, which is mapped
    already, so the lookup loads no library."""
    from numpy.linalg import _umath_linalg
    try:
        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_LAPACKE_{name}64_")
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_int, *argtypes]  # the layout first
    fn.restype = ctypes.c_int64
    return fn


_I64, _PTR, _DBL, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_char


@functools.cache
def _dsyevr():
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
    return _lapacke("dsyevr", _CHAR, _CHAR, _CHAR, _I64, _PTR, _I64, _DBL, _DBL, _I64, _I64,
                    _DBL, _PTR, _PTR, _PTR, _I64, _PTR)


@functools.cache
def _dsytrf():
    # uplo, n, a, lda, ipiv
    return _lapacke("dsytrf", _CHAR, _I64, _PTR, _I64, _PTR)


@functools.cache
def _dsyevd():
    # jobz, uplo, n, a, lda, w
    return _lapacke("dsyevd", _CHAR, _CHAR, _I64, _PTR, _I64, _PTR)


def _dsyevr_rows(s, rng, vu, il, iu, most):
    """Eigenvalues (ascending) of the symmetric ndarray s and their unit
    eigenvectors as rows, from one `dsyevr` call over the value range
    (0, vu] (rng b"V") or the index range il..iu (rng b"I"), with room for
    at most `most` of them; None when the binding is missing or the call
    fails.

    `dsyevr` overwrites its input, so it works on a copy and s stays intact
    for a fallback."""
    fn = _dsyevr()
    if fn is None:
        return None
    n = s.shape[0]
    # a C-order copy read column-major (layout 102) is s^T = s, and LAPACKE
    # then works on it in place
    a = np.array(s, dtype=np.float64, order="C")
    found = np.zeros(1, dtype=np.int64)
    w = np.empty(n)  # dsyevr uses all n entries as workspace
    z = np.empty((most, n))  # column-major n x most
    isuppz = np.empty(2 * most, dtype=np.int64)
    info = fn(102, b"V", rng, b"L", n, a.ctypes.data, n, 0.0, vu, il, iu, 0.0,
              found.ctypes.data, w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data)
    if info != 0:
        return None
    return w[:found[0]], z[:found[0]]


def _dsyevr_top(s):
    """Largest eigenvalue of the symmetric ndarray s (of size 2 or more) and
    a unit eigenvector for it, from one `dsyevr` call for the top two
    eigenvalues; None when the binding is missing or the call fails. On an
    exact tie `dsyevr` returns the last of the tied columns, so a tie takes
    the first one from `_eigh_top` instead."""
    n = s.shape[0]
    pairs = _dsyevr_rows(s, b"I", 0.0, n - 1, n, 2)
    if pairs is None or pairs[0].shape[0] != 2:
        return None
    w, z = pairs
    if w[0] == w[1]:
        return float(w[1]), _eigh_top(s)[1]
    return float(w[1]), z[1]


def _top_eigpair(s, w=None) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric ndarray s and a unit eigenvector
    for it. w, if given, holds all eigenvalues of s in ascending order (from
    `np.linalg.eigvalsh`), and the value returned is w[-1].

    A block of size >= _INVIT_MIN_DIM gets both from `_dsyevr_top` unless w
    is given. Where that fails, or w is given, a simple top eigenvalue gets
    `_inverse_iteration`'s vector. Smaller blocks, a repeated top and a
    missed residual bound fall back to the column of one full `eigh`
    (`_eigh_top`)."""
    if s.shape[0] >= _INVIT_MIN_DIM:
        if w is None:
            pair = _dsyevr_top(s)
            if pair is not None:
                return pair
            w = np.linalg.eigvalsh(s)
        if w[-2] < w[-1]:
            v = _inverse_iteration(s, w)
            if v is not None:
                return float(w[-1]), v
    top, v = _eigh_top(s)
    return (top if w is None else float(w[-1])), v


def _block_top(s):
    """Largest eigenvalue of the symmetric ndarray s, and a function that
    returns the unit eigenvector `_top_eigpair(s)` gives for it. A block of
    size >= _INVIT_MIN_DIM gets both at once from `_dsyevr_top`, for less
    than `eigvalsh` alone costs at n = 300; a smaller block, or one that
    `dsyevr` fails on, gets its eigenvalues from `eigvalsh` and finds the
    vector only when the function is called."""
    if s.shape[0] >= _INVIT_MIN_DIM:
        pair = _dsyevr_top(s)
        if pair is not None:
            return pair[0], lambda: pair[1]
    w = np.linalg.eigvalsh(s)
    return float(w[-1]), lambda: _top_eigpair(s, w)[1]


def _positive_count(s):
    """Number of positive eigenvalues of the symmetric ndarray s, by
    Sylvester's law of inertia on one Bunch-Kaufman factorization
    P S P^T = L D L^T (`dsytrf`); None when the binding is missing or the
    call fails (info > 0 is an exactly singular D). A 1 x 1 pivot counts
    when it is positive; a 2 x 2 pivot has a negative determinant, so it
    holds exactly one positive eigenvalue."""
    fn = _dsytrf()
    if fn is None:
        return None
    n = s.shape[0]
    a = np.array(s, dtype=np.float64, order="C")  # dsytrf factors in place
    ipiv = np.empty(n, dtype=np.int64)
    if fn(102, b"L", n, a.ctypes.data, n, ipiv.ctypes.data) != 0:
        return None
    # the two rows of a 2 x 2 pivot both hold a negative ipiv
    single = ipiv > 0
    pairs = (n - int(np.count_nonzero(single))) // 2
    return int(np.count_nonzero(a.diagonal()[single] > 0.0)) + pairs


def _dsyevd_eigh(s):
    """`np.linalg.eigh(s)` bit for bit, from one direct `dsyevd` call, the
    routine numpy's `eigh` runs; None when the binding is missing or the
    call fails."""
    fn = _dsyevd()
    if fn is None:
        return None
    n = s.shape[0]
    a = np.array(s, dtype=np.float64, order="C")
    w = np.empty(n)
    if fn(102, b"V", b"L", n, a.ctypes.data, n, w.ctypes.data) != 0:
        return None
    # the rows of a are the eigenvectors; numpy returns them C-contiguous,
    # and the product that forms P+ keeps its bits only in that layout
    return w, np.ascontiguousarray(a.T)


def _eigenpairs_above_zero(s):
    """Eigenvalues (ascending) and eigenvectors, as columns, of the
    symmetric ndarray s that include every positive eigenpair, from LAPACK;
    None where a binding is missing or a call fails. The inertia count k
    picks the routine: for k <= n // _FEW_POSITIVE, `dsyevr` alone on
    (0, bound], where bound, twice the largest absolute row sum, exceeds
    the spectral radius; for more, the full `dsyevd`."""
    bound = 2.0 * float(np.abs(s).sum(axis=1).max())
    if not bound < np.inf:  # NaN or Inf entries, or a bound that overflows
        return None
    k = _positive_count(s)
    if k is None:
        return None
    n = s.shape[0]
    if k > n // _FEW_POSITIVE:
        return _dsyevd_eigh(s)
    # near 0, dsyevr's own count in the range may differ from k, so z has
    # room for all n
    pairs = _dsyevr_rows(s, b"V", bound, 0, 0, n)
    return None if pairs is None else (pairs[0], pairs[1].T)


def _positive_part(s) -> tuple[np.ndarray, np.ndarray]:
    """The positive eigenvalues of the symmetric ndarray s (ascending) and
    its positive part P+ = V+ diag(w+) V+^T over them. A block of size
    >= _INVIT_MIN_DIM takes them from `_eigenpairs_above_zero`; a smaller
    block, or one where that fails, from one `eigh`. P+ is exactly 0 when
    no eigenvalue is positive."""
    pairs = _eigenpairs_above_zero(s) if s.shape[0] >= _INVIT_MIN_DIM else None
    w, v = np.linalg.eigh(s) if pairs is None else pairs
    cut = int(np.searchsorted(w, 0.0, side="right"))
    side = v[:, cut:]
    return w[cut:], (side * w[cut:]) @ side.T


def _no_overflow(*results):
    """Raise NonFiniteInput unless every result of a public kernel is
    finite: its input is a finite SymMatrix, so NaN or Inf is an overflow."""
    if not all(np.isfinite(r).all() for r in results):
        raise NonFiniteInput("eigenvalues or norms of the matrix overflow")


def eig_sym(s: SymMatrix) -> EigDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Satisfies V diag(w) V^T = S and V^T V = I to working precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        w, v = np.linalg.eigh(s.mat)
    _no_overflow(w, v)
    order = np.argsort(-w, kind="stable")
    return EigDecomposition(_freeze(w[order]), _freeze(_canonical_signs(v[:, order])))


def lambda_max(s: SymMatrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and an associated unit eigenvector.

    Ties are broken deterministically (for the zero matrix this returns the
    first standard basis vector).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        top, v = _top_eigpair(s.mat)
    _no_overflow(top, v)
    return top, _freeze(_canonical_signs(v[:, None])[:, 0])


def project_neg_semidef(s: SymMatrix) -> tuple[SymMatrix, SymMatrix]:
    """Nearest (Frobenius) negative-semidefinite matrix and the residual.

    Returns ``(proj, residual)`` with ``proj`` the eigenexpansion over
    min(eigenvalue, 0) and ``residual = s - proj`` the complementary
    positive part, so ``proj + residual == s`` exactly, ``proj`` is NSD,
    ``residual`` is PSD and ``<proj, residual> = 0`` up to roundoff.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        proj = s.mat - _positive_part(s.mat)[1]
        _no_overflow(proj)
        proj = SymMatrix(proj)
        residual = s.mat - proj.mat
    _no_overflow(residual)
    return proj, SymMatrix(residual)


def norms(s: SymMatrix) -> tuple[float, float]:
    """(Frobenius norm, spectral norm) of a symmetric matrix. The Frobenius
    norm is the square root of the plain sum of squares; where that sum
    overflows, S is divided by its largest entry in absolute value first
    and the norm multiplied back after, so only a norm beyond the float
    range raises NonFiniteInput."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        fro = float(np.linalg.norm(s.mat))
        if fro == np.inf:
            scale = float(np.abs(s.mat).max())
            fro = scale * float(np.linalg.norm(s.mat / scale))
        w = np.linalg.eigvalsh(s.mat)
    _no_overflow(fro, w)
    return fro, float(np.abs(w).max())
