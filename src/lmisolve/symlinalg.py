"""Dense symmetric-matrix kernel.

Everything downstream funnels its linear algebra through here: no other
module calls a `np.linalg` eigensolver or factorization. The public API
takes and returns checked, immutable `SymMatrix` values: full
eigendecomposition, extreme eigenvalue with a unit eigenvector, projection
onto the cone of negative-semidefinite matrices, and the Frobenius/spectral
norms. Its decompositions are post-processed into a canonical form
(eigenvalues descending, stable order under ties, first non-negligible
eigenvector component nonnegative) so that identical inputs always yield
identical outputs. A finite `SymMatrix` whose eigenvalues or norms overflow
makes each public kernel raise NonFiniteInput, with no RuntimeWarning.

The oracles call the private ndarray kernels directly, on blocks of
A(x) - B that are exactly symmetric and finite, and compute only the
spectrum they need, with three LAPACKE routines of the OpenBLAS that
numpy's own wheels bundle and have loaded, each in double and single
precision: `syevr`, `sytrf` and `syevd`. `_lapacke(name)` binds one of
the six `scipy_LAPACKE_*64_` symbols ("dsyevr", "ssytrf", ...) with
ctypes through the handle of `numpy.linalg._umath_linalg`, so no library
is loaded; its argument types come from one table, `_ARGTYPES`, whose
real arguments the name's first letter makes c_double or c_float.
`_syevr_rows`, `_positive_count`, `_syevd_in_place` and
`_eigenpairs_above_zero` run the routine of their array's dtype in place
on a C-order array their caller owns, and return float64. Each kernel
gives them a copy; where a symbol is missing or a call fails, it takes
numpy's own routine on the intact block, as blocks below size 32 do.

`_block_top` gives the non-smooth oracle the top eigenvalue of a block and
a vector only for the block that needs one: from size 32, both from one
`dsyevr` call for the top two eigenvalues and the top vector
(`_dsyevr_top`); else `eigvalsh` and the first top column of one `eigh`
(`_eigh_top`). `_positive_part` gives the smooth oracle the positive
eigenvalues and the positive part V+ diag(w+) V+^T. From size 32 it counts
them, k, by Sylvester's law of inertia on one Bunch-Kaufman LDL^T
(`_positive_count`, about a tenth of an `eigh`); for 0 < k <= n / 8 one
`dsyevr` call computes only the top k eigenpairs, by index, k = 0 needs
none, and more take one direct `dsyevd` call, `eigh`'s eigenpairs bit for
bit for less overhead. Else, also for a D with NaN or Inf, one `eigh`.
These results are deterministic but not canonical. From size 32
`lambda_max` takes `_dsyevr_top`'s pair, as `_block_top` does, and else
`_eigh_top`'s, value and all, where `_block_top` takes `eigvalsh`'s
value; `project_neg_semidef` is built on `_positive_part`.

The oracles' screened evaluations, on the blocks `_screened_dim` admits,
take lower bounds from the same helpers on one float32 copy of each block,
so from `ssyevr`, `ssytrf` and `ssyevd`: `_block_top_bound` gives the
Rayleigh quotient of the float32 top vector, and `_positive_part_bound`
h = <S, P / ||P||_F> for the positive part P over the float32 eigenpairs.
Both are float64 and bounds whatever float32's error; a block that
overflows float32 or fails a call takes its exact pair instead.

`_spectral_norms`, behind M, is the one spectral-norm kernel: `dsyevd` for
eigenvalues alone (jobz "N", as `eigvalsh` runs it) on two threads, the one
place the package starts a thread; a lone matrix (`norms`, M's single
coefficients, the Gram matrices of ||A|| and of the linear system's L)
takes one `eigvalsh` (`_spectral_norm`). `_eigenvalues_below` decides
`model.validate_certificate` by one Cholesky factorization. `_scaled_norm`,
behind `norms` and `model.mu_of`, is the one 2-norm rule.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
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

# Blocks smaller than this take numpy's routines throughout: at n = 20 one
# `dsyevr` call took 0.065 ms against 0.063 ms for `eigh`, and its vectors
# carry roundoff where `eigh` returns exact zeros (a diagonal block, for
# example).
_LAPACKE_MIN_DIM = 32
# From that size, a block with at most n // _FEW_POSITIVE positive
# eigenvalues takes them alone from `dsyevr`, by index; more take a full
# `dsyevd`. On random spectra at n = 300 (one BLAS thread) `dsyevr` took
# 2.9 ms for k = 1 and 8.3 ms for k = 37, against 8.4 ms for `dsyevd`; at
# n = 60 and 150 the two cross near n / 8 as well.
_FEW_POSITIVE = 8


def _freeze(a):
    """a, marked read-only; every stored array of the package is made so here."""
    a.flags.writeable = False
    return a


class SymMatrix:
    """Dense real symmetric n x n matrix, n >= 1.

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
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
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


def _eigh_top(s) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric ndarray s from one full `eigh`,
    and the first of the columns that hold it, the one the canonical order
    puts first."""
    full, v = np.linalg.eigh(s)
    return float(full[-1]), v[:, int(np.argmax(full == full[-1]))]


_I64, _PTR, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
_REAL = None  # c_double in a `d` routine, c_float in an `s` one
# the arguments after the layout, of each routine in both precisions
_ARGTYPES = {
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
    "syevr": (_CHAR, _CHAR, _CHAR, _I64, _PTR, _I64, _REAL, _REAL, _I64, _I64, _REAL,
              _PTR, _PTR, _PTR, _I64, _PTR),
    # uplo, n, a, lda, ipiv
    "sytrf": (_CHAR, _I64, _PTR, _I64, _PTR),
    # jobz, uplo, n, a, lda, w
    "syevd": (_CHAR, _CHAR, _I64, _PTR, _I64, _PTR),
}


@functools.cache
def _lapacke(name):
    """LAPACKE's `name`, a routine of `_ARGTYPES` behind its precision's
    letter ("dsyevr", "ssytrf", ...), with 64-bit integers, from the
    OpenBLAS that numpy's wheels bundle, or None where numpy links another
    LAPACK. It is looked up through the handle of
    `numpy.linalg._umath_linalg`, which is mapped already, so the lookup
    loads no library."""
    from numpy.linalg import _umath_linalg
    try:
        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_LAPACKE_{name}64_")
    except (OSError, AttributeError):
        return None
    real = ctypes.c_float if name[0] == "s" else ctypes.c_double
    # the layout first
    fn.argtypes = [ctypes.c_int, *(real if t is _REAL else t for t in _ARGTYPES[name[1:]])]
    fn.restype = ctypes.c_int64
    return fn


def _routine(a, name):
    """`_lapacke`'s routine `name` ("syevr", ...) in the precision of the
    ndarray a, float64 or float32 (a KeyError for any other dtype)."""
    return _lapacke({np.float64: "d", np.float32: "s"}[a.dtype.type] + name)


def _screened_dim(n) -> bool:
    """Whether the oracles' screened evaluations take a block of size n in
    single precision: from size _LAPACKE_MIN_DIM, where `ssyevr`, `ssytrf`
    and `ssyevd` all resolve."""
    return n >= _LAPACKE_MIN_DIM and None not in [_lapacke("s" + r) for r in _ARGTYPES]


def _syevr_rows(a, il, iu):
    """Eigenvalues il..iu (1-based, ascending) of the symmetric C-order
    ndarray a and their unit eigenvectors as rows, in float64, from one
    `syevr` call in a's precision over that index range, which overwrites
    a; None when the binding is missing or the call fails."""
    fn = _routine(a, "syevr")
    if fn is None:
        return None
    n, most = a.shape[0], iu - il + 1
    found = np.zeros(1, dtype=np.int64)
    w = np.empty(n, a.dtype)  # syevr uses all n entries as workspace
    z = np.empty((most, n), a.dtype)  # column-major n x most
    isuppz = np.empty(2 * most, dtype=np.int64)
    # a C-order array read column-major (layout 102) is a^T = a
    info = fn(102, b"V", b"I", b"L", n, a.ctypes.data, n, 0.0, 0.0, il, iu, 0.0,
              found.ctypes.data, w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data)
    # for the index range, found[0] is always iu - il + 1
    if info != 0:
        return None
    return np.asarray(w[:most], dtype=np.float64), np.asarray(z, dtype=np.float64)


def _dsyevr_top(s):
    """Largest eigenvalue of the symmetric ndarray s (of size 2 or more) and
    a unit eigenvector for it, from one `dsyevr` call for the top two
    eigenvalues on a copy, so s stays intact for a fallback; None when the
    binding is missing or the call fails. On an exact tie `dsyevr` returns
    the last of the tied columns, so a tie takes the first one from
    `_eigh_top` instead."""
    n = s.shape[0]
    pairs = _syevr_rows(np.array(s, dtype=np.float64, order="C"), n - 1, n)
    if pairs is None:
        return None
    w, z = pairs
    if w[0] == w[1]:
        return float(w[1]), _eigh_top(s)[1]
    return float(w[1]), z[1]


def _block_top(s):
    """Largest eigenvalue of the symmetric ndarray s, and a function that
    returns a unit eigenvector for it: both from `_dsyevr_top` from size
    _LAPACKE_MIN_DIM, else `eigvalsh`'s value and, only when the function
    is called, `_eigh_top`'s vector."""
    if s.shape[0] >= _LAPACKE_MIN_DIM:
        pair = _dsyevr_top(s)
        if pair is not None:
            return pair[0], lambda: pair[1]
    w = np.linalg.eigvalsh(s)
    return float(w[-1]), lambda: _eigh_top(s)[1]


def _positive_count(a):
    """Number of positive eigenvalues of the symmetric C-order ndarray a, by
    Sylvester's law of inertia on one Bunch-Kaufman factorization
    P A P^T = L D L^T, which one `sytrf` call in a's precision writes over
    a; None when the binding is missing, the call fails (info < 0; info > 0
    is an exactly zero pivot, and D is complete), or D's diagonal holds NaN
    or Inf (from a or an overflow). A 1 x 1 pivot counts when it is
    positive; a 2 x 2 pivot has a negative determinant, so it holds exactly
    one positive eigenvalue."""
    fn = _routine(a, "sytrf")
    if fn is None:
        return None
    n = a.shape[0]
    ipiv = np.empty(n, dtype=np.int64)
    d = a.diagonal()
    if fn(102, b"L", n, a.ctypes.data, n, ipiv.ctypes.data) < 0 or not np.isfinite(d).all():
        return None
    # the two rows of a 2 x 2 pivot both hold a negative ipiv
    alone = ipiv > 0
    pairs = (n - int(np.count_nonzero(alone))) // 2
    return int(np.count_nonzero(d[alone] > 0.0)) + pairs


def _syevd_in_place(a, jobz):
    """Eigenvalues (ascending, float64) of the symmetric C-order ndarray a
    from one `syevd` call in a's precision, in place, as `eigh` (jobz b"V",
    leaving the eigenvectors as the rows of a) or `eigvalsh` (b"N") runs it;
    None where the binding is missing or the call fails."""
    fn = _routine(a, "syevd")
    if fn is None:
        return None
    n = a.shape[0]
    w = np.empty(n, a.dtype)
    # a C-order array read column-major (layout 102) is a^T = a
    if fn(102, jobz, b"L", n, a.ctypes.data, n, w.ctypes.data) != 0:
        return None
    return np.asarray(w, dtype=np.float64)


def _spectral_norms(n, k, unpack):
    """||S_i||_2 for i < k, bit for bit `_spectral_norm`'s; unpack(i, a)
    writes S_i, exactly symmetric, into the C-order n x n buffer a. For
    k > 1 they come from `dsyevd` (jobz "N") through ctypes, which releases
    the GIL: one more thread, with a buffer of its own and joined before
    this returns, takes the second half. A lone matrix, a missing binding
    or a failed call takes `_spectral_norm` on the calling thread."""
    out = np.full(k, -1.0)  # -1 marks a norm not yet computed

    def run(lo, hi):
        a = np.empty((n, n))
        for i in range(lo, hi):
            unpack(i, a)
            w = _syevd_in_place(a, b"N")
            if w is not None:
                out[i] = np.abs(w).max()

    if k > 1 and _lapacke("dsyevd") is not None:
        worker = threading.Thread(target=run, args=(k // 2, k))
        worker.start()
        try:
            run(0, k // 2)
        finally:
            worker.join()
    for i in np.flatnonzero(out < 0.0):
        a = np.empty((n, n))
        unpack(i, a)
        out[i] = _spectral_norm(a)
    return out


def _spectral_norm(s) -> float:
    """||s||_2 of the symmetric ndarray s, the largest |lambda| from one
    `eigvalsh` (NaN or Inf where they overflow)."""
    return float(np.abs(np.linalg.eigvalsh(s)).max())


def _eigenvalues_below(s, level) -> bool:
    """Whether every eigenvalue of the symmetric ndarray s is below level:
    one Cholesky factorization of level I - s, written over s, succeeds."""
    np.negative(s, out=s)
    s.flat[:: s.shape[0] + 1] += level
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


def _eigenpairs_above_zero(a):
    """Eigenvalues (ascending) and eigenvectors, as columns, in float64, of
    the symmetric C-order ndarray a that include every positive eigenpair,
    from LAPACK in a's precision, which overwrites a; None where a binding
    is missing or a call fails. The inertia count k of a copy picks the
    routine: for k <= n // _FEW_POSITIVE, `syevr` alone for the top k by
    index (none at all for k = 0); for more, the full `syevd`, which in
    double precision gives `eigh`'s eigenpairs bit for bit."""
    k = _positive_count(a.copy())
    if k is None:
        return None
    n = a.shape[0]
    if k > n // _FEW_POSITIVE:
        w = _syevd_in_place(a, b"V")
        # numpy returns the eigenvectors C-contiguous, and the product that
        # forms P+ keeps its bits only in that layout
        return None if w is None else (w, np.ascontiguousarray(a.T, dtype=np.float64))
    pairs = _syevr_rows(a, n - k + 1, n) if k else (np.empty(0), np.empty((0, n)))
    return None if pairs is None else (pairs[0], pairs[1].T)


def _over_positive(w, v):
    """The positive ones of the ascending eigenvalues w, and
    V+ diag(w+) V+^T over the columns of v that hold them."""
    cut = int(np.searchsorted(w, 0.0, side="right"))
    side = v[:, cut:]
    return w[cut:], (side * w[cut:]) @ side.T


def _positive_part(s) -> tuple[np.ndarray, np.ndarray]:
    """The positive eigenvalues of the symmetric ndarray s (ascending) and
    its positive part P+ = V+ diag(w+) V+^T over them. A block of size
    >= _LAPACKE_MIN_DIM takes them from `_eigenpairs_above_zero`; a smaller
    block, or one where that fails, from one `eigh`. P+ is exactly 0 when
    no eigenvalue is positive."""
    big = s.shape[0] >= _LAPACKE_MIN_DIM
    pairs = _eigenpairs_above_zero(np.array(s, dtype=np.float64, order="C")) if big else None
    return _over_positive(*(np.linalg.eigh(s) if pairs is None else pairs))


def _block_top_bound(s):
    """`_block_top`'s pair, but from size _LAPACKE_MIN_DIM the Rayleigh
    quotient v^T s v <= lambda_max(s) of the unit v from one `ssyevr`
    call's top eigenvector on a float32 copy, and a function returning v;
    `_block_top`'s exact pair where s overflows float32, the binding is
    missing, the call fails or the quotient is not finite."""
    n = s.shape[0]
    if n >= _LAPACKE_MIN_DIM:
        a = np.array(s, dtype=np.float32, order="C")
        pair = _syevr_rows(a, n, n) if np.isfinite(a).all() else None
        if pair is not None:
            v = pair[1][0]
            v = v / np.linalg.norm(v)
            top = float(v @ s @ v)
            if math.isfinite(top):
                return top, lambda: v
    return _block_top(s)


def _positive_part_bound(s):
    """`_positive_part`'s pair, but from size _LAPACKE_MIN_DIM
    h = <s, Z> <= ||P+(s)||, Z = P / ||P||_F PSD of unit norm, P the positive
    part over the eigenpairs of a float32 copy: ([h], h Z), whose h^2 and
    h Z take the places of ||P+||^2 and P+ (no eigenvalue and 0 where
    h <= 0); `_positive_part`'s exact pair where s overflows float32, a
    binding is missing, a call fails or h is not finite."""
    if s.shape[0] >= _LAPACKE_MIN_DIM:
        a = np.array(s, dtype=np.float32, order="C")
        pairs = _eigenpairs_above_zero(a) if np.isfinite(a).all() else None
        if pairs is not None:
            part = _over_positive(*pairs)[1]
            size = float(np.linalg.norm(part))
            h = float(np.vdot(s, part)) / size if size > 0.0 else 0.0
            if h <= 0.0:
                return np.empty(0), np.zeros_like(s)
            if math.isfinite(h):
                return np.array([h]), part * (h / size)
    return _positive_part(s)


def _scaled_norm(a) -> float:
    """The 2-norm of the ndarray a (Frobenius for a matrix): the plain
    `np.linalg.norm` wherever that lies in [1e-100, 1e100], where no square
    of an entry overflows and those that underflow are negligible; else
    that of a divided by its largest |entry|, multiplied back. So it is
    neither inf nor 0 for a finite nonzero a, unless beyond the float range."""
    with np.errstate(over="ignore"):
        size = float(np.linalg.norm(a))
    if not 1e-100 <= size <= 1e100:
        scale = float(np.abs(a).max())
        size = scale * float(np.linalg.norm(a / scale)) if scale > 0.0 else 0.0
    return size


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
        pair = _dsyevr_top(s.mat) if s.dim >= _LAPACKE_MIN_DIM else None
        top, v = _eigh_top(s.mat) if pair is None else pair
    _no_overflow(top, v)
    return top, _freeze(_canonical_signs(v[:, None])[:, 0])


def project_neg_semidef(s: SymMatrix) -> tuple[SymMatrix, SymMatrix]:
    """Nearest (Frobenius) negative-semidefinite matrix and the residual.

    Returns ``(proj, residual)`` with ``proj`` the eigenexpansion over
    min(eigenvalue, 0) and ``residual = s - proj`` the complementary
    positive part, so ``proj`` is NSD, ``residual`` is PSD, and
    ``proj + residual = s`` and ``<proj, residual> = 0`` up to roundoff.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        proj = s.mat - _positive_part(s.mat)[1]
        _no_overflow(proj)
        proj = SymMatrix(proj)
        residual = s.mat - proj.mat
    _no_overflow(residual)
    return proj, SymMatrix(residual)


def norms(s: SymMatrix) -> tuple[float, float]:
    """(Frobenius norm, spectral norm) of a symmetric matrix, from
    `_scaled_norm` and `_spectral_norm`. Only a norm beyond the float range
    raises NonFiniteInput."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        fro, spec = _scaled_norm(s.mat), _spectral_norm(s.mat)
    _no_overflow(fro, spec)
    return fro, spec
