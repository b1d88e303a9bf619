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

The oracles call the two private ndarray kernels directly, on blocks of
A(x) - B that are exactly symmetric and finite, and compute only the
spectrum they need: `_top_eigpair` finds one eigenvector for the top
eigenvalue, on blocks of size 32 and up by inverse iteration that stops
after the first LU solve whose vector meets the residual bound (two at
most), and `_positive_part` the positive part V+ diag(w+) V+^T from one
`eigh`. Their results are deterministic functions of the input but
not canonical. `lambda_max` and `project_neg_semidef` are built on them.
"""

from __future__ import annotations

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
# n = 20 inverse iteration is no faster and its result carries roundoff
# where `eigh` returns exact zeros (a diagonal block, for example).
_INVIT_MIN_DIM = 32
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


def _top_eigpair(s, w=None) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric ndarray s and a unit eigenvector
    for it. w, if given, holds all eigenvalues of s in ascending order (from
    `np.linalg.eigvalsh`), and the value returned is w[-1].

    A block of size >= _INVIT_MIN_DIM with a simple top eigenvalue gets
    `_inverse_iteration`'s vector. Smaller blocks, a repeated top and a
    missed residual bound fall back to one full `eigh`; its vector is the
    first of the columns that hold the largest eigenvalue, the one the
    canonical order puts first."""
    if s.shape[0] >= _INVIT_MIN_DIM:
        if w is None:
            w = np.linalg.eigvalsh(s)
        if w[-2] < w[-1]:
            v = _inverse_iteration(s, w)
            if v is not None:
                return float(w[-1]), v
    full, v = np.linalg.eigh(s)
    top = full[-1] if w is None else w[-1]
    return float(top), v[:, int(np.argmax(full == full[-1]))]


def _positive_part(s) -> tuple[np.ndarray, np.ndarray]:
    """The positive eigenvalues of the symmetric ndarray s (ascending) and
    its positive part P+ = V+ diag(w+) V+^T over them, from one `eigh`.
    P+ is exactly 0 when no eigenvalue is positive."""
    w, v = np.linalg.eigh(s)
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
    norm is the square root of the plain sum of squares, so a sum that
    overflows raises NonFiniteInput even where the norm itself is finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _no_overflow
        fro = float(np.linalg.norm(s.mat))
        w = np.linalg.eigvalsh(s.mat)
    _no_overflow(fro, w)
    return fro, float(np.abs(w).max())
