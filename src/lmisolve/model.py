"""Problem data model.

An LMI feasibility problem asks for x in R^m with A(x) - B <= 0 in the
semidefinite order, where A(x) = x_1 A_1 + ... + x_m A_m. This module holds
the operator and its adjoint, the constants every iteration budget is built
from, Slater certificates and the error-bound modulus mu, combination of
several LMI systems into one, the primal-dual SDP reduction to a single
LMI, and the linear-inequality system model.

A problem is stored as the diagonal blocks of A(x) - B (see LmiProblem);
the private helpers `_residuals`, `_adjoint` and `_top_subgradient` are how
the oracles work on it one block at a time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteInput
from .symlinalg import SymMatrix, _top_eigpair, lambda_max, norms  # noqa: F401 (perfbench traces lambda_max)

__all__ = [
    "LmiProblem",
    "SlaterCertificate",
    "LinIneqSystem",
    "SdpPair",
    "OperatorConstants",
    "apply_operator",
    "adjoint_apply",
    "constants",
    "mu_of",
    "validate_certificate",
    "stack",
    "reduce_primal_dual",
    "residual_map",
]


def _as_vector(x, length, what="x"):
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.shape[0] != length:
        raise DimensionMismatch(f"{what} must be a vector of length {length}")
    return v


def _count(name, value):
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParameter(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _positive(name, value):
    if not value > 0.0:
        raise InvalidParameter(f"{name} must be positive, got {value}")
    return float(value)


class _Block(NamedTuple):
    """A diagonal block of A(x) - B: rows and columns `at`, the variables
    `vars` that appear in it, and its part `rhs` of B. `coeffs` is their
    (k_b, n_b, n_b) coefficient stack, or None for a symmetric-matrix
    variable: variable t is then the entry (upper[0][t], upper[1][t]) and
    its mirror image. `_from_pieces` fills in `rhs` and `upper`."""

    at: slice
    vars: slice
    coeffs: np.ndarray | None = None
    rhs: np.ndarray | None = None
    upper: tuple | None = None


class _Scalars(NamedTuple):
    """All 1 x 1 blocks of A(x) - B (possibly none): their ascending
    positions `rows`, their (num_vars, len(rows)) coefficients and their
    part `rhs` of B's diagonal."""

    rows: np.ndarray
    coeffs: np.ndarray
    rhs: np.ndarray


class LmiProblem:
    """Coefficients A_1..A_m and right-hand side B of A(x) - B <= 0.

    The operator is stored block by block. A problem built here is a single
    dense block: its (m, n, n) coefficient stack, so A(x) and the adjoint
    are single tensor contractions. `stack` and `reduce_primal_dual` build
    their results from the layout they know instead: a block of size > 1
    keeps only the variables that appear in it, and all 1 x 1 blocks share
    one (m, rows) array that the oracles evaluate in closed form. Storage is
    then O(sum k_b n_b^2) for k_b variables in an n_b x n_b block. Each
    coefficient is stored once, in its block; `coeffs` (the dense A_1..A_m
    as SymMatrix values) is built on each read and not kept. `rhs` is always
    dense.

    The problem is immutable, so `_constants` holds constants(p) once an
    oracle or a solver first needs it.
    """

    __slots__ = ("rhs", "num_vars", "dim", "_blocks", "_scalars", "_constants")

    def __init__(self, coeffs, rhs):
        coeffs = list(coeffs)
        if not coeffs:
            raise InvalidParameter("need at least one coefficient matrix")
        b = rhs if isinstance(rhs, SymMatrix) else SymMatrix(rhs)
        n = b.dim
        m = len(coeffs)
        tensor = np.empty((m, n, n))
        for i, c in enumerate(coeffs):
            c = c if isinstance(c, SymMatrix) else SymMatrix(c)
            if c.dim != n:
                raise DimensionMismatch(
                    f"coefficient {i + 1} has dimension {c.dim}, rhs has {n}"
                )
            tensor[i] = c.mat
        tensor.flags.writeable = False
        self.rhs = b
        self.num_vars = m
        self.dim = n
        self._blocks = (_Block(slice(0, n), slice(0, m), tensor, b.mat),)
        self._scalars = _Scalars(np.zeros(0, dtype=int), np.zeros((m, 0)), np.zeros(0))
        self._constants = None

    @property
    def coeffs(self):
        """A_1..A_m as dense SymMatrix values, built anew on each read."""
        return tuple(SymMatrix(a) for a in _dense_coeffs(self))

    def __eq__(self, other):
        if not isinstance(other, LmiProblem):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.dim == other.dim
            and self.rhs == other.rhs
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"LmiProblem(n={self.dim}, m={self.num_vars})"


def _from_pieces(rhs, num_vars, pieces) -> LmiProblem:
    """The problem with dense right-hand side `rhs` whose operator is laid out
    as `pieces`, one _Block per diagonal block. The 1 x 1 pieces become the
    scalar rows."""
    b = SymMatrix(rhs)
    blocks, rows, cols = [], [], []
    for blk in sorted(pieces, key=lambda piece: piece.at.start):
        size = blk.at.stop - blk.at.start
        if size == 1:
            col = np.zeros(num_vars)
            col[blk.vars] = 1.0 if blk.coeffs is None else blk.coeffs[:, 0, 0]
            rows.append(blk.at.start)
            cols.append(col)
        else:
            upper = None if blk.coeffs is not None else np.triu_indices(size)
            blocks.append(blk._replace(rhs=b.mat[blk.at, blk.at], upper=upper))
    rows = np.array(rows, dtype=int)
    table = np.stack(cols, axis=1) if cols else np.zeros((num_vars, 0))
    table.flags.writeable = False
    p = object.__new__(LmiProblem)
    p.rhs = b
    p.num_vars = num_vars
    p.dim = b.dim
    p._blocks = tuple(blocks)
    p._scalars = _Scalars(rows, table, b.mat[rows, rows])
    p._constants = None
    return p


def _pieces(p: LmiProblem, offset=0) -> list:
    """p's layout as _from_pieces takes it, moved down by `offset` rows."""
    out = [blk._replace(at=slice(blk.at.start + offset, blk.at.stop + offset))
           for blk in p._blocks]
    every = slice(0, p.num_vars)
    for row, col in zip(p._scalars.rows.tolist(), p._scalars.coeffs.T):
        out.append(_Block(slice(row + offset, row + offset + 1), every, col[:, None, None]))
    return out


def _dense_coeffs(p: LmiProblem) -> np.ndarray:
    """The dense (m, n, n) array of A_1..A_m."""
    out = np.zeros((p.num_vars, p.dim, p.dim))
    for blk in p._blocks:
        part = out[blk.vars, blk.at, blk.at]
        if blk.coeffs is not None:
            part[...] = blk.coeffs
        else:
            i, j = blk.upper
            t = np.arange(i.size)
            part[t, i, j] = 1.0
            part[t, j, i] = 1.0
    rows = p._scalars.rows
    out[:, rows, rows] = p._scalars.coeffs
    return out


def _block_apply(blk: _Block, x) -> np.ndarray:
    """A(x) on one block, as a plain ndarray (hot path)."""
    xs = x[blk.vars]
    if blk.coeffs is not None:
        return np.tensordot(xs, blk.coeffs, axes=1)
    out = np.zeros(blk.rhs.shape)
    out[blk.upper] = xs
    out[blk.upper[::-1]] = xs
    return out


def _block_adjoint(blk: _Block, z) -> np.ndarray:
    """<A_i, Z> for the variables of one block, z a symmetric ndarray."""
    if blk.coeffs is not None:
        return np.tensordot(blk.coeffs, z, axes=([1, 2], [0, 1]))
    i, j = blk.upper
    # <E_ii, Z> = Z_ii and <E_ij + E_ji, Z> = 2 Z_ij
    return np.where(i == j, 1.0, 2.0) * z[i, j]


def _finite(x):
    """x, once it is checked to hold no NaN or Inf (before A(x) is formed,
    where Inf times a zero coefficient would make NaN)."""
    if not np.isfinite(x).all():
        raise NonFiniteInput("point contains NaN or Inf")
    return x


def _residuals(p: LmiProblem, x) -> tuple[list, np.ndarray]:
    """A(x) - B at a point x of length num_vars, block by block: an exactly
    symmetric ndarray per block of size > 1 in row order, and the values of
    the 1 x 1 rows. Raises NonFiniteInput if x or any entry is NaN or Inf."""
    _finite(x)
    mats = [_block_apply(blk, x) - blk.rhs for blk in p._blocks]
    vals = x @ p._scalars.coeffs - p._scalars.rhs
    if not (np.isfinite(vals).all() and all(np.isfinite(s).all() for s in mats)):
        raise NonFiniteInput("A(x) - B contains NaN or Inf entries")
    return mats, vals


def _adjoint(p: LmiProblem, parts, scalars) -> np.ndarray:
    """A^T(Z) for the block-diagonal Z with the ndarrays `parts` on the blocks
    (in row order) and the values `scalars` on the 1 x 1 rows."""
    # -0.0 + a == a for every float a, so a variable in one block gets that
    # block's contraction bit for bit, signed zeros included
    g = np.full(p.num_vars, -0.0)
    for blk, z in zip(p._blocks, parts):
        g[blk.vars] += _block_adjoint(blk, z)
    if scalars.size:
        g += p._scalars.coeffs @ scalars
    return g


def _top_subgradient(p: LmiProblem, mats, scalars, kink) -> tuple[float, np.ndarray | None]:
    """lambda_max(A(x) - B) from the blocks `mats` and the values `scalars`
    of the 1 x 1 rows of A(x) - B, and, when it is above `kink`, the
    subgradient A^T(v v^T) for a unit top eigenvector v (else None).

    Each block's eigenvalues come from `eigvalsh`; an eigenvector is found
    only for the block that holds the top. A tie goes to the block that
    comes first in the matrix."""
    found = []
    for s, blk in zip(mats, p._blocks):
        w = np.linalg.eigvalsh(s)
        found.append((float(w[-1]), blk.at.start, blk, (s, w)))
    if scalars.size:
        k = int(np.argmax(scalars))  # the first of equal rows, since rows ascend
        found.append((float(scalars[k]), int(p._scalars.rows[k]), None, k))
    top, _, blk, where = max(found, key=lambda f: (f[0], -f[1]))
    if top <= kink:
        return top, None
    grad = np.zeros(p.num_vars)
    if blk is None:
        grad[:] = p._scalars.coeffs[:, where]
        return top, grad
    v = _top_eigpair(*where)[1]
    if blk.coeffs is None:
        grad[blk.vars] = _block_adjoint(blk, np.outer(v, v))
    else:
        grad[blk.vars] = (blk.coeffs @ v) @ v
    return top, grad


class SlaterCertificate:
    """Strictly feasible point d with margin sigma > 0.

    Meaningful for a problem p when lambda_max(A(d) - B) <= -sigma, which
    is what validate_certificate checks; the certificate itself only pins
    the pair (d, sigma).
    """

    __slots__ = ("point", "margin")

    def __init__(self, point, margin):
        margin = _positive("margin", float(margin))
        d = np.asarray(point, dtype=float)
        if d.ndim == 0:
            d = d.reshape(1)
        if d.ndim != 1:
            raise DimensionMismatch("certificate point must be a vector")
        if not np.isfinite(d).all():
            raise NonFiniteInput("certificate point contains NaN or Inf")
        d = d.copy()
        d.flags.writeable = False
        self.point = d
        self.margin = margin

    def __eq__(self, other):
        if not isinstance(other, SlaterCertificate):
            return NotImplemented
        return self.margin == other.margin and np.array_equal(self.point, other.point)

    def __repr__(self):
        return f"SlaterCertificate(m={self.point.shape[0]}, margin={self.margin})"


class LinIneqSystem:
    """Linear system rows a_i x <= b_i (kind "le") or a_i x = b_i ("eq")."""

    __slots__ = ("rows", "rhs", "kinds", "num_rows", "num_vars", "eq_mask")

    def __init__(self, rows, rhs, kinds):
        a = np.asarray(rows, dtype=float)
        b = np.asarray(rhs, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch("rows must be a p x q matrix")
        p, q = a.shape
        if p < 1 or q < 1:
            raise InvalidParameter("system needs at least one row and one column")
        if b.shape != (p,):
            raise DimensionMismatch(f"rhs must have length {p}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFiniteInput("system data contains NaN or Inf")
        tags = tuple(str(k).lower() for k in kinds)
        if len(tags) != p:
            raise DimensionMismatch(f"kinds must have length {p}")
        for k in tags:
            if k not in ("le", "eq"):
                raise InvalidParameter(f"row kind must be 'le' or 'eq', got {k!r}")
        a = a.copy()
        a.flags.writeable = False
        b = b.copy()
        b.flags.writeable = False
        mask = np.array([k == "eq" for k in tags])
        mask.flags.writeable = False
        self.rows = a
        self.rhs = b
        self.kinds = tags
        self.num_rows = p
        self.num_vars = q
        self.eq_mask = mask

    def __eq__(self, other):
        if not isinstance(other, LinIneqSystem):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.rhs, other.rhs)
        )

    def __repr__(self):
        return f"LinIneqSystem(p={self.num_rows}, q={self.num_vars})"


class SdpPair:
    """Primal-dual SDP data: min <c,x> subject to A(x) <= B, with dual
    variable y <= 0 satisfying <A_i, y> = c_i and zero duality gap."""

    __slots__ = ("objective", "problem")

    def __init__(self, objective, coeffs, rhs):
        self.problem = LmiProblem(coeffs, rhs)
        c = _as_vector(objective, self.problem.num_vars, "objective")
        c = c.copy()
        if not np.isfinite(c).all():
            raise NonFiniteInput("objective contains NaN or Inf")
        c.flags.writeable = False
        self.objective = c

    def __repr__(self):
        return f"SdpPair(n={self.problem.dim}, m={self.problem.num_vars})"


class OperatorConstants(NamedTuple):
    """(M, ||A||, L): subgradient bound sqrt(sum ||A_i||_2^2), operator norm
    sqrt(sum ||A_i||_F^2), and the smooth gradient Lipschitz constant
    L = 2 ||A||^2. Always M <= ||A||."""

    subgrad_bound: float
    opnorm: float
    grad_lipschitz: float


def apply_operator(p: LmiProblem, x) -> SymMatrix:
    """A(x) = sum_i x_i A_i."""
    v = _finite(_as_vector(x, p.num_vars))
    out = np.zeros((p.dim, p.dim))
    for blk in p._blocks:
        out[blk.at, blk.at] = _block_apply(blk, v)
    rows = p._scalars.rows
    out[rows, rows] = v @ p._scalars.coeffs
    return SymMatrix(out)


def adjoint_apply(p: LmiProblem, z: SymMatrix) -> np.ndarray:
    """Adjoint A^T(Z), component i = <A_i, Z> (entrywise inner product)."""
    if not isinstance(z, SymMatrix):
        z = SymMatrix(z)
    if z.dim != p.dim:
        raise DimensionMismatch(f"Z has dimension {z.dim}, problem has {p.dim}")
    rows = p._scalars.rows
    return _adjoint(p, [z.mat[blk.at, blk.at] for blk in p._blocks], z.mat[rows, rows])


def constants(p: LmiProblem) -> OperatorConstants:
    """Subgradient bound M, operator norm ||A||, and L = 2 ||A||^2.

    Computed block by block: ||A_i||_2 is the largest of A_i's block norms
    and ||A_i||_F^2 the sum of theirs, so the dense A_i are never built."""
    spec = np.zeros(p.num_vars)
    fro_sq = np.zeros(p.num_vars)
    for blk in p._blocks:
        if blk.coeffs is None:
            # E_ii has both norms 1; E_ij + E_ji has spectral norm 1 and
            # squared Frobenius norm 2
            i, j = blk.upper
            spec[blk.vars] = np.maximum(spec[blk.vars], 1.0)
            fro_sq[blk.vars] += np.where(i == j, 1.0, 2.0)
            continue
        for k, c in zip(range(blk.vars.start, blk.vars.stop), blk.coeffs):
            fro, s = norms(SymMatrix(c))
            spec[k] = max(spec[k], s)
            fro_sq[k] += fro * fro
    table = p._scalars.coeffs
    spec = np.maximum(spec, np.abs(table).max(axis=1, initial=0.0))
    fro_sq += np.sum(table * table, axis=1)
    # summed in variable order, as a dense problem's constants always were
    spec_total = fro_total = 0.0
    for s, f in zip(spec.tolist(), fro_sq.tolist()):
        spec_total += s * s
        fro_total += f
    opnorm = float(np.sqrt(fro_total))
    return OperatorConstants(float(np.sqrt(spec_total)), opnorm, 2.0 * fro_total)


def mu_of(cert: SlaterCertificate) -> float:
    """Error-bound modulus mu = ||d||_2 / sigma."""
    return float(np.linalg.norm(cert.point)) / cert.margin


def validate_certificate(p: LmiProblem, cert: SlaterCertificate, tol: float = 1e-9) -> bool:
    """True when lambda_max(A(d) - B) <= -sigma + tol (from eigenvalues only)."""
    d = _as_vector(cert.point, p.num_vars, "certificate point")
    top, _ = _top_subgradient(p, *_residuals(p, d), kink=np.inf)
    return top <= -cert.margin + tol


def stack(problems) -> LmiProblem:
    """Combine LMI systems over the same variable vector into one problem
    by block-diagonal concatenation; x is feasible for the stack iff it is
    feasible for every input.

    The result keeps the inputs' blocks (sharing their coefficient arrays),
    so it takes O(sum k_b n_b^2) memory; its dense `coeffs` are built only
    when read."""
    probs = list(problems)
    if not probs:
        raise InvalidParameter("need at least one problem to stack")
    m = probs[0].num_vars
    for p in probs[1:]:
        if p.num_vars != m:
            raise DimensionMismatch("stacked problems must share the variable count")
    if len(probs) == 1:
        return probs[0]
    total = sum(p.dim for p in probs)
    rhs = np.zeros((total, total))
    pieces = []
    offset = 0
    for p in probs:
        rhs[offset:offset + p.dim, offset:offset + p.dim] = p.rhs.mat
        pieces += _pieces(p, offset)
        offset += p.dim
    return _from_pieces(rhs, m, pieces)


def reduce_primal_dual(pair: SdpPair) -> LmiProblem:
    """Encode primal-dual optimality of an SDP as one LMI feasibility problem.

    Variables are (x, upper triangle of y row-major), m + n(n+1)/2 scalars.
    Diagonal blocks, in order: A(x) - B <= 0 (size n); for each i the pair
    <A_i,y> - c_i <= 0 and c_i - <A_i,y> <= 0 (2m blocks of size 1); y <= 0
    (size n); <c,x> - <B,y> <= 0 (size 1). Total block size 2n + 2m + 1.

    The result is stored as those blocks: the pair's own blocks for x, the y
    block as the map from y's entries to a symmetric matrix, and all 1 x 1
    rows in one (m + n(n+1)/2, rows) array, so memory is O(m n^2).
    The dense coefficient tensor, (m + n(n+1)/2) (2n + 2m + 1)^2 numbers, is
    built only when `coeffs` is read.

    The y-equalities destroy strict feasibility, so no Slater certificate
    can be attached to the result; solvers need an explicitly supplied mu.
    """
    prob = pair.problem
    n, m = prob.dim, prob.num_vars
    c = pair.objective
    bmat = prob.rhs.mat
    size = 2 * n + 2 * m + 1
    ny = n * (n + 1) // 2
    y = slice(m, m + ny)
    upper = np.triu_indices(n)
    # coefficient of y_jk in <A_i, y> and <B, y>: 1 on the diagonal, 2 off it
    weight = np.where(upper[0] == upper[1], 1.0, 2.0)
    eq = _dense_coeffs(prob)[:, upper[0], upper[1]] * weight

    pieces = _pieces(prob)
    for i in range(m):
        row = eq[i][:, None, None]
        pieces += [_Block(slice(n + 2 * i, n + 2 * i + 1), y, row),
                   _Block(slice(n + 2 * i + 1, n + 2 * i + 2), y, -row)]
    pieces.append(_Block(slice(n + 2 * m, 2 * n + 2 * m), y))
    gap = np.concatenate([c, -(bmat[upper] * weight)])
    pieces.append(_Block(slice(size - 1, size), slice(0, m + ny), gap[:, None, None]))

    rhs = np.zeros((size, size))
    rhs[:n, :n] = bmat
    for i in range(m):
        rhs[n + 2 * i, n + 2 * i] = c[i]
        rhs[n + 2 * i + 1, n + 2 * i + 1] = -c[i]
    return _from_pieces(rhs, m + ny, pieces)


def residual_map(sys: LinIneqSystem, y) -> np.ndarray:
    """Clipped residual e(y): component i is max(0, y_i) for "le" rows and
    y_i unchanged for "eq" rows."""
    v = _as_vector(y, sys.num_rows, "y")
    return np.where(sys.eq_mask, v, np.maximum(v, 0.0))
