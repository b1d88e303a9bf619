"""Problem data model.

An LMI feasibility problem asks for x in R^m with A(x) - B <= 0 in the
semidefinite order, where A(x) = x_1 A_1 + ... + x_m A_m. This module holds
the operator and its adjoint, the constants every iteration budget is built
from, Slater certificates and the error-bound modulus mu, combination of
several LMI systems into one, the primal-dual SDP reduction to a single
LMI, and the linear-inequality system model.

A problem is stored as the diagonal blocks of A(x) - B of size > 1 and one
table of its 1 x 1 rows (see LmiProblem); the private helpers `_residuals`,
`_adjoint` and `_block_adjoint` are how the oracles work on it one block at
a time (the non-smooth oracle's kink rule lives in `objectives`).
`_lay_out` is the one layout builder behind the constructor, `stack` and
`reduce_primal_dual`; it takes the blocks and the row table as they are
built. Every block stores its coefficients once, as packed upper
triangles, and carries the index maps of that packing (see _SymMaps and
_Block). The maps are built once, where the block is made, so A(x) on a
block is one matrix product and one gather, and the adjoint one gather and
one matrix product, on every evaluation; the y block of a reduction is the
same layout with identity coefficients.

Every spectrum comes from `symlinalg`; there `validate_certificate` decides
lambda_max(A(d) - B) < -sigma + tol with one Cholesky factorization per
block and computes no eigenvalues.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteInput
from .symlinalg import (SymMatrix, _eigenvalues_below, _freeze, _scaled_norm, _spectral_norm,
                        _spectral_norms)
from .symlinalg import lambda_max, norms  # noqa: F401 (perfbench's tracer wraps them here)

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
    """x as a float64 vector, a scalar as length 1; any length if `length` is None."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or length not in (None, v.shape[0]):
        of = "" if length is None else f" of length {length}"
        raise DimensionMismatch(f"{what} must be a vector{of}")
    return v


def _finite(x, what="point"):
    """x, once checked to hold no NaN or Inf (before A(x) is formed, where
    Inf times a zero coefficient would make NaN); `what` names x in the error."""
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} contains NaN or Inf")
    return x


def _vector(x, length, what):
    """A private copy of x, a float64 vector checked by _as_vector and _finite."""
    return _finite(_as_vector(x, length, what), what).copy()


def _count(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParameter(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _positive(name, value):
    if not 0.0 < value < np.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")
    return float(value)


def _row_kinds(kinds, p):
    """The p row tags of a linear system, lower-cased, each "le" or "eq"."""
    tags = tuple(str(k).lower() for k in kinds)
    if len(tags) != p:
        raise DimensionMismatch(f"kinds must have length {p}")
    for k in tags:
        if k not in ("le", "eq"):
            raise InvalidParameter(f"row kind must be 'le' or 'eq', got {k!r}")
    return tags


class _SymMaps(NamedTuple):
    """The packed upper triangle of a symmetric n x n matrix. Packed entry t
    is the entry at the flat (row-major) index `upper[t]` of the upper
    triangle, taken row by row, and its mirror image; the n x n array
    `gather` holds at (r, c) the packed entry there, so `u[gather]` unpacks
    u into an exactly symmetric matrix; `weight[t]` is 1 on the
    diagonal and 2 off it, so <E_ii, Z> = Z_ii and <E_ij + E_ji, Z> = 2 Z_ij
    make up `contract(Z)`, and <A, Z> = packed(A) @ contract(Z) for
    symmetric A and Z.

    The hot path indexes with the maps (`u[gather]`) rather than calling
    `take`: the maps are read-only, and `take` copies a read-only index
    array on every call."""

    gather: np.ndarray
    upper: np.ndarray
    weight: np.ndarray

    def contract(self, z) -> np.ndarray:
        """weight * Z.flat[upper] for an n x n ndarray z (hot path)."""
        return z.reshape(-1)[self.upper] * self.weight


def _sym_maps(n) -> _SymMaps:
    """The _SymMaps of an n x n symmetric matrix."""
    i, j = np.triu_indices(n)
    upper = i * n + j
    t = np.arange(upper.size)
    gather = np.empty((n, n), dtype=t.dtype)
    gather[i, j] = t
    gather[j, i] = t
    weight = np.where(i == j, 1.0, 2.0)
    return _SymMaps(_freeze(gather), _freeze(upper), _freeze(weight))


class _Block(NamedTuple):
    """A diagonal block of size n_b > 1 of A(x) - B: rows and columns `at`,
    the variables `vars` that appear in it, its part `rhs` of B, and the
    _SymMaps `sym` of its packed upper triangle.

    A dense block holds its coefficients once, as the (k_b, n_b(n_b+1)/2)
    array `coeffs` of packed upper triangles in the order of `sym.upper`:
    A(x) on the block is `(xs @ coeffs)[sym.gather]`, exactly symmetric,
    and the adjoint `coeffs @ sym.contract(Z)`. The y block of a
    reduction, a symmetric-matrix variable, has identity coefficients,
    stored as `coeffs` None: A(x) is `xs[sym.gather]` and the adjoint
    `sym.contract(Z)`. The constructor and `reduce_primal_dual` build the
    maps once, `stack` shares them and the coefficients, and `_lay_out`
    stores every block; the hot path only reads them."""

    at: slice
    vars: slice
    coeffs: np.ndarray | None
    rhs: np.ndarray
    sym: _SymMaps


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
    dense block: the (m, n(n+1)/2) packed upper triangles of its
    coefficients, so A(x) and the adjoint are single matrix-vector products
    and one gather each (for n = 1, one scalar row). `stack` and
    `reduce_primal_dual` build their results from the layout they know
    instead: a block of size > 1 keeps only the variables that appear in it,
    and all 1 x 1 blocks share one (m, rows) array that the oracles evaluate
    in closed form. Storage is then O(sum k_b n_b^2) for k_b variables in an
    n_b x n_b block, about half that in packed triangles. Each coefficient
    is stored once, in its block; `coeffs`
    (the dense A_1..A_m as SymMatrix values) is built on each read and not
    kept. `rhs` is always dense.

    The problem is immutable, so `_norm` keeps _operator_norm(p) and
    `_constants` keeps constants(p) from their first calls on.
    """

    __slots__ = ("rhs", "num_vars", "dim", "_blocks", "_scalars", "_norm", "_constants")

    def __init__(self, coeffs, rhs):
        coeffs = list(coeffs)
        if not coeffs:
            raise InvalidParameter("need at least one coefficient matrix")
        b = rhs if isinstance(rhs, SymMatrix) else SymMatrix(rhs)
        n = b.dim
        m = len(coeffs)
        sym = _sym_maps(n)
        r, c = np.divmod(sym.upper, n)
        mirror = c * n + r
        packed = np.empty((m, sym.upper.size))
        with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
            for i, (a, row) in enumerate(zip(coeffs, packed)):
                a = np.asarray(a, dtype=float)
                if a.shape != (n, n):
                    raise DimensionMismatch(
                        f"coefficient {i + 1} has shape {a.shape}, rhs has dimension {n}"
                    )
                # the upper triangle of SymMatrix(a), 0.5 (A + A^T), bit for bit;
                # the indices are in range, and mode="clip" spares take the
                # bounds check and a buffered copy of `out`
                a.take(sym.upper, out=row, mode="clip")
                row += a.take(mirror, mode="clip")
                row *= 0.5
        if not np.isfinite(packed).all():
            # rare: a sum overflowed or the input holds NaN/Inf; SymMatrix decides
            try:
                packed[:] = [SymMatrix(a).mat.take(sym.upper) for a in coeffs]
            except NonFiniteInput:
                raise NonFiniteInput("coefficient matrix contains NaN or Inf entries") from None
        if n == 1:  # one scalar row
            _lay_out(self, b, m, [], [0], packed)
        else:
            block = (slice(0, n), slice(0, m), _freeze(packed), sym)
            _lay_out(self, b, m, [block], [], np.zeros((m, 0)))

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
            and np.array_equal(_dense_coeffs(self), _dense_coeffs(other))
        )

    def __repr__(self):
        return f"LmiProblem(n={self.dim}, m={self.num_vars})"


def _lay_out(p: LmiProblem, b: SymMatrix, num_vars, blocks, rows, table) -> LmiProblem:
    """Set every field of p, the problem with right-hand side b over
    num_vars variables whose operator is laid out as `blocks`, one
    (at, vars, coeffs, sym) per diagonal block of size > 1 in row order
    (see _Block), and the 1 x 1 rows: their ascending positions `rows` and
    their (num_vars, len(rows)) coefficient table `table`. Each block
    becomes a _Block that holds its part of B. The constructor, `stack` and
    `reduce_primal_dual` all build their problems here. Returns p."""
    rows = _freeze(np.asarray(rows, dtype=int))
    p.rhs = b
    p.num_vars = num_vars
    p.dim = b.dim
    p._blocks = tuple(_Block(at, variables, coeffs, b.mat[at, at], sym)
                      for at, variables, coeffs, sym in blocks)
    p._scalars = _Scalars(rows, _freeze(table), _freeze(b.mat[rows, rows]))
    p._norm = None
    p._constants = None
    return p


def _pieces(p: LmiProblem, offset=0) -> list:
    """p's blocks as _lay_out takes them, moved down by `offset` rows."""
    return [(slice(blk.at.start + offset, blk.at.stop + offset), blk.vars, blk.coeffs, blk.sym)
            for blk in p._blocks]


def _dense_coeffs(p: LmiProblem) -> np.ndarray:
    """The dense (m, n, n) array of A_1..A_m."""
    out = np.zeros((p.num_vars, p.dim, p.dim))
    for blk in p._blocks:
        part = out[blk.vars, blk.at, blk.at]
        if blk.coeffs is not None:
            part[...] = blk.coeffs[:, blk.sym.gather]
        else:
            r, c = np.indices(blk.sym.gather.shape)
            part[blk.sym.gather, r, c] = 1.0
    rows = p._scalars.rows
    out[:, rows, rows] = p._scalars.coeffs
    return out


def _block_apply(blk: _Block, x) -> np.ndarray:
    """A(x) on one block, as an exactly symmetric ndarray (hot path)."""
    xs = x[blk.vars]
    packed = xs if blk.coeffs is None else xs @ blk.coeffs
    return packed[blk.sym.gather]


def _block_adjoint(blk: _Block, z) -> np.ndarray:
    """<A_i, Z> for the variables of one block, z a symmetric ndarray whose
    upper triangle is read."""
    packed = blk.sym.contract(z)
    return packed if blk.coeffs is None else blk.coeffs @ packed


def _residuals(p: LmiProblem, x) -> tuple[list, np.ndarray]:
    """A(x) - B at a point x of length num_vars, block by block: an exactly
    symmetric ndarray per block of size > 1 in row order, and the values of
    the 1 x 1 rows; x is checked by every caller but the screen. Any NaN or
    Inf entry raises NonFiniteInput. Callers hold `np.errstate(over="ignore",
    invalid="ignore")`, so an overflow is reported here and nowhere else."""
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


class SlaterCertificate:
    """Strictly feasible point d with margin sigma > 0.

    Meaningful for a problem p when lambda_max(A(d) - B) <= -sigma, which
    is what validate_certificate checks; the certificate itself pins the
    pair (d, sigma), d as a finite vector of any length (see _vector).
    """

    __slots__ = ("point", "margin")

    def __init__(self, point, margin):
        margin = _positive("margin", float(margin))
        self.point = _freeze(_vector(point, None, "certificate point"))
        self.margin = margin

    def __eq__(self, other):
        if not isinstance(other, SlaterCertificate):
            return NotImplemented
        return self.margin == other.margin and np.array_equal(self.point, other.point)

    def __repr__(self):
        return f"SlaterCertificate(m={self.point.shape[0]}, margin={self.margin})"


class LinIneqSystem:
    """Linear system rows a_i x <= b_i (kind "le") or a_i x = b_i ("eq")."""

    __slots__ = ("rows", "rhs", "kinds", "num_rows", "num_vars", "eq_mask", "_floor")

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
        self.rows = _freeze(_finite(a, "system data").copy())
        self.rhs = _freeze(_finite(b, "system data").copy())
        self.kinds = _row_kinds(kinds, p)
        self.num_rows = p
        self.num_vars = q
        self.eq_mask = _freeze(np.array([k == "eq" for k in self.kinds]))
        # e(y) = max(y, floor): -inf leaves an "eq" row as it is
        self._floor = _freeze(np.where(self.eq_mask, -np.inf, 0.0))

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
        self.objective = _freeze(_vector(objective, self.problem.num_vars, "objective"))

    def __repr__(self):
        return f"SdpPair(n={self.problem.dim}, m={self.problem.num_vars})"


class OperatorConstants(NamedTuple):
    """(M, ||A||, L) of the operator x -> A(x) = x_1 A_1 + ... + x_m A_m.

    ||A|| is its exact norm from (R^m, 2-norm) to (S^n, Frobenius),
    sqrt(lambda_max(G)) for the Gram matrix G_ij = <A_i, A_j>; L = 2 ||A||^2
    is the Lipschitz constant of the smooth oracle's gradient; and the
    subgradient bound M = min(sqrt(sum ||A_i||_2^2), ||A||) bounds the
    non-smooth oracle's subgradients. Always
    M <= ||A|| <= sqrt(sum ||A_i||_F^2)."""

    subgrad_bound: float
    opnorm: float
    grad_lipschitz: float


def apply_operator(p: LmiProblem, x) -> SymMatrix:
    """A(x) = sum_i x_i A_i."""
    v = _finite(_as_vector(x, p.num_vars))
    out = np.zeros((p.dim, p.dim))
    rows = p._scalars.rows
    with np.errstate(over="ignore", invalid="ignore"):  # SymMatrix raises NonFiniteInput
        for blk in p._blocks:
            out[blk.at, blk.at] = _block_apply(blk, v)
        out[rows, rows] = v @ p._scalars.coeffs
    return SymMatrix(out)


def adjoint_apply(p: LmiProblem, z: SymMatrix) -> np.ndarray:
    """Adjoint A^T(Z), component i = <A_i, Z> (entrywise inner product)."""
    if not isinstance(z, SymMatrix):
        z = SymMatrix(z)
    if z.dim != p.dim:
        raise DimensionMismatch(f"Z has dimension {z.dim}, problem has {p.dim}")
    rows = p._scalars.rows
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        g = _adjoint(p, [z.mat[blk.at, blk.at] for blk in p._blocks], z.mat[rows, rows])
    return _finite(g, "A^T(Z)")


def _spectral_bound(p: LmiProblem) -> float:
    """sqrt(sum ||A_i||_2^2), summed in variable order, as a dense
    problem's always was. ||A_i||_2 is the largest of A_i's block norms;
    each dense block unpacks its coefficients for `_spectral_norms`, in the
    order of its variables. Raises NonFiniteInput when a norm overflows."""
    spec = np.zeros(p.num_vars)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        for blk in p._blocks:
            own = spec[blk.vars]
            coeffs, gather = blk.coeffs, blk.sym.gather
            # E_ii and E_ij + E_ji have spectral norm 1. A dense block's A_i
            # is unpacked into the kernel's buffer; mode="clip" (the indices
            # are in range) spares `take` a buffered copy of it
            np.maximum(own, 1.0 if coeffs is None else _spectral_norms(
                gather.shape[0], coeffs.shape[0],
                lambda i, a: np.take(coeffs[i], gather, out=a, mode="clip")), out=own)
        spec = np.maximum(spec, np.abs(p._scalars.coeffs).max(axis=1, initial=0.0))
    if not np.isfinite(spec).all():
        raise NonFiniteInput("operator constants overflow")
    total = 0.0
    for s in spec.tolist():
        total += s * s
    return float(np.sqrt(total))


def _operator_norm(p: LmiProblem) -> tuple[float, float]:
    """(||A||, L = 2 ||A||^2) of p (see OperatorConstants), computed on the
    first call and kept on the immutable problem; the smooth oracle and
    solver read only these, so they never pay for M.

    G is the sum of the blocks' Gram matrices, each on its own variables;
    ||A||^2 = ||G||_2 (G is PSD), from `symlinalg._spectral_norm`, clamped
    to at most trace(G) = sum ||A_i||_F^2. G costs O(m^2 P + m^3) for m
    variables and P stored coefficients; the m^3 `eigvalsh` dominates on
    reductions of SDP pairs (m = 20, one BLAS thread, 2-CPU Xeon: 4-5 ms at
    230 variables, 60-80 ms at 840, and 0.64-0.71 s at 1850). Raises
    NonFiniteInput when a constant overflows."""
    if p._norm is not None:
        return p._norm
    gram = np.zeros((p.num_vars, p.num_vars))
    table = p._scalars.coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        for blk in p._blocks:
            own = gram[blk.vars, blk.vars]
            if blk.coeffs is None:
                # E_ii and E_ij + E_ji are orthogonal, with squared
                # Frobenius norm their weight
                own[np.diag_indices_from(own)] += blk.sym.weight
                continue
            # <A_i, A_j> = sum_t weight_t c_it c_jt: every packed product
            # twice, less the diagonal's once; no (k_b, P) temporary
            diag = blk.coeffs[:, blk.sym.weight == 1.0]
            own += 2.0 * (blk.coeffs @ blk.coeffs.T) - diag @ diag.T
        gram += table @ table.T
    fro_total = float(np.trace(gram))
    # a finite 2 trace(G) bounds 2 ||A||^2 and every |G_ij|, so ||G||_2 stays finite
    if not (2.0 * fro_total < np.inf and np.isfinite(gram).all()):
        raise NonFiniteInput("operator constants overflow")
    norm_sq = min(_spectral_norm(gram), fro_total)
    p._norm = (float(np.sqrt(norm_sq)), 2.0 * norm_sq)
    return p._norm


def constants(p: LmiProblem) -> OperatorConstants:
    """Subgradient bound M, operator norm ||A|| and L = 2 ||A||^2 (see
    OperatorConstants), computed on the first call and kept on the
    immutable problem.

    Computed block by block, so the dense A_i are never built: M from
    `_spectral_bound`, whose one eigenvalue computation per coefficient
    runs on two threads where it can, and ||A|| and L from
    `_operator_norm`. Raises NonFiniteInput when a constant overflows."""
    if p._constants is None:
        bound = _spectral_bound(p)
        opnorm, lipschitz = _operator_norm(p)
        p._constants = OperatorConstants(min(bound, opnorm), opnorm, lipschitz)
    return p._constants


def mu_of(cert: SlaterCertificate) -> float:
    """Error-bound modulus mu = ||d||_2 / sigma, with ||d|| from
    `_scaled_norm`, so mu is 0 only for d = 0 and inf only when
    ||d|| / sigma exceeds the largest float."""
    return _scaled_norm(cert.point) / cert.margin


def validate_certificate(p: LmiProblem, cert: SlaterCertificate, tol: float = 1e-9) -> bool:
    """True when lambda_max(A(d) - B) < -sigma + tol, strictly.

    No eigenvalue is computed. With level = tol - sigma, each block S of
    A(d) - B passes when level I - S is positive definite, decided by one
    Cholesky factorization in `symlinalg._eigenvalues_below`. The 1 x 1
    rows pass when their largest value is below level. At the exact
    boundary lambda_max = -sigma + tol the answer is False. A NaN tol
    raises InvalidParameter: `cholesky` factors a NaN diagonal without
    raising, so it would pass every block."""
    level = tol - cert.margin
    if np.isnan(level):
        raise InvalidParameter(f"tol must be a number, got {tol}")
    d = _as_vector(cert.point, p.num_vars, "certificate point")
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteInput
        mats, scalars = _residuals(p, d)
    if not (scalars < level).all():
        return False
    return all(_eigenvalues_below(s, level) for s in mats)


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
    blocks, rows = [], []
    offset = 0
    for p in probs:
        rhs[offset:offset + p.dim, offset:offset + p.dim] = p.rhs.mat
        blocks += _pieces(p, offset)
        rows.append(p._scalars.rows + offset)
        offset += p.dim
    return _lay_out(object.__new__(LmiProblem), SymMatrix(rhs), m, blocks, np.concatenate(rows),
                    np.hstack([p._scalars.coeffs for p in probs]))


def reduce_primal_dual(pair: SdpPair) -> LmiProblem:
    """Encode primal-dual optimality of an SDP as one LMI feasibility problem.

    Variables are (x, upper triangle of y row-major), m + n(n+1)/2 scalars.
    Diagonal blocks, in order: A(x) - B <= 0 (size n); for each i the pair
    <A_i,y> - c_i <= 0 and c_i - <A_i,y> <= 0 (2m blocks of size 1); y <= 0
    (size n); <c,x> - <B,y> <= 0 (size 1). Total block size 2n + 2m + 1.

    The result is stored as those blocks: the pair's own blocks for x, the y
    block as the map from y's entries to a symmetric matrix (a 1 x 1 row
    when n = 1), and all 1 x 1 rows in one (m + n(n+1)/2, rows) table, so
    memory is O(m n^2). The dense coefficient tensor,
    (m + n(n+1)/2) (2n + 2m + 1)^2 numbers, is built only when `coeffs` is
    read. Finite data whose y coefficients 2 (A_i)_jk or 2 B_jk overflow
    raise NonFiniteInput.

    The y-equalities destroy strict feasibility, so no Slater certificate
    can be attached to the result; solvers need an explicitly supplied mu.
    """
    prob = pair.problem
    n, m = prob.dim, prob.num_vars
    c = pair.objective
    size = 2 * n + 2 * m + 1
    ny = n * (n + 1) // 2
    ysym = _sym_maps(n)
    blocks = _pieces(prob)
    if n > 1:
        blocks.append((slice(n + 2 * m, size - 1), slice(m, m + ny), None, ysym))
    # the rows: the pair's own, the 2m equalities, y's when n = 1, and the gap
    k = prob._scalars.rows.size
    rows = [*prob._scalars.rows.tolist(), *range(n, n + 2 * m + (n == 1)), size - 1]
    table = np.zeros((m + ny, len(rows)))
    table[:m, :k] = prob._scalars.coeffs
    table[m:, k + 2 * m:-1] = 1.0  # y's row when n = 1, an empty slice otherwise
    table[:m, -1] = c
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        # y's coefficients in <A_i, y> and <B, y> are the contractions of A_i and B
        eq = _dense_coeffs(prob).reshape(m, -1)[:, ysym.upper] * ysym.weight
        table[m:, k:k + 2 * m:2] = eq.T
        table[m:, k + 1:k + 2 * m:2] = -eq.T
        table[m:, -1] = -ysym.contract(prob.rhs.mat)
    if not np.isfinite(table).all():
        raise NonFiniteInput("primal-dual reduction overflows: a coefficient of y "
                             "in <A_i, y> or <B, y> is beyond the float range")
    rhs = np.zeros((size, size))
    rhs[:n, :n] = prob.rhs.mat
    eqs = range(n, n + 2 * m)
    rhs[eqs, eqs] = np.stack([c, -c], axis=1).ravel()
    return _lay_out(object.__new__(LmiProblem), SymMatrix(rhs), m + ny, blocks, rows, table)


def _clip(sys: LinIneqSystem, y: np.ndarray) -> np.ndarray:
    """e(y) for a float vector y of length num_rows (hot path, unchecked)."""
    return np.maximum(y, sys._floor)


def residual_map(sys: LinIneqSystem, y) -> np.ndarray:
    """Clipped residual e(y): component i is max(0, y_i) for "le" rows and
    y_i unchanged for "eq" rows."""
    return _clip(sys, _as_vector(y, sys.num_rows, "y"))
