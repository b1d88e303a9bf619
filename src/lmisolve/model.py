"""Problem data model.

An LMI feasibility problem asks for x in R^m with A(x) - B <= 0 in the
semidefinite order, where A(x) = x_1 A_1 + ... + x_m A_m. This module holds
the operator and its adjoint, the constants every iteration budget is built
from, Slater certificates and the error-bound modulus mu, combination of
several LMI systems into one, the primal-dual SDP reduction to a single
LMI, and the linear-inequality system model.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonFiniteInput
from .symlinalg import SymMatrix, lambda_max, norms

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


class LmiProblem:
    """Coefficients A_1..A_m and right-hand side B of A(x) - B <= 0.

    The coefficient stack is cached as an (m, n, n) array so oracles can
    evaluate A(x) and the adjoint with single tensor contractions. The
    problem is immutable, so `_constants` holds constants(p) once an oracle
    or a solver first needs it.
    """

    __slots__ = ("coeffs", "rhs", "num_vars", "dim", "_tensor", "_constants")

    def __init__(self, coeffs, rhs):
        mats = tuple(c if isinstance(c, SymMatrix) else SymMatrix(c) for c in coeffs)
        if not mats:
            raise InvalidParameter("need at least one coefficient matrix")
        b = rhs if isinstance(rhs, SymMatrix) else SymMatrix(rhs)
        n = b.dim
        for i, c in enumerate(mats):
            if c.dim != n:
                raise DimensionMismatch(
                    f"coefficient {i + 1} has dimension {c.dim}, rhs has {n}"
                )
        self.coeffs = mats
        self.rhs = b
        self.num_vars = len(mats)
        self.dim = n
        tensor = np.stack([c.mat for c in mats])
        tensor.flags.writeable = False
        self._tensor = tensor
        self._constants = None

    def _apply_raw(self, x):
        """Sum x_i A_i as a plain ndarray, no validation (hot path)."""
        return np.tensordot(x, self._tensor, axes=1)

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


class SlaterCertificate:
    """Strictly feasible point d with margin sigma > 0.

    Meaningful for a problem p when lambda_max(A(d) - B) <= -sigma, which
    is what validate_certificate checks; the certificate itself only pins
    the pair (d, sigma).
    """

    __slots__ = ("point", "margin")

    def __init__(self, point, margin):
        margin = float(margin)
        if not margin > 0.0:
            raise InvalidParameter(f"margin must be positive, got {margin}")
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

    @property
    def coeffs(self):
        return self.problem.coeffs

    @property
    def rhs(self):
        return self.problem.rhs

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
    v = _as_vector(x, p.num_vars)
    return SymMatrix(p._apply_raw(v))


def adjoint_apply(p: LmiProblem, z: SymMatrix) -> np.ndarray:
    """Adjoint A^T(Z), component i = <A_i, Z> (entrywise inner product)."""
    if not isinstance(z, SymMatrix):
        z = SymMatrix(z)
    if z.dim != p.dim:
        raise DimensionMismatch(f"Z has dimension {z.dim}, problem has {p.dim}")
    return np.tensordot(p._tensor, z.mat, axes=([1, 2], [0, 1]))


def constants(p: LmiProblem) -> OperatorConstants:
    """Subgradient bound M, operator norm ||A||, and L = 2 ||A||^2."""
    spec_sq = 0.0
    fro_sq = 0.0
    for c in p.coeffs:
        fro, spec = norms(c)
        spec_sq += spec * spec
        fro_sq += fro * fro
    opnorm = float(np.sqrt(fro_sq))
    return OperatorConstants(float(np.sqrt(spec_sq)), opnorm, 2.0 * fro_sq)


def mu_of(cert: SlaterCertificate) -> float:
    """Error-bound modulus mu = ||d||_2 / sigma."""
    return float(np.linalg.norm(cert.point)) / cert.margin


def validate_certificate(p: LmiProblem, cert: SlaterCertificate, tol: float = 1e-9) -> bool:
    """True when lambda_max(A(d) - B) <= -sigma + tol."""
    d = _as_vector(cert.point, p.num_vars, "certificate point")
    top, _ = lambda_max(SymMatrix(p._apply_raw(d) - p.rhs.mat))
    return top <= -cert.margin + tol


def stack(problems) -> LmiProblem:
    """Combine LMI systems over the same variable vector into one problem
    by block-diagonal concatenation; x is feasible for the stack iff it is
    feasible for every input."""
    probs = list(problems)
    if not probs:
        raise InvalidParameter("need at least one problem to stack")
    m = probs[0].num_vars
    for p in probs[1:]:
        if p.num_vars != m:
            raise DimensionMismatch("stacked problems must share the variable count")
    if len(probs) == 1:
        return probs[0]
    dims = [p.dim for p in probs]
    total = sum(dims)
    offsets = np.cumsum([0] + dims[:-1])
    coeffs = []
    for i in range(m):
        big = np.zeros((total, total))
        for p, o in zip(probs, offsets):
            big[o:o + p.dim, o:o + p.dim] = p.coeffs[i].mat
        coeffs.append(big)
    rhs = np.zeros((total, total))
    for p, o in zip(probs, offsets):
        rhs[o:o + p.dim, o:o + p.dim] = p.rhs.mat
    return LmiProblem(coeffs, rhs)


def reduce_primal_dual(pair: SdpPair) -> LmiProblem:
    """Encode primal-dual optimality of an SDP as one LMI feasibility problem.

    Variables are (x, upper triangle of y row-major), m + n(n+1)/2 scalars.
    Diagonal blocks, in order: A(x) - B <= 0 (size n); for each i the pair
    <A_i,y> - c_i <= 0 and c_i - <A_i,y> <= 0 (2m blocks of size 1); y <= 0
    (size n); <c,x> - <B,y> <= 0 (size 1). Total block size 2n + 2m + 1.

    The y-equalities destroy strict feasibility, so no Slater certificate
    can be attached to the result; solvers need an explicitly supplied mu.
    """
    prob = pair.problem
    n, m = prob.dim, prob.num_vars
    c = pair.objective
    bmat = prob.rhs.mat
    size = 2 * n + 2 * m + 1
    yoff = n + 2 * m
    gap = size - 1

    coeffs = []
    for i in range(m):
        mat = np.zeros((size, size))
        mat[:n, :n] = prob.coeffs[i].mat
        mat[gap, gap] = c[i]
        coeffs.append(mat)
    for j in range(n):
        for k in range(j, n):
            mat = np.zeros((size, size))
            for i in range(m):
                aij = prob.coeffs[i].mat
                # <A_i, E_jk + E_kj> = 2 A_i[j,k] off the diagonal
                val = aij[j, j] if j == k else 2.0 * aij[j, k]
                mat[n + 2 * i, n + 2 * i] = val
                mat[n + 2 * i + 1, n + 2 * i + 1] = -val
            mat[yoff + j, yoff + k] = 1.0
            mat[yoff + k, yoff + j] = 1.0
            mat[gap, gap] = -(bmat[j, j] if j == k else 2.0 * bmat[j, k])
            coeffs.append(mat)

    rhs = np.zeros((size, size))
    rhs[:n, :n] = bmat
    for i in range(m):
        rhs[n + 2 * i, n + 2 * i] = c[i]
        rhs[n + 2 * i + 1, n + 2 * i + 1] = -c[i]
    return LmiProblem(coeffs, rhs)


def residual_map(sys: LinIneqSystem, y) -> np.ndarray:
    """Clipped residual e(y): component i is max(0, y_i) for "le" rows and
    y_i unchanged for "eq" rows."""
    v = _as_vector(y, sys.num_rows, "y")
    return np.where(sys.eq_mask, v, np.maximum(v, 0.0))
