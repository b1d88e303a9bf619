"""First-order oracles for the three equivalent feasibility objectives.

All three vanish exactly on the solution set, so the optimal value is 0:

- non-smooth: f(x) = max(lambda_max(A(x) - B), 0), subgradient bound M;
- smooth: f(x) = squared Frobenius distance of A(x) - B to the
  negative-semidefinite cone, gradient Lipschitz constant 2 ||A||^2;
- linear system: f(x) = 0.5 ||e(Ax - b)||^2 with the clipped residual e,
  gradient Lipschitz constant ||A||_2^2.

Each evaluation runs under one `np.errstate` that keeps numpy's overflow
warnings quiet: an A(x) - B, gradient or subgradient with NaN or Inf
entries raises NonFiniteInput instead, and only a value may overflow to
inf (which a solve rejects).

The non-smooth oracle's kink rule (`_KINK_TOL`) and its choice of block or
row for the subgradient live in `eval_nonsmooth`. `_gram` is the one
routine that forms and decomposes A^T A, for `linsys_oracle` and
`testbench`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (LinIneqSystem, LmiProblem, _adjoint, _as_vector, _block_adjoint, _clip,
                    _finite, _operator_norm, _residuals, constants)
# lambda_max and project_neg_semidef stay importable here for perfbench's tracer
from .symlinalg import (EigDecomposition, SymMatrix, _block_top, _positive_part,  # noqa: F401
                        eig_sym, lambda_max, project_neg_semidef)

__all__ = [
    "OracleEval",
    "Oracle",
    "eval_nonsmooth",
    "eval_smooth",
    "eval_linsys",
    "nonsmooth_oracle",
    "smooth_oracle",
    "linsys_oracle",
]

# Top eigenvalues at or below this are treated as feasible: the non-smooth
# oracle then reports value 0 with the zero (minimum-norm) subgradient,
# keeping the pair (value, gradient) consistent at the kink.
_KINK_TOL = 1e-12


@dataclass(frozen=True)
class OracleEval:
    """Objective value (always >= 0) and first-order information at a point.

    For smooth objectives `gradient` is the gradient; for the non-smooth
    objective it is a subgradient.
    """

    value: float
    gradient: np.ndarray


@dataclass(frozen=True)
class Oracle:
    """An evaluation map together with its declared smoothness constants:
    f(y) - f(x) - <g(x), y - x> <= (grad_lipschitz/2)||y-x||^2
    + subgrad_bound * ||y-x||. Exactly one of the two constants is nonzero
    for the oracles built here.

    `evaluate` must be a deterministic function of x: a solve never repeats
    a call at the point it has just evaluated, and reuses that result."""

    evaluate: Callable[[np.ndarray], OracleEval]
    dim: int
    grad_lipschitz: float
    subgrad_bound: float


def eval_nonsmooth(p: LmiProblem, x) -> OracleEval:
    """max(lambda_max(A(x) - B), 0) and a subgradient.

    Above the kink the subgradient is A^T(v v^T) = (v^T A_i v)_i for a unit
    top eigenvector v; at or below it (lambda_max <= _KINK_TOL) the point
    is treated as feasible and (0, 0) is returned. Each block's top comes
    from `symlinalg._block_top`: a block of size 32 or more gets its top
    eigenvector with it from one `dsyevr` call; a smaller one gets its
    eigenvalues from `eigvalsh`, and an eigenvector only if it holds the
    top above the kink. The 1 x 1 blocks of a stacked or reduced problem
    are one vector: their top is its max, and the subgradient of a top row
    is its column of coefficients. A tie goes to the block or row that
    comes first in the matrix.
    """
    x = _finite(_as_vector(x, p.num_vars, "point"))
    grad = np.zeros(p.num_vars)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteInput
        mats, scalars = _residuals(p, x)
        found = []
        for s, blk in zip(mats, p._blocks):
            top, vector = _block_top(s)
            found.append((top, blk.at.start, blk, vector))
        if scalars.size:
            k = int(np.argmax(scalars))  # the first of equal rows, since rows ascend
            found.append((float(scalars[k]), int(p._scalars.rows[k]), None, k))
        top, _, blk, where = max(found, key=lambda f: (f[0], -f[1]))
        if top <= _KINK_TOL:
            return OracleEval(0.0, grad)
        if blk is None:
            grad[:] = p._scalars.coeffs[:, where]
            return OracleEval(top, grad)
        v = where()
        grad[blk.vars] = _block_adjoint(blk, np.outer(v, v))
    return OracleEval(top, _finite(grad, "subgradient"))


def eval_smooth(p: LmiProblem, x) -> OracleEval:
    """Squared distance of A(x) - B to the negative-semidefinite cone.

    The gradient is 2 A^T(residual) where residual is the positive part of
    A(x) - B; it is Lipschitz with constant 2 ||A||^2. Each block is
    projected on its own; the positive part of a 1 x 1 block is its value
    clipped at 0. The value is the sum of the squared positive eigenvalues
    and clipped rows, in Python floats, so it overflows to inf silently.
    """
    x = _finite(_as_vector(x, p.num_vars, "point"))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteInput
        mats, scalars = _residuals(p, x)
        pos = np.maximum(scalars, 0.0)
        parts = []
        value = 0.0
        for s in mats:
            w, part = _positive_part(s)
            parts.append(part)
            for e in w.tolist():
                value += e * e
        for e in pos.tolist():
            value += e * e
        grad = 2.0 * _adjoint(p, parts, pos)
    return OracleEval(value, _finite(grad, "gradient"))


def eval_linsys(sys: LinIneqSystem, x) -> OracleEval:
    """0.5 ||e(Ax - b)||^2 with gradient A^T e(Ax - b). A NaN or Inf entry
    of e makes every gradient entry NaN or Inf, so one check covers both."""
    x = _as_vector(x, sys.num_vars, "point")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        e = _clip(sys, sys.rows @ x - sys.rhs)
        value = 0.5 * float(e @ e)
        grad = sys.rows.T @ e
    return OracleEval(value, _finite(grad, "gradient"))


def nonsmooth_oracle(p: LmiProblem) -> Oracle:
    """Oracle for eval_nonsmooth with (L, M) = (0, sqrt(sum ||A_i||_2^2))."""
    return Oracle(lambda x: eval_nonsmooth(p, x), p.num_vars, 0.0, constants(p).subgrad_bound)


def smooth_oracle(p: LmiProblem) -> Oracle:
    """Oracle for eval_smooth with (L, M) = (2 ||A||^2, 0); it computes no M."""
    return Oracle(lambda x: eval_smooth(p, x), p.num_vars, _operator_norm(p)[1], 0.0)


def _gram(rows) -> EigDecomposition:
    """The eigendecomposition of A^T A for the float matrix `rows` = A.
    Finite rows whose A^T A overflows raise NonFiniteInput."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        gram = SymMatrix(_finite(rows.T @ rows, "A^T A"))
    return eig_sym(gram)


def linsys_oracle(sys: LinIneqSystem) -> Oracle:
    """Oracle for eval_linsys with L = ||A||_2^2 = lambda_max(A^T A)."""
    lip = max(float(_gram(sys.rows).eigenvalues[0]), 0.0)
    return Oracle(lambda x: eval_linsys(sys, x), sys.num_vars, lip, 0.0)
