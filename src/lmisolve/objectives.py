"""First-order oracles for the three equivalent feasibility objectives.

All three vanish exactly on the solution set, so the optimal value is 0:

- non-smooth: f(x) = max(lambda_max(A(x) - B), 0), subgradient bound M;
- smooth: f(x) = squared Frobenius distance of A(x) - B to the
  negative-semidefinite cone, gradient Lipschitz constant 2 ||A||^2;
- linear system: f(x) = 0.5 ||e(Ax - b)||^2 with the clipped residual e,
  gradient Lipschitz constant ||A||_2^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (LinIneqSystem, LmiProblem, OperatorConstants, _adjoint, _as_vector,
                    _residuals, _top_subgradient, constants, residual_map)
# lambda_max and project_neg_semidef stay importable here for perfbench's tracer
from .symlinalg import (SymMatrix, _positive_part, eig_sym, lambda_max,  # noqa: F401
                        project_neg_semidef)

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

# Top eigenvalues at or below this are treated as feasible: the oracle then
# reports value 0 with the zero (minimum-norm) subgradient, keeping the pair
# (value, gradient) consistent at the kink.
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
    top eigenvector v, taken from the first block (in row order) that holds
    the top eigenvalue; at or below it (lambda_max <= 1e-12) the point is
    treated as feasible and (0, 0) is returned. Only eigenvalues are
    computed for the other blocks, and no eigenvector at or below the kink.
    The 1 x 1 blocks of a stacked or reduced problem are one vector, and
    their top is its max.
    """
    x = _as_vector(x, p.num_vars, "point")
    top, grad = _top_subgradient(p, *_residuals(p, x), _KINK_TOL)
    if grad is None:
        return OracleEval(0.0, np.zeros(p.num_vars))
    return OracleEval(top, grad)


def eval_smooth(p: LmiProblem, x) -> OracleEval:
    """Squared distance of A(x) - B to the negative-semidefinite cone.

    The gradient is 2 A^T(residual) where residual is the positive part of
    A(x) - B; it is Lipschitz with constant 2 ||A||^2. Each block is
    projected on its own; the positive part of a 1 x 1 block is its value
    clipped at 0. The value is the sum of the squared positive eigenvalues
    and clipped rows, in Python floats, so it overflows to inf silently.
    """
    x = _as_vector(x, p.num_vars, "point")
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
    return OracleEval(value, 2.0 * _adjoint(p, parts, pos))


def eval_linsys(sys: LinIneqSystem, x) -> OracleEval:
    """0.5 ||e(Ax - b)||^2 with gradient A^T e(Ax - b)."""
    x = _as_vector(x, sys.num_vars, "point")
    e = residual_map(sys, sys.rows @ x - sys.rhs)
    return OracleEval(0.5 * float(e @ e), sys.rows.T @ e)


def _constants_of(p: LmiProblem) -> OperatorConstants:
    """constants(p), computed on first use and kept on the immutable problem."""
    if p._constants is None:
        p._constants = constants(p)
    return p._constants


def nonsmooth_oracle(p: LmiProblem) -> Oracle:
    """Oracle for eval_nonsmooth with (L, M) = (0, sqrt(sum ||A_i||_2^2))."""
    m = _constants_of(p).subgrad_bound
    return Oracle(lambda x: eval_nonsmooth(p, x), p.num_vars, 0.0, m)


def smooth_oracle(p: LmiProblem) -> Oracle:
    """Oracle for eval_smooth with (L, M) = (2 ||A||^2, 0)."""
    return Oracle(lambda x: eval_smooth(p, x), p.num_vars, _constants_of(p).grad_lipschitz, 0.0)


def linsys_oracle(sys: LinIneqSystem) -> Oracle:
    """Oracle for eval_linsys with L = ||A||_2^2 = lambda_max(A^T A)."""
    gram = SymMatrix(sys.rows.T @ sys.rows)
    lip = max(float(eig_sym(gram).eigenvalues[0]), 0.0)
    return Oracle(lambda x: eval_linsys(sys, x), sys.num_vars, lip, 0.0)
