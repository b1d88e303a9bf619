"""Certified instance generation and independent checking oracles.

Instances come with their own correctness evidence: LMI problems carry a
Slater certificate (d, sigma) that is valid by construction, and linear
systems carry a feasible witness. The generators draw from a fixed
64-bit linear congruential generator so that equal parameters give
byte-identical problems on any platform.

LMI construction: coefficients are drawn with independent symmetric
entries, then shifted along the identity so that A(d) >= sigma I. With
that recession property, x - (f(x)/sigma) d is feasible for every x, so
dist(x, X*) <= mu f(x) holds globally with mu = ||d|| / sigma and the
halving guarantees of the restarted solvers are exact statements about
these instances, not heuristics. The right-hand side is
B = A(d) + sigma I + Q with Q positive semidefinite and ||Q||_F = sigma,
hence lambda_max(A(d) - B) = -sigma - lambda_min(Q) <= -sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, LmiSolveError, NonFiniteInput, ZeroMatrix
from .model import (LinIneqSystem, LmiProblem, SlaterCertificate, _count, _finite, _positive,
                    _row_kinds, validate_certificate)
from .objectives import Oracle, eval_nonsmooth
from .symlinalg import SymMatrix, eig_sym

__all__ = [
    "Lcg64",
    "CertifiedInstance",
    "gen_lmi",
    "gen_linsys",
    "hoffman_eq",
    "fd_gradient",
    "brute_feasibility",
    "distance_to_solutions",
]

# Relative cutoff below which an eigenvalue of A^T A counts as zero.
_RANK_CUTOFF = 1e-10


class Lcg64:
    """64-bit linear congruential generator, s <- (a s + c) mod 2^64 with
    a = 6364136223846793005 and c = 1442695040888963407 (Knuth's MMIX
    constants), warmed up by two steps. u01 takes the top 53 bits of the
    advanced state, giving uniforms in [0, 1) that are identical across
    platforms and languages."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = int(seed) & self.MASK
        self._step()
        self._step()

    def _step(self):
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state

    def u01(self):
        """Uniform in [0, 1) with 53 random bits."""
        return (self._step() >> 11) / 9007199254740992.0

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.u01()


@dataclass(frozen=True, eq=False)
class CertifiedInstance:
    """A feasibility problem plus the evidence that it is feasible."""

    problem: LmiProblem
    certificate: SlaterCertificate
    witness: np.ndarray
    seed: int


def _draw_symmetric(rng, n, scale):
    a = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            v = rng.uniform(-scale, scale)
            a[j, k] = v
            a[k, j] = v
    return a


def gen_lmi(n: int, m: int, sigma: float, seed: int) -> CertifiedInstance:
    """Random feasible LMI instance with a Slater certificate (d, sigma).

    Draw order from the seeded generator: upper triangles of A_1..A_m
    (row-major, entries uniform in +-sigma/(m sqrt(n))), then d (entries
    uniform in [-1, 1), redrawn as a whole until ||d|| >= 0.5), then a full
    n x n matrix R for the PSD perturbation Q proportional to R^T R.
    """
    _count("n", n)
    _count("m", m)
    sigma = _positive("sigma", float(sigma))

    rng = Lcg64(seed)
    # a sigma so large that this overflows leaves B non-finite, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        scale = sigma / (m * np.sqrt(n))
        raw = [_draw_symmetric(rng, n, scale) for _ in range(m)]

        d = np.array([rng.uniform(-1.0, 1.0) for _ in range(m)])
        while float(d @ d) < 0.25:
            d = np.array([rng.uniform(-1.0, 1.0) for _ in range(m)])

        # shift each A_i by t_i I so that A(d) >= sigma I; the Frobenius norm
        # overestimates the spectral norm, keeping the construction free of
        # eigenvalue computations and therefore byte-deterministic
        ad_raw = np.tensordot(d, np.stack(raw), axes=1)
        shift = (sigma + float(np.linalg.norm(ad_raw))) / float(d @ d)
        eye = np.eye(n)
        coeffs = [a + (shift * di) * eye for a, di in zip(raw, d)]

        r = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
        q_raw = r.T @ r
        q_norm = float(np.linalg.norm(q_raw))
        q = q_raw * (sigma / q_norm) if q_norm > 0.0 else (sigma / np.sqrt(n)) * eye

        ad = np.tensordot(d, np.stack(coeffs), axes=1)
        b = ad + sigma * eye + q
    if not np.isfinite(b).all():
        raise NonFiniteInput(f"sigma {sigma:g} is too large: the generated instance overflows")

    problem = LmiProblem(coeffs, b)
    cert = SlaterCertificate(d, sigma)
    if not validate_certificate(problem, cert, tol=1e-9):
        raise LmiSolveError("generated certificate failed validation")
    return CertifiedInstance(problem, cert, cert.point, int(seed))


def gen_linsys(p: int, q: int, seed: int, kinds=None):
    """Random consistent linear system and a feasible witness x_star.

    kinds selects the row tags, in any case: "eq", "le", "mixed" (default;
    equality on even row indices, inequality on odd), or an explicit
    length-p sequence of tags. Equality rows get b_i = (A x_star)_i
    exactly; inequality rows get slack (0.75 + 1.75 u) max(1, ||a_i||), so
    the witness is strictly slack there. Draw order: A row-major, then x_star, then one uniform per
    inequality row.

    Returns (system, x_star).
    """
    _count("p", p)
    _count("q", q)
    if isinstance(kinds, str):
        kinds = kinds.lower()
    if kinds is None or kinds == "mixed":
        kinds = ["eq" if i % 2 == 0 else "le" for i in range(p)]
    elif kinds == "eq" or kinds == "le":
        kinds = [kinds] * p
    tags = _row_kinds(kinds, p)

    rng = Lcg64(seed)
    a = np.array([[rng.uniform(-1.0, 1.0) for _ in range(q)] for _ in range(p)])
    x_star = np.array([rng.uniform(-1.0, 1.0) for _ in range(q)])
    slack = np.zeros(p)
    for i, k in enumerate(tags):
        if k == "le":
            slack[i] = (0.75 + 1.75 * rng.u01()) * max(1.0, float(np.linalg.norm(a[i])))
    return LinIneqSystem(a, a @ x_star + slack, tags), x_star


def _gram_spectrum(a):
    """Eigenvalues (descending) and eigenvectors of A^T A, and the mask of
    the eigenvalues that count as nonzero under the relative cutoff
    _RANK_CUTOFF; None when A is zero. An A^T A that overflows raises
    NonFiniteInput."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        dec = eig_sym(SymMatrix(_finite(a.T @ a, "A^T A")))
    w = dec.eigenvalues
    lam_max = float(w[0])
    if lam_max <= 0.0:
        return None
    return w, dec.eigenvectors, w > _RANK_CUTOFF * lam_max


def hoffman_eq(a) -> float:
    """Hoffman constant of an all-equality system: the reciprocal of the
    smallest nonzero singular value of A, from the eigenvalues of A^T A
    with relative zero cutoff 1e-10."""
    gram = _gram_spectrum(np.asarray(a, dtype=float))
    if gram is None:
        raise ZeroMatrix("matrix is zero; no nonzero singular value exists")
    w, _, nonzero = gram
    return 1.0 / float(np.sqrt(w[nonzero][-1]))


def distance_to_solutions(a, b, x) -> float:
    """Exact distance from x to {y : A y = b} for a consistent system,
    via the normal equations: the minimum-norm correction is the
    pseudo-inverse solve of A^T A delta = A^T (A x - b), computed from the
    eigendecomposition of A^T A."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    gram = _gram_spectrum(a)
    if gram is None:
        return 0.0
    w, v, nonzero = gram
    inv = np.where(nonzero, 1.0 / np.where(w > 0, w, 1.0), 0.0)
    rhs = a.T @ (a @ x - b)
    delta = v @ (inv * (v.T @ rhs))
    return float(np.linalg.norm(delta))


def fd_gradient(oracle: Oracle, x, h: float) -> np.ndarray:
    """Central finite differences (f(x + h e_i) - f(x - h e_i)) / (2h)."""
    _positive("h", h)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[i] = h
        out[i] = (oracle.evaluate(x + e).value - oracle.evaluate(x - e).value) / (2.0 * h)
    return out


def brute_feasibility(p: LmiProblem, box, grid: int):
    """Minimize the non-smooth objective over a full grid (m <= 2 only).

    box is one (lo, hi) interval per variable; grid is the number of points
    per axis. Returns (best_point, best_value) with ties broken by grid
    order. Independent of the solvers; used to cross-check their output on
    tiny instances.
    """
    if p.num_vars > 2:
        raise InvalidParameter("grid search is limited to problems with at most 2 variables")
    if not isinstance(grid, (int, np.integer)) or grid < 2:
        raise InvalidParameter(f"grid must be an integer >= 2, got {grid!r}")
    intervals = [(float(lo), float(hi)) for lo, hi in box]
    if len(intervals) != p.num_vars:
        raise InvalidParameter(f"box must list one interval per variable ({p.num_vars})")
    axes = [np.linspace(lo, hi, int(grid)) for lo, hi in intervals]
    best_point = None
    best_value = np.inf
    if p.num_vars == 1:
        candidates = ([u] for u in axes[0])
    else:
        candidates = ([u, v] for u in axes[0] for v in axes[1])
    for cand in candidates:
        point = np.array(cand)
        value = eval_nonsmooth(p, point).value
        if value < best_value:
            best_point, best_value = point, value
    return best_point, float(best_value)
