"""Certified benchmark inputs and the independent checks of solver output.

This module uses numpy only and never imports lmisolve: every instance is
built from raw arrays whose feasibility evidence (a Slater certificate, a
complementary primal-dual witness, or an exactly known singular spectrum)
holds by construction and is re-checked here before any timing starts. The
same raw arrays then judge each solver's answer.

Each generator draws from its own numpy stream, keyed by the workload, the
benchmark seed and the instance index within a workload run, so equal seeds
give byte-identical inputs. The SDP and linear-system generators draw only a
rotation from the seed and the rest from a stream keyed by the index alone,
so their work is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack when re-evaluating a solver's objective from raw arrays: the
# solver stops at value <= eps, and an eigenvalue-based recomputation of the
# same quantity may differ from it in the last few digits.
CHECK_RTOL = 1e-6


def _rng(stream: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed, index])


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _positive_part_sq(mat: np.ndarray) -> float:
    """Squared Frobenius norm of the positive-semidefinite part of a symmetric matrix."""
    w = np.linalg.eigvalsh(mat)
    return float(np.sum(np.maximum(w, 0.0) ** 2))


# ---------------------------------------------------------------------------
# lmi-dense: one dense LMI with a thin Slater margin


@dataclass(frozen=True, eq=False)
class LmiInstance:
    """A(x) - B <= 0 with coefficients a[i], rhs b and certificate (d, sigma)."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    sigma: float

    def residual(self, x) -> np.ndarray:
        return np.tensordot(np.asarray(x, dtype=float), self.a, axes=1) - self.b

    def top_eig(self, x) -> float:
        """lambda_max(A(x) - B): the non-smooth objective before clipping at 0."""
        return float(np.linalg.eigvalsh(self.residual(x))[-1])

    def dist_sq(self, x) -> float:
        """Squared distance of A(x) - B to the negative-semidefinite cone."""
        return _positive_part_sq(self.residual(x))


def build_lmi(seed: int, index: int = 0, n: int = 300, m: int = 20, sigma: float = 0.05,
              dnorm: float = 3.0) -> LmiInstance:
    """Random symmetric A_i (entries uniform in +-1/sqrt(n)) and
    B = A(d) + sigma I + Q with Q = R^T R scaled to ||Q||_F = sigma, so
    lambda_max(A(d) - B) = -sigma - lambda_min(Q) <= -sigma. There is no
    identity shift, so the origin is infeasible and the feasible set is far
    from a halfspace."""
    rng = _rng(1, seed, index)
    a = _sym(rng.uniform(-1.0, 1.0, (m, n, n)) / np.sqrt(n))
    d = rng.standard_normal(m)
    d *= dnorm / np.linalg.norm(d)
    r = rng.standard_normal((n, n))
    q = r.T @ r
    q *= sigma / np.linalg.norm(q)
    b = np.tensordot(d, a, axes=1) + sigma * np.eye(n) + q
    return LmiInstance(a, _sym(b), d, sigma)


def validate_lmi(inst: LmiInstance) -> None:
    top = inst.top_eig(inst.d)
    if not top <= -inst.sigma + 1e-9:
        raise ValueError(f"Slater certificate fails: lambda_max(A(d) - B) = {top}")
    if not inst.top_eig(np.zeros(inst.a.shape[0])) > 0.0:
        raise ValueError("origin is already feasible; the workload would do no work")


# ---------------------------------------------------------------------------
# sdp-pd: an SDP pair with a strictly complementary primal-dual solution


@dataclass(frozen=True, eq=False)
class SdpInstance:
    """min <c, x> s.t. A(x) <= B, with a primal-dual solution (x_star, Y)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray

    def split(self, z):
        """Reduction variables (x, upper triangle of Y row-major) -> (x, Y)."""
        z = np.asarray(z, dtype=float)
        m, n = self.a.shape[0], self.b.shape[0]
        upper = np.zeros((n, n))
        upper[np.triu_indices(n)] = z[m:]
        return z[:m], upper + np.triu(upper, 1).T

    def witness(self) -> np.ndarray:
        n = self.b.shape[0]
        return np.concatenate([self.x_star, self.y_star[np.triu_indices(n)]])

    def linear_residual(self, z) -> np.ndarray:
        """<A_i, Y> - c_i: the dual equality rows."""
        _, y = self.split(z)
        return np.einsum("ijk,jk->i", self.a, y) - self.c

    def dist_sq(self, z) -> float:
        """Squared cone distance of the primal-dual reduction at z: the
        positive parts of A(x) - B, of Y, of the duality gap, and both signs
        of the dual equality rows."""
        x, y = self.split(z)
        gap = float(self.c @ x - np.sum(self.b * y))
        lin = self.linear_residual(z)
        return (
            _positive_part_sq(np.tensordot(x, self.a, axes=1) - self.b)
            + _positive_part_sq(y)
            + float(lin @ lin)
            + max(gap, 0.0) ** 2
        )


def build_sdp(seed: int, index: int = 0, n: int = 20, m: int = 20) -> SdpInstance:
    """S >= 0 and Y <= 0 share one random eigenbasis with complementary
    supports (fixed spectra 0.5..1.5), so SY = 0; then B = A(x*) + S and
    c_i = <A_i, Y> give a zero duality gap. The A_i are orthonormalized in
    the Frobenius inner product (scaled by sqrt(n)/2).

    This base pair depends on `index` alone. The seed draws an orthogonal V
    that rotates it (A_i, B and Y to V . V^T; c and the duality gap are
    unchanged), so every seed poses the same pair in other coordinates.
    solve_smooth's iteration count then varies by under 1% between seeds;
    over independently drawn pairs it varies by about 5%."""
    rng = np.random.default_rng([2, index])
    raw = _sym(rng.standard_normal((m, n, n)))
    basis, _ = np.linalg.qr(raw.reshape(m, n * n).T)
    a = _sym(basis.T.reshape(m, n, n) * (np.sqrt(n) / 2.0))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r = n // 2
    s = np.concatenate([np.linspace(0.5, 1.5, r), np.zeros(n - r)])
    yv = np.concatenate([np.zeros(r), -np.linspace(0.5, 1.5, n - r)])
    x_star = rng.standard_normal(m)
    x_star *= np.sqrt(m) / np.linalg.norm(x_star)
    v, _ = np.linalg.qr(_rng(2, seed, index).standard_normal((n, n)))
    u = v @ u
    a = _sym(np.einsum("ij,kjl,ml->kim", v, a, v))
    s_mat = _sym((u * s) @ u.T)
    y_mat = _sym((u * yv) @ u.T)
    b = _sym(np.tensordot(x_star, a, axes=1) + s_mat)
    c = np.einsum("ijk,jk->i", a, y_mat)
    return SdpInstance(a, b, c, x_star, y_mat)


def validate_sdp(inst: SdpInstance) -> None:
    z = inst.witness()
    x, y = inst.split(z)
    slack = inst.b - np.tensordot(x, inst.a, axes=1)
    if not np.linalg.eigvalsh(slack)[0] >= -1e-12:
        raise ValueError("primal witness is infeasible")
    if not np.linalg.eigvalsh(y)[-1] <= 1e-12:
        raise ValueError("dual witness is not negative semidefinite")
    if not np.abs(slack @ y).max() <= 1e-12:
        raise ValueError("witness is not complementary")
    value = inst.dist_sq(z)
    if not value <= 1e-20:
        raise ValueError(f"witness has reduction objective {value}, expected 0")
    if not inst.dist_sq(np.zeros_like(z)) > 0.0:
        raise ValueError("origin already solves the reduction")


# ---------------------------------------------------------------------------
# linear systems solved through the CLI (part of sdp-pd): an ill-conditioned
# square equality system


@dataclass(frozen=True, eq=False)
class LinsysInstance:
    """A x = b with exactly known smallest singular value s_min."""

    a: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    s_min: float


def build_linsys(seed: int, index: int = 0, n: int = 100, top: float = 20.0,
                 cond: float = 300.0) -> LinsysInstance:
    """A = U diag(s) V^T with random orthogonal U, V and s geometric from top
    down to top / cond, b = A x* for x* = V w. The Hoffman constant 1 / s_min
    is fixed by construction; with a uniformly random square A it would be
    heavy-tailed over seeds, and so would the iteration count.

    w (uniform in [-1, 1)) depends on `index` alone and the seed draws U and
    V. The objective 0.5 ||Ax - b||^2 and its accelerated gradient method are
    invariant under these rotations, so every seed poses the same system in
    other coordinates and takes the same number of iterations; with x* drawn
    per seed the count of four 300 x 300 systems of cond 1000 varied by 8%
    between seeds."""
    rng = _rng(3, seed, index)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = top * np.geomspace(1.0, 1.0 / cond, n)
    a = (u * s) @ v.T
    x_star = v @ np.random.default_rng([3, index]).uniform(-1.0, 1.0, n)
    return LinsysInstance(a, a @ x_star, x_star, float(s[-1]))


def validate_linsys(inst: LinsysInstance) -> None:
    s_min = float(np.linalg.svd(inst.a, compute_uv=False)[-1])
    if not abs(s_min - inst.s_min) <= 1e-6 * inst.s_min:
        raise ValueError(f"smallest singular value {s_min}, built as {inst.s_min}")
    res = float(np.linalg.norm(inst.a @ inst.x_star - inst.b))
    if not res <= 1e-9 * float(np.linalg.norm(inst.b)):
        raise ValueError(f"witness residual {res}")
