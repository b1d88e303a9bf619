"""LMI data model: operator maps, constants, certificates, reductions."""

import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmisolve import (
    DimensionMismatch,
    InvalidParameter,
    LinIneqSystem,
    LmiProblem,
    NonFiniteInput,
    SdpPair,
    SlaterCertificate,
    SymMatrix,
    adjoint_apply,
    apply_operator,
    constants,
    eval_nonsmooth,
    eval_smooth,
    gen_lmi,
    mu_of,
    norms,
    reduce_primal_dual,
    residual_map,
    serialize_lmi,
    stack,
    validate_certificate,
)
from lmisolve import model
from lmisolve.model import _adjoint, _residuals


def one_d_problem(a=1.0, b=0.0):
    return LmiProblem([SymMatrix([[a]])], SymMatrix([[b]]))


def diag_pair_problem():
    return LmiProblem(
        [SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0]))],
        SymMatrix(np.zeros((2, 2))),
    )


class TestLmiProblem:
    def test_shapes(self):
        p = diag_pair_problem()
        assert p.num_vars == 2
        assert p.dim == 2
        assert len(p.coeffs) == 2

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameter):
            LmiProblem([], SymMatrix([[0.0]]))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            LmiProblem([SymMatrix(np.eye(2))], SymMatrix([[0.0]]))
        with pytest.raises(DimensionMismatch):
            LmiProblem([SymMatrix(np.eye(2)), SymMatrix([[1.0]])], SymMatrix(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            LmiProblem([np.eye(2), np.ones((2, 3))], np.eye(2))

    def test_rejects_nonfinite_coefficient(self):
        # the entry below the diagonal is read too, through its mirror image
        for bad in ([[1.0, 0.0], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(NonFiniteInput):
                LmiProblem([np.eye(2), bad], np.eye(2))

    def test_huge_symmetric_coefficient_accepted(self):
        # finite entries whose sum A + A^T overflows keep their value
        a = np.full((2, 2), 1.5e308)
        p = LmiProblem([np.eye(2), a], np.zeros((2, 2)))
        np.testing.assert_array_equal(p.coeffs[1].mat, a)
        np.testing.assert_array_equal(p.coeffs[0].mat, np.eye(2))
        with pytest.raises(NonFiniteInput, match="operator constants overflow"):
            constants(p)
        q = LmiProblem([[[0.0, 1.5e308], [1.7e308, 0.0]]], np.zeros((2, 2)))
        assert q.coeffs[0].mat[0, 1] == q.coeffs[0].mat[1, 0] == 1.6e308
        for bad in ([[np.inf, 1e308], [1e308, 0.0]], [[0.0, np.inf], [-np.inf, 0.0]]):
            with pytest.raises(NonFiniteInput, match="coefficient matrix contains NaN or Inf"):
                LmiProblem([a, bad], np.zeros((2, 2)))

    def test_overflow_path_is_symmatrix(self):
        # a coefficient with an overflowing pair takes SymMatrix's result for
        # every entry: the subnormal pairs keep 0.5 (A + A^T), whose bits
        # 0.5 A + 0.5 A^T would change (5e-324 + 5e-324 halves to 5e-324,
        # each half alone rounds to 0)
        a = np.array([[1.0, 1.5e308, 5e-324, 0.25],
                      [1.7e308, -2.0, 3e-320, 5e-324],
                      [5e-324, -1e-320, 3.0, 1.0],
                      [0.5, 5e-324, 1.0, 1e-300]])
        coeffs = [a, np.eye(4), a.T]
        p = LmiProblem(coeffs, np.zeros((4, 4)))
        for got, want in zip(p.coeffs, coeffs):
            assert got.mat.tobytes() == SymMatrix(want).mat.tobytes()
        assert p.coeffs[0].mat[0, 1] == 1.6e308 and p.coeffs[0].mat[0, 2] == 5e-324
        with pytest.raises(NonFiniteInput, match="^coefficient matrix contains NaN or Inf entries$"):
            LmiProblem([a, [[np.nan] * 4] * 4], np.zeros((4, 4)))

    def test_equality(self):
        assert one_d_problem() == one_d_problem()
        assert one_d_problem() != one_d_problem(a=2.0)


class TestCertificate:
    def test_margin_positive(self):
        with pytest.raises(InvalidParameter):
            SlaterCertificate([1.0], 0.0)
        with pytest.raises(InvalidParameter):
            SlaterCertificate([1.0], -1.0)

    def test_rejects_nonfinite_point(self):
        with pytest.raises(NonFiniteInput):
            SlaterCertificate([np.nan], 1.0)

    def test_point_shapes(self):
        # a scalar is a point with one variable; a matrix is no point
        np.testing.assert_array_equal(SlaterCertificate(2.0, 1.0).point, [2.0])
        with pytest.raises(DimensionMismatch, match="vector"):
            SlaterCertificate([[1.0, 2.0]], 1.0)

    def test_mu_examples(self):
        assert mu_of(SlaterCertificate([-1.0], 1.0)) == pytest.approx(1.0)
        assert mu_of(SlaterCertificate([3.0, 4.0], 2.0)) == pytest.approx(2.5)
        assert mu_of(SlaterCertificate([0.0], 1.0)) == 0.0
        # squaring these entries overflows or underflows; under the
        # error::RuntimeWarning filter an overflow warning would raise
        for point, want in (([-1e200], 1e200), ([3e200, 4e200], 5e200),
                            ([3e-200, -4e-200], 5e-200), ([1e308, 1e308], math.sqrt(2.0) * 1e308),
                            ([5e-324, 0.0], 5e-324)):
            assert mu_of(SlaterCertificate(point, 2.0)) == pytest.approx(want / 2.0, rel=1e-15)
        # only a quotient above the largest float is inf
        assert mu_of(SlaterCertificate([1e154], 1e-160)) == math.inf

    def test_mu_bits_unchanged_on_ordinary_points(self):
        rng = np.random.default_rng(6)
        for scale in (1e-90, 1e-3, 1.0, 1e90):
            d = scale * rng.standard_normal(7)
            assert mu_of(SlaterCertificate(d, 0.3)) == float(np.linalg.norm(d)) / 0.3
        inst = gen_lmi(30, 6, 1.0, 2)
        d = inst.certificate.point
        assert mu_of(inst.certificate) == float(np.linalg.norm(d)) / inst.certificate.margin

    def test_validate_on_generated(self):
        inst = gen_lmi(4, 3, 1.0, 11)
        assert validate_certificate(inst.problem, inst.certificate)
        inflated = SlaterCertificate(inst.certificate.point, inst.certificate.margin * 100.0)
        assert not validate_certificate(inst.problem, inflated)

    def test_validate_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_certificate(one_d_problem(), SlaterCertificate([1.0, 2.0], 1.0))


def scalar_row(p, d, value):
    """A 1 x 1 problem over p's variables whose row reads `value` at d."""
    coeffs = [SymMatrix([[float(k % 3) - 1.0]]) for k in range(p.num_vars)]
    at_d = float(sum(c.mat[0, 0] * v for c, v in zip(coeffs, d)))
    return LmiProblem(coeffs, SymMatrix([[at_d - value]]))


def eig_reference(p, cert, tol):
    """lambda_max(A(d) - B) < -sigma + tol, from the dense matrix's eigvalsh."""
    resid = apply_operator(p, cert.point).mat - p.rhs.mat
    return bool(np.linalg.eigvalsh(resid)[-1] < -cert.margin + tol)


class TestCertificateCheck:
    """validate_certificate factors (tol - sigma) I - (A(d) - B) per block
    and computes no eigenvalues; its inequality is strict."""

    def test_agrees_with_eigvalsh_reference(self):
        cases = agree = 0
        for seed in range(10):
            for n in (3, 8, 20, 40):
                inst = gen_lmi(n, 4, 1.0, seed)
                d, sigma = inst.certificate.point, inst.certificate.margin
                # the row decides for odd seeds, the block for even ones
                row = scalar_row(inst.problem, d, -sigma * (0.75 if seed % 2 else 1.5))
                for p in (inst.problem, stack([inst.problem, row])):
                    for factor in (1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0):
                        cert = SlaterCertificate(d, sigma * factor)
                        for tol in (0.0, 1e-9):
                            cases += 1
                            agree += validate_certificate(p, cert, tol) == eig_reference(
                                p, cert, tol)
        assert (cases, agree) == (640, 640)

    @pytest.mark.parametrize("n", [1, 3])
    def test_exact_boundary_is_rejected(self, n):
        # A(0) - B = -sigma I exactly, so lambda_max = -sigma + tol at tol 0
        sigma = 0.5
        p = LmiProblem([np.eye(n)], sigma * np.eye(n))
        cert = SlaterCertificate([0.0], sigma)
        assert not validate_certificate(p, cert, tol=0.0)
        assert validate_certificate(p, cert, tol=1e-9)
        assert validate_certificate(p, cert)

    def test_all_scalar_problem(self):
        # x_1 - 2 x_2 <= 1: at d = (1, 1) the row reads -2
        p = LmiProblem([[[1.0]], [[-2.0]]], [[1.0]])
        assert validate_certificate(p, SlaterCertificate([1.0, 1.0], 1.5))
        assert not validate_certificate(p, SlaterCertificate([1.0, 1.0], 2.0), tol=0.0)
        assert not validate_certificate(p, SlaterCertificate([1.0, 1.0], 2.5))

    def test_block_stacked_with_scalar_rows(self):
        block = LmiProblem([np.diag([1.0, 2.0]), np.eye(2)], np.eye(2))
        d = np.array([-1.0, 0.0])  # the block reads diag(-2, -3) at d
        for first, second, ok in ((-2.5, -4.0, True), (-3.0, -1.0, False),
                                  (-1.0, -3.0, False)):
            p = stack([scalar_row(block, d, first), block, scalar_row(block, d, second)])
            # the 1 x 1 rows read `first` and `second`, the block's top is -2,
            # so at margin 2.1 the block fails whatever the rows read
            assert p._scalars.rows.tolist() == [0, 3]
            assert validate_certificate(p, SlaterCertificate(d, 1.9)) is ok
            assert validate_certificate(p, SlaterCertificate(d, 2.1)) is False

    def test_factored_matrix_not_positive_definite_is_false(self):
        inst = gen_lmi(20, 4, 1.0, 3)
        p, d = inst.problem, inst.certificate.point
        w = np.linalg.eigvalsh(apply_operator(p, d).mat - p.rhs.mat)
        middle = -0.5 * (w[0] + w[-1])
        # -middle + tol splits the spectrum, so the factored matrix is
        # indefinite; at margin 1000 it is negative definite
        assert w[0] < -middle + 1e-9 < w[-1]
        for margin in (middle, 1000.0):
            assert validate_certificate(p, SlaterCertificate(d, margin)) is False

    def test_computes_no_eigenvalues(self, monkeypatch):
        inst = gen_lmi(40, 4, 1.0, 5)
        p = stack([inst.problem, scalar_row(inst.problem, inst.certificate.point, -2.0)])

        def refuse(*args, **kwargs):
            raise AssertionError("validate_certificate computed eigenvalues")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert validate_certificate(p, inst.certificate)
        inflated = SlaterCertificate(inst.certificate.point, inst.certificate.margin * 100.0)
        assert not validate_certificate(p, inflated)


class TestOperator:
    def test_apply_scalar(self):
        out = apply_operator(one_d_problem(), [3.0])
        np.testing.assert_allclose(out.mat, [[3.0]])

    def test_apply_zero(self):
        out = apply_operator(diag_pair_problem(), [0.0, 0.0])
        np.testing.assert_allclose(out.mat, np.zeros((2, 2)))

    def test_apply_basis(self):
        out = apply_operator(diag_pair_problem(), [2.0, -5.0])
        np.testing.assert_allclose(out.mat, np.diag([2.0, -5.0]))

    def test_apply_overflow_raises(self):
        # x and the coefficients are finite, A(x) = 1e310 is not
        with pytest.raises(NonFiniteInput, match="matrix contains NaN or Inf"):
            apply_operator(LmiProblem([np.full((2, 2), 1e300)], np.zeros((2, 2))), [1e10])

    def test_apply_dim_check(self):
        with pytest.raises(DimensionMismatch):
            apply_operator(one_d_problem(), [1.0, 2.0])

    def test_adjoint_examples(self):
        p = LmiProblem([SymMatrix(np.diag([1.0, 0.0]))], SymMatrix(np.zeros((2, 2))))
        np.testing.assert_allclose(adjoint_apply(p, SymMatrix([[2.0, 3.0], [3.0, 4.0]])), [2.0])
        np.testing.assert_allclose(adjoint_apply(p, SymMatrix(np.zeros((2, 2)))), [0.0])
        q = LmiProblem([SymMatrix([[0.0, 1.0], [1.0, 0.0]])], SymMatrix(np.zeros((2, 2))))
        np.testing.assert_allclose(adjoint_apply(q, SymMatrix([[0.0, 1.0], [1.0, 0.0]])), [2.0])

    def test_adjoint_input_checks(self):
        p = diag_pair_problem()
        z = np.array([[2.0, 3.0], [3.0, 4.0]])
        np.testing.assert_array_equal(adjoint_apply(p, z), adjoint_apply(p, SymMatrix(z)))
        with pytest.raises(DimensionMismatch, match="Z has dimension 3, problem has 2"):
            adjoint_apply(p, np.eye(3))

    def test_adjoint_overflow_raises(self):
        # <A_1, Z> = 4e310 for a finite Z
        p = LmiProblem([np.full((2, 2), 1e300)], np.zeros((2, 2)))
        with pytest.raises(NonFiniteInput, match=r"A\^T\(Z\) contains NaN or Inf"):
            adjoint_apply(p, np.full((2, 2), 1e10))

    def test_adjoint_identity(self):
        # <A(x), Z> = <x, A*(Z)> for random x, Z
        rng = np.random.default_rng(404)
        for seed in (1, 2, 3):
            inst = gen_lmi(5, 4, 1.0, seed)
            p = inst.problem
            for _ in range(20):
                x = rng.normal(size=p.num_vars)
                z = SymMatrix(rng.normal(size=(p.dim, p.dim)))
                lhs = float(np.sum(apply_operator(p, x).mat * z.mat))
                rhs = float(x @ adjoint_apply(p, z))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestConstants:
    def test_scalar(self):
        c = constants(one_d_problem())
        assert c.subgrad_bound == pytest.approx(1.0)
        assert c.opnorm == pytest.approx(1.0)
        assert c.grad_lipschitz == pytest.approx(2.0)

    def test_identity_coeff(self):
        p = LmiProblem([SymMatrix(np.eye(2))], SymMatrix(np.zeros((2, 2))))
        c = constants(p)
        assert c.subgrad_bound == pytest.approx(1.0)
        assert c.opnorm == pytest.approx(math.sqrt(2.0))
        assert c.grad_lipschitz == pytest.approx(4.0)

    def test_diag_pair(self):
        # ||A(x)||_F = ||diag(x)||_F = ||x||, so ||A|| = 1, below the
        # Frobenius sum sqrt(2); M = min(sqrt(2), ||A||)
        c = constants(diag_pair_problem())
        assert c.subgrad_bound == 1.0
        assert c.opnorm == 1.0
        assert c.grad_lipschitz == 2.0

    def test_overflow_raises(self):
        # ||A_1||_F^2 = 4e400 overflows although every entry is finite
        p = LmiProblem([np.full((2, 2), 1e200)], np.zeros((2, 2)))
        for _ in range(2):  # a failed call keeps nothing
            with pytest.raises(NonFiniteInput, match="operator constants overflow"):
                constants(p)
        # the all-v 2 x 2 matrix has ||A|| = ||A_1||_F = 2v and L = 8 v^2:
        # finite at v = 1e150; at v = 5e153, ||A_1||_F^2 = 1e308 is finite
        # but L = 2e308 is not, and from about 6e153 up the Gram matrix
        # itself overflows. Each raises before any eigenvalue of G is
        # computed: no LinAlgError, and no RuntimeWarning (an error under
        # the tier-1 warning filter)
        c = constants(LmiProblem([np.full((2, 2), 1e150)], np.zeros((2, 2))))
        assert all(math.isfinite(v) for v in c)
        assert c.opnorm == pytest.approx(2e150, rel=1e-12)
        for v in (5e153, 6e153, 1e154, 1e160, 1e300):
            p = LmiProblem([np.full((2, 2), v), np.eye(2)], np.zeros((2, 2)))
            with pytest.raises(NonFiniteInput, match="operator constants overflow"):
                constants(p)

    def test_ordering(self):
        # spectral <= Frobenius per coefficient, so M <= opnorm and L = 2 opnorm^2
        for seed in range(5):
            inst = gen_lmi(6, 3, 1.0, 100 + seed)
            c = constants(inst.problem)
            assert c.subgrad_bound <= c.opnorm + 1e-12
            assert c.grad_lipschitz == pytest.approx(2.0 * c.opnorm**2)


def dense_bound(p):
    """M as a dense problem's constants always computed it: the spectral
    norms of the dense A_i from `norms`, summed in variable order, capped
    at ||A||."""
    total = 0.0
    for a in p.coeffs:
        s = norms(a)[1]
        total += s * s
    return min(float(np.sqrt(total)), constants(p).opnorm)


class TestSpectralNormThreads:
    """M's per-coefficient spectral norms: each dense block takes them from
    `dsyevd`, its second half of coefficients on one more thread, and
    every path gives M the same bits."""

    @staticmethod
    def started_threads(monkeypatch, inline=False):
        """Return the list of threads `_block_norms` starts; with inline,
        each runs its share on the calling thread when started."""
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                if inline:
                    self.run()
                else:
                    super().start()

            def join(self, timeout=None):
                if not inline:
                    super().join(timeout)

        monkeypatch.setattr(model, "threading", SimpleNamespace(Thread=Recorded))
        return started

    def bounds(self, monkeypatch, build):
        """M of a fresh build() with two threads, on the calling thread
        alone, and with the dsyevd binding missing, and the number of
        threads each started."""
        out = []
        for inline, binding in ((False, True), (True, True), (False, False)):
            started = self.started_threads(monkeypatch, inline)
            if not binding:
                monkeypatch.setattr(model, "_dsyevd", lambda: None)
            out.append((constants(build()).subgrad_bound, len(started)))
        return out

    def test_odd_count_same_bits(self, monkeypatch):
        # m = 7 splits 3 + 4
        def build():
            return random_problem(np.random.default_rng(7), 40, 7)

        have = int(model._dsyevd() is not None)
        (two, started), (one, inlined), (fallback, none) = self.bounds(monkeypatch, build)
        assert (started, inlined, none) == (have, have, 0)
        assert two == one == fallback == dense_bound(build())
        # the bound is below the cap ||A||, so it is the sum itself
        assert two < constants(build()).opnorm

    def test_stacked_blocks_and_rows_same_bits(self, monkeypatch):
        def build():
            rng = np.random.default_rng(8)
            rows = LmiProblem([[[v]] for v in rng.standard_normal(5)], [[0.0]])
            return stack([random_problem(rng, 40, 5), rows, random_problem(rng, 33, 5),
                          random_problem(rng, 3, 5)])

        have = int(model._dsyevd() is not None)
        (two, started), (one, inlined), (fallback, none) = self.bounds(monkeypatch, build)
        assert (started, inlined, none) == (3 * have, 3 * have, 0)
        assert two == one == fallback == dense_bound(build())

    def test_no_thread_outlives_constants(self, monkeypatch):
        started = self.started_threads(monkeypatch)
        before = threading.active_count()
        constants(random_problem(np.random.default_rng(9), 40, 3))
        assert threading.active_count() == before
        # the fourth coefficient, in the worker's half, has the eigenvalue
        # 40e307, beyond the float range
        coeffs = [a.mat for a in random_problem(np.random.default_rng(9), 40, 3).coeffs]
        p = LmiProblem([*coeffs, np.full((40, 40), 1e307)], np.zeros((40, 40)))
        with pytest.raises(NonFiniteInput, match="operator constants overflow"):
            constants(p)
        assert threading.active_count() == before
        # M's own check raises, not only the Gram matrix's after it
        with pytest.raises(NonFiniteInput, match="operator constants overflow"):
            model._spectral_bound(p)
        assert threading.active_count() == before
        assert len(started) == 3 * int(model._dsyevd() is not None)
        assert not any(t.is_alive() for t in started)

    def test_concurrent_callers_same_bits(self):
        # four callers at once, each with its own worker, on two CPUs and a
        # short switch interval: every M keeps the one-thread bits
        want = [dense_bound(random_problem(np.random.default_rng(s), 40, 5)) for s in range(4)]
        got = [None] * 4

        def call(s):
            got[s] = constants(random_problem(np.random.default_rng(s), 40, 5)).subgrad_bound

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(s,)) for s in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want


class TestStack:
    def test_interval_feasible_set(self):
        # x <= 0 and -x <= 1, stacked: feasible exactly on [-1, 0]
        left = one_d_problem(a=1.0, b=0.0)
        right = one_d_problem(a=-1.0, b=1.0)
        both = stack([left, right])
        assert both.dim == 2
        assert both.num_vars == 1
        assert eval_nonsmooth(both, [-0.5]).value == 0.0
        assert eval_nonsmooth(both, [0.5]).value > 0.4
        assert eval_nonsmooth(both, [-1.5]).value > 0.4

    def test_single_identity(self):
        p = one_d_problem()
        assert stack([p]) is p

    def test_copies_leave_objective_unchanged(self):
        inst = gen_lmi(3, 2, 1.0, 9)
        p = inst.problem
        tripled = stack([p, p, p])
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.normal(size=p.num_vars)
            assert eval_nonsmooth(tripled, x).value == pytest.approx(
                eval_nonsmooth(p, x).value, abs=1e-12
            )

    def test_blockwise_top_eigenvalue(self):
        a = gen_lmi(3, 2, 1.0, 21).problem
        b = gen_lmi(4, 2, 0.5, 22).problem
        joint = stack([a, b])
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = rng.normal(size=2)
            tops = []
            for p in (a, b):
                resid = apply_operator(p, x).mat - p.rhs.mat
                tops.append(float(np.max(np.linalg.eigvalsh(resid))))
            joint_resid = apply_operator(joint, x).mat - joint.rhs.mat
            assert float(np.max(np.linalg.eigvalsh(joint_resid))) == pytest.approx(
                max(tops), abs=1e-10
            )

    def test_var_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            stack([one_d_problem(), diag_pair_problem()])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter):
            stack([])


class TestReducePrimalDual:
    def test_dimension_accounting(self):
        pair = SdpPair(
            [1.0, 0.0, 0.0],
            [SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0]))],
            SymMatrix(np.eye(2)),
        )
        reduced = reduce_primal_dual(pair)
        assert reduced.num_vars == 6
        assert reduced.dim == 11

    def test_infeasible_complementarity(self):
        # x <= 1, dual y must equal c = 1 yet stay <= 0: system infeasible
        pair = SdpPair([1.0], [SymMatrix([[1.0]])], SymMatrix([[1.0]]))
        reduced = reduce_primal_dual(pair)
        grid = np.linspace(-2.0, 2.0, 9)
        for x in grid:
            for y in grid:
                assert eval_nonsmooth(reduced, [x, y]).value > 0.4

    def test_feasible_complementarity(self):
        # x <= 0 with c = -1: (x, y) = (0, -1) satisfies every block
        pair = SdpPair([-1.0], [SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        reduced = reduce_primal_dual(pair)
        assert reduced.num_vars == 2
        assert reduced.dim == 5
        assert eval_nonsmooth(reduced, [0.0, -1.0]).value == 0.0
        assert eval_nonsmooth(reduced, [0.5, -1.0]).value > 0.4

    def test_objective_length_checked(self):
        with pytest.raises(DimensionMismatch):
            SdpPair([1.0, 2.0], [SymMatrix([[1.0]])], SymMatrix([[0.0]]))

    @pytest.mark.parametrize("where", ["rhs", "coefficient"])
    def test_overflowing_y_coefficient_raises(self, where):
        # the data are finite, but y_12 enters <B, y> (or <A_1, y>) with
        # weight 2, and 2 * 1.5e308 overflows
        big = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
        coeff, rhs = (np.eye(2), big) if where == "rhs" else (big, np.eye(2))
        with pytest.raises(NonFiniteInput, match="primal-dual reduction overflows"):
            reduce_primal_dual(SdpPair([1.0], [coeff], rhs))

    def test_y_block_maps_built_once(self, monkeypatch):
        pair = random_pair(np.random.default_rng(8), 20, 3)
        sym_maps = model._sym_maps
        calls = []

        def counted(n):
            calls.append(n)
            return sym_maps(n)

        monkeypatch.setattr(model, "_sym_maps", counted)
        reduced = reduce_primal_dual(pair)
        assert calls == [20]
        # stack shares the maps instead of building them again
        joint = stack([reduced, reduced])
        assert calls == [20]
        assert joint._blocks[1].sym is reduced._blocks[1].sym
        assert joint._blocks[3].sym is reduced._blocks[1].sym


class TestLinIneqSystem:
    def test_fields(self):
        sys_ = LinIneqSystem([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], ["le", "eq"])
        assert sys_.num_rows == 2
        assert sys_.num_vars == 2
        np.testing.assert_array_equal(sys_.eq_mask, [False, True])

    def test_bad_kind(self):
        with pytest.raises(InvalidParameter):
            LinIneqSystem([[1.0]], [0.0], ["ge"])

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            LinIneqSystem([[1.0]], [0.0, 1.0], ["le"])
        with pytest.raises(DimensionMismatch):
            LinIneqSystem([[1.0]], [0.0], ["le", "eq"])
        with pytest.raises(DimensionMismatch, match="p x q matrix"):
            LinIneqSystem([1.0, 2.0], [0.0], ["le"])
        with pytest.raises(InvalidParameter, match="at least one row"):
            LinIneqSystem(np.zeros((0, 2)), [], [])

    def test_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            LinIneqSystem([[np.inf]], [0.0], ["le"])

    def test_residual_map_examples(self):
        sys_ = LinIneqSystem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], ["le", "eq"])
        np.testing.assert_allclose(residual_map(sys_, [-3.0, 2.0]), [0.0, 2.0])
        np.testing.assert_allclose(residual_map(sys_, [0.0, 0.0]), [0.0, 0.0])
        both_le = LinIneqSystem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], ["le", "le"])
        np.testing.assert_allclose(residual_map(both_le, [1.0, -1.0]), [1.0, 0.0])

    def test_residual_map_bits(self):
        # the reference keeps "eq" rows and clips "le" rows at 0, bit for
        # bit: signed zeros, NaN and infinities included
        y = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, -5e-324, 1.5, -2.5])
        for kinds in (["le"] * 8, ["eq"] * 8, ["le", "eq"] * 4, ["eq", "le"] * 4):
            sys_ = LinIneqSystem(np.ones((8, 1)), np.zeros(8), kinds)
            want = np.where(sys_.eq_mask, y, np.maximum(y, 0.0))
            assert model._clip(sys_, y).tobytes() == want.tobytes()

    def test_residual_map_dim_check(self):
        sys_ = LinIneqSystem([[1.0]], [0.0], ["le"])
        with pytest.raises(DimensionMismatch):
            residual_map(sys_, [1.0, 2.0])


# ---------------------------------------------------------------------------
# Block layout of stacked and reduced problems


def dense_stack(problems):
    """Dense coefficients and rhs of stack(problems), built entry by entry."""
    m = problems[0].num_vars
    dims = [p.dim for p in problems]
    total = sum(dims)
    offsets = np.cumsum([0] + dims[:-1])
    coeffs = []
    for i in range(m):
        big = np.zeros((total, total))
        for p, o in zip(problems, offsets):
            big[o:o + p.dim, o:o + p.dim] = p.coeffs[i].mat
        coeffs.append(big)
    rhs = np.zeros((total, total))
    for p, o in zip(problems, offsets):
        rhs[o:o + p.dim, o:o + p.dim] = p.rhs.mat
    return coeffs, rhs


def dense_reduction(pair):
    """Dense coefficients and rhs of reduce_primal_dual(pair), built entry by entry."""
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
    return coeffs, rhs


def random_problem(rng, n, m):
    a = rng.standard_normal((m, n, n))
    b = rng.standard_normal((n, n))
    return LmiProblem(list(a + np.swapaxes(a, 1, 2)), b + b.T)


def random_pair(rng, n, m):
    p = random_problem(rng, n, m)
    return SdpPair(rng.standard_normal(m), p.coeffs, p.rhs)


def structured(kind, rng, n, m):
    """A problem built by stack / reduce_primal_dual, and the dense
    (coeffs, rhs) that the same construction gives entry by entry (for the
    constructor, its own inputs)."""
    if kind == "dense":
        a, b = rng.standard_normal((m, n, n)), rng.standard_normal((n, n))
        return LmiProblem(list(a), b), (list(a), b)
    if kind == "stack":
        parts = [random_problem(rng, d, m) for d in rng.integers(1, 4, size=3)]
        return stack(parts), dense_stack(parts)
    if kind == "reduction":
        pair = random_pair(rng, n, m)
        return reduce_primal_dual(pair), dense_reduction(pair)
    if kind == "stack of reductions":
        reductions = [reduce_primal_dual(random_pair(rng, n, m)) for _ in range(2)]
        return stack(reductions), dense_stack(reductions)
    stacked = stack([random_problem(rng, n, m), random_problem(rng, 1, m),
                     random_problem(rng, 2, m)])
    pair = SdpPair(rng.standard_normal(m), stacked.coeffs, stacked.rhs)
    if kind == "reduction of a stacked pair (stacked layout)":
        pair.problem = stacked
    return reduce_primal_dual(pair), dense_reduction(pair)


STRUCTURES = [
    "dense",
    "stack",
    "reduction",
    "stack of reductions",
    "reduction of a stacked pair",
    "reduction of a stacked pair (stacked layout)",
]


def assert_close(got, want, scale):
    """Equal to 1e-12 relative, measured against the size of the inputs."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


class TestBlockLayout:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(STRUCTURES),
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_matches_dense_problem(self, kind, n, m, seed):
        rng = np.random.default_rng(seed)
        p, (ref_coeffs, ref_rhs) = structured(kind, rng, n, m)
        assert [c.mat.tobytes() for c in p.coeffs] == [
            SymMatrix(c).mat.tobytes() for c in ref_coeffs
        ]
        assert p.rhs.mat.tobytes() == SymMatrix(ref_rhs).mat.tobytes()
        dense = LmiProblem(p.coeffs, p.rhs)
        coeff_scale = max(np.abs(c.mat).sum() for c in dense.coeffs)

        got, want = constants(p), constants(dense)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        for _ in range(3):
            x = rng.standard_normal(p.num_vars)
            z = SymMatrix(rng.standard_normal((p.dim, p.dim)))
            resid = apply_operator(dense, x).mat - dense.rhs.mat
            size = np.abs(resid).sum() + np.abs(x).sum() * coeff_scale
            assert_close(apply_operator(p, x).mat, apply_operator(dense, x).mat, size)
            assert_close(adjoint_apply(p, z), adjoint_apply(dense, z),
                         coeff_scale * np.abs(z.mat).sum())
            got, want = eval_smooth(p, x), eval_smooth(dense, x)
            assert_close(got.value, want.value, size**2)
            assert_close(got.gradient, want.gradient, size * coeff_scale)
            assert_close(eval_nonsmooth(p, x).value, eval_nonsmooth(dense, x).value, size)

        # ||A|| bounds ||A(x)||_F / ||x||, is reached at G's top eigenvector,
        # and lies between M and the Frobenius sum
        bound, norm = constants(p)[:2]
        flat = np.array([c.mat.ravel() for c in dense.coeffs])
        top = np.linalg.eigh(flat @ flat.T)[1][:, -1]
        fro_sum = math.sqrt(sum(float(np.sum(c.mat * c.mat)) for c in dense.coeffs))
        for x in [top, *rng.standard_normal((3, p.num_vars))]:
            size = np.linalg.norm(apply_operator(p, x).mat)
            assert size <= norm * np.linalg.norm(x) * (1.0 + 1e-12)
        assert np.linalg.norm(apply_operator(p, top).mat) == pytest.approx(norm, rel=1e-10)
        assert bound <= norm <= fro_sum * (1.0 + 1e-12)

    def test_one_block_constants_unchanged(self):
        # a problem from the constructor sums its spectral norms in variable
        # order, so M keeps its bits; each packed coefficient unpacks to the
        # bits of the matrix it was packed from. ||A||^2 is the top
        # eigenvalue of the dense Gram matrix of the A_i
        for n, m, seed in [(5, 4, s) for s in range(4)] + [(33, 6, 0), (60, 10, 1)]:
            p = gen_lmi(n, m, 1.0, seed).problem
            spec_sq = 0.0
            for c in p.coeffs:
                spec = np.abs(np.linalg.eigvalsh(c.mat)).max()
                spec_sq += float(spec) * float(spec)
            flat = np.array([c.mat.ravel() for c in p.coeffs])
            norm_sq = float(np.linalg.eigvalsh(flat @ flat.T)[-1])
            c = constants(p)
            assert c.subgrad_bound == math.sqrt(spec_sq)
            assert c.opnorm**2 == pytest.approx(norm_sq, rel=1e-12)
            assert c.grad_lipschitz == pytest.approx(2.0 * norm_sq, rel=1e-12)
            # a stack of p with itself doubles G, so ||A||^2 doubles; the
            # spectral norms, and so M, stay as they are
            twice = constants(stack([p, p]))
            assert twice.subgrad_bound == c.subgrad_bound
            assert twice.opnorm**2 == pytest.approx(2.0 * c.opnorm**2, rel=1e-12)
            assert twice.grad_lipschitz == pytest.approx(2.0 * c.grad_lipschitz, rel=1e-12)

    def test_stored_arrays_are_read_only(self):
        # a dense problem, a stack with scalar rows, and a reduction
        pair = SdpPair([1.0, 2.0], [SymMatrix(np.eye(3)), SymMatrix(np.ones((3, 3)))],
                       SymMatrix(np.eye(3)))
        for p in (pair.problem, stack([pair.problem, LmiProblem([[[1.0]], [[-1.0]]], [[1.0]])]),
                  reduce_primal_dual(pair)):
            arrays = [p.rhs.mat, *p._scalars]
            for blk in p._blocks:
                arrays += [blk.rhs, *blk.sym, *([] if blk.coeffs is None else [blk.coeffs])]
            assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("kind", ["dense", "stack", "reduction", "all-scalar reduction"])
    def test_apply_exactly_symmetric(self, kind):
        # A(x) is unpacked from one packed triangle per block, so it is
        # symmetric bit for bit; it matches the dense coefficients' sum
        rng = np.random.default_rng(21)
        p = {
            "dense": lambda: random_problem(rng, 40, 5),
            "stack": lambda: stack([random_problem(rng, 6, 3), random_problem(rng, 1, 3),
                                    random_problem(rng, 3, 3)]),
            "reduction": lambda: reduce_primal_dual(random_pair(rng, 5, 3)),
            "all-scalar reduction": lambda: reduce_primal_dual(
                SdpPair([-1.0], [SymMatrix([[1.0]])], SymMatrix([[0.0]]))),
        }[kind]()
        dense = model._dense_coeffs(p)
        for _ in range(3):
            x = rng.standard_normal(p.num_vars)
            got = apply_operator(p, x).mat
            assert got.tobytes() == got.T.tobytes()
            for blk, s in zip(p._blocks, _residuals(p, x)[0]):
                assert s.tobytes() == s.T.tobytes()
                assert model._block_apply(blk, x).tobytes() == got[blk.at, blk.at].tobytes()
            assert_close(got, np.tensordot(x, dense, axes=1),
                         np.abs(x) @ np.abs(dense).reshape(p.num_vars, -1).max(axis=1))

    def test_stack_shares_packed_arrays(self):
        rng = np.random.default_rng(22)
        p, q = random_problem(rng, 5, 3), random_problem(rng, 4, 3)
        joint = stack([p, q, p])
        assert len(joint._blocks) == 3
        for blk, src in zip(joint._blocks, (p, q, p)):
            assert blk.coeffs is src._blocks[0].coeffs
            assert blk.sym is src._blocks[0].sym
        pair = random_pair(rng, 5, 3)
        reduced = reduce_primal_dual(pair)
        assert reduced._blocks[0].coeffs is pair.problem._blocks[0].coeffs

    def test_all_scalar_reduction(self):
        # a 1 x 1 pair reduces to five 1 x 1 rows: x, the two equalities, y, the gap
        pair = SdpPair([-1.0], [SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        reduced = reduce_primal_dual(pair)
        assert reduced.dim == 5
        np.testing.assert_array_equal(
            apply_operator(reduced, [2.0, 3.0]).mat, np.diag([2.0, 3.0, -3.0, 3.0, -2.0])
        )
        ev = eval_smooth(reduced, [1.0, 1.0])
        # rows read 1, 2, -2, 1, -1 against the rhs diag(0, -1, 1, 0, 0)
        assert ev.value == pytest.approx(1.0 + 4.0 + 1.0)
        np.testing.assert_allclose(ev.gradient, [2.0, 2.0 * (2.0 + 1.0)])

    def test_coeffs_built_on_each_read(self):
        pair = SdpPair([1.0, 2.0], [SymMatrix(np.eye(3)), SymMatrix(np.ones((3, 3)))],
                       SymMatrix(np.eye(3)))
        reduced = reduce_primal_dual(pair)
        eval_smooth(reduced, np.ones(reduced.num_vars))
        first = reduced.coeffs
        assert len(first) == reduced.num_vars
        assert reduced.coeffs == first
        assert reduced.coeffs is not first

    def test_reduction_memory(self):
        # the dense coefficient tensor of this reduction is 840 x 121 x 121
        # doubles, about 98 MB
        rng = np.random.default_rng(3)
        n, m = 40, 20
        a = rng.standard_normal((m, n, n))
        pair = SdpPair(rng.standard_normal(m), list(a + np.swapaxes(a, 1, 2)), np.eye(n))
        tracemalloc.start()
        try:
            reduced = reduce_primal_dual(pair)
            eval_smooth(reduced, np.ones(reduced.num_vars))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (reduced.num_vars, reduced.dim) == (840, 121)
        assert peak < 10_000_000

    def test_coefficients_stored_once(self):
        # the constructor copies the coefficients into one (m, n, n) array
        # and keeps no other copy of them, not even after `coeffs` is read
        rng = np.random.default_rng(4)
        m, n = 10, 200
        a = rng.standard_normal((m, n, n))
        coeffs = list(a + np.swapaxes(a, 1, 2))
        tensor_bytes = m * n * n * 8
        tracemalloc.start()
        try:
            p = LmiProblem(coeffs, np.eye(n))
            held, peak = tracemalloc.get_traced_memory()
            serialize_lmi(p)
            held_after_read, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.num_vars == m
        assert held <= 1.25 * tensor_bytes
        assert peak <= 1.5 * tensor_bytes
        assert held_after_read <= 1.25 * tensor_bytes

    def test_packed_triangles_halve_coefficient_bytes(self):
        # an n = 200, m = 8 problem keeps the packed upper triangles, about
        # half the dense (m, n, n) tensor; beyond them it holds only its
        # right-hand side and the index maps, which do not grow with m
        rng = np.random.default_rng(5)
        m, n = 8, 200
        a = rng.standard_normal((m, n, n))
        coeffs = list(a + np.swapaxes(a, 1, 2))
        tensor_bytes = m * n * n * 8
        tracemalloc.start()
        try:
            p = LmiProblem(coeffs, np.eye(n))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (blk,) = p._blocks
        assert blk.coeffs.shape == (m, n * (n + 1) // 2)
        fixed = p.rhs.mat.nbytes + sum(a.nbytes for a in blk.sym)
        assert held - fixed <= 0.55 * tensor_bytes
        assert held < tensor_bytes


class TestSymmetricVariableMaps:
    """On the y block of a reduction, A(x) is a gather of x and the adjoint
    a gather of Z times 1 or 2, so both equal, bit for bit, what
    np.triu_indices gives entry by entry; checked at n = 20, alone and
    between other blocks of a stack."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_bytes_match_triu_reference(self, stacked):
        rng = np.random.default_rng(20)
        n, m = 20, 3
        p = reduce_primal_dual(random_pair(rng, n, m))
        shift = 0
        if stacked:
            p = stack([random_problem(rng, 4, p.num_vars), p,
                       random_problem(rng, 1, p.num_vars)])
            shift = 4
        rows = slice(shift + n + 2 * m, shift + 2 * n + 2 * m)
        ys = slice(m, m + n * (n + 1) // 2)
        i, j = np.triu_indices(n)
        for _ in range(3):
            x = rng.standard_normal(p.num_vars)
            ref = np.zeros((n, n))
            ref[i, j] = x[ys]
            ref[j, i] = x[ys]
            assert apply_operator(p, x).mat[rows, rows].tobytes() == ref.tobytes()
            mats, _ = _residuals(p, x)
            assert mats[-1].tobytes() == (ref - p.rhs.mat[rows, rows]).tobytes()

            zy = rng.standard_normal((n, n))
            zy = zy + zy.T
            want = np.where(i == j, 1.0, 2.0) * zy[i, j]
            z = np.zeros((p.dim, p.dim))
            z[rows, rows] = zy
            g = adjoint_apply(p, SymMatrix(z))
            assert g[ys].tobytes() == want.tobytes()
            assert not g[:m].any() and not g[ys.stop:].any()
            parts = [np.zeros(s.shape) for s in mats[:-1]] + [zy]
            g = _adjoint(p, parts, np.zeros(0))
            assert g[ys].tobytes() == want.tobytes()


def bad_points(num_vars):
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, num_vars - 1):
            x = np.ones(num_vars)
            x[at] = bad
            yield x


def one_d_problem_m(m):
    """x_1 + 2 x_2 + ... + m x_m <= 0 as a 1 x 1 LMI."""
    return LmiProblem([SymMatrix([[float(i + 1)]]) for i in range(m)], SymMatrix([[0.0]]))


NONFINITE_CASES = {
    "stack": lambda: stack([gen_lmi(3, 2, 1.0, 5).problem, one_d_problem_m(2),
                            gen_lmi(2, 2, 1.0, 6).problem]),
    "reduction": lambda: reduce_primal_dual(random_pair(np.random.default_rng(1), 3, 2)),
    "all-scalar reduction": lambda: reduce_primal_dual(
        SdpPair([-1.0], [SymMatrix([[1.0]])], SymMatrix([[0.0]]))),
    "stack of scalars": lambda: stack([one_d_problem(), one_d_problem(a=-1.0, b=1.0)]),
}


class TestBlockOracles:
    @pytest.mark.parametrize("label", sorted(NONFINITE_CASES))
    def test_nonfinite_point_raises(self, label):
        p = NONFINITE_CASES[label]()
        dense = LmiProblem(p.coeffs, p.rhs)
        for x in bad_points(p.num_vars):
            for q in (p, dense):
                for fn in (eval_nonsmooth, eval_smooth, apply_operator):
                    with pytest.raises(NonFiniteInput):
                        fn(q, x)

    def test_overflowing_operator_raises(self):
        # x is finite, but A(x) = 1e310 overflows; no RuntimeWarning comes first
        p = LmiProblem([np.full((2, 2), 1e300)], np.zeros((2, 2)))
        x = np.array([1e10])
        calls = (lambda: eval_smooth(p, x), lambda: eval_nonsmooth(p, x),
                 lambda: validate_certificate(p, SlaterCertificate(x, 1.0)))
        for call in calls:
            with pytest.raises(NonFiniteInput, match=r"A\(x\) - B contains NaN or Inf entries"):
                call()

    def test_tie_goes_to_first_row(self):
        # x <= 0 and 2x <= 1 both read 1 at x = 1; the subgradient is the
        # coefficient of whichever row comes first
        first = one_d_problem(a=1.0, b=0.0)
        second = one_d_problem(a=2.0, b=1.0)
        ev = eval_nonsmooth(stack([first, second]), [1.0])
        assert ev.value == 1.0
        np.testing.assert_array_equal(ev.gradient, [1.0])
        ev = eval_nonsmooth(stack([second, first]), [1.0])
        assert ev.value == 1.0
        np.testing.assert_array_equal(ev.gradient, [2.0])

    def test_tie_between_blocks(self):
        # diag(x, 0) <= 0 and diag(2x, 0) <= diag(1, 0) both have top 1 at
        # x = 1; the subgradient is that of whichever block comes first
        first = LmiProblem([SymMatrix(np.diag([1.0, 0.0]))], SymMatrix(np.zeros((2, 2))))
        second = LmiProblem([SymMatrix(np.diag([2.0, 0.0]))], SymMatrix(np.diag([1.0, 0.0])))
        for parts, grad in (([first, second], 1.0), ([second, first], 2.0)):
            ev = eval_nonsmooth(stack(parts), [1.0])
            assert ev.value == 1.0
            np.testing.assert_array_equal(ev.gradient, [grad])

    def test_tie_between_block_and_row(self):
        # diag(x, 0) <= 0 has top 1 at x = 1 with subgradient 1; the row
        # 2x <= 1 also reads 1 there, with subgradient 2
        block = LmiProblem([SymMatrix(np.diag([1.0, 0.0]))], SymMatrix(np.zeros((2, 2))))
        row = one_d_problem(a=2.0, b=1.0)
        for parts, grad in (([block, row], 1.0), ([row, block], 2.0)):
            ev = eval_nonsmooth(stack(parts), [1.0])
            assert ev.value == 1.0
            np.testing.assert_allclose(ev.gradient, [grad])

    def test_kink_rule(self):
        # the top row reads 1e-13 <= 1e-12: feasible, value and subgradient 0
        block = LmiProblem([SymMatrix(np.diag([-1.0, -2.0]))], SymMatrix(np.eye(2)))
        p = stack([one_d_problem(a=1.0, b=0.0), block, one_d_problem(a=-1.0, b=1.0)])
        ev = eval_nonsmooth(p, [1e-13])
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, [0.0])
        assert eval_nonsmooth(p, [1e-11]).value == pytest.approx(1e-11)
