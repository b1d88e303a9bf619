"""Instance generators, Hoffman constants, and verification helpers."""

import math
import re

import numpy as np
import pytest

from lmisolve import (
    DimensionMismatch,
    InvalidParameter,
    Lcg64,
    LmiProblem,
    NonFiniteInput,
    Oracle,
    OracleEval,
    SymMatrix,
    ZeroMatrix,
    brute_feasibility,
    distance_to_solutions,
    eval_linsys,
    eval_nonsmooth,
    fd_gradient,
    gen_linsys,
    gen_lmi,
    hoffman_eq,
    mu_of,
    residual_map,
    serialize_lmi,
    smooth_oracle,
    stack,
    validate_certificate,
)


class TestLcg64:
    def test_golden_recurrence(self):
        # two warm-up steps, then u01 advances once and keeps the top 53 bits
        mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
        s = 42
        for _ in range(3):
            s = (mult * s + inc) & mask
        assert Lcg64(42).u01() == (s >> 11) / 9007199254740992.0

    def test_range_and_determinism(self):
        a, b = Lcg64(7), Lcg64(7)
        for _ in range(1000):
            u = a.u01()
            assert 0.0 <= u < 1.0
            assert u == b.u01()

    def test_uniform_bounds(self):
        rng = Lcg64(3)
        for _ in range(200):
            v = rng.uniform(-2.0, 5.0)
            assert -2.0 <= v < 5.0


class TestGenLmi:
    def test_certificate_always_valid(self):
        for n, m, sigma, seed in [(1, 1, 1.0, 0), (5, 3, 0.5, 9), (10, 2, 0.1, 123)]:
            inst = gen_lmi(n, m, sigma, seed)
            assert inst.problem.dim == n
            assert inst.problem.num_vars == m
            assert inst.certificate.margin == sigma
            assert validate_certificate(inst.problem, inst.certificate)
            assert mu_of(inst.certificate) >= 0.0

    def test_witness_margin(self):
        # lambda_1(A d - B) <= -sigma with slack sigma from the PSD padding
        inst = gen_lmi(6, 4, 1.0, 31)
        resid = np.tensordot(inst.witness, np.stack([a.mat for a in inst.problem.coeffs]), axes=1)
        top = float(np.max(np.linalg.eigvalsh(resid - inst.problem.rhs.mat)))
        assert top <= -inst.certificate.margin + 1e-12

    def test_witness_objective_vanishes(self):
        inst = gen_lmi(5, 3, 1.0, 12)
        assert eval_nonsmooth(inst.problem, inst.witness).value == 0.0

    def test_padding_is_psd_with_norm_sigma(self):
        # B - A(d) - sigma I equals the PSD padding Q scaled to ||Q||_F = sigma
        sigma = 0.5
        inst = gen_lmi(4, 2, sigma, 77)
        resid = np.tensordot(inst.witness, np.stack([a.mat for a in inst.problem.coeffs]), axes=1)
        pad = inst.problem.rhs.mat - resid - sigma * np.eye(4)
        assert np.min(np.linalg.eigvalsh(pad)) >= -1e-10
        assert np.linalg.norm(pad) == pytest.approx(sigma, rel=1e-10)

    def test_deterministic_bytes(self):
        a = gen_lmi(5, 3, 1.0, 42)
        b = gen_lmi(5, 3, 1.0, 42)
        assert serialize_lmi(a.problem, a.certificate) == serialize_lmi(b.problem, b.certificate)
        assert gen_lmi(5, 3, 1.0, 43).problem != a.problem

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            gen_lmi(0, 1, 1.0, 0)
        with pytest.raises(InvalidParameter):
            gen_lmi(2, 0, 1.0, 0)
        with pytest.raises(InvalidParameter):
            gen_lmi(2, 1, 0.0, 0)

    def test_overflowing_sigma_raises(self):
        # ||A(d)|| overflows at 1e160; at n = 1 the first draw already does
        inst = gen_lmi(3, 2, 1e150, 0)
        assert validate_certificate(inst.problem, inst.certificate)
        for n, m, sigma in [(3, 2, 1e160), (1, 1, 1e308), (40, 5, 1e155)]:
            with pytest.raises(NonFiniteInput, match=re.escape(f"sigma {sigma:g} is too large")):
                gen_lmi(n, m, sigma, 0)


class TestGenLinsys:
    def test_equality_rows_exact(self):
        sys_, witness = gen_linsys(5, 8, 4, kinds="eq")
        rows = np.array(sys_.rows)
        assert np.all(sys_.eq_mask)
        np.testing.assert_allclose(rows @ witness, sys_.rhs, atol=1e-12)
        # shorthands ignore case, also when the string has p characters
        assert gen_linsys(5, 8, 4, kinds="EQ")[0] == sys_
        assert gen_linsys(2, 3, 1, kinds="EQ")[0] == gen_linsys(2, 3, 1, kinds="eq")[0]

    def test_le_rows_have_slack(self):
        sys_, witness = gen_linsys(6, 4, 5, kinds="le")
        rows = np.array(sys_.rows)
        slack = np.array(sys_.rhs) - rows @ witness
        assert not np.any(sys_.eq_mask)
        assert np.all(slack >= 0.75 - 1e-12)
        assert eval_linsys(sys_, witness).value == 0.0
        assert gen_linsys(6, 4, 5, kinds="Le")[0] == sys_

    def test_mixed_pattern(self):
        sys_, witness = gen_linsys(4, 2, 6, kinds="mixed")
        assert list(sys_.kinds) == ["eq", "le", "eq", "le"]
        assert gen_linsys(4, 2, 6, kinds="MIXED")[0] == sys_
        assert eval_linsys(sys_, witness).value <= 1e-18

    def test_explicit_kinds(self):
        sys_, witness = gen_linsys(3, 5, 7, kinds=("le", "eq", "le"))
        assert list(sys_.kinds) == ["le", "eq", "le"]
        assert float(np.linalg.norm(residual_map(sys_, np.array(sys_.rows) @ witness - np.array(sys_.rhs)))) == 0.0

    def test_deterministic(self):
        a, xa = gen_linsys(4, 6, 11)
        b, xb = gen_linsys(4, 6, 11)
        assert a == b
        assert np.array_equal(xa, xb)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            gen_linsys(0, 3, 1)
        with pytest.raises(DimensionMismatch):
            gen_linsys(3, 3, 1, kinds=("le", "eq"))
        with pytest.raises(InvalidParameter):
            gen_linsys(2, 3, 1, kinds=("le", "ge"))


class TestHoffman:
    def test_identity(self):
        assert hoffman_eq(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert hoffman_eq(np.diag([2.0, 0.5])) == pytest.approx(2.0)

    def test_rank_deficient_row(self):
        assert hoffman_eq(np.array([[1.0, 1.0]])) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            hoffman_eq(np.zeros((2, 2)))

    def test_orthonormal_rows(self):
        assert hoffman_eq(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])) == pytest.approx(1.0)

    def test_gram_overflow_raises(self):
        # the row is finite, its Gram matrix entry 1e400 is not
        with pytest.raises(NonFiniteInput, match=r"^A\^T A contains NaN or Inf$"):
            hoffman_eq([[1e200, 0.0]])

    def test_distance_bound(self):
        # d(x, S_b) <= L_H ||Ax - b|| on consistent equality systems
        rng = np.random.default_rng(808)
        for seed in (1, 2, 3):
            sys_, witness = gen_linsys(8, 12, 900 + seed, kinds="eq")
            rows = np.array(sys_.rows)
            rhs = np.array(sys_.rhs)
            lh = hoffman_eq(rows)
            for _ in range(30):
                x = witness + rng.normal(size=12) * 2.0
                dist = distance_to_solutions(rows, rhs, x)
                resid = float(np.linalg.norm(rows @ x - rhs))
                assert dist <= lh * resid + 1e-8 * max(1.0, float(np.linalg.norm(x - witness)))


class TestDistanceToSolutions:
    def test_on_solution(self):
        a = np.array([[1.0, 0.0]])
        assert distance_to_solutions(a, [1.0], [1.0, 5.0]) == pytest.approx(0.0, abs=1e-12)

    def test_one_row(self):
        # distance from origin to {x1 = 1} is 1
        a = np.array([[1.0, 0.0]])
        assert distance_to_solutions(a, [1.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_matrix(self):
        # every x solves 0 x = 0
        assert distance_to_solutions(np.zeros((2, 3)), [0.0, 0.0], [1.0, 2.0, 3.0]) == 0.0

    def test_gram_overflow_raises(self):
        with pytest.raises(NonFiniteInput, match=r"^A\^T A contains NaN or Inf$"):
            distance_to_solutions([[1e200, 0.0]], [1.0], [0.0, 0.0])

    def test_projection_is_feasible(self):
        rng = np.random.default_rng(191)
        sys_, witness = gen_linsys(5, 9, 55, kinds="eq")
        rows, rhs = np.array(sys_.rows), np.array(sys_.rhs)
        for _ in range(20):
            x = witness + rng.normal(size=9)
            dist = distance_to_solutions(rows, rhs, x)
            # distance never exceeds the gap to the known solution
            assert dist <= float(np.linalg.norm(x - witness)) + 1e-9


class TestFdGradient:
    def test_quadratic(self):
        def ev(x):
            return OracleEval(float(x[0] ** 2), np.array([2.0 * x[0]]))

        orc = Oracle(evaluate=ev, dim=1, grad_lipschitz=2.0, subgrad_bound=0.0)
        fd = fd_gradient(orc, [1.0], 1e-6)
        assert fd[0] == pytest.approx(2.0, abs=1e-6)

    def test_smooth_lmi(self):
        p = LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        fd = fd_gradient(smooth_oracle(p), [3.0], 1e-6)
        assert fd[0] == pytest.approx(6.0, abs=1e-5)

    def test_interior_point(self):
        p = LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        fd = fd_gradient(smooth_oracle(p), [-1.0], 1e-6)
        assert fd[0] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_step(self):
        p = LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        with pytest.raises(InvalidParameter):
            fd_gradient(smooth_oracle(p), [1.0], 0.0)


class TestBruteFeasibility:
    def test_one_d_halfspace(self):
        p = LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        point, value = brute_feasibility(p, [(-1.0, 1.0)], 201)
        assert value == 0.0
        assert point[0] <= 0.0

    def test_infeasible_stack(self):
        # x <= -1 and -x <= -1 cannot hold together
        left = LmiProblem([SymMatrix([[1.0]])], SymMatrix([[-1.0]]))
        right = LmiProblem([SymMatrix([[-1.0]])], SymMatrix([[-1.0]]))
        _, value = brute_feasibility(stack([left, right]), [(-3.0, 3.0)], 101)
        assert value > 0.5

    def test_two_d_diagonal(self):
        # diag(x1, x2) <= diag(1, 2): feasible iff x1 <= 1 and x2 <= 2
        p = LmiProblem(
            [SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0]))],
            SymMatrix(np.diag([1.0, 2.0])),
        )
        point, value = brute_feasibility(p, [(0.0, 2.0), (0.0, 4.0)], 41)
        assert value == 0.0
        assert point[0] <= 1.0 and point[1] <= 2.0

    def test_grid_respects_witness(self):
        inst = gen_lmi(4, 1, 1.0, 202)
        d = float(inst.witness[0])
        point, value = brute_feasibility(inst.problem, [(d - 1.0, d + 1.0)], 201)
        assert value == 0.0

    def test_invalid_inputs(self):
        p = LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))
        with pytest.raises(InvalidParameter):
            brute_feasibility(p, [(-1.0, 1.0)], 1)
        with pytest.raises(InvalidParameter):
            brute_feasibility(p, [(-1.0, 1.0), (0.0, 1.0)], 11)
        three = gen_lmi(3, 3, 1.0, 5).problem
        with pytest.raises(InvalidParameter):
            brute_feasibility(three, [(-1, 1)] * 3, 11)
