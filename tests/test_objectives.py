"""Feasibility objectives: values, gradients, convexity inequalities."""

import numpy as np
import pytest

from lmisolve import objectives
from lmisolve import (
    DimensionMismatch,
    LinIneqSystem,
    LmiProblem,
    SymMatrix,
    constants,
    eval_linsys,
    eval_nonsmooth,
    eval_smooth,
    fd_gradient,
    gen_linsys,
    gen_lmi,
    linsys_oracle,
    mu_of,
    nonsmooth_oracle,
    smooth_oracle,
    solve_smooth,
)


def one_d_problem():
    return LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))


def diag_pair_problem():
    return LmiProblem(
        [SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0]))],
        SymMatrix(np.zeros((2, 2))),
    )


class TestNonsmooth:
    def test_scalar_violated(self):
        ev = eval_nonsmooth(one_d_problem(), [3.0])
        assert ev.value == pytest.approx(3.0)
        np.testing.assert_allclose(ev.gradient, [1.0])

    def test_scalar_feasible(self):
        ev = eval_nonsmooth(one_d_problem(), [-2.0])
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.gradient, [0.0])

    def test_diag_pair(self):
        ev = eval_nonsmooth(diag_pair_problem(), [2.0, -5.0])
        assert ev.value == pytest.approx(2.0)
        np.testing.assert_allclose(ev.gradient, [1.0, 0.0])

    def test_kink_clamps_to_zero(self):
        # value and subgradient both vanish together at the boundary
        ev = eval_nonsmooth(one_d_problem(), [1e-13])
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, [0.0])

    def test_gradient_bounded_by_M(self):
        rng = np.random.default_rng(55)
        for seed in (3, 4, 5):
            inst = gen_lmi(5, 3, 1.0, seed)
            m_bound = constants(inst.problem).subgrad_bound
            for _ in range(40):
                x = inst.witness + rng.uniform(-2, 2, size=3)
                g = np.asarray(eval_nonsmooth(inst.problem, x).gradient)
                assert np.linalg.norm(g) <= m_bound + 1e-9

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            eval_nonsmooth(one_d_problem(), [1.0, 2.0])


class TestSmooth:
    def test_scalar_violated(self):
        ev = eval_smooth(one_d_problem(), [3.0])
        assert ev.value == pytest.approx(9.0)
        np.testing.assert_allclose(ev.gradient, [6.0])

    def test_scalar_feasible(self):
        ev = eval_smooth(one_d_problem(), [-2.0])
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.gradient, [0.0])

    def test_diag_pair(self):
        ev = eval_smooth(diag_pair_problem(), [2.0, -5.0])
        assert ev.value == pytest.approx(4.0)
        np.testing.assert_allclose(ev.gradient, [4.0, 0.0])

    def test_value_nonnegative(self):
        rng = np.random.default_rng(66)
        inst = gen_lmi(4, 2, 0.5, 8)
        for _ in range(40):
            x = rng.normal(size=2) * 3.0
            assert eval_smooth(inst.problem, x).value >= 0.0

    def test_squared_nonsmooth_below_smooth(self):
        rng = np.random.default_rng(67)
        for seed in (12, 13):
            inst = gen_lmi(6, 4, 1.0, seed)
            for _ in range(50):
                x = inst.witness + rng.uniform(-2, 2, size=4)
                f_ns = eval_nonsmooth(inst.problem, x).value
                f_sm = eval_smooth(inst.problem, x).value
                assert f_ns**2 <= f_sm + 1e-10

    def test_vanishes_at_witness(self):
        inst = gen_lmi(5, 3, 1.0, 77)
        assert eval_nonsmooth(inst.problem, inst.witness).value <= 1e-12
        assert eval_smooth(inst.problem, inst.witness).value <= 1e-12


class TestLinsys:
    def test_single_le(self):
        sys_ = LinIneqSystem([[1.0]], [0.0], ["le"])
        ev = eval_linsys(sys_, [3.0])
        assert ev.value == pytest.approx(4.5)
        np.testing.assert_allclose(ev.gradient, [3.0])

    def test_single_eq_satisfied(self):
        sys_ = LinIneqSystem([[1.0]], [1.0], ["eq"])
        ev = eval_linsys(sys_, [1.0])
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.gradient, [0.0])

    def test_mixed_rows(self):
        sys_ = LinIneqSystem([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], ["le", "eq"])
        ev = eval_linsys(sys_, [1.0, 1.0])
        assert ev.value == pytest.approx(0.5)
        np.testing.assert_allclose(ev.gradient, [1.0, 1.0])

    def test_dim_check(self):
        sys_ = LinIneqSystem([[1.0]], [0.0], ["le"])
        with pytest.raises(DimensionMismatch):
            eval_linsys(sys_, [1.0, 2.0])


class TestOracleFactories:
    def test_nonsmooth_constants(self):
        inst = gen_lmi(4, 3, 1.0, 1)
        orc = nonsmooth_oracle(inst.problem)
        c = constants(inst.problem)
        assert orc.dim == 3
        assert orc.grad_lipschitz == 0.0
        assert orc.subgrad_bound == pytest.approx(c.subgrad_bound)

    def test_smooth_constants(self):
        inst = gen_lmi(4, 3, 1.0, 1)
        orc = smooth_oracle(inst.problem)
        c = constants(inst.problem)
        assert orc.grad_lipschitz == pytest.approx(c.grad_lipschitz)
        assert orc.subgrad_bound == 0.0

    def test_linsys_constants(self):
        sys_ = LinIneqSystem([[3.0, 0.0], [0.0, 4.0]], [0.0, 0.0], ["eq", "eq"])
        orc = linsys_oracle(sys_)
        # L = lambda_max(A^T A) = 16
        assert orc.grad_lipschitz == pytest.approx(16.0)
        assert orc.subgrad_bound == 0.0

    def test_factory_matches_eval(self):
        inst = gen_lmi(3, 2, 1.0, 2)
        orc = nonsmooth_oracle(inst.problem)
        x = np.array([0.3, -0.7])
        assert orc.evaluate(x).value == eval_nonsmooth(inst.problem, x).value


class TestConvexityInequalities:
    """First-order inequalities every convex oracle must satisfy."""

    def _pairs(self, rng, center, m, count=40):
        for _ in range(count):
            yield center + rng.uniform(-1, 1, size=m), center + rng.uniform(-1, 1, size=m)

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(314)
        inst = gen_lmi(5, 3, 1.0, 42)
        for orc in (nonsmooth_oracle(inst.problem), smooth_oracle(inst.problem)):
            for x, y in self._pairs(rng, inst.witness, 3):
                ex, ey = orc.evaluate(x), orc.evaluate(y)
                gap = ey.value - ex.value - float(np.asarray(ex.gradient) @ (y - x))
                assert gap >= -1e-9

    def test_upper_envelope(self):
        # f(y) <= f(x) + <g, y-x> + (L/2)||y-x||^2 + M||y-x||
        rng = np.random.default_rng(315)
        inst = gen_lmi(5, 3, 1.0, 43)
        for orc in (nonsmooth_oracle(inst.problem), smooth_oracle(inst.problem)):
            for x, y in self._pairs(rng, inst.witness, 3):
                ex, ey = orc.evaluate(x), orc.evaluate(y)
                step = float(np.linalg.norm(y - x))
                bound = (
                    ex.value
                    + float(np.asarray(ex.gradient) @ (y - x))
                    + 0.5 * orc.grad_lipschitz * step**2
                    + orc.subgrad_bound * step
                )
                assert ey.value <= bound + 1e-9

    def test_linsys_subgradient_inequality(self):
        rng = np.random.default_rng(316)
        sys_, witness = gen_linsys(6, 9, 7, kinds="mixed")
        orc = linsys_oracle(sys_)
        for x, y in self._pairs(rng, witness, 9):
            ex, ey = orc.evaluate(x), orc.evaluate(y)
            gap = ey.value - ex.value - float(np.asarray(ex.gradient) @ (y - x))
            assert gap >= -1e-9


class TestFiniteDifferences:
    def test_smooth_gradient(self):
        rng = np.random.default_rng(88)
        inst = gen_lmi(5, 3, 1.0, 99)
        orc = smooth_oracle(inst.problem)
        checked = 0
        while checked < 10:
            x = inst.witness + rng.uniform(-1, 1, size=3)
            ev = orc.evaluate(x)
            if ev.value < 1e-3:
                continue
            fd = fd_gradient(orc, x, 1e-6)
            rel = np.linalg.norm(fd - ev.gradient) / max(1e-8, np.linalg.norm(ev.gradient))
            assert rel <= 1e-4
            checked += 1

    def test_linsys_gradient(self):
        rng = np.random.default_rng(89)
        sys_, witness = gen_linsys(5, 8, 17, kinds="eq")
        orc = linsys_oracle(sys_)
        for _ in range(10):
            x = witness + rng.uniform(-1, 1, size=8)
            ev = orc.evaluate(x)
            fd = fd_gradient(orc, x, 1e-6)
            rel = np.linalg.norm(fd - np.asarray(ev.gradient)) / max(1e-8, np.linalg.norm(ev.gradient))
            assert rel <= 1e-4


class TestConstantsOnce:
    def test_computed_once_per_problem(self, monkeypatch):
        inst = gen_lmi(6, 3, 1.0, 21)
        p = inst.problem
        expected = constants(p)
        calls = []

        def counted(q):
            calls.append(q)
            return constants(q)

        monkeypatch.setattr(objectives, "constants", counted)
        ns, sm = nonsmooth_oracle(p), smooth_oracle(p)
        for _ in range(2):
            solve_smooth(p, mu_of(inst.certificate), 1e-6, x0=3.0 * inst.witness)
        assert calls == [p]
        assert ns.subgrad_bound == expected.subgrad_bound
        assert sm.grad_lipschitz == expected.grad_lipschitz


class TestLargeBlocks:
    """Above the inverse-iteration crossover, both oracles agree with values
    and gradients built from one `np.linalg.eigh` of A(x) - B."""

    def test_match_eigh_reference(self):
        rng = np.random.default_rng(90)
        inst = gen_lmi(48, 4, 0.5, 91)
        p = inst.problem
        coeffs = np.stack([a.mat for a in p.coeffs])
        for _ in range(4):
            x = 3.0 * inst.witness + rng.uniform(-1.0, 1.0, size=4)
            s = np.tensordot(x, coeffs, axes=1) - p.rhs.mat
            w, v = np.linalg.eigh(s)
            top = v[:, -1]
            scale = float(np.abs(w).max())
            ns = eval_nonsmooth(p, x)
            assert w[-1] > 1e-3
            assert ns.value == pytest.approx(w[-1], rel=1e-13)
            want = np.einsum("i,kij,j->k", top, coeffs, top)
            np.testing.assert_allclose(ns.gradient, want, atol=1e-9 * scale)
            part = (v * np.maximum(w, 0.0)) @ v.T
            sm = eval_smooth(p, x)
            assert sm.value == pytest.approx(float(np.sum(part * part)), rel=1e-12)
            np.testing.assert_allclose(sm.gradient, 2.0 * np.tensordot(coeffs, part, axes=2),
                                       atol=1e-10 * scale)

    def test_feasible_point_exact_zero(self):
        inst = gen_lmi(48, 4, 0.5, 91)
        ev = eval_smooth(inst.problem, inst.witness)
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, np.zeros(4))
