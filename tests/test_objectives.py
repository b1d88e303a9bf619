"""Feasibility objectives: values, gradients, convexity inequalities."""

import numpy as np
import pytest

from lmisolve import solvers, symlinalg
from lmisolve import (
    DimensionMismatch,
    LinIneqSystem,
    LmiProblem,
    NonFiniteInput,
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
    residual_map,
    smooth_oracle,
    solve_smooth,
    stack,
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

    def test_overflowing_subgradient_raises(self):
        # A(x) - B is finite, but v^T A_1 v = 2.4e308 for the top
        # eigenvector v = (1, 1, 1) / sqrt(3)
        p = LmiProblem([np.full((3, 3), 8e307)], np.zeros((3, 3)))
        with pytest.raises(NonFiniteInput, match="subgradient contains NaN or Inf"):
            eval_nonsmooth(p, [1e-300])


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

    def test_overflowing_gradient_raises(self):
        # A(x) - B = 1e160 is finite; the gradient 2 A^T(P+) = 4e310 is not
        p = LmiProblem([np.full((2, 2), 1e150)], np.zeros((2, 2)))
        with pytest.raises(NonFiniteInput, match="gradient contains NaN or Inf"):
            eval_smooth(p, [1e10])


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

    def test_overflow_raises(self):
        # Ax = 1e350 overflows on an "eq" row; on an "le" row Ax = -1e350
        # overflows to -inf, which the clip maps to 0 exactly as it should
        with pytest.raises(NonFiniteInput, match="gradient contains NaN or Inf"):
            eval_linsys(LinIneqSystem([[1e150]], [0.0], ["eq"]), [1e200])
        ev = eval_linsys(LinIneqSystem([[1e150]], [0.0], ["le"]), [-1e200])
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, [0.0])

    def test_clips_as_residual_map(self):
        # the oracle and the public map clip with one function, so the
        # value and gradient follow from residual_map bit for bit
        rng = np.random.default_rng(12)
        for seed in range(4):
            sys_, x_star = gen_linsys(9, 4, seed, kinds="mixed")
            for _ in range(3):
                x = x_star + rng.uniform(-3.0, 3.0, size=4)
                e = residual_map(sys_, sys_.rows @ x - sys_.rhs)
                ev = eval_linsys(sys_, x)
                assert ev.value == 0.5 * (e @ e)
                assert ev.gradient.tobytes() == (sys_.rows.T @ e).tobytes()


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

    def test_linsys_gram_overflow_raises(self):
        # the row is finite, its Gram matrix entry 1e400 is not
        with pytest.raises(NonFiniteInput, match=r"A\^T A contains NaN or Inf"):
            linsys_oracle(LinIneqSystem([[1e200, 0.0]], [0.0], ["eq"]))

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


def count_eigen_work(monkeypatch, lapacke):
    """A list that gains "dsyevd" for each call to LAPACK's dsyevd for
    eigenvalues alone (jobz "N", as M's kernel makes; the smooth oracle's
    calls with vectors are not counted), and "eigvalsh" for each
    `np.linalg.eigvalsh` call."""
    done = []
    dsyevd, eigvalsh = symlinalg._lapacke("dsyevd"), np.linalg.eigvalsh

    def counted_dsyevd(layout, jobz, *args):
        if jobz == b"N":
            done.append("dsyevd")
        return dsyevd(layout, jobz, *args)

    def counted_eigvalsh(a, *args, **kwargs):
        done.append("eigvalsh")
        return eigvalsh(a, *args, **kwargs)

    lapacke(dsyevd=None if dsyevd is None else counted_dsyevd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return done


class TestConstantsOnce:
    def test_computed_once_per_problem(self, monkeypatch, lapacke):
        # the work is counted, not the calls: every oracle factory and
        # solve_smooth read the constants, and only the first call computes:
        # one dsyevd per coefficient (eigvalsh where the binding is
        # missing), then one eigvalsh of the Gram matrix for ||A||
        per_coeff = "eigvalsh" if symlinalg._lapacke("dsyevd") is None else "dsyevd"
        done = count_eigen_work(monkeypatch, lapacke)
        for n in (6, 40):
            inst = gen_lmi(n, 3, 1.0, 21)
            p = inst.problem
            done.clear()
            expected = constants(p)
            assert done == [per_coeff] * p.num_vars + ["eigvalsh"]
            ns, sm = nonsmooth_oracle(p), smooth_oracle(p)
            for _ in range(2):
                solve_smooth(p, mu_of(inst.certificate), 1e-6, x0=3.0 * inst.witness)
            assert len(done) == p.num_vars + 1
            assert constants(p) is expected
            assert ns.subgrad_bound == expected.subgrad_bound
            assert sm.grad_lipschitz == expected.grad_lipschitz

    def test_smooth_solve_computes_no_spectral_norm(self, monkeypatch, lapacke):
        # solve_smooth reads ||A|| and L alone: its one eigvalsh is the
        # Gram matrix's, and M's per-coefficient eigenvalues are computed
        # only when constants(p) asks
        per_coeff = "eigvalsh" if symlinalg._lapacke("dsyevd") is None else "dsyevd"
        inst = gen_lmi(40, 3, 1.0, 22)
        p = inst.problem
        done = count_eigen_work(monkeypatch, lapacke)
        res = solve_smooth(p, mu_of(inst.certificate), 1e-6, x0=3.0 * inst.witness)
        assert res.iterations > 0
        assert done == ["eigvalsh"]
        c = constants(p)
        assert done == ["eigvalsh"] + [per_coeff] * p.num_vars
        assert c.grad_lipschitz == smooth_oracle(p).grad_lipschitz


def eigen_paths(lapacke):
    """Run a loop body on both paths that blocks of size >= 32 take: with
    the dsyevr binding, then with it missing (eigvalsh and one eigh)."""
    yield
    lapacke(dsyevr=None)
    yield


def block_reference(prob, x):
    """(top eigenvalue, subgradient v^T A_i v, spectral radius) of the one
    block of prob at x, from one `np.linalg.eigh`."""
    coeffs = np.stack([a.mat for a in prob.coeffs])
    w, v = np.linalg.eigh(np.tensordot(x, coeffs, axes=1) - prob.rhs.mat)
    top = v[:, -1]
    return w[-1], np.einsum("i,kij,j->k", top, coeffs, top), float(np.abs(w).max())


class TestLargeBlocks:
    """Above the crossover where `dsyevr` (or, without it, eigvalsh and
    one eigh) takes over, both oracles agree with values and gradients
    built from one `np.linalg.eigh` of A(x) - B."""

    def test_match_eigh_reference(self, lapacke):
        for _ in eigen_paths(lapacke):
            self.check_against_eigh()

    def check_against_eigh(self):
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

    def test_two_blocks_top_in_second(self, lapacke):
        first, second = gen_lmi(32, 3, 0.5, 92).problem, gen_lmi(40, 3, 0.5, 93).problem
        p = stack([first, second])
        x = np.array([2.0, -1.5, 1.0])
        top1 = block_reference(first, x)[0]
        top2, grad2, scale = block_reference(second, x)
        assert top2 > top1 + 1e-3 and top2 > 1e-3
        for _ in eigen_paths(lapacke):
            ev = eval_nonsmooth(p, x)
            assert ev.value == pytest.approx(top2, rel=1e-13)
            np.testing.assert_allclose(ev.gradient, grad2, atol=1e-9 * scale)

    def test_exact_tie_across_blocks_goes_to_first(self, lapacke):
        # at x = 0 both blocks hold the same residual -B, so their tops are
        # equal bit for bit on either path; their coefficients differ
        rng = np.random.default_rng(94)
        n, m = 40, 3
        a = rng.standard_normal((n, n))
        rhs = SymMatrix(a + a.T)
        first, second = (LmiProblem([SymMatrix(c + c.T) for c in rng.standard_normal((m, n, n))], rhs)
                         for _ in range(2))
        p = stack([first, second])
        x = np.zeros(m)
        top, grad1, scale = block_reference(first, x)
        grad2 = block_reference(second, x)[1]
        assert top > 1e-3
        assert np.abs(grad1 - grad2).max() > 1e-3 * scale
        for _ in eigen_paths(lapacke):
            ev = eval_nonsmooth(p, x)
            assert ev.value == pytest.approx(top, rel=1e-13)
            np.testing.assert_allclose(ev.gradient, grad1, atol=1e-9 * scale)

    def test_failed_dsyevr_call_falls_back_to_intact_block(self, lapacke):
        # the binding overwrites its copy of the block and then reports
        # info > 0: the result is the fallback's, bit for bit
        binding = symlinalg._lapacke("dsyevr")

        def failing(*args):
            if binding is not None:
                binding(*args)
            return 1

        inst = gen_lmi(48, 4, 0.5, 91)
        x = 3.0 * inst.witness + 0.5
        lapacke(dsyevr=None)
        want = eval_nonsmooth(inst.problem, x)
        assert want.value > 1e-3
        lapacke(dsyevr=failing)
        got = eval_nonsmooth(inst.problem, x)
        assert got.value == want.value
        assert got.gradient.tobytes() == want.gradient.tobytes()

    def test_feasible_point_exact_zero(self):
        inst = gen_lmi(48, 4, 0.5, 91)
        ev = eval_smooth(inst.problem, inst.witness)
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, np.zeros(4))


SINGLE = ("ssyevr", "ssytrf", "ssyevd")


def single_precision():
    """Whether every single-precision routine resolves."""
    return None not in [symlinalg._lapacke(name) for name in SINGLE]


def screened_cases():
    """(problem, points) pairs with blocks of size >= 32, where the oracles
    built here get a screen: one 48 block, and a stack of a 40 block, a 60
    block, a 10 block and two scalar rows, each at points above f = 0."""
    rng = np.random.default_rng(95)
    inst = gen_lmi(48, 4, 0.5, 91)
    yield inst.problem, [3.0 * inst.witness + rng.uniform(-1.0, 1.0, 4) for _ in range(3)]
    rows = [LmiProblem([[[c]] for c in rng.uniform(-1.0, 1.0, 4)], [[0.5]]) for _ in range(2)]
    p = stack([gen_lmi(40, 4, 0.5, 96).problem, gen_lmi(60, 4, 0.5, 97).problem,
               gen_lmi(10, 4, 0.5, 98).problem, *rows])
    points = (rng.uniform(-6.0, 6.0, 4) for _ in range(100))
    yield p, [x for x in points if eval_nonsmooth(p, x).value > 1e-3][:3]


def beyond_float32(shift):
    """An LMI in 4 variables on one 40 x 40 block whose A(x) - B is -1e39,
    beyond float32, at its corner and 0 on the rest of its first row and
    column, and a fixed random matrix less shift I on the rest."""
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((4, 40, 40))
    coeffs[:, 0, :] = coeffs[:, :, 0] = 0.0
    b = rng.standard_normal((40, 40)) + shift * np.eye(40)
    b[0, :] = b[:, 0] = 0.0
    b[0, 0] = 1e39
    return LmiProblem(list(coeffs), b)


class TestScreen:
    """The private screened evaluation that `nonsmooth_oracle` and
    `smooth_oracle` attach for blocks of size >= 32: float32 eigenvectors,
    and a float64 pair built from them that lies below f. A solve keeps
    its pair only when the value is above eps."""

    @pytest.mark.parametrize("make, exact", [(nonsmooth_oracle, eval_nonsmooth),
                                             (smooth_oracle, eval_smooth)],
                             ids=["nonsmooth", "smooth"])
    def test_screened_pairs_are_minorants(self, make, exact):
        rng = np.random.default_rng(99)
        for p, points in screened_cases():
            orc = make(p)
            if not single_precision():
                assert orc._screen is None
                continue
            for x in points:
                ev, want = orc._screen(x), exact(p, x)
                assert 0.0 < ev.value
                # a lower bound, and a tight one: float32 vectors enter the
                # value only to second order
                assert ev.value <= want.value * (1.0 + 1e-12)
                assert ev.value == pytest.approx(want.value, rel=1e-8)
                np.testing.assert_allclose(ev.gradient, want.gradient,
                                           atol=1e-4 * np.abs(want.gradient).max())
                for y in x + rng.standard_normal((8, p.num_vars)):
                    cut = ev.value + float(ev.gradient @ (y - x))
                    fy = exact(p, y).value
                    roundoff = 1e-12 * (1.0 + abs(fy) + np.abs(ev.gradient) @ np.abs(y - x))
                    assert cut <= fy + roundoff

    @pytest.mark.parametrize("make", [nonsmooth_oracle, smooth_oracle],
                             ids=["nonsmooth", "smooth"])
    def test_floor_screens_out(self, make):
        # a solve keeps a screened pair only when eps < value: at eps equal
        # to the screened value, and at a point where f = 0, `evaluate` runs
        p, points = next(screened_cases())
        orc = make(p)
        if orc._screen is None:
            return

        def evaluated(x, eps):
            """Whether a screened run with tolerance eps calls `evaluate` at x,
            and the pair it returns."""
            calls = []
            run = solvers._Run(orc, eps, 1, screened=True)
            run._evaluate = lambda y: calls.append(y) or orc.evaluate(y)
            ev = run.evaluate(x)
            return bool(calls), ev

        x = points[0]
        value = orc._screen(x).value
        assert evaluated(x, 0.5 * value)[0] is False
        called, ev = evaluated(x, value)
        assert called and ev.value == orc.evaluate(x).value
        witness = gen_lmi(48, 4, 0.5, 91).witness
        assert orc._screen(witness).value <= 0.0
        assert evaluated(witness, 0.0)[0] is True

    def test_block_beyond_float32_exact_beside_a_bound(self):
        # a stack of a 40 block whose A(x) - B holds -1e39, beyond float32,
        # alone in its first row and column, and gen_lmi's 48 block: the
        # screen takes the first block's exact term and the second's bound
        ordinary = gen_lmi(48, 4, 0.5, 91)
        if not single_precision():
            pytest.skip("this numpy lacks one of scipy_LAPACKE_{ssyevr,ssytrf,ssyevd}64_")
        rng = np.random.default_rng(7)
        x = 3.0 * ordinary.witness + rng.uniform(-1.0, 1.0, 4)
        alone = nonsmooth_oracle(ordinary.problem)._screen(x)
        top = eval_nonsmooth(ordinary.problem, x).value
        assert alone.value < top
        for above in (1.0, -1.0):
            # shifted so that the first block's top is the second's plus `above`
            first = beyond_float32(eval_nonsmooth(beyond_float32(0.0), x).value - top - above)
            p = stack([first, ordinary.problem])
            ns, want = nonsmooth_oracle(p)._screen(x), eval_nonsmooth(p, x)
            if above > 0.0:
                assert (ns.value, ns.gradient.tobytes()) == (want.value, want.gradient.tobytes())
            else:
                assert (ns.value, ns.gradient.tobytes()) == (alone.value, alone.gradient.tobytes())
            # the smooth terms add up: the first block's exact one, the second's bound
            sm = smooth_oracle(p)._screen(x)
            exact, bound = eval_smooth(first, x), smooth_oracle(ordinary.problem)._screen(x)
            assert bound.value < eval_smooth(ordinary.problem, x).value
            assert sm.value == exact.value + bound.value
            assert sm.gradient.tobytes() == (exact.gradient + bound.gradient).tobytes()
            for ev, f in ((ns, eval_nonsmooth), (sm, eval_smooth)):
                for y in x + rng.standard_normal((8, 4)):
                    fy = f(p, y).value
                    roundoff = 1e-12 * (1.0 + abs(fy) + np.abs(ev.gradient) @ np.abs(y - x))
                    assert ev.value + float(ev.gradient @ (y - x)) <= fy + roundoff

    def test_attached_only_for_large_blocks(self, lapacke):
        small = gen_lmi(20, 4, 0.5, 91).problem
        large = gen_lmi(48, 4, 0.5, 91).problem
        for make in (nonsmooth_oracle, smooth_oracle):
            assert make(small)._screen is None
            assert (make(large)._screen is not None) == single_precision()
        # each single-precision routine is needed; the double ones keep working
        for name in SINGLE:
            lapacke(**{name: None})
            assert nonsmooth_oracle(large)._screen is None
            assert smooth_oracle(large)._screen is None

    def test_public_evaluations_unscreened(self, lapacke):
        # eval_* never look up, so never run, a single-precision routine
        p, points = next(screened_cases())
        want = [(eval_nonsmooth(p, x), eval_smooth(p, x)) for x in points]
        looked = lapacke()
        for x, (ns, sm) in zip(points, want):
            for got, ev in ((eval_nonsmooth(p, x), ns), (eval_smooth(p, x), sm)):
                assert got.value == ev.value
                assert got.gradient.tobytes() == ev.gradient.tobytes()
        assert [name for name in looked if name in SINGLE] == []
