"""Solver engines: phases, bundle machinery, restarted drivers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmisolve import model, objectives
from lmisolve import (
    DEFAULT_CAP,
    HARMONIC,
    RECURSIVE,
    DimensionMismatch,
    InfeasibleLevel,
    InvalidParameter,
    IterationCapReached,
    LinIneqSystem,
    LmiProblem,
    NonFiniteInput,
    Oracle,
    OracleEval,
    SolveStatus,
    SymMatrix,
    accelerated_phase,
    constants,
    eval_nonsmooth,
    eval_smooth,
    gap_reduction,
    gen_linsys,
    gen_lmi,
    hoffman_eq,
    level_project,
    linsys_oracle,
    mu_of,
    nonsmooth_oracle,
    smooth_oracle,
    solve_bundle,
    solve_linsys,
    solve_nonsmooth,
    solve_smooth,
    stack,
    stepsize_schedule,
    stepsizes,
    subgradient_phase,
)

GOLDEN = 0.6180339887498949


def one_d_problem():
    # constraint x <= 0, witness d = -1 with margin 1
    return LmiProblem([SymMatrix([[1.0]])], SymMatrix([[0.0]]))


def abs_value_problem():
    # blocks x - 1 <= 0 and 1 - x <= 0: f(x) = |x - 1|
    return LmiProblem([SymMatrix(np.diag([1.0, -1.0]))], SymMatrix(np.diag([1.0, -1.0])))


def stacked_zero(b):
    """A zero 2 x 2 block with rhs b I stacked with a zero scalar row with rhs b."""
    return stack([LmiProblem([np.zeros((2, 2))], b * np.eye(2)),
                  LmiProblem([[[0.0]]], [[b]])])


def box_max_problem():
    # f(x1, x2) = max(|x1|, |x2|)
    return LmiProblem(
        [SymMatrix(np.diag([1.0, -1.0, 0.0, 0.0])), SymMatrix(np.diag([0.0, 0.0, 1.0, -1.0]))],
        SymMatrix(np.zeros((4, 4))),
    )


def quadratic_oracle():
    def ev(x):
        return OracleEval(float(x[0] ** 2), np.array([2.0 * x[0]]))

    return Oracle(evaluate=ev, dim=1, grad_lipschitz=2.0, subgrad_bound=0.0)


class TestStepsizes:
    def test_harmonic_values(self):
        assert stepsizes(HARMONIC, 1) == pytest.approx((1.0, 1.0))
        assert stepsizes(HARMONIC, 3) == pytest.approx((0.5, 1.0 / 6.0))

    def test_recursive_values(self):
        assert stepsizes(RECURSIVE, 1) == pytest.approx((1.0, 1.0))
        alpha, gamma = stepsizes(RECURSIVE, 2)
        assert alpha == pytest.approx(GOLDEN, abs=1e-15)
        assert gamma == pytest.approx(GOLDEN**2, abs=1e-15)

    def test_schedule_matches_closed_form(self):
        for policy in (HARMONIC, RECURSIVE):
            sched = stepsize_schedule(policy)
            for t in range(1, 51):
                alpha, gamma = next(sched)
                a2, g2 = stepsizes(policy, t)
                assert alpha == pytest.approx(a2, abs=1e-14)
                assert gamma == pytest.approx(g2, abs=1e-14)

    def test_policy_conditions(self):
        # alpha_1 = 1, alpha in (0,1], alpha^2/Gamma <= C1, Gamma <= C2/t^2,
        # Gamma * sqrt(sum (alpha/Gamma)^2) <= C3/sqrt(t)
        for policy in (HARMONIC, RECURSIVE):
            sched = stepsize_schedule(policy)
            ratio_sq = 0.0
            for t in range(1, 1001):
                alpha, gamma = next(sched)
                if t == 1:
                    assert alpha == 1.0
                assert 0.0 < alpha <= 1.0
                assert alpha**2 / gamma <= policy.c1 + 1e-9
                assert gamma <= policy.c2 / t**2 + 1e-9
                ratio_sq += (alpha / gamma) ** 2
                assert gamma * math.sqrt(ratio_sq) <= policy.c3 / math.sqrt(t) + 1e-9

    def test_invalid_index(self):
        for policy, t in ((HARMONIC, 0), ("harmonic", 3), (None, 2)):
            with pytest.raises(InvalidParameter):
                stepsizes(policy, t)

    def test_bool_is_no_count(self):
        # True is an int; taken as 1 it would run one step or one iteration
        p, orc = one_d_problem(), quadratic_oracle()
        calls = {
            "t": lambda: stepsizes(HARMONIC, True),
            "K": lambda: subgradient_phase(orc, [1.0], True, 1.0),
            "cap": lambda: solve_smooth(p, 1.0, 1e-8, cap=True, x0=[1.0]),
        }
        for name, call in calls.items():
            with pytest.raises(InvalidParameter, match=f"{name} must be a positive integer, got True"):
                call()
        with pytest.raises(InvalidParameter, match="K must be a positive integer, got False"):
            accelerated_phase(orc, 2.0, [1.0], False)

    def test_constants_attached(self):
        assert (HARMONIC.c1, HARMONIC.c2) == (2.0, 2.0)
        assert HARMONIC.c3 == pytest.approx(2.0 / math.sqrt(3.0))
        assert (RECURSIVE.c1, RECURSIVE.c2) == (1.0, 4.0)
        assert RECURSIVE.c3 == pytest.approx(4.0 / math.sqrt(3.0))


class TestSubgradientPhase:
    def test_hand_trace(self):
        # steps of length gamma/sqrt(K) = 1/2 until the iterate hits 0
        orc = nonsmooth_oracle(one_d_problem())
        best, best_f = subgradient_phase(orc, [1.0], 4, 1.0)
        assert best_f == 0.0
        assert best[0] == 0.0

    def test_feasible_start(self):
        orc = nonsmooth_oracle(one_d_problem())
        best, best_f = subgradient_phase(orc, [-3.0], 4, 1.0)
        assert best_f == 0.0
        assert best[0] == -3.0

    def test_single_step(self):
        orc = nonsmooth_oracle(one_d_problem())
        best, best_f = subgradient_phase(orc, [1.0], 1, 0.5)
        assert best[0] == pytest.approx(0.5)
        assert best_f == pytest.approx(0.5)

    def test_best_over_new_iterates(self):
        # large step overshoots and comes back: best must track the minimum
        orc = nonsmooth_oracle(abs_value_problem())
        best, best_f = subgradient_phase(orc, [0.0], 6, 1.2)
        values = [abs(x - 1.0) for x in np.cumsum([1.2 / math.sqrt(6.0)] * 6)]
        assert best_f == pytest.approx(min(values), abs=1e-12)

    def test_invalid_inputs(self):
        orc = nonsmooth_oracle(one_d_problem())
        with pytest.raises(InvalidParameter):
            subgradient_phase(orc, [1.0], 0, 1.0)
        with pytest.raises(InvalidParameter):
            subgradient_phase(orc, [1.0], 4, 0.0)


class TestAcceleratedPhase:
    def test_quadratic_rate(self):
        orc = quadratic_oracle()
        for K in (1, 2, 5, 10):
            out = accelerated_phase(orc, 2.0, [1.0], K)
            assert float(out[0] ** 2) <= 4.0 * 2.0 / K**2 + 1e-12

    def test_optimum_is_fixed_point(self):
        out = accelerated_phase(quadratic_oracle(), 2.0, [0.0], 5)
        assert out[0] == 0.0

    def test_smooth_lmi_bound(self):
        orc = smooth_oracle(one_d_problem())
        out = accelerated_phase(orc, 2.0, [1.0], 10)
        assert orc.evaluate(out).value <= 0.08

    def test_deterministic(self):
        orc = smooth_oracle(one_d_problem())
        a = accelerated_phase(orc, 2.0, [1.0], 7)
        b = accelerated_phase(orc, 2.0, [1.0], 7)
        assert np.array_equal(a, b)

    def test_invalid_inputs(self):
        orc = quadratic_oracle()
        with pytest.raises(InvalidParameter):
            accelerated_phase(orc, 0.0, [1.0], 5)
        with pytest.raises(InvalidParameter):
            accelerated_phase(orc, 2.0, [1.0], 0)


class TestLevelProject:
    def test_scalar(self):
        out = level_project([1.0], [1.0], 1.0, [1.0], 0.0)
        assert out[0] == pytest.approx(0.0)

    def test_already_below(self):
        out = level_project([2.0], [0.0], 1.0, [1.0], 5.0)
        assert out[0] == 2.0

    def test_two_dim(self):
        out = level_project([0.0, 0.0], [0.0, 0.0], 2.0, [1.0, 1.0], 0.0)
        np.testing.assert_allclose(out, [-1.0, -1.0])

    def test_zero_gradient_above_level(self):
        with pytest.raises(InfeasibleLevel):
            level_project([1.0], [1.0], 1.0, [0.0], 0.0)

    def test_nonfinite_level_or_cut_raises(self):
        for level in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameter, match="level must be finite"):
                level_project([1.0], [0.0], 1.0, [1.0], level)
        for x_prev, fz in (([1.0], math.nan), ([math.nan], 1.0), ([1.0], math.inf)):
            with pytest.raises(NonFiniteInput, match="cut value"):
                level_project(x_prev, [0.0], fz, [1.0], 0.0)

    def test_overflowing_cut_raises(self):
        # finite inputs whose <g, x_prev - z> overflows: NonFiniteInput, not
        # a RuntimeWarning (which the tier-1 filter turns into an error)
        with pytest.raises(NonFiniteInput, match="cut value"):
            level_project([1e300], [-1e300], 0.0, [1e10], 0.0)

    def test_extreme_subgradient_scaled(self):
        # g @ g overflows at 1e200 and underflows to 0 at 1e-200; the step
        # comes from g scaled by a power of two, so both meet the cut with
        # no RuntimeWarning
        for g in (1e200, 1e-200):
            assert level_project([0.0], [0.0], 1.0, [g], 0.0)[0] == pytest.approx(-1.0 / g, rel=1e-15)
        # a step that itself overflows is an error, not an infinite point
        with pytest.raises(NonFiniteInput, match="projected point"):
            level_project([0.0], [0.0], 1.0, [1e-310], 0.0)

    def test_scaled_step_bit_equal(self):
        # where g @ g is a normal number the step is ((h - level) / (g @ g)) g
        # bit for bit, as before the scaling
        rng = np.random.default_rng(501)
        for scale in (1e-100, 1e-3, 1.0, 1e5, 1e100):
            for m in (1, 3, 20):
                x_prev, z, g = rng.normal(size=(3, m))
                g *= scale
                fz, level = 1.0 + abs(float(rng.normal())), -abs(float(rng.normal()))
                h = fz + float(g @ (x_prev - z))
                if h <= level:
                    continue
                want = x_prev - ((h - level) / float(g @ g)) * g
                assert level_project(x_prev, z, fz, g, level).tobytes() == want.tobytes()

    def test_halfspace_and_obtuse_angle(self):
        rng = np.random.default_rng(500)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            z, g = rng.normal(size=m), rng.normal(size=m)
            if np.linalg.norm(g) < 1e-6:
                continue
            fz, level = float(rng.normal()), float(rng.normal())
            x_prev = rng.normal(size=m) * 2.0
            out = level_project(x_prev, z, fz, g, level)
            h_out = fz + float(g @ (out - z))
            assert h_out <= level + 1e-12
            for _ in range(10):
                xf = rng.normal(size=m) * 3.0
                if fz + float(g @ (xf - z)) <= level:
                    assert float((x_prev - out) @ (xf - out)) <= 1e-9


class TestGapReduction:
    def test_one_step_hand_trace(self):
        orc = nonsmooth_oracle(one_d_problem())
        xbar, iters = gap_reduction(orc, [1.0], 0.0, HARMONIC)
        assert iters == 1
        assert xbar[0] == 0.0

    def test_quadratic_within_three(self):
        xbar, iters = gap_reduction(quadratic_oracle(), [1.0], 0.0, HARMONIC)
        assert iters <= 3
        assert float(xbar[0] ** 2) <= 0.5

    def test_tiny_start_still_halves(self):
        xbar, iters = gap_reduction(quadratic_oracle(), [1e-6], 0.0, HARMONIC)
        assert float(xbar[0] ** 2) <= 0.5e-12
        assert iters <= 3

    def test_two_dim_max(self):
        orc = nonsmooth_oracle(box_max_problem())
        xbar, iters = gap_reduction(orc, [1.0, 0.9], 0.0, HARMONIC)
        assert iters == 2
        assert orc.evaluate(xbar).value <= 0.5

    def test_cap_exhaustion_raises(self):
        orc = nonsmooth_oracle(box_max_problem())
        with pytest.raises(IterationCapReached):
            gap_reduction(orc, [1.0, 0.9], 0.0, HARMONIC, cap=1)

    def test_invalid_cap(self):
        with pytest.raises(InvalidParameter):
            gap_reduction(quadratic_oracle(), [1.0], 0.0, HARMONIC, cap=0)

    def test_nonfinite_level_is_named(self):
        # the level is blamed, not the point it would have produced
        with pytest.raises(InvalidParameter, match="level must be finite"):
            gap_reduction(quadratic_oracle(), [1.0], math.nan, HARMONIC)


def completed_phases_halve(result):
    return all(p.f_end <= 0.5 * p.f_start + 1e-12 for p in result.trace.phases if p.completed)


class TestSolveNonsmooth:
    def test_one_d_hand_run(self):
        res = solve_nonsmooth(one_d_problem(), 1.0, 1e-8, x0=[1.0])
        assert res.status is SolveStatus.SOLVED
        assert res.value == 0.0
        assert res.solution[0] <= 1e-8
        assert res.phases == 1
        assert res.iterations == 2

    def test_feasible_start(self):
        res = solve_nonsmooth(one_d_problem(), 1.0, 1e-8, x0=[-1.0])
        assert res.status is SolveStatus.SOLVED
        assert res.phases == 0
        assert res.iterations == 0

    def test_generated_instance_halves(self):
        inst = gen_lmi(5, 3, 1.0, 123)
        mu = np.linalg.norm(inst.certificate.point) / inst.certificate.margin
        res = solve_nonsmooth(inst.problem, float(mu), 1e-8, x0=3.0 * inst.witness)
        assert res.status is SolveStatus.SOLVED
        assert res.value <= 1e-8
        assert completed_phases_halve(res)
        starts = [p.f_start for p in res.trace.phases]
        assert all(b <= a for a, b in zip(starts, starts[1:]))

    def test_trace_rows_match_iterations(self):
        inst = gen_lmi(4, 2, 1.0, 55)
        res = solve_nonsmooth(inst.problem, 2.0, 1e-8, x0=2.0 * inst.witness)
        assert len(res.trace.rows) == res.iterations
        assert sum(p.iterations for p in res.trace.phases) == res.iterations

    def test_cap_status(self):
        # steps 1.2/sqrt(6) never land on the solution x = 1, so |x - 1|
        # oscillates under constant steps and a small cap must bind
        res = solve_nonsmooth(abs_value_problem(), 1.2, 1e-8, cap=5)
        assert res.status is SolveStatus.ITERATION_CAP
        assert res.iterations == 5

    def test_invalid_parameters(self):
        p = one_d_problem()
        with pytest.raises(InvalidParameter):
            solve_nonsmooth(p, 0.0, 1e-8)
        with pytest.raises(InvalidParameter):
            solve_nonsmooth(p, 1.0, 0.0)
        with pytest.raises(InvalidParameter):
            solve_nonsmooth(p, 1.0, 1e-8, cap=0)

    @pytest.mark.parametrize("solve", [solve_nonsmooth, solve_smooth, solve_linsys],
                             ids=["nonsmooth", "smooth", "linsys"])
    def test_zero_operator_rejected(self, solve):
        # a zero operator with rhs b: solved at x0 = 0 when b = 1 (the
        # residual -b is feasible), and no phase can start when b = -1;
        # the LMI solvers also get it as a 2 x 2 block and a scalar row
        def zeros(b):
            if solve is solve_linsys:
                return [LinIneqSystem([[0.0]], [b], ["le"])]
            return [LmiProblem([SymMatrix([[0.0]])], SymMatrix([[b]])), stacked_zero(b)]

        for p in zeros(1.0):
            assert solve(p, 1.0, 1e-8).status is SolveStatus.SOLVED
        for p in zeros(-1.0):
            with pytest.raises(InvalidParameter, match="operator is zero"):
                solve(p, 1.0, 1e-8)

    def test_deterministic(self):
        inst = gen_lmi(5, 3, 1.0, 321)
        a = solve_nonsmooth(inst.problem, 1.5, 1e-8, x0=2.0 * inst.witness)
        b = solve_nonsmooth(inst.problem, 1.5, 1e-8, x0=2.0 * inst.witness)
        assert np.array_equal(a.solution, b.solution)
        assert a.iterations == b.iterations


class TestSolveSmooth:
    def test_one_d_budget(self):
        # mu = 1 and opnorm = 1 give K = 4 accelerated steps per phase
        res = solve_smooth(one_d_problem(), 1.0, 1e-8, x0=[1.0])
        assert res.status is SolveStatus.SOLVED
        assert res.value <= 1e-8
        assert completed_phases_halve(res)

    def test_feasible_start(self):
        res = solve_smooth(one_d_problem(), 1.0, 1e-8, x0=[-0.5])
        assert res.phases == 0
        assert res.iterations == 0

    def test_generated_instance_halves(self):
        inst = gen_lmi(6, 4, 0.5, 222)
        mu = np.linalg.norm(inst.certificate.point) / inst.certificate.margin
        res = solve_smooth(inst.problem, float(mu), 1e-8, x0=3.0 * inst.witness)
        assert res.status is SolveStatus.SOLVED
        assert completed_phases_halve(res)

    def test_stacked_instance_halves(self):
        from lmisolve import stack

        inst = gen_lmi(4, 3, 1.0, 19)
        doubled = stack([inst.problem, inst.problem])
        mu = np.linalg.norm(inst.certificate.point) / inst.certificate.margin
        res = solve_smooth(doubled, float(mu), 1e-8, x0=3.0 * inst.witness)
        assert res.status is SolveStatus.SOLVED
        assert completed_phases_halve(res)

    def test_budget_from_exact_operator_norm(self):
        # A(x) = diag(x) (+) diag(-x) and B = diag(b) (+) diag(-b) pin x = b,
        # with f(x) = ||x - b||^2 = dist(x, X)^2, so mu = 1 is valid. ||A(x)||_F
        # = sqrt(2) ||x||, so ||A|| = sqrt(2), while the Frobenius sum
        # sqrt(sum ||A_i||_F^2) = 4 is sqrt(8) times larger and would plan
        # phases of ceil(16) = 16 steps instead of ceil(4 sqrt(2)) = 6
        b = np.linspace(-1.0, 1.0, 8)
        e = [np.diag(row) for row in np.eye(8)]
        p = stack([LmiProblem(e, np.diag(b)), LmiProblem([-a for a in e], -np.diag(b))])
        assert constants(p).opnorm == pytest.approx(math.sqrt(2.0), rel=1e-15)
        res = solve_smooth(p, 1.0, 1e-12, x0=np.full(8, 3.0))
        assert res.status is SolveStatus.SOLVED
        done = [ph for ph in res.trace.phases if ph.completed]
        assert len(done) >= 2 and done == list(res.trace.phases[:-1])
        assert [ph.iterations for ph in done] == [6] * len(done)
        assert res.trace.phases[-1].iterations <= 6
        assert completed_phases_halve(res)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            solve_smooth(one_d_problem(), -1.0, 1e-8)


class TestSolveBundle:
    def test_nonsmooth_one_d(self):
        orc = nonsmooth_oracle(one_d_problem())
        res = solve_bundle(orc, [1.0], 2.0**-10)
        assert res.status is SolveStatus.SOLVED
        assert res.value <= 2.0**-10
        assert res.phases <= 10
        assert all(p.iterations <= 6 for p in res.trace.phases)

    def test_feasible_start(self):
        orc = nonsmooth_oracle(one_d_problem())
        res = solve_bundle(orc, [-2.0], 1e-8)
        assert res.phases == 0
        assert res.iterations == 0

    def test_smooth_per_phase_budget(self):
        # T1 = ceil(sqrt(L C1 C2) mu) = ceil(2 sqrt2) = 3 for mu = 1
        orc = smooth_oracle(one_d_problem())
        res = solve_bundle(orc, [1.0], 1e-8, HARMONIC)
        assert res.status is SolveStatus.SOLVED
        assert all(p.iterations <= 3 for p in res.trace.phases)

    def test_both_policies_on_generated(self):
        inst = gen_lmi(5, 3, 1.0, 404)
        orc = nonsmooth_oracle(inst.problem)
        for policy in (HARMONIC, RECURSIVE):
            res = solve_bundle(orc, 3.0 * inst.witness, 1e-8, policy)
            assert res.status is SolveStatus.SOLVED
            assert completed_phases_halve(res)

    def test_phase_instrumentation(self):
        inst = gen_lmi(5, 3, 1.0, 405)
        orc = nonsmooth_oracle(inst.problem)
        res = solve_bundle(orc, 3.0 * inst.witness, 1e-8)
        for ph in res.trace.phases:
            gap = ph.start_point - inst.witness
            assert ph.prox_travel <= float(gap @ gap) + 1e-9
            assert ph.level_violation <= 1e-12

    def test_cap_status(self):
        orc = nonsmooth_oracle(box_max_problem())
        res = solve_bundle(orc, [1.0, 0.9], 1e-8, HARMONIC, cap=1)
        assert res.status is SolveStatus.ITERATION_CAP
        assert res.iterations == 1

    @pytest.mark.parametrize("make", [nonsmooth_oracle, smooth_oracle],
                             ids=["nonsmooth", "smooth"])
    def test_zero_operator_has_no_feasible_level(self, make):
        # the bundle needs no constants, so no zero-operator check runs:
        # the first cut has a zero subgradient and sits above level 0
        with pytest.raises(InfeasibleLevel):
            solve_bundle(make(stacked_zero(-1.0)), None, 1e-8)

    def test_invalid_policy(self):
        orc = nonsmooth_oracle(one_d_problem())
        with pytest.raises(InvalidParameter):
            solve_bundle(orc, [1.0], 1e-8, policy="harmonic")


class TestSolveLinsys:
    def test_scalar_equation(self):
        sys_ = LinIneqSystem([[1.0]], [1.0], ["eq"])
        res = solve_linsys(sys_, 1.0, 1e-8, x0=[0.0])
        assert res.status is SolveStatus.SOLVED
        assert abs(res.solution[0] - 1.0) <= 1e-3
        assert completed_phases_halve(res)

    def test_solved_start(self):
        sys_ = LinIneqSystem([[1.0]], [1.0], ["eq"])
        res = solve_linsys(sys_, 1.0, 1e-8, x0=[1.0])
        assert res.phases == 0

    def test_random_equality_system(self):
        sys_, witness = gen_linsys(20, 10, 606, kinds="eq")
        lh = hoffman_eq(np.array(sys_.rows))
        rng = np.random.default_rng(607)
        res = solve_linsys(sys_, lh, 1e-8, x0=witness + rng.normal(size=10))
        assert res.status is SolveStatus.SOLVED
        assert res.value <= 1e-8
        assert completed_phases_halve(res)

    def test_mixed_system(self):
        sys_, witness = gen_linsys(8, 12, 608, kinds="mixed")
        rows = np.array(sys_.rows)
        lh = hoffman_eq(rows[np.array(sys_.eq_mask)])
        res = solve_linsys(sys_, lh, 1e-8, x0=witness + 0.5)
        assert res.status is SolveStatus.SOLVED
        assert completed_phases_halve(res)

    def test_invalid_parameters(self):
        sys_ = LinIneqSystem([[1.0]], [1.0], ["eq"])
        with pytest.raises(InvalidParameter):
            solve_linsys(sys_, 0.0, 1e-8)

    def test_budget_bound(self):
        # K = ceil(sqrt(8 L) LH) with L = lambda_max(A^T A)
        sys_, witness = gen_linsys(6, 4, 609, kinds="eq")
        lh = hoffman_eq(np.array(sys_.rows))
        lip = linsys_oracle(sys_).grad_lipschitz
        res = solve_linsys(sys_, lh, 1e-8, x0=witness + 1.0)
        budget = max(1, math.ceil(math.sqrt(8.0 * lip) * lh))
        assert all(p.iterations <= budget for p in res.trace.phases)


class TestTraceAccounting:
    def test_rows_are_sequential(self):
        inst = gen_lmi(4, 3, 1.0, 777)
        res = solve_smooth(inst.problem, 2.0, 1e-8, x0=2.0 * inst.witness)
        totals = [r.total_iter for r in res.trace.rows]
        assert totals == list(range(1, res.iterations + 1))
        for row in res.trace.rows:
            assert row.elapsed_ms >= 0.0
            assert row.f_value >= 0.0
        # rows are derived from the two columns and the phase records
        for solve in repeat_free_solves().values():
            trace = solve().trace
            assert len(trace.phases) >= 3
            rows = trace.rows
            assert [(r.phase, r.iter) for r in rows] == [
                (ph.index, i) for ph in trace.phases for i in range(1, ph.iterations + 1)]
            assert np.array([r.f_value for r in rows]).tobytes() == trace.f_values.tobytes()
            assert np.array([r.elapsed_ms for r in rows]).tobytes() == trace.elapsed_ms.tobytes()
            assert not (trace.f_values.flags.writeable or trace.elapsed_ms.flags.writeable)
            # and the phase records are as read-only as the columns
            assert isinstance(trace.phases, tuple)
            assert not any(ph.start_point.flags.writeable for ph in trace.phases)

    def test_phase_indices(self):
        inst = gen_lmi(4, 3, 1.0, 778)
        res = solve_nonsmooth(inst.problem, 1.5, 1e-8, x0=2.0 * inst.witness)
        assert [p.index for p in res.trace.phases] == list(range(1, res.phases + 1))

    def test_retained_memory_is_bounded(self):
        # the stalled bundle solve: 3000 iterations in 3 phases, of which the
        # result must keep at most 32 B per iteration (two float64 columns)
        oracle = smooth_oracle(clashing_stack(gen_lmi(6, 3, 1.0, 0).problem))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = solve_bundle(oracle, np.zeros(3), 1e-8, cap=3000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.status is SolveStatus.ITERATION_CAP
        assert (res.iterations, res.phases) == (3000, 3)
        assert retained <= 32 * res.iterations

    def test_one_step_phases_retain_bounded_memory(self):
        # mu = 1e-3 makes every phase one subgradient step, so the result
        # keeps one PhaseRecord and one start point per iteration
        inst = gen_lmi(20, 10, 1.0, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = solve_nonsmooth(inst.problem, 1e-3, 1e-12, cap=2000, x0=3 * inst.witness)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.status is SolveStatus.ITERATION_CAP
        assert (res.iterations, res.phases) == (2000, 2000)
        assert retained <= 400 * res.iterations


def reference_restarts(oracle, x, K, cap):
    """The accelerated restart loop with no stall exit and no eps test:
    phases of K steps, the last one cut at the cap, each restarting from
    its end point only when that point is lower."""
    fx = oracle.evaluate(x).value
    used = 0
    while used < cap:
        k = min(K, cap - used)
        cand = accelerated_phase(oracle, oracle.grad_lipschitz, x, k)
        used += k
        fc = oracle.evaluate(cand).value
        if fc < fx:
            x, fx = cand, fc
    return x, fx


def clashing_stack(p):
    """p stacked with its reverse, A(x) - B >= I: no point is feasible."""
    reverse = LmiProblem([-a.mat for a in p.coeffs], -(p.rhs.mat + np.eye(p.dim)))
    return stack([p, reverse])


class TestSolveExits:
    def test_nan_oracle_raises(self):
        def ev(x):
            return OracleEval(math.nan, np.ones_like(x))

        orc = Oracle(evaluate=ev, dim=2, grad_lipschitz=0.0, subgrad_bound=1.0)
        with pytest.raises(NonFiniteInput):
            solve_bundle(orc, [1.0, 1.0], 1e-8)

    def test_overflowing_start_raises(self, monkeypatch):
        inst = gen_lmi(10, 4, 1.0, 3)
        with pytest.raises(NonFiniteInput):
            solve_smooth(inst.problem, mu_of(inst.certificate), 1e-8, cap=200,
                         x0=1e200 * np.ones(4))
        # on a block of size 48 the screen makes the first evaluation, on a
        # point it does not check: every LMI driver raises what it raises
        # with the screen off, message and all. From -1e308 A(x0) - B
        # overflows; from -1e200 the smooth value alone does
        inst = gen_lmi(48, 4, 0.5, 91)
        cases = [(label, -1e308) for label in LMI_DRIVERS]
        cases += [(label, -1e200) for label in ("smooth", "bundle-smooth")]

        def raised():
            out = []
            for label, scale in cases:
                with pytest.raises(NonFiniteInput) as err:
                    lmi_solve(inst, label, 200, x0=scale * np.ones(4))
                out.append(str(err.value))
            return out

        screened = raised()
        monkeypatch.setattr(objectives, "_screened", lambda oracle, *args: oracle)
        assert raised() == screened
        assert screened == (["A(x) - B contains NaN or Inf entries"] * 4
                            + ["oracle returned the non-finite value inf"] * 2)

    def test_overflowing_linsys_raises(self):
        # the data are finite, but ||A||^2 = 1e600 overflows
        with pytest.raises(NonFiniteInput, match=r"A\^T A contains NaN or Inf"):
            solve_linsys(LinIneqSystem([[1e300]], [0.0], ["eq"]), 1.0, 1e-8, x0=[1e10])

    @pytest.mark.parametrize("modulus", [1e308, math.inf], ids=["overflow", "inf"])
    @pytest.mark.parametrize("solve", [solve_nonsmooth, solve_smooth, solve_linsys],
                             ids=["nonsmooth", "smooth", "linsys"])
    def test_unbounded_budget_raises_invalid_parameter(self, solve, modulus):
        # x0 = 0 is infeasible (x >= 1); K = ceil(inf) would overflow
        if solve is solve_linsys:
            p = LinIneqSystem([[-1.0]], [-1.0], ["le"])
        else:
            p = LmiProblem([SymMatrix([[-1.0]])], SymMatrix([[-1.0]]))
        with pytest.raises(InvalidParameter, match="finite"):
            solve(p, modulus, 1e-8)

    def test_stall_ends_early_with_the_capped_answer(self):
        # A(x) - B <= 0 stacked with A(x) - B >= I has no solution: the
        # values bottom out near 4.6, a phase stops improving, and every
        # later phase would repeat it exactly
        inst = gen_lmi(6, 3, 1.0, 0)
        p = clashing_stack(inst.problem)
        mu = mu_of(inst.certificate)
        x0 = 3.0 * inst.witness
        res = solve_smooth(p, mu, 1e-300, cap=600, x0=x0)
        assert res.status is SolveStatus.STALLED
        assert res.iterations < 600
        last = res.trace.phases[-1]
        assert last.completed and last.f_end >= last.f_start
        K = max(1, math.ceil(4.0 * mu * constants(p).opnorm))
        ref_x, ref_f = reference_restarts(smooth_oracle(p), x0, K, 600)
        assert res.value == ref_f
        assert res.solution.tobytes() == ref_x.tobytes()

    def test_feasible_instance_reaches_exact_zero(self):
        # the positive part is exactly 0 once no eigenvalue is positive, so
        # even eps = 1e-300 is met on a feasible instance
        inst = gen_lmi(6, 3, 1.0, 0)
        res = solve_smooth(inst.problem, mu_of(inst.certificate), 1e-300, cap=600,
                           x0=3.0 * inst.witness)
        assert res.status is SolveStatus.SOLVED
        assert res.value == 0.0


# every entry point that takes a starting point, called on a one-variable
# problem (x <= 0, or the row x <= 0 of a linear system) from x0
START_POINT_CALLS = {
    "solve_nonsmooth": lambda x0: solve_nonsmooth(one_d_problem(), 1.0, 1e-8, x0=x0),
    "solve_smooth": lambda x0: solve_smooth(one_d_problem(), 1.0, 1e-8, x0=x0),
    "solve_linsys": lambda x0: solve_linsys(LinIneqSystem([[1.0]], [0.0], ["le"]), 1.0, 1e-8,
                                            x0=x0),
    "solve_bundle": lambda x0: solve_bundle(nonsmooth_oracle(one_d_problem()), x0, 1e-8),
    "subgradient_phase": lambda x0: subgradient_phase(nonsmooth_oracle(one_d_problem()), x0,
                                                      4, 1.0),
    "accelerated_phase": lambda x0: accelerated_phase(smooth_oracle(one_d_problem()), 2.0, x0, 4),
    "gap_reduction": lambda x0: gap_reduction(nonsmooth_oracle(one_d_problem()), x0, 0.0,
                                              HARMONIC),
}


def outcome_bytes(out):
    """A solve's or a phase's result as bytes, for exact comparison."""
    if hasattr(out, "solution"):
        return out.solution.tobytes(), out.value, out.iterations, out.phases, out.status
    parts = out if isinstance(out, tuple) else (out,)
    return tuple(np.asarray(part).tobytes() for part in parts)


class TestStartPoint:
    @pytest.mark.parametrize("name", sorted(START_POINT_CALLS))
    def test_wrong_length_raises_dimension_mismatch(self, name):
        with pytest.raises(DimensionMismatch, match="starting point must be a vector of length 1"):
            START_POINT_CALLS[name]([1.0, 1.0])

    @pytest.mark.parametrize("name", sorted(START_POINT_CALLS))
    def test_nan_raises_nonfinite_input(self, name):
        with pytest.raises(NonFiniteInput, match=r"^starting point contains NaN or Inf$"):
            START_POINT_CALLS[name]([math.nan])

    @pytest.mark.parametrize("name", sorted(START_POINT_CALLS))
    def test_zero_dim_start_is_the_one_vector(self, name):
        call = START_POINT_CALLS[name]
        assert outcome_bytes(call(np.array(1.0))) == outcome_bytes(call([1.0]))


class TestRestartProperties:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        scale=st.floats(1.5, 6.0),
        smooth=st.booleans(),
        cap=st.integers(1, 400),
        eps_exp=st.integers(4, 300),
    )
    def test_halving_and_exits(self, n, m, seed, scale, smooth, cap, eps_exp):
        inst = gen_lmi(n, m, 1.0, seed)
        mu = mu_of(inst.certificate)
        eps = 10.0**-eps_exp
        solve = solve_smooth if smooth else solve_nonsmooth
        res = solve(inst.problem, mu, eps, cap=cap, x0=scale * inst.witness)
        assert completed_phases_halve(res)
        assert res.iterations <= cap
        assert (res.status is SolveStatus.SOLVED) == (res.value <= eps)
        if res.status is SolveStatus.ITERATION_CAP:
            assert res.iterations == cap
        elif res.status is SolveStatus.STALLED:
            last = res.trace.phases[-1]
            assert last.completed and last.f_end >= last.f_start
        with pytest.raises(NonFiniteInput):
            solve_smooth(inst.problem, mu, eps, cap=cap, x0=1e200 * scale * inst.witness)


def repeat_free_solves():
    """Solves of every driver that each take several phases; mu = 0.3, below
    the certificate's 1.28, keeps the restarted phases short."""
    inst = gen_lmi(6, 3, 1.0, 778)
    p, mu, x0 = inst.problem, 0.3, 3.0 * inst.witness
    sys_, witness = gen_linsys(20, 10, 606, kinds="eq")
    lh = hoffman_eq(np.array(sys_.rows))
    return {
        "nonsmooth": lambda: solve_nonsmooth(p, mu, 1e-8, x0=x0),
        "smooth": lambda: solve_smooth(p, mu, 1e-8, x0=x0),
        "bundle-harmonic": lambda: solve_bundle(nonsmooth_oracle(p), x0, 1e-8, HARMONIC),
        "bundle-recursive": lambda: solve_bundle(smooth_oracle(p), x0, 1e-8, RECURSIVE),
        "linsys": lambda: solve_linsys(sys_, lh, 1e-8, x0=witness + 1.0),
    }


class TestOracleCalls:
    @pytest.fixture
    def points(self, monkeypatch):
        """Bytes of every point an oracle built here is evaluated at, in order."""
        seen = []
        for name in ("eval_nonsmooth", "eval_smooth", "eval_linsys"):
            def recorded(p, x, fn=getattr(objectives, name)):
                seen.append(np.asarray(x).tobytes())
                return fn(p, x)

            monkeypatch.setattr(objectives, name, recorded)
        return seen

    @pytest.mark.parametrize("label", sorted(repeat_free_solves()))
    def test_no_consecutive_calls_at_one_point(self, points, label):
        res = repeat_free_solves()[label]()
        assert res.status is SolveStatus.SOLVED
        assert res.phases >= 3
        # every phase calls the oracle at least once, so an empty record
        # would mean the solve went around objectives.eval_*
        assert len(points) >= res.phases
        assert all(a != b for a, b in zip(points, points[1:]))


def unscreened(p, make):
    """The oracle `make(p)` builds, as a user would build it: no screen."""
    built = make(p)
    ev = eval_nonsmooth if make is nonsmooth_oracle else eval_smooth
    return Oracle(lambda x: ev(p, x), built.dim, built.grad_lipschitz, built.subgrad_bound)


def full_bytes(res):
    """outcome_bytes of a solve, with its f column and its phases."""
    phases = tuple((ph.f_start, ph.f_end, ph.iterations, ph.completed, ph.start_point.tobytes())
                   for ph in res.trace.phases)
    return outcome_bytes(res), res.trace.f_values.tobytes(), phases


LMI_DRIVERS = ("nonsmooth", "smooth", "bundle-nonsmooth", "bundle-smooth")


def lmi_solve(inst, label, cap=DEFAULT_CAP, x0=None):
    """The solve of driver `label` on inst from x0, 3 times its witness by
    default, to eps = 1e-8."""
    p, mu = inst.problem, mu_of(inst.certificate)
    x0 = 3.0 * inst.witness if x0 is None else x0
    if label == "nonsmooth":
        return solve_nonsmooth(p, mu, 1e-8, cap, x0=x0)
    if label == "smooth":
        return solve_smooth(p, mu, 1e-8, cap, x0=x0)
    make = nonsmooth_oracle if label == "bundle-nonsmooth" else smooth_oracle
    return solve_bundle(make(p), x0, 1e-8, HARMONIC, cap)


def hazard_point(p, witness, kind):
    """A point x of the one-block problem p where f(x), from the float64
    oracle, lies above the value that float32 eigenvalues give, with both
    values: the float32 value is the top eigenvalue (non-smooth), or the sum
    of the squared positive eigenvalues (smooth), of A(x) - B in float32.
    x lies on a segment from the witness to an infeasible point, where
    lambda_max(A(x) - B) is 4e-9 (non-smooth) or 1e-4 (smooth); the sign of
    the float32 error varies from segment to segment."""
    rng = np.random.default_rng(7)
    target = 4e-9 if kind == "nonsmooth" else 1e-4
    for _ in range(20):
        u = 2.0 * witness + rng.uniform(-1.0, 1.0, witness.size)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if eval_nonsmooth(p, witness + mid * u).value < target:
                lo = mid
            else:
                hi = mid
        x = witness + hi * u
        w = np.linalg.eigvalsh(model._residuals(p, x)[0][0].astype(np.float32)).astype(float)
        if kind == "nonsmooth":
            f32, f64 = w[-1], eval_nonsmooth(p, x).value
        else:
            f32, f64 = float(np.sum(w[w > 0.0] ** 2)), eval_smooth(p, x).value
        if f32 < f64:
            return x, f32, f64
    raise AssertionError("no point where float32 reads below float64")


class TestScreenedSolves:
    """The restarted drivers evaluate through the oracle's screen first: a
    float64 pair, built from float32 eigenvectors, that lies below f and
    reads above eps. Every value <= eps, and every reported value, is the
    float64 oracle's."""

    @pytest.mark.parametrize("kind", ["nonsmooth", "smooth"])
    def test_float32_value_below_eps_is_not_solved(self, kind):
        inst = gen_lmi(48, 4, 0.5, 91)
        p, mu = inst.problem, mu_of(inst.certificate)
        x, f32, f64 = hazard_point(p, inst.witness, kind)
        eps = 0.5 * (max(f32, 0.0) + f64)
        assert f32 <= eps < f64
        if kind == "nonsmooth":
            exact = eval_nonsmooth
            solves = [solve_nonsmooth(p, mu, eps, 20, x0=x),
                      solve_bundle(nonsmooth_oracle(p), x, eps, HARMONIC, 20)]
        else:
            exact = eval_smooth
            solves = [solve_smooth(p, mu, eps, 20, x0=x),
                      solve_bundle(smooth_oracle(p), x, eps, HARMONIC, 20)]
        for res in solves:
            # a phase starts at x, from a value above eps
            assert res.phases >= 1 and res.trace.phases[0].f_start > eps
            assert res.value == exact(p, res.solution).value
            if res.status is SolveStatus.SOLVED:
                assert res.value <= eps and not np.array_equal(res.solution, x)

    @pytest.mark.parametrize("label", LMI_DRIVERS)
    def test_reported_values_are_float64(self, label):
        # a solve cut by its cap reports f at its point, not a screened bound
        inst = gen_lmi(60, 8, 1.0, 3)
        exact = eval_nonsmooth if label.endswith("nonsmooth") else eval_smooth
        for cap, status in ((2, SolveStatus.ITERATION_CAP), (DEFAULT_CAP, SolveStatus.SOLVED)):
            res = lmi_solve(inst, label, cap)
            assert res.status is status
            assert res.value == exact(inst.problem, res.solution).value

    @pytest.mark.parametrize("label", LMI_DRIVERS)
    def test_without_single_precision_unscreened_bits(self, monkeypatch, lapacke, label):
        # with only the single-precision lookups missing, each solve on
        # blocks of size >= 32 is the unscreened solve, bit for bit; the
        # screen itself keeps every status
        cases = [gen_lmi(48, 4, 0.5, 91), gen_lmi(60, 8, 1.0, 3)]
        screened = [lmi_solve(inst, label).status for inst in cases]
        lapacke(ssyevr=None, ssytrf=None, ssyevd=None)
        got = [full_bytes(lmi_solve(inst, label)) for inst in cases]
        monkeypatch.setattr(objectives, "_screened", lambda oracle, *args: oracle)
        want = [full_bytes(lmi_solve(inst, label)) for inst in cases]
        assert got == want
        assert screened == [SolveStatus.SOLVED] * 2

    @pytest.mark.parametrize("make", [nonsmooth_oracle, smooth_oracle],
                             ids=["nonsmooth", "smooth"])
    def test_small_blocks_match_user_built_oracle(self, make):
        # below size 32 no screen is attached: a solve through the oracle
        # built here is the solve through a user's Oracle, bit for bit
        inst = gen_lmi(20, 4, 1.0, 5)
        p, x0 = inst.problem, 3.0 * inst.witness
        assert make(p)._screen is None
        for policy in (HARMONIC, RECURSIVE):
            got = solve_bundle(make(p), x0, 1e-8, policy)
            want = solve_bundle(unscreened(p, make), x0, 1e-8, policy)
            assert got.iterations > 0
            assert full_bytes(got) == full_bytes(want)

    @pytest.mark.parametrize("make", [nonsmooth_oracle, smooth_oracle],
                             ids=["nonsmooth", "smooth"])
    def test_single_phase_operations_unscreened(self, make):
        # subgradient_phase, accelerated_phase and gap_reduction take
        # `evaluate` alone, whatever the block size
        inst = gen_lmi(48, 4, 0.5, 91)
        p, x0 = inst.problem, 3.0 * inst.witness

        def outcomes(orc):
            return [outcome_bytes(subgradient_phase(orc, x0, 5, 0.1)),
                    outcome_bytes(accelerated_phase(orc, 10.0, x0, 5)),
                    outcome_bytes(gap_reduction(orc, x0, 0.0, HARMONIC))]

        assert outcomes(make(p)) == outcomes(unscreened(p, make))
