"""LMI data model: operator maps, constants, certificates, reductions."""

import math
import tracemalloc

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
    reduce_primal_dual,
    residual_map,
    serialize_lmi,
    stack,
    validate_certificate,
)


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

    def test_mu_examples(self):
        assert mu_of(SlaterCertificate([-1.0], 1.0)) == pytest.approx(1.0)
        assert mu_of(SlaterCertificate([3.0, 4.0], 2.0)) == pytest.approx(2.5)
        assert mu_of(SlaterCertificate([0.0], 1.0)) == 0.0

    def test_validate_on_generated(self):
        inst = gen_lmi(4, 3, 1.0, 11)
        assert validate_certificate(inst.problem, inst.certificate)
        inflated = SlaterCertificate(inst.certificate.point, inst.certificate.margin * 100.0)
        assert not validate_certificate(inst.problem, inflated)

    def test_validate_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_certificate(one_d_problem(), SlaterCertificate([1.0, 2.0], 1.0))


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

    def test_apply_dim_check(self):
        with pytest.raises(DimensionMismatch):
            apply_operator(one_d_problem(), [1.0, 2.0])

    def test_adjoint_examples(self):
        p = LmiProblem([SymMatrix(np.diag([1.0, 0.0]))], SymMatrix(np.zeros((2, 2))))
        np.testing.assert_allclose(adjoint_apply(p, SymMatrix([[2.0, 3.0], [3.0, 4.0]])), [2.0])
        np.testing.assert_allclose(adjoint_apply(p, SymMatrix(np.zeros((2, 2)))), [0.0])
        q = LmiProblem([SymMatrix([[0.0, 1.0], [1.0, 0.0]])], SymMatrix(np.zeros((2, 2))))
        np.testing.assert_allclose(adjoint_apply(q, SymMatrix([[0.0, 1.0], [1.0, 0.0]])), [2.0])

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
        c = constants(diag_pair_problem())
        assert c.subgrad_bound == pytest.approx(math.sqrt(2.0))
        assert c.opnorm == pytest.approx(math.sqrt(2.0))
        assert c.grad_lipschitz == pytest.approx(4.0)

    def test_ordering(self):
        # spectral <= Frobenius per coefficient, so M <= opnorm and L = 2 opnorm^2
        for seed in range(5):
            inst = gen_lmi(6, 3, 1.0, 100 + seed)
            c = constants(inst.problem)
            assert c.subgrad_bound <= c.opnorm + 1e-12
            assert c.grad_lipschitz == pytest.approx(2.0 * c.opnorm**2)


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

    def test_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            LinIneqSystem([[np.inf]], [0.0], ["le"])

    def test_residual_map_examples(self):
        sys_ = LinIneqSystem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], ["le", "eq"])
        np.testing.assert_allclose(residual_map(sys_, [-3.0, 2.0]), [0.0, 2.0])
        np.testing.assert_allclose(residual_map(sys_, [0.0, 0.0]), [0.0, 0.0])
        both_le = LinIneqSystem([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], ["le", "le"])
        np.testing.assert_allclose(residual_map(both_le, [1.0, -1.0]), [1.0, 0.0])

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

    def test_one_block_constants_unchanged(self):
        # a problem from the constructor sums its norms in variable order,
        # exactly as the constants were always computed
        for seed in range(4):
            p = gen_lmi(5, 4, 1.0, seed).problem
            spec_sq = fro_sq = 0.0
            for c in p.coeffs:
                fro, spec = np.linalg.norm(c.mat), np.abs(np.linalg.eigvalsh(c.mat)).max()
                spec_sq += float(spec) * float(spec)
                fro_sq += float(fro) * float(fro)
            assert constants(p) == (math.sqrt(spec_sq), math.sqrt(fro_sq), 2.0 * fro_sq)

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
