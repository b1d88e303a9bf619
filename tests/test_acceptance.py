"""Acceptance battery: one test per criterion over seeded instance suites.

Each test prints a single `ACCEPTANCE NN <label>: PASS|FAIL` line (shown
with -s or -rA) and fails with the first few violations on any miss.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lmisolve import (
    HARMONIC,
    RECURSIVE,
    SolveStatus,
    SymMatrix,
    brute_feasibility,
    constants,
    distance_to_solutions,
    eval_linsys,
    eval_nonsmooth,
    eval_smooth,
    fd_gradient,
    gen_linsys,
    gen_lmi,
    hoffman_eq,
    level_project,
    linsys_oracle,
    mu_of,
    nonsmooth_oracle,
    parse_problem,
    project_neg_semidef,
    serialize_linsys,
    serialize_lmi,
    smooth_oracle,
    solve_bundle,
    solve_linsys,
    solve_nonsmooth,
    solve_smooth,
    stepsize_schedule,
)
from lmisolve.cli import main

EPS = 1e-8
TIMINGS = {}

COMBOS = [(n, m, s) for n in (2, 5, 10, 20) for m in (1, 3, 5, 10) for s in (0.1, 1.0)]
EQ_SHAPES = [(5, 8), (10, 14), (20, 28), (8, 12), (4, 9), (15, 21)]
MIXED_SHAPES = [(6, 10), (8, 14), (10, 18), (12, 20)]


def report(num, label, violations):
    ok = not violations
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}): {len(violations)} violations, first {violations[:3]}"


def build_lmi_suite():
    """The battery's 50 certified LMI instances, each with its mu and a
    start point where the non-smooth f is at least 1e-2."""
    entries = []
    for i in range(50):
        n, m, sigma = COMBOS[i % len(COMBOS)]
        inst = gen_lmi(n, m, sigma, 1000 + i)
        mu = mu_of(inst.certificate)
        scale = 1.0
        while True:
            x0 = (1.0 + scale) * inst.witness
            f0_ns = eval_nonsmooth(inst.problem, x0).value
            if f0_ns >= 1e-2:
                break
            scale *= 2.0
        entries.append(
            SimpleNamespace(
                index=i,
                inst=inst,
                mu=mu,
                x0=x0,
                f0_ns=f0_ns,
                f0_sm=eval_smooth(inst.problem, x0).value,
            )
        )
    return entries


def run_lmi_suite(entries):
    """Every LMI solve of the battery, keyed by (index, driver)."""
    runs = {}
    for e in entries:
        p = e.inst.problem
        bundle_policy = HARMONIC if e.index % 2 == 0 else RECURSIVE
        other_policy = RECURSIVE if e.index % 2 == 0 else HARMONIC
        runs[(e.index, "ns")] = solve_nonsmooth(p, e.mu, EPS, x0=e.x0)
        runs[(e.index, "sm")] = solve_smooth(p, e.mu, EPS, x0=e.x0)
        runs[(e.index, "bns")] = solve_bundle(nonsmooth_oracle(p), e.x0, EPS, bundle_policy)
        runs[(e.index, "bsm")] = solve_bundle(smooth_oracle(p), e.x0, EPS, other_policy)
    return runs


@pytest.fixture(scope="module")
def lmi_suite():
    t0 = time.perf_counter()
    entries = build_lmi_suite()
    TIMINGS["lmi_gen"] = time.perf_counter() - t0
    return entries


@pytest.fixture(scope="module")
def lmi_runs(lmi_suite):
    t0 = time.perf_counter()
    runs = run_lmi_suite(lmi_suite)
    TIMINGS["lmi_solve"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def lin_suite():
    t0 = time.perf_counter()
    entries = []
    specs = [("eq", EQ_SHAPES[j % len(EQ_SHAPES)], 2000 + j) for j in range(30)]
    specs += [("mixed", MIXED_SHAPES[j % len(MIXED_SHAPES)], 3000 + j) for j in range(20)]
    for kind, (p, q), seed in specs:
        sys_, witness = gen_linsys(p, q, seed, kinds=kind)
        rows = np.array(sys_.rows)
        eq_rows = rows[np.array(sys_.eq_mask)]
        lh = hoffman_eq(eq_rows)
        direction = eq_rows.T @ np.ones(eq_rows.shape[0])
        direction /= np.linalg.norm(direction)
        offset = 0.1
        while True:
            x0 = witness + offset * direction
            f0 = eval_linsys(sys_, x0).value
            if f0 >= 1e-4:
                break
            offset *= 4.0
        entries.append(
            SimpleNamespace(kind=kind, sys=sys_, witness=witness, lh=lh, x0=x0, f0=f0)
        )
    TIMINGS["lin_gen"] = time.perf_counter() - t0
    return entries


@pytest.fixture(scope="module")
def lin_runs(lin_suite):
    t0 = time.perf_counter()
    runs = [solve_linsys(e.sys, e.lh, EPS, x0=e.x0) for e in lin_suite]
    TIMINGS["lin_solve"] = time.perf_counter() - t0
    return runs


def test_criterion_01_halving_per_restart(lmi_suite, lmi_runs, lin_suite, lin_runs):
    violations = []
    for (idx, method), res in lmi_runs.items():
        if res.status is not SolveStatus.SOLVED:
            violations.append((idx, method, "status", res.status.value))
        for ph in res.trace.phases:
            if ph.completed and ph.f_end > 0.5 * ph.f_start + 1e-12:
                violations.append((idx, method, ph.index, ph.f_start, ph.f_end))
    for j, res in enumerate(lin_runs):
        if res.status is not SolveStatus.SOLVED:
            violations.append((j, "lin", "status", res.status.value))
        for ph in res.trace.phases:
            if ph.completed and ph.f_end > 0.5 * ph.f_start + 1e-12:
                violations.append((j, "lin", ph.index, ph.f_start, ph.f_end))
    elapsed = sum(TIMINGS.values())
    if elapsed >= 60.0:
        violations.append(("runtime", elapsed))
    report(1, "halving per restart", violations)


def test_criterion_02_iteration_bounds(lmi_suite, lmi_runs, lin_suite, lin_runs):
    violations = []

    def phases_needed(f0):
        return max(1, math.ceil(math.log2(f0 / EPS)))

    for e in lmi_suite:
        cst = constants(e.inst.problem)
        m_bound, opnorm, lip = cst
        k_ns = max(1, math.ceil(4.0 * m_bound**2 * e.mu**2))
        k_sm = max(1, math.ceil(4.0 * e.mu * opnorm))
        checks = [
            ("ns", k_ns, e.f0_ns),
            ("sm", k_sm, e.f0_sm),
        ]
        for method, budget, f0 in checks:
            res = lmi_runs[(e.index, method)]
            if res.iterations > budget * phases_needed(f0):
                violations.append((e.index, method, res.iterations, budget, f0))
        for method, f0 in (("bns", e.f0_ns), ("bsm", e.f0_sm)):
            res = lmi_runs[(e.index, method)]
            # policies alternate with index parity, mirroring the runs fixture
            if method == "bns":
                pol = HARMONIC if e.index % 2 == 0 else RECURSIVE
            else:
                pol = RECURSIVE if e.index % 2 == 0 else HARMONIC
            if method == "bns":
                per_phase = max(1, math.ceil(4.0 * m_bound**2 * pol.c3**2 * e.mu**2))
            else:
                per_phase = max(1, math.ceil(math.sqrt(lip * pol.c1 * pol.c2) * e.mu))
            if any(ph.iterations > per_phase for ph in res.trace.phases):
                violations.append((e.index, method, "phase-budget", per_phase))
            if res.iterations > per_phase * phases_needed(f0):
                violations.append((e.index, method, res.iterations, per_phase, f0))
    for j, (e, res) in enumerate(zip(lin_suite, lin_runs)):
        lip = linsys_oracle(e.sys).grad_lipschitz
        budget = max(1, math.ceil(math.sqrt(8.0 * lip) * e.lh))
        if res.iterations > budget * phases_needed(e.f0):
            violations.append((j, "lin", res.iterations, budget, e.f0))
    report(2, "iteration bounds", violations)


def test_criterion_03_oracle_gradients(lmi_suite, lin_suite):
    rng = np.random.default_rng(424242)
    violations = []
    checked = 0
    while checked < 100:
        e = lmi_suite[checked % len(lmi_suite)]
        x = e.inst.witness + rng.uniform(-1, 1, size=e.inst.problem.num_vars) * 2.0
        orc = smooth_oracle(e.inst.problem)
        ev = orc.evaluate(x)
        if ev.value < 1e-3:
            continue
        fd = fd_gradient(orc, x, 1e-6)
        rel = np.linalg.norm(fd - ev.gradient) / max(1e-8, np.linalg.norm(ev.gradient))
        if rel > 1e-4:
            violations.append(("smooth-fd", e.index, rel))
        checked += 1
    checked = 0
    while checked < 100:
        e = lin_suite[checked % len(lin_suite)]
        x = e.witness + rng.uniform(-1, 1, size=e.sys.num_vars)
        orc = linsys_oracle(e.sys)
        ev = orc.evaluate(x)
        if ev.value < 1e-3:
            continue
        fd = fd_gradient(orc, x, 1e-6)
        rel = np.linalg.norm(fd - np.asarray(ev.gradient)) / max(
            1e-8, np.linalg.norm(ev.gradient)
        )
        if rel > 1e-4:
            violations.append(("linsys-fd", checked, rel))
        checked += 1
    for k in range(100):
        e = lmi_suite[k % len(lmi_suite)]
        m = e.inst.problem.num_vars
        x = e.inst.witness + rng.uniform(-1, 1, size=m) * 2.0
        y = e.inst.witness + rng.uniform(-1, 1, size=m) * 2.0
        ex = eval_nonsmooth(e.inst.problem, x)
        ey = eval_nonsmooth(e.inst.problem, y)
        gap = ey.value - ex.value - float(np.asarray(ex.gradient) @ (y - x))
        if gap < -1e-9:
            violations.append(("subgradient", e.index, gap))
    report(3, "oracle gradients", violations)


def test_criterion_04_formulation_equivalence(lmi_suite):
    rng = np.random.default_rng(999)
    violations = []
    for k in range(1000):
        e = lmi_suite[k % len(lmi_suite)]
        m = e.inst.problem.num_vars
        x = e.inst.witness + rng.uniform(-1, 1, size=m) * (1.0 + float(np.linalg.norm(e.x0)))
        f_ns = eval_nonsmooth(e.inst.problem, x).value
        f_sm = eval_smooth(e.inst.problem, x).value
        if f_ns**2 > f_sm + 1e-10:
            violations.append((e.index, f_ns, f_sm))
    for e in lmi_suite:
        if eval_nonsmooth(e.inst.problem, e.inst.witness).value > 1e-12:
            violations.append((e.index, "witness-ns"))
        if eval_smooth(e.inst.problem, e.inst.witness).value > 1e-12:
            violations.append((e.index, "witness-sm"))
    report(4, "formulation equivalence", violations)


def test_criterion_05_cone_projection():
    rng = np.random.default_rng(271828)
    violations = []
    mats = []
    for k in range(200):
        n = int(rng.integers(1, 31))
        a = rng.normal(size=(n, n))
        mats.append(SymMatrix(a + a.T))
    for k, s in enumerate(mats):
        proj, resid = project_neg_semidef(s)
        again, _ = project_neg_semidef(proj)
        if np.linalg.norm(again.mat - proj.mat) > 1e-9:
            violations.append((k, "idempotence"))
        total = float(np.linalg.norm(s.mat)) ** 2
        parts = float(np.linalg.norm(proj.mat)) ** 2 + float(np.linalg.norm(resid.mat)) ** 2
        if abs(total - parts) > 1e-8 * max(1.0, total):
            violations.append((k, "pythagoras"))
        if abs(float(np.sum(proj.mat * resid.mat))) > 1e-9:
            violations.append((k, "complementarity"))
    for k in range(0, 198, 2):
        a, b = mats[k], mats[k + 1]
        if a.dim != b.dim:
            continue
        pa, _ = project_neg_semidef(a)
        pb, _ = project_neg_semidef(b)
        if np.linalg.norm(pa.mat - pb.mat) > np.linalg.norm(a.mat - b.mat) + 1e-9:
            violations.append((k, "nonexpansive"))
    report(5, "cone projection", violations)


def test_criterion_06_bundle_internals(lmi_suite, lmi_runs):
    violations = []
    for e in lmi_suite:
        for method in ("bns", "bsm"):
            res = lmi_runs[(e.index, method)]
            for ph in res.trace.phases:
                gap = ph.start_point - e.inst.witness
                if ph.prox_travel > float(gap @ gap) + 1e-9:
                    violations.append((e.index, method, ph.index, "prox-travel"))
                if ph.level_violation > 1e-12:
                    violations.append((e.index, method, ph.index, "level"))
    rng = np.random.default_rng(161803)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        z, g = rng.normal(size=m), rng.normal(size=m)
        if np.linalg.norm(g) < 1e-9:
            continue
        fz, level = float(rng.normal()), float(rng.normal())
        out = level_project(rng.normal(size=m) * 2.0, z, fz, g, level)
        if fz + float(g @ (out - z)) > level + 1e-12:
            violations.append(("level-project", m))
    report(6, "bundle internals", violations)


def test_criterion_07_stepsize_policies():
    violations = []
    for policy, name in ((HARMONIC, "harmonic"), (RECURSIVE, "recursive")):
        sched = stepsize_schedule(policy)
        ratio_sq = 0.0
        for t in range(1, 10001):
            alpha, gamma = next(sched)
            if t == 1 and alpha != 1.0:
                violations.append((name, t, "alpha1"))
            if not (0.0 < alpha <= 1.0):
                violations.append((name, t, "range", alpha))
            if alpha**2 / gamma > policy.c1 + 1e-9:
                violations.append((name, t, "c1"))
            if gamma > policy.c2 / t**2 + 1e-9:
                violations.append((name, t, "c2"))
            ratio_sq += (alpha / gamma) ** 2
            if gamma * math.sqrt(ratio_sq) > policy.c3 / math.sqrt(t) + 1e-9:
                violations.append((name, t, "c3"))
            if len(violations) > 5:
                break
    report(7, "stepsize policies", violations)


def test_criterion_08_hoffman_bound(lin_suite):
    rng = np.random.default_rng(853211)
    violations = []
    eq_entries = [e for e in lin_suite if e.kind == "eq"][:20]
    assert len(eq_entries) == 20
    for j, e in enumerate(eq_entries):
        rows = np.array(e.sys.rows)
        rhs = np.array(e.sys.rhs)
        for _ in range(50):
            x = e.witness + rng.normal(size=e.sys.num_vars) * 2.0
            dist = distance_to_solutions(rows, rhs, x)
            resid = float(np.linalg.norm(rows @ x - rhs))
            slack = 1e-8 * max(1.0, float(np.linalg.norm(x - e.witness)))
            if dist > e.lh * resid + slack:
                violations.append((j, dist, e.lh * resid))
    report(8, "hoffman bound", violations)


def test_criterion_09_brute_force_cross_check(lmi_suite, lmi_runs):
    violations = []
    small = [e for e in lmi_suite if e.inst.problem.num_vars <= 2]
    assert small, "suite must contain m <= 2 instances"
    for e in small:
        d = e.inst.witness
        box = [(float(d[j]) - 1.0, float(d[j]) + 1.0) for j in range(len(d))]
        _, best = brute_feasibility(e.inst.problem, box, 201)
        for method in ("ns", "sm", "bns", "bsm"):
            res = lmi_runs[(e.index, method)]
            value = eval_nonsmooth(e.inst.problem, res.solution).value
            if method in ("sm", "bsm"):
                value = eval_smooth(e.inst.problem, res.solution).value
            if value > best + 1e-6:
                violations.append((e.index, method, value, best))
    report(9, "brute force cross-check", violations)


def test_criterion_10_cli_contracts(lmi_suite, lin_suite, tmp_path, capsys):
    violations = []
    for e in lmi_suite:
        text = serialize_lmi(e.inst.problem, e.inst.certificate)
        problem, cert = parse_problem(text)
        if problem != e.inst.problem or cert != e.inst.certificate:
            violations.append((e.index, "lmi-parse"))
        if serialize_lmi(problem, cert) != text:
            violations.append((e.index, "lmi-reserialize"))
    for j, e in enumerate(lin_suite):
        text = serialize_linsys(e.sys)
        parsed, cert = parse_problem(text)
        if parsed != e.sys or cert is not None:
            violations.append((j, "lis-parse"))
        if serialize_linsys(parsed) != text:
            violations.append((j, "lis-reserialize"))
    # gen round trip through the command line
    if main(["gen", "--n", "4", "--m", "2", "--sigma", "0.5", "--seed", "3"]) != 0:
        violations.append(("gen", "exit"))
    gen_out = capsys.readouterr().out
    problem, cert = parse_problem(gen_out)
    if problem.dim != 4 or cert is None:
        violations.append(("gen", "content"))
    # exit code 0 plus trace rows = iterations + header
    e = lmi_suite[1]
    path = tmp_path / "inst.lmi"
    path.write_text(serialize_lmi(e.inst.problem, e.inst.certificate), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    far = tmp_path / "far.lmi"
    far.write_text("lmi 1 1\nB\n-1.0\nA 1\n-1.0\n", encoding="utf-8")
    code = main(["solve", "--method", "nonsmooth", "--mu", "1.2", "--trace", str(trace), str(far)])
    out = capsys.readouterr().out
    if code != 0 or "status=Solved" not in out:
        violations.append(("solve", "exit0"))
    iters = int(next(l for l in out.splitlines() if l.startswith("iterations=")).split("=")[1])
    lines = trace.read_text(encoding="utf-8").splitlines()
    if lines[0] != "phase,iter,total_iter,f_value,elapsed_ms":
        violations.append(("trace", "header"))
    if len(lines) != iters + 1:
        violations.append(("trace", "rows", len(lines), iters))
    # exit code 1 on a validation error
    if main(["solve", "--method", "nonsmooth", str(far)]) != 1:
        violations.append(("solve", "exit1"))
    capsys.readouterr()
    # exit code 2 when the cap truncates
    code = main(["solve", "--method", "nonsmooth", "--mu", "1.2", "--cap", "1", str(far)])
    out = capsys.readouterr().out
    if code != 2 or "status=IterationCapReached" not in out:
        violations.append(("solve", "exit2"))
    report(10, "cli contracts", violations)
