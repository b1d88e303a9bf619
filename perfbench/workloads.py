"""The benchmark workloads.

A workload is built once per benchmark run from the seed (inputs made and
certified, untimed); `run_once` is then one timed workload run: set-up from
the in-memory inputs, every solve, and output writing. The independent check
of every answer follows outside the timed region.

`reference` is a fixed kernel shaped like the workload's inner iteration,
written in numpy alone on inputs that do not depend on the seed (so no
change to lmisolve can change it). The benchmark divides each run's time by
it: on a shared host the speed of the whole machine drifts for tens of
seconds at a time, and by different amounts for interpreter-bound and
LAPACK-bound code, so each workload's reference mirrors its own mix.

Every call into lmisolve goes through a module attribute (`solvers.solve_smooth`,
`cli.main`, ...) so that the tracer can wrap it in place.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from lmisolve import cli, model, objectives, solvers, testbench

import instances


@dataclass
class Outcome:
    """One workload run: wall times, solve count, and one message per failed solve."""

    run_s: float
    setup_s: float
    attempted: int
    failures: list = field(default_factory=list)
    trace_bytes: int = 0


def _attempt(label, call, failures):
    """Run one solve; an exception counts as a failed solve, not a crash."""
    try:
        return call()
    except Exception:  # the benchmark must keep going and report the failure
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{label}: raised")
        return None


def _solved(label, result, failures):
    if result is None:
        return False
    if result.status is not solvers.SolveStatus.SOLVED:
        failures.append(f"{label}: status {result.status.value}")
        return False
    return True


def _sym_stack(rng, m, n):
    g = rng.standard_normal((m, n, n)) / np.sqrt(n)
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def _smooth_steps(a, x, steps):
    """`steps` evaluations shaped like eval_smooth: A(x), its full
    eigendecomposition, the positive part and the adjoint A^T."""
    for _ in range(steps):
        w, v = np.linalg.eigh(np.tensordot(x, a, axes=1))
        pos = (v * np.maximum(w, 0.0)) @ v.T
        np.tensordot(a, pos, axes=([1, 2], [0, 1]))


def _check(label, value, limit, failures):
    if not value <= limit:
        failures.append(f"{label}: independent check {value!r} > {limit!r}")


class LmiDense:
    """One certified LMI (n=300, m=20, thin margin), solved from x0 = 0 to
    eps = 1e-8 by solve_nonsmooth and solve_smooth (mu from the certificate)
    and by solve_bundle with both oracles under both stepsize policies: full
    eigendecompositions dominate."""

    EPS = 1e-8

    def __init__(self, seed, out_dir):
        self.inst = instances.build_lmi(seed)
        instances.validate_lmi(self.inst)
        rng = np.random.default_rng(0)
        self._ref = (_sym_stack(rng, 20, 300), rng.standard_normal(20))

    def reference(self):
        _smooth_steps(*self._ref, steps=22)

    def run_once(self) -> Outcome:
        inst, eps = self.inst, self.EPS
        failures = []
        t0 = time.perf_counter()
        p = model.LmiProblem(list(inst.a), inst.b)
        cert = model.SlaterCertificate(inst.d, inst.sigma)
        if not model.validate_certificate(p, cert):
            failures.append("certificate rejected by validate_certificate")
        t_setup = time.perf_counter()
        mu = model.mu_of(cert)
        x0 = np.zeros(p.num_vars)
        runs = [
            ("nonsmooth", inst.top_eig, lambda: solvers.solve_nonsmooth(p, mu, eps, x0=x0)),
            ("smooth", inst.dist_sq, lambda: solvers.solve_smooth(p, mu, eps, x0=x0)),
        ]
        oracles = (("nonsmooth", objectives.nonsmooth_oracle, inst.top_eig),
                   ("smooth", objectives.smooth_oracle, inst.dist_sq))
        for policy in (solvers.HARMONIC, solvers.RECURSIVE):
            for kind, make, measure in oracles:
                def call(make=make, pol=policy):
                    return solvers.solve_bundle(make(p), x0, eps, pol)
                runs.append((f"bundle-{kind}-{policy.kind}", measure, call))
        results = [(label, measure, _attempt(label, call, failures))
                   for label, measure, call in runs]
        t_end = time.perf_counter()
        limit = eps * (1.0 + instances.CHECK_RTOL)
        for label, measure, res in results:
            if _solved(label, res, failures):
                _check(label, measure(res.solution), limit, failures)
        return Outcome(t_end - t0, t_setup - t0, len(runs), failures)


class SdpPd:
    """Two SDP pairs (n=20, m=20) reduced by reduce_primal_dual to 81 x 81
    LMIs over 230 variables with no Slater point, each solved by
    solve_smooth (explicit mu) to eps = 1e-3: thousands of cheap iterations
    where A(x) and its adjoint dominate. The seed rotates two fixed base
    pairs (see instances.build_sdp), so the iteration count is the same for
    every seed. solve_bundle is left to lmi-dense: on these pairs its
    iteration count moves by up to 15% under an exact symmetry of the
    input (a signed permutation), which would swamp any timing.

    One 100 x 100 equality system (cond 300, about 4k iterations) is then
    solved through the CLI, so that parse_problem, cli.main, solve_linsys
    and the trace CSV are timed too; it is about 5% of a run. Its parse time
    counts into setup_s."""

    EPS = 1e-3
    MU = 30.0
    PAIRS = 2

    def __init__(self, seed, out_dir):
        self.insts = [instances.build_sdp(seed, k) for k in range(self.PAIRS)]
        for inst in self.insts:
            instances.validate_sdp(inst)
        self.cli = CliSolve(seed, out_dir)
        rng = np.random.default_rng(0)
        self._ref = (_sym_stack(rng, 230, 81), rng.standard_normal(230))

    def reference(self):
        _smooth_steps(*self._ref, steps=150)

    def run_once(self) -> Outcome:
        eps = self.EPS
        failures = []
        t0 = time.perf_counter()
        problems = [
            model.reduce_primal_dual(model.SdpPair(inst.c, list(inst.a), inst.b))
            for inst in self.insts
        ]
        t_setup = time.perf_counter()
        results = []
        for k, p in enumerate(problems):
            z0 = np.zeros(p.num_vars)
            results.append((f"pair{k}-smooth", self.insts[k], _attempt(
                f"pair{k}-smooth", lambda: solvers.solve_smooth(p, self.MU, eps, x0=z0), failures)))
        t_end = time.perf_counter()
        via_cli = self.cli.run_once()
        limit = eps * (1.0 + instances.CHECK_RTOL)
        for label, inst, res in results:
            if _solved(label, res, failures):
                lin = inst.linear_residual(res.solution)
                _check(f"{label} linear residual", float(lin @ lin), eps, failures)
                _check(label, inst.dist_sq(res.solution), limit, failures)
        return Outcome(t_end - t0 + via_cli.run_s, t_setup - t0 + via_cli.setup_s,
                       len(results) + via_cli.attempted, failures + via_cli.failures,
                       via_cli.trace_bytes)


class CliSolve:
    """An ill-conditioned square equality system written as a .lis file and
    solved in-process through `lmisolve solve --method linsys --trace`: no
    eigen work, thousands of cheap iterations, one trace CSV row per
    iteration. `run_once` times the CLI call; its setup_s is the time spent
    in cli.parse_problem."""

    EPS = 1e-8

    def __init__(self, seed, out_dir):
        inst = instances.build_linsys(seed)
        instances.validate_linsys(inst)
        lh = testbench.hoffman_eq(inst.a)
        if not abs(lh * inst.s_min - 1.0) <= 1e-6:
            raise ValueError(f"hoffman_eq gives {lh}, construction gives {1.0 / inst.s_min}")
        system = model.LinIneqSystem(inst.a, inst.b, ["eq"] * inst.b.shape[0])
        lis = Path(out_dir) / "linsys.lis"
        lis.write_text(cli.serialize_linsys(system), encoding="utf-8")
        self.trace = Path(out_dir) / "linsys.trace.csv"
        self.argv = ["solve", "--method", "linsys", "--lh", repr(lh), "--eps", repr(self.EPS),
                     "--trace", str(self.trace), str(lis)]

    def run_once(self) -> Outcome:
        failures = []
        parse_s = 0.0
        parse = cli.parse_problem

        def timed_parse(text):
            nonlocal parse_s
            t = time.perf_counter()
            try:
                return parse(text)
            finally:
                parse_s += time.perf_counter() - t

        out, err = io.StringIO(), io.StringIO()
        cli.parse_problem = timed_parse
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _attempt("cli", lambda: cli.main(self.argv), failures)
            t_end = time.perf_counter()
        finally:
            cli.parse_problem = parse
        trace_bytes = 0
        fields = dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
        if code is None:  # raised; already counted
            pass
        elif code != 0 or fields.get("status") != "Solved":
            failures.append(
                f"cli: exit {code}, status {fields.get('status')}, {err.getvalue().strip()}")
        else:
            data = self.trace.read_bytes()
            trace_bytes = len(data)
            _check("cli final_value", float(fields["final_value"]), self.EPS, failures)
            rows = data.count(b"\n") - 1
            if rows != int(fields["iterations"]):
                failures.append(f"cli: {rows} trace rows for {fields['iterations']} iterations")
        return Outcome(t_end - t0, parse_s, 1, failures, trace_bytes)


WORKLOADS = {"lmi-dense": LmiDense, "sdp-pd": SdpPd}
