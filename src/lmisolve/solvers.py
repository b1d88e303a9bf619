"""Restarted first-order solvers.

Four drivers share three inner engines and one restart loop:

- solve_nonsmooth: projected subgradient phases of K = ceil(4 M^2 mu^2)
  steps, step length mu f(x_phase_start) / (M sqrt(K));
- solve_smooth: accelerated-gradient phases of K = ceil(4 mu ||A||) steps,
  ||A|| = sqrt(lambda_max(G)) the exact norm of x -> A(x), G_ij = <A_i, A_j>
  (see model.constants);
- solve_linsys: accelerated-gradient phases of K = ceil(sqrt(8 ||A||^2 L_H^2))
  steps on the clipped-residual objective;
- solve_bundle: bundle-level phases (gap reduction) that run until the
  upper bound halves, needing no Lipschitz or error-bound input.

Each phase halves the objective on instances where the error-bound modulus
mu (or the Hoffman constant L_H) is valid, which yields linear convergence;
over-estimating mu or L_H only lengthens phases and preserves halving.

A solve ends Solved once f <= eps, IterationCapReached once the cap on
inner iterations runs out, or Stalled once a completed phase ends no lower
than it started: a phase is a deterministic function of its start, so
every later phase would repeat it. An oracle value that is NaN or Inf
raises NonFiniteInput. The trace keeps each inner iteration's f and elapsed
ms in two float64 columns, and builds its TraceRows from them on read.

A solve calls the oracle once per new point: the restart loop evaluates
each phase's start point, and the phase reuses that evaluation for its
first probe instead of calling the oracle there again.

Each driver is one `_restart` call. An engine runs one phase from (x, f(x))
and returns (point, f(point) or None, completed); the bundle engine appends
(prox_travel, level_violation). `_restart` alone holds the zero-operator
rule: when a phase must start and both oracle constants are 0 (a constant
objective), every driver but solve_bundle raises InvalidParameter.

The accelerated scheme is fixed as: theta_t = 2/(t+1),
y = (1-theta) xbar + theta z, xbar <- y - grad/L, z <- z - (t+1)/(2L) grad,
with z_0 = xbar_0 = x_0. It satisfies
f(xbar_K) - f* <= 2 L d^2(x_0, X*) / (K (K+1)), the inequality all restart
budgets here are sized against.
"""

from __future__ import annotations

import array
import enum
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleLevel,
    InvalidParameter,
    IterationCapReached,
    NonFiniteInput,
)
# constants stays importable here for perfbench's tracer
from .model import (LinIneqSystem, LmiProblem, _count, _finite, _operator_norm,  # noqa: F401
                    _positive, _vector, constants)
from .objectives import Oracle, linsys_oracle, nonsmooth_oracle, smooth_oracle
from .symlinalg import _freeze

__all__ = [
    "DEFAULT_CAP",
    "StepsizePolicy",
    "HARMONIC",
    "RECURSIVE",
    "stepsizes",
    "stepsize_schedule",
    "TraceRow",
    "PhaseRecord",
    "SolveTrace",
    "SolveStatus",
    "SolveResult",
    "subgradient_phase",
    "accelerated_phase",
    "level_project",
    "gap_reduction",
    "solve_nonsmooth",
    "solve_smooth",
    "solve_bundle",
    "solve_linsys",
]

DEFAULT_CAP = 10_000_000


# ---------------------------------------------------------------------------
# stepsize policies


@dataclass(frozen=True)
class StepsizePolicy:
    """Bundle stepsize rule with the constants (C1, C2, C3) for which
    alpha_t^2 / Gamma_t <= C1, Gamma_t <= C2 / t^2 and
    Gamma_t sqrt(sum_tau (alpha_tau / Gamma_tau)^2) <= C3 / sqrt(t)."""

    kind: str
    c1: float
    c2: float
    c3: float


HARMONIC = StepsizePolicy("harmonic", 2.0, 2.0, 2.0 / math.sqrt(3.0))
RECURSIVE = StepsizePolicy("recursive", 1.0, 4.0, 4.0 / math.sqrt(3.0))


def _check_policy(policy):
    if not isinstance(policy, StepsizePolicy) or policy.kind not in ("harmonic", "recursive"):
        raise InvalidParameter("policy must be HARMONIC or RECURSIVE")


def stepsize_schedule(policy: StepsizePolicy):
    """Generator of (alpha_t, Gamma_t) for t = 1, 2, ... in O(1) per step."""
    _check_policy(policy)
    if policy.kind == "harmonic":
        for t in itertools.count(1):
            yield 2.0 / (t + 1.0), 2.0 / (t * (t + 1.0))
    else:
        yield 1.0, 1.0
        gamma = 1.0
        while True:
            # positive root of alpha^2 + Gamma alpha - Gamma = 0
            alpha = 0.5 * (math.sqrt(gamma * gamma + 4.0 * gamma) - gamma)
            gamma = alpha * alpha
            yield alpha, gamma


def stepsizes(policy: StepsizePolicy, t: int) -> tuple[float, float]:
    """(alpha_t, Gamma_t) for a single index t >= 1: the t-th item of
    stepsize_schedule(policy), so the cost is O(t).

    HARMONIC gives alpha_t = 2/(t+1), Gamma_t = 2/(t(t+1)); RECURSIVE sets
    alpha_1 = Gamma_1 = 1 and then alpha_t as the positive root of
    alpha^2 + Gamma_{t-1} alpha - Gamma_{t-1} = 0 with Gamma_t = alpha_t^2.
    """
    t = _count("t", t)
    return next(itertools.islice(stepsize_schedule(policy), t - 1, None))


# ---------------------------------------------------------------------------
# traces and results


@dataclass(frozen=True)
class TraceRow:
    """One inner iteration: phase and within-phase indices are 1-based."""

    phase: int
    iter: int
    total_iter: int
    f_value: float
    elapsed_ms: float


@dataclass(frozen=True, eq=False, slots=True)
class PhaseRecord:
    """One restart phase, from its read-only start_point. `completed` means
    the phase reached its planned budget (restarted methods) or its halving
    target (bundle); phases cut short by eps or by the iteration cap are not
    completed. prox_travel and level_violation are filled by bundle phases only."""

    index: int
    f_start: float
    f_end: float
    iterations: int
    completed: bool
    start_point: np.ndarray
    prox_travel: float | None = None
    level_violation: float | None = None


@dataclass(frozen=True, eq=False)
class SolveTrace:
    """Each inner iteration's f and elapsed ms (read-only float64), and the phase tuple."""

    f_values: np.ndarray
    elapsed_ms: np.ndarray
    phases: tuple

    @property
    def rows(self):
        """One TraceRow per inner iteration, built anew on each read."""
        return [TraceRow(*row) for row in self._tuples()]

    def _tuples(self):
        """(phase, iter, total_iter, f_value, elapsed_ms) per inner iteration:
        phase j takes the next phases[j].iterations entries of the columns."""
        cols = zip(itertools.count(1), self.f_values.tolist(), self.elapsed_ms.tolist())
        return ((ph.index, i, *next(cols)) for ph in self.phases
                for i in range(1, ph.iterations + 1))


class SolveStatus(enum.Enum):
    SOLVED = "Solved"
    ITERATION_CAP = "IterationCapReached"
    STALLED = "Stalled"


@dataclass(frozen=True, eq=False)
class SolveResult:
    solution: np.ndarray
    value: float
    iterations: int
    phases: int
    trace: SolveTrace
    status: SolveStatus


class _Run:
    """One solve's oracle, stopping tolerance eps, and each inner iteration's
    f and elapsed ms in two growing float64 columns, held against a cap."""

    __slots__ = ("_evaluate", "_last_key", "_last_eval", "eps", "cap", "f_values",
                 "elapsed_ms", "t0")

    def __init__(self, oracle, eps, cap):
        self._evaluate = oracle.evaluate
        self._last_key = None
        self._last_eval = None
        self.eps = eps
        self.cap = cap
        self.f_values = array.array("d")
        self.elapsed_ms = array.array("d")
        self.t0 = time.perf_counter()

    def evaluate(self, x):
        """The oracle at x; a call at the point just evaluated returns the
        stored result. Points are compared by bytes, so -0.0 and 0.0 differ
        and a reused result is bit-for-bit what a new call would give."""
        key = x.tobytes()
        if key == self._last_key:
            return self._last_eval
        ev = self._evaluate(x)
        if not math.isfinite(ev.value):
            raise NonFiniteInput(f"oracle returned the non-finite value {ev.value}")
        self._last_key, self._last_eval = key, ev
        return ev

    def remaining(self):
        return self.cap - len(self.f_values)

    def record(self, value):
        self.f_values.append(value)
        self.elapsed_ms.append((time.perf_counter() - self.t0) * 1e3)


def _point(x, dim):
    if x is None:
        return np.zeros(dim)
    return _vector(x, dim, "starting point")


def _budget(value):
    """Restart length: ceiling, clamped to at least one step."""
    if not math.isfinite(value):
        raise InvalidParameter(f"phase budget {value} is not finite; mu or L_H is too large")
    return max(1, math.ceil(value))


# ---------------------------------------------------------------------------
# inner engines


def _subgradient_steps(run, x, fx, K, mu, m):
    """K subgradient steps of constant length gamma / sqrt(K), with
    gamma = mu f(x) / m; best of the new iterates."""
    step = mu * fx / m / math.sqrt(K)
    cur = x
    g = run.evaluate(cur).gradient
    best = x
    best_f = math.inf
    for i in range(1, min(K, run.remaining()) + 1):
        cur = cur - step * g
        ev = run.evaluate(cur)
        run.record(ev.value)
        if ev.value < best_f:
            best, best_f = cur, float(ev.value)
        g = ev.gradient
        if ev.value <= run.eps:
            break
    return best, best_f, i == K


def _accelerated_steps(run, x, fx, lip, K):
    """K accelerated-gradient steps from x (f(x) is not used); returns the
    last xbar, or the probe point y_t if its value already meets eps."""
    xbar = x
    z = x
    for t in range(1, min(K, run.remaining()) + 1):
        theta = 2.0 / (t + 1.0)
        y = (1.0 - theta) * xbar + theta * z
        ev = run.evaluate(y)
        run.record(ev.value)
        if ev.value <= run.eps:
            return y, float(ev.value), t == K
        xbar = y - ev.gradient / lip
        z = z - ((t + 1.0) / (2.0 * lip)) * ev.gradient
    return xbar, None, t == K


def _gap_reduction_steps(run, x0u, fbar0, level, policy):
    """Bundle-level gap reduction: run until the upper bound halves."""
    x_prev = x0u
    xu = x0u
    fbar = float(fbar0)
    target = 0.5 * fbar0
    travel = 0.0
    viol = 0.0
    sched = stepsize_schedule(policy)
    for t in range(1, run.remaining() + 1):
        alpha, _ = next(sched)
        xl = (1.0 - alpha) * xu + alpha * x_prev
        evl = run.evaluate(xl)
        g = evl.gradient
        x_new = level_project(x_prev, xl, evl.value, g, level)
        d = x_new - x_prev
        travel += float(d @ d)
        viol = max(viol, evl.value + float(g @ (x_new - xl)) - level)
        xtilde = alpha * x_new + (1.0 - alpha) * xu
        evu = run.evaluate(xtilde)
        if evu.value <= fbar:
            xu = xtilde
            fbar = float(evu.value)
        run.record(fbar)
        x_prev = x_new
        if fbar <= target or fbar <= run.eps:
            break
    return xu, fbar, fbar <= target, travel, viol


# ---------------------------------------------------------------------------
# public single-phase operations


def subgradient_phase(oracle: Oracle, x0, K: int, gamma: float):
    """Run K constant-step subgradient iterations x <- x - (gamma/sqrt(K)) g
    and return (best_point, best_value) over the K new iterates."""
    K = _count("K", K)
    gamma = _positive("gamma", gamma)
    x = _point(x0, oracle.dim)
    # mu = gamma with f(x) = m = 1 is a step of exactly gamma / sqrt(K)
    return _subgradient_steps(_Run(oracle, -math.inf, K), x, 1.0, K, gamma, 1.0)[:2]


def accelerated_phase(oracle: Oracle, L: float, x0, K: int):
    """Run K accelerated-gradient iterations from x0 and return the final
    point, which satisfies f(x_K) - f* <= 2 L d^2(x0, X*) / (K (K+1))."""
    L = _positive("L", L)
    K = _count("K", K)
    x = _point(x0, oracle.dim)
    return _accelerated_steps(_Run(oracle, -math.inf, K), x, None, L, K)[0]


def level_project(x_prev, z, fz, g, level):
    """Project x_prev onto the halfspace {x : fz + <g, x - z> <= level}.

    Returns x_prev unchanged when it already satisfies the constraint.
    Raises InfeasibleLevel when the model sits above the level with g = 0,
    in which case no point can reach it, InvalidParameter for a level that
    is NaN or Inf, and NonFiniteInput for a cut value or a projected point
    that is.
    """
    if not math.isfinite(level):
        raise InvalidParameter(f"level must be finite, got {level}")
    x_prev = np.asarray(x_prev, dtype=float)
    z = np.asarray(z, dtype=float)
    g = _finite(np.asarray(g, dtype=float), "subgradient")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        h = float(fz) + float(g @ (x_prev - z))
    if not math.isfinite(h):
        raise NonFiniteInput(f"cut value fz + <g, x_prev - z> is {h}")
    if h <= level:
        return x_prev.copy()
    # g scaled by 2^-e, its largest entry in [0.5, 1): u @ u cannot overflow
    # or vanish, and power-of-two scaling is exact, so the step is
    # ((h - level) / (g @ g)) g, bit for bit, wherever that one is finite
    e = -int(np.frexp(np.abs(g).max())[1])
    u = np.ldexp(g, e)
    uu = float(u @ u)
    if uu == 0.0:
        raise InfeasibleLevel("cutting model sits above the level with zero subgradient")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as NonFiniteInput
        out = x_prev - np.ldexp((h - level) / uu, e) * u
    return _finite(out, "projected point")


def gap_reduction(oracle: Oracle, x0u, level: float, policy: StepsizePolicy,
                  cap: int = DEFAULT_CAP):
    """Bundle-level gap reduction from x0u: iterate cut/project/average
    until the upper bound f(x_t_u) drops to half of f(x0u).

    Returns (xbar, iterations). Raises IterationCapReached when cap runs
    out first and InfeasibleLevel when a cut degenerates (level below the
    model minimum).
    """
    _check_policy(policy)
    cap = _count("cap", cap)
    x = _point(x0u, oracle.dim)
    run = _Run(oracle, -math.inf, cap)
    f0 = float(run.evaluate(x).value)
    out = _gap_reduction_steps(run, x, f0, float(level), policy)
    if not out[2]:
        raise IterationCapReached(f"gap reduction exhausted the cap of {cap} iterations")
    return out[0], len(run.f_values)


# ---------------------------------------------------------------------------
# restarted drivers


def _restart(oracle, x0, eps, cap, engine, *args, sized=True):
    """The restart loop: engine(run, x, f(x), *args) runs one phase and returns
    its tuple; the solve restarts from its point only when that point is lower.
    A phase starts only while iterations remain, so every engine takes a step;
    a `sized` engine (steps from oracle constants) raises on a zero operator."""
    _positive("eps", eps)
    run = _Run(oracle, eps, _count("cap", cap))
    x = _point(x0, oracle.dim)
    fx = float(run.evaluate(x).value)
    if fx > eps and sized and max(oracle.grad_lipschitz, oracle.subgrad_bound) <= 0.0:
        raise InvalidParameter("the operator is zero; the objective is constant")
    phases, status = [], SolveStatus.SOLVED
    while fx > eps:
        before = len(run.f_values)
        point, f_end, completed, *bundle = engine(run, x, fx, *args)
        f_end = float(run.evaluate(point).value) if f_end is None else f_end
        phases.append(PhaseRecord(len(phases) + 1, fx, f_end, len(run.f_values) - before,
                                  completed, _freeze(x.copy()), *bundle))
        if f_end < fx:
            x, fx = point, f_end
        elif completed:
            status = SolveStatus.STALLED
            break
        if fx > eps and run.remaining() <= 0:
            status = SolveStatus.ITERATION_CAP
            break
    return SolveResult(
        solution=x,
        value=fx,
        iterations=len(run.f_values),
        phases=len(phases),
        trace=SolveTrace(_freeze(np.frombuffer(run.f_values)),
                         _freeze(np.frombuffer(run.elapsed_ms)), tuple(phases)),
        status=status,
    )


def solve_nonsmooth(p: LmiProblem, mu: float, eps: float, cap: int = DEFAULT_CAP,
                    *, x0=None) -> SolveResult:
    """Restarted subgradient method on max(lambda_max(A(x) - B), 0).

    Each phase runs K = ceil(4 M^2 mu^2) steps with constant step length
    gamma / sqrt(K), gamma = mu f(x_start) / M recomputed at each restart,
    and restarts from the best iterate; each completed phase halves the
    objective when mu is a valid error-bound modulus.
    """
    _positive("mu", mu)
    oracle = nonsmooth_oracle(p)
    m = oracle.subgrad_bound
    K = _budget(4.0 * m * m * mu * mu)
    return _restart(oracle, x0, eps, cap, _subgradient_steps, K, mu, m)


def solve_smooth(p: LmiProblem, mu: float, eps: float, cap: int = DEFAULT_CAP,
                 *, x0=None) -> SolveResult:
    """Restarted accelerated gradient method on the squared cone distance.

    Each phase runs K = ceil(4 mu ||A||) accelerated steps with
    L = 2 ||A||^2 and restarts from the final point. ||A|| is the exact
    operator norm (see constants), the least value the accelerated bound
    admits, so phases are as short and steps 1/L as long as it allows.
    The subgradient bound M is not computed.
    """
    _positive("mu", mu)
    oracle = smooth_oracle(p)
    K = _budget(4.0 * mu * _operator_norm(p)[0])
    return _restart(oracle, x0, eps, cap, _accelerated_steps, oracle.grad_lipschitz, K)


def solve_bundle(oracle: Oracle, p0, eps: float, policy: StepsizePolicy = HARMONIC,
                 cap: int = DEFAULT_CAP) -> SolveResult:
    """Restarted bundle-level method: repeat gap reduction (level 0) until
    the upper bound reaches eps. Needs no smoothness or error-bound input;
    stepsizes reset to alpha_1 = 1 at the start of every phase."""
    _check_policy(policy)
    return _restart(oracle, p0, eps, cap, _gap_reduction_steps, 0.0, policy, sized=False)


def solve_linsys(sys: LinIneqSystem, LH: float, eps: float, cap: int = DEFAULT_CAP,
                 *, x0=None) -> SolveResult:
    """Restarted accelerated gradient method on 0.5 ||e(Ax - b)||^2.

    Each phase runs K = ceil(sqrt(8 ||A||^2 L_H^2)) steps with L = ||A||^2;
    halving per phase holds when L_H is a valid Hoffman constant.
    """
    _positive("LH", LH)
    oracle = linsys_oracle(sys)
    K = _budget(math.sqrt(8.0 * oracle.grad_lipschitz) * LH)
    return _restart(oracle, x0, eps, cap, _accelerated_steps, oracle.grad_lipschitz, K)
