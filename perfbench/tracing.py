"""Spans around the calls into each lmisolve layer, recorded from outside the
package.

Each public function is wrapped at the module attribute its callers resolve
at call time (for example `lmisolve.objectives.lambda_max`, which
`eval_nonsmooth` calls, or `lmisolve.cli.solve_linsys`, which `cli.main`
calls), so nothing under src/ changes. A span records its run id, its own id,
its parent's id, its name (layer.function), and its start and end. Spans stay
in memory until the benchmark run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

from lmisolve import cli, model, objectives, solvers

# (module, attribute, span name); the layer is the span name's first part.
TARGETS = [
    (objectives, "lambda_max", "symlinalg.lambda_max"),
    (model, "lambda_max", "symlinalg.lambda_max"),
    (objectives, "project_neg_semidef", "symlinalg.project_neg_semidef"),
    (model, "norms", "symlinalg.norms"),
    (objectives, "eig_sym", "symlinalg.eig_sym"),
    (objectives, "constants", "model.constants"),
    (solvers, "constants", "model.constants"),
    (objectives, "eval_nonsmooth", "objectives.eval_nonsmooth"),
    (objectives, "eval_smooth", "objectives.eval_smooth"),
    (objectives, "eval_linsys", "objectives.eval_linsys"),
    (objectives, "nonsmooth_oracle", "objectives.nonsmooth_oracle"),
    (objectives, "smooth_oracle", "objectives.smooth_oracle"),
    (solvers, "nonsmooth_oracle", "objectives.nonsmooth_oracle"),
    (solvers, "smooth_oracle", "objectives.smooth_oracle"),
    (solvers, "linsys_oracle", "objectives.linsys_oracle"),
    (solvers, "solve_nonsmooth", "solvers.solve_nonsmooth"),
    (solvers, "solve_smooth", "solvers.solve_smooth"),
    (solvers, "solve_bundle", "solvers.solve_bundle"),
    (cli, "solve_linsys", "solvers.solve_linsys"),
    (cli, "parse_problem", "cli.parse_problem"),
    (cli, "main", "cli.main"),
]

KERNELS = ("lambda_max", "project_neg_semidef", "norms")


class Tracer:
    """In-memory span recorder. `spans` holds one tuple
    (run_id, span_id, parent_id, name, start, end) per call, parent_id -1 at
    the top; `solves` holds (run_id, iterations, phases, completed phases,
    completed phases that halved f) per solver call."""

    def __init__(self):
        self.run_id = ""
        self.spans = []
        self.solves = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_solver = name.startswith("solvers.")

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.run_id, span_id, parent, name, start, end)
            if is_solver:
                done = [ph for ph in result.trace.phases if ph.completed]
                halved = sum(1 for ph in done if ph.f_end <= 0.5 * ph.f_start)
                self.solves.append(
                    (self.run_id, result.iterations, result.phases, len(done), halved))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        for mod, attr, name in TARGETS:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(f"{run_id},{span_id},{parent},{name},{start!r},{end!r}\n")


def layer_metrics(spans, solves, trace_bytes):
    """Per-layer metrics of one workload run. A span's self time is its
    duration minus the durations of its direct children (spans never
    overlap within one thread, so that is the part the children cover)."""
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for _, span_id, _, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[span_id]

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    evals = sum(v for k, v in calls.items() if k.startswith("objectives.eval_"))
    eval_s = sum(v for k, v in total.items() if k.startswith("objectives.eval_"))
    iterations = sum(s[1] for s in solves)
    completed = sum(s[3] for s in solves)
    solver_self = layer_self("solvers")
    out = {}
    for k in KERNELS:
        out[f"symlinalg.{k}.calls"] = calls[f"symlinalg.{k}"]
        out[f"symlinalg.{k}.self_s"] = own[f"symlinalg.{k}"]
    out["symlinalg.eig_sym.calls"] = calls["symlinalg.eig_sym"]
    out["symlinalg.self_s"] = layer_self("symlinalg")
    out["model.constants.calls"] = calls["model.constants"]
    out["model.constants.s"] = total["model.constants"]
    out["objectives.evals"] = evals
    out["objectives.self_s"] = layer_self("objectives")
    out["objectives.us_per_eval"] = 1e6 * eval_s / evals if evals else 0.0
    out["solvers.self_s"] = solver_self
    out["solvers.self_us_per_iter"] = 1e6 * solver_self / iterations if iterations else 0.0
    out["solvers.iterations"] = iterations
    out["solvers.phases"] = sum(s[2] for s in solves)
    out["solvers.evals_per_iter"] = evals / iterations if iterations else 0.0
    # with no completed phase there is no phase that failed to halve
    out["solvers.halved_frac"] = sum(s[4] for s in solves) / completed if completed else 1.0
    out["cli.parse_s"] = total["cli.parse_problem"]
    out["cli.self_s"] = own["cli.main"]
    out["cli.trace_bytes"] = trace_bytes
    return out


def median_metrics(per_run):
    """Median over workload runs of each per-layer metric; counts stay
    whole numbers."""
    out = {}
    for k, v in per_run[0].items():
        values = [r[k] for r in per_run]
        out[k] = statistics.median_low(values) if isinstance(v, int) else statistics.median(values)
    return out
