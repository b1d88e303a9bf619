"""Kernel sweep: per-call time of the eigen kernels and of `constants` at
n in {20, 60, 150, 300}, on fixed seeded inputs, each with its computed
floating-point operation count (textbook LAPACK counts, not measured)."""

from __future__ import annotations

import statistics
import time

import numpy as np
from lmisolve import model, symlinalg

SIZES = (20, 60, 150, 300)
# variable count of the LmiProblem given to `constants`, as in lmi-dense
CONSTANTS_M = 20


def _flops(kernel, n):
    eigh = 9.0 * n**3  # tridiagonal reduction, QR/D&C and back-transformation
    eigvalsh = 4.0 * n**3 / 3.0
    return {
        "lambda_max": eigh,
        "project_neg_semidef": eigh + 2.0 * n**3,  # plus V diag(w) V^T
        "norms": eigvalsh + 2.0 * n**2,
        "constants": CONSTANTS_M * (eigvalsh + 2.0 * n**2),
    }[kernel]


def _call_times_ms(fn, arg, budget_s):
    """Times of repeated calls: at least three, and as many as fit in budget_s."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < deadline:
        t = time.perf_counter()
        fn(arg)
        times.append(1e3 * (time.perf_counter() - t))
    return times


def kernel_sweep(seed, budget_s):
    """Metrics `<layer>.<kernel>.n<size>.ms` (median per-call time) and
    `.flop`, plus the per-call samples; budget_s is split evenly over the 16
    (kernel, size) pairs."""
    rng = np.random.default_rng([4, seed])
    each = budget_s / (4 * len(SIZES))
    out, samples = {}, {}
    for n in SIZES:
        g = rng.standard_normal((n, n))
        mat = symlinalg.SymMatrix(g / np.sqrt(n))
        coeffs = rng.uniform(-1.0, 1.0, (CONSTANTS_M, n, n)) / np.sqrt(n)
        prob = model.LmiProblem(list(coeffs), np.zeros((n, n)))
        cases = [
            ("symlinalg", "lambda_max", symlinalg.lambda_max, mat),
            ("symlinalg", "project_neg_semidef", symlinalg.project_neg_semidef, mat),
            ("symlinalg", "norms", symlinalg.norms, mat),
            ("model", "constants", model.constants, prob),
        ]
        for layer, kernel, fn, arg in cases:
            name = f"{layer}.{kernel}.n{n}"
            samples[name + ".ms"] = _call_times_ms(fn, arg, each)
            out[name + ".ms"] = statistics.median(samples[name + ".ms"])
            out[name + ".flop"] = _flops(kernel, n)
    return out, samples
