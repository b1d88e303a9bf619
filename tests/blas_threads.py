"""Check that LMI solves agree across BLAS thread counts.

    python tests/blas_threads.py

Runs the acceptance battery's LMI solves, and one solve per LMI driver on
gen_lmi(60, 8, 1.0, 3) from 3 times its witness (blocks of size 60, so
the screened evaluations run), once with OPENBLAS_NUM_THREADS=1 and once
with 2, each in its own subprocess. The bits of a solve depend on the BLAS
thread count; its status, iteration count and phase count must not. Prints
the largest relative drift of a final value, and exits 1 when any status,
iteration count or phase count differs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREADS = ("1", "2")


def outcomes():
    """{label: [status, iterations, phases, value]} for every solve."""
    sys.path.insert(0, str(HERE))
    from test_acceptance import build_lmi_suite, run_lmi_suite

    from lmisolve import (RECURSIVE, gen_lmi, mu_of, nonsmooth_oracle, smooth_oracle,
                          solve_bundle, solve_nonsmooth, solve_smooth)

    runs = {f"battery {i} {kind}": res
            for (i, kind), res in run_lmi_suite(build_lmi_suite()).items()}
    inst = gen_lmi(60, 8, 1.0, 3)
    p, mu, x0 = inst.problem, mu_of(inst.certificate), 3.0 * inst.witness
    runs["n60 ns"] = solve_nonsmooth(p, mu, 1e-8, x0=x0)
    runs["n60 sm"] = solve_smooth(p, mu, 1e-8, x0=x0)
    runs["n60 bns"] = solve_bundle(nonsmooth_oracle(p), x0, 1e-8)
    runs["n60 bsm"] = solve_bundle(smooth_oracle(p), x0, 1e-8, RECURSIVE)
    return {label: [res.status.value, res.iterations, res.phases, res.value]
            for label, res in runs.items()}


def run(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main():
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(outcomes()))
        return 0
    one, two = (run(t) for t in THREADS)
    differ = [label for label in one if one[label][:3] != two[label][:3]]
    drift, where = 0.0, None
    for label in one:
        a, b = one[label][3], two[label][3]
        rel = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
        if rel > drift:
            drift, where = rel, label
    print(f"{len(one)} solves at {' and '.join(THREADS)} BLAS threads; largest relative "
          f"drift of a final value: {drift:.3g}" + (f" ({where})" if where else ""))
    for label in differ:
        print(f"differs: {label}: {one[label][:3]} against {two[label][:3]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
