"""The package runs on numpy alone.

SciPy is often installed next to numpy, but importing `scipy.linalg` loads
SciPy's own BLAS and about doubles the resident memory of a small solve, so
no code path may import it."""

import os
import subprocess
import sys
from pathlib import Path

import lmisolve

ONE_SOLVE_PER_ORACLE = """
import sys
import lmisolve as lm

inst = lm.gen_lmi(40, 3, 1.0, 5)
mu = lm.mu_of(inst.certificate)
x0 = 3.0 * inst.witness
lm.solve_nonsmooth(inst.problem, mu, 1e-6, cap=200, x0=x0)
lm.solve_smooth(inst.problem, mu, 1e-6, cap=200, x0=x0)
system, witness = lm.gen_linsys(20, 10, 606, kinds="eq")
lm.solve_linsys(system, lm.hoffman_eq(system.rows), 1e-6, cap=200, x0=witness + 1.0)
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_solves_import_no_scipy():
    env = dict(os.environ)
    src = str(Path(lmisolve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", ONE_SOLVE_PER_ORACLE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
