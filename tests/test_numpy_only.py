"""The package runs on numpy alone.

SciPy is often installed next to numpy, but importing `scipy.linalg` loads
SciPy's own BLAS and about doubles the resident memory of a small solve, so
no code path may import it. The `dsyevr` binding in `symlinalg` uses the
OpenBLAS numpy has loaded already, so on Linux a solve must map no shared
object that was not mapped before it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmisolve

ONE_SOLVE_PER_ORACLE = """
import json
import os
import sys
import lmisolve as lm


def shared_objects():
    if not sys.platform.startswith("linux"):
        return set()
    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    # the sixth field, when present, is the mapped file
    return {f[5].strip() for f in fields if len(f) == 6 and ".so" in os.path.basename(f[5])}


before = shared_objects()
# n = 40: the non-smooth solve takes its top eigenpairs through dsyevr
inst = lm.gen_lmi(40, 3, 1.0, 5)
mu = lm.mu_of(inst.certificate)
x0 = 3.0 * inst.witness
lm.solve_nonsmooth(inst.problem, mu, 1e-6, cap=200, x0=x0)
lm.solve_smooth(inst.problem, mu, 1e-6, cap=200, x0=x0)
system, witness = lm.gen_linsys(20, 10, 606, kinds="eq")
lm.solve_linsys(system, lm.hoffman_eq(system.rows), 1e-6, cap=200, x0=witness + 1.0)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "new_shared_objects": sorted(shared_objects() - before),
}))
"""


@pytest.fixture(scope="module")
def solve_report():
    env = dict(os.environ)
    src = str(Path(lmisolve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", ONE_SOLVE_PER_ORACLE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_solves_import_no_scipy(solve_report):
    assert solve_report["scipy"] == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_solves_map_no_new_shared_object(solve_report):
    assert solve_report["new_shared_objects"] == []
