"""Restarted first-order solvers for LMI feasibility problems A(x) - B <= 0.

The package is organized as: symmetric-matrix kernel (symlinalg), problem
data model (model), first-order oracles (objectives), restarted solvers
(solvers), certified instance generators (testbench), and the file-format
front end (cli).

Each module's `__all__` is its public API, stated there once. The package
re-exports all of it, and from cli only the parse and serialize functions.
"""

from . import errors, model, objectives, solvers, symlinalg, testbench
from .errors import *  # noqa: F403
from .symlinalg import *  # noqa: F403
from .model import *  # noqa: F403
from .objectives import *  # noqa: F403
from .solvers import *  # noqa: F403
from .testbench import *  # noqa: F403
from .cli import parse_problem, serialize_linsys, serialize_lmi

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *symlinalg.__all__,
    *model.__all__,
    *objectives.__all__,
    *solvers.__all__,
    *testbench.__all__,
    "parse_problem",
    "serialize_lmi",
    "serialize_linsys",
    "__version__",
]
