"""Batch front end: parse and serialize problem files, run a solver, emit
key=value results and optional per-iteration trace CSVs.

File formats (UTF-8, whitespace separated, blank lines ignored, every real finite):

.lmi        lmi <n> <m>
            B
            <n lines of n reals>
            A 1
            <n lines of n reals>
            ...
            A m
            <n lines of n reals>
            slater <sigma>          (optional)
            <m reals>               (certificate point d)

.lis        lis <p> <q>
            <le|eq> a_1 ... a_q b   (one line per row)

Numbers are written as the shortest decimal that round-trips binary64, so
serialize/parse is bit-exact. Exit codes: 0 solved, 1 error (including
NaN or Inf from an oracle), 2 stopped unsolved (iteration cap reached or
stalled).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import InvalidParameter, LmiSolveError, ParseError
from .model import LinIneqSystem, LmiProblem, SlaterCertificate, mu_of, validate_certificate
from .objectives import nonsmooth_oracle, smooth_oracle
from .solvers import (
    DEFAULT_CAP,
    HARMONIC,
    RECURSIVE,
    SolveStatus,
    solve_bundle,
    solve_linsys,
    solve_nonsmooth,
    solve_smooth,
)
from .testbench import gen_lmi

__all__ = [
    "parse_problem",
    "serialize_lmi",
    "serialize_linsys",
    "main",
    "entry",
]

_METHODS = ("nonsmooth", "smooth", "bundle-nonsmooth", "bundle-smooth", "linsys")
_SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# parsing


class _Lines:
    """Non-blank lines with their 1-based numbers; a line is split into
    tokens only when it is taken."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.size = len(text)  # a row of k reals takes at least 2k - 1 characters
        self.next = 0  # index of the next line to look at
        self.last = 0  # number of the last line taken

    def done(self):
        while self.next < len(self.lines) and not self.lines[self.next].strip():
            self.next += 1
        return self.next == len(self.lines)

    def take(self, what):
        if self.done():  # every non-blank line is taken, the last one is self.last
            raise ParseError(f"line {self.last + 1}: expected {what}, found end of input")
        self.next += 1
        self.last = self.next
        return self.last, self.lines[self.last - 1].split()


def _reals(tokens, count, lineno, what):
    if len(tokens) != count:
        raise ParseError(f"line {lineno}: {what}: expected {count} values, got {len(tokens)}")
    try:
        out = list(map(float, tokens))
        if all(map(math.isfinite, out)):
            return out
    except ValueError:
        pass
    for tok in tokens:  # name the first token that is not a finite number
        try:
            if not math.isfinite(float(tok)):
                raise ParseError(f"line {lineno}: {what}: not a finite number: {tok!r}")
        except ValueError:
            raise ParseError(f"line {lineno}: {what}: not a number: {tok!r}") from None


def _positive_int(tok, lineno, what):
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} must be an integer, got {tok!r}") from None
    if value < 1:
        raise ParseError(f"line {lineno}: {what} must be >= 1, got {value}")
    return value


def _header(tokens, lineno, names):
    """The two positive integers of the header line '<kind> <a> <b>', where
    `names` are (a, b)."""
    if len(tokens) != 3:
        raise ParseError(
            f"line {lineno}: header must be '{tokens[0]} <{names[0]}> <{names[1]}>'")
    return [_positive_int(tok, lineno, name) for tok, name in zip(tokens[1:], names)]


def _end(lines, what):
    """Reject anything left after the `what` that was parsed."""
    if not lines.done():
        raise ParseError(f"line {lines.next + 1}: unexpected content after the {what}")


def _matrix(lines, n, what):
    """The next n lines as one n x n float64 array, checked for symmetry;
    an asymmetric entry is named by the first (row-major) in the strict
    upper triangle, at the block's first line."""
    out = np.empty((min(n, lines.size // (2 * n - 1)), n))
    for i in range(n):
        lineno, tokens = lines.take(f"row {i + 1} of {what}")
        out[i] = _reals(tokens, n, lineno, what)
        if i == 0:
            first = lineno
    with np.errstate(over="ignore"):  # an overflowed difference is inf and fails too
        bad = np.triu(np.abs(out - out.T) > _SYMMETRY_TOL, 1)
    if bad.any():
        j, k = divmod(int(bad.argmax()), n)
        raise ParseError(f"line {first}: {what} is not symmetric at entry ({j + 1},{k + 1})")
    return out


def parse_problem(text: str):
    """Parse .lmi or .lis text into (problem, certificate or None)."""
    lines = _Lines(text)
    lineno, tokens = lines.take("a 'lmi' or 'lis' header")
    if tokens[0] == "lmi":
        n, m = _header(tokens, lineno, ("n", "m"))
        lineno, tokens = lines.take("the 'B' block")
        if tokens != ["B"]:
            raise ParseError(f"line {lineno}: expected 'B', got {' '.join(tokens)!r}")
        rhs = _matrix(lines, n, "matrix B")
        coeffs = []
        for i in range(1, m + 1):
            lineno, tokens = lines.take(f"the 'A {i}' block")
            if tokens != ["A", str(i)]:
                raise ParseError(f"line {lineno}: expected 'A {i}', got {' '.join(tokens)!r}")
            coeffs.append(_matrix(lines, n, f"matrix A {i}"))
        cert = None
        if not lines.done():
            lineno, tokens = lines.take("the 'slater' block")
            if tokens[0] != "slater" or len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'slater <sigma>', got {' '.join(tokens)!r}")
            sigma = _reals(tokens[1:], 1, lineno, "sigma")[0]
            if not sigma > 0.0:
                raise ParseError(f"line {lineno}: sigma must be positive, got {sigma}")
            lineno, tokens = lines.take("the certificate point")
            point = _reals(tokens, m, lineno, "certificate point")
            cert = SlaterCertificate(point, sigma)
        _end(lines, "problem")
        return LmiProblem(coeffs, rhs), cert
    if tokens[0] == "lis":
        p, q = _header(tokens, lineno, ("p", "q"))
        data = np.empty((min(p, lines.size // (2 * q + 1)), q + 1))  # row i: a_i, b_i
        kinds = []
        for i in range(p):
            lineno, tokens = lines.take(f"row {i + 1} of the system")
            if not tokens or tokens[0] not in ("le", "eq"):
                raise ParseError(f"line {lineno}: row must start with 'le' or 'eq'")
            kinds.append(tokens[0])
            data[i] = _reals(tokens[1:], q + 1, lineno, f"row {i + 1}")
        _end(lines, "system")
        return LinIneqSystem(data[:, :q], data[:, q], kinds), None
    raise ParseError(f"line {lineno}: unknown header {tokens[0]!r}; expected 'lmi' or 'lis'")


def serialize_lmi(problem: LmiProblem, certificate: SlaterCertificate | None = None) -> str:
    """Canonical .lmi text; parse_problem(serialize_lmi(p, c)) returns an
    equal problem and certificate."""
    out = [f"lmi {problem.dim} {problem.num_vars}", "B"]
    out.extend(" ".join(map(repr, row)) for row in problem.rhs.mat.tolist())
    for i, coeff in enumerate(problem.coeffs, 1):
        out.append(f"A {i}")
        out.extend(" ".join(map(repr, row)) for row in coeff.mat.tolist())
    if certificate is not None:
        out.append(f"slater {certificate.margin!r}")
        out.append(" ".join(map(repr, certificate.point.tolist())))
    return "\n".join(out) + "\n"


def serialize_linsys(sys_: LinIneqSystem) -> str:
    """Canonical .lis text."""
    data = np.column_stack([sys_.rows, sys_.rhs]).tolist()
    out = [f"lis {sys_.num_rows} {sys_.num_vars}"]
    out.extend(" ".join([kind, *map(repr, row)]) for kind, row in zip(sys_.kinds, data))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# running


def _resolve_mu(ns, certificate):
    if ns.mu is not None:
        return ns.mu
    if certificate is not None:
        return mu_of(certificate)
    raise InvalidParameter(
        f"method {ns.method!r} needs an error-bound modulus: pass --mu or use a "
        "problem file with a slater certificate"
    )


def _dispatch(ns, problem, certificate):
    """Run the solver that the parsed `solve` options `ns` select."""
    method = ns.method
    if method == "linsys":
        if not isinstance(problem, LinIneqSystem):
            raise InvalidParameter("method 'linsys' needs a linear system (.lis) file")
        if ns.lh is None:
            raise InvalidParameter("method 'linsys' needs --lh (a Hoffman constant)")
        return solve_linsys(problem, ns.lh, ns.eps, ns.cap)
    if not isinstance(problem, LmiProblem):
        raise InvalidParameter(f"method {method!r} needs an LMI (.lmi) file")
    if method == "nonsmooth":
        return solve_nonsmooth(problem, _resolve_mu(ns, certificate), ns.eps, ns.cap)
    if method == "smooth":
        return solve_smooth(problem, _resolve_mu(ns, certificate), ns.eps, ns.cap)
    oracle = nonsmooth_oracle(problem) if method == "bundle-nonsmooth" else smooth_oracle(problem)
    policy = HARMONIC if ns.policy == "harmonic" else RECURSIVE
    return solve_bundle(oracle, None, ns.eps, policy, ns.cap)


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameter(message)


def _build_parser():
    parser = _Parser(prog="lmisolve", description="Restarted first-order LMI feasibility solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a .lmi or .lis problem file")
    solve.add_argument("file")
    solve.add_argument("--method", choices=_METHODS, default="bundle-nonsmooth")
    solve.add_argument("--eps", type=float, default=1e-8)
    solve.add_argument("--mu", type=float, default=None)
    solve.add_argument("--lh", type=float, default=None)
    solve.add_argument("--policy", choices=("harmonic", "recursive"), default="harmonic")
    solve.add_argument("--cap", type=int, default=DEFAULT_CAP)
    solve.add_argument("--trace", default=None)

    gen = sub.add_parser("gen", help="print a random certified .lmi instance")
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--m", type=int, default=3)
    gen.add_argument("--sigma", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)

    check = sub.add_parser("check", help="validate a problem file and its certificate")
    check.add_argument("file")
    return parser


def _read_text(path):
    """The text of the UTF-8 file at path; a ParseError names the file and
    the line of the first byte that is not valid UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not valid UTF-8") from None


def main(argv=None) -> int:
    """Run one `lmisolve` command; `solve` prints status, final_value,
    iterations and phases as key=value lines. Returns the exit code."""
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command == "gen":
            inst = gen_lmi(ns.n, ns.m, ns.sigma, ns.seed)
            sys.stdout.write(serialize_lmi(inst.problem, inst.certificate))
            return 0
        problem, certificate = parse_problem(_read_text(ns.file))
        if ns.command == "solve":
            result = _dispatch(ns, problem, certificate)
            if ns.trace is not None:
                # f_value round-trips exactly; elapsed_ms has a fixed width,
                # so equal work writes files of equal size
                with open(ns.trace, "w", encoding="utf-8") as fh:
                    fh.write("phase,iter,total_iter,f_value,elapsed_ms\n")
                    fh.writelines("%d,%d,%d,%r,%.6e\n" % row for row in result.trace._tuples())
            print(f"status={result.status.value}")
            print(f"final_value={result.value!r}")
            print(f"iterations={result.iterations}")
            print(f"phases={result.phases}")
            return 0 if result.status is SolveStatus.SOLVED else 2
        # check
        if isinstance(problem, LmiProblem):
            print("kind=lmi")
            print(f"n={problem.dim}")
            print(f"m={problem.num_vars}")
            if certificate is None:
                print("certificate=absent")
            elif validate_certificate(problem, certificate):
                print("certificate=valid")
                print(f"mu={mu_of(certificate)!r}")
            else:
                print("certificate=invalid")
                print("error: certificate does not satisfy its margin", file=sys.stderr)
                return 1
        else:
            print("kind=lis")
            print(f"p={problem.num_rows}")
            print(f"q={problem.num_vars}")
        return 0
    except (LmiSolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
