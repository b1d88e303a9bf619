"""File formats and command-line front end."""

import numpy as np
import pytest

from lmisolve import (
    LinIneqSystem,
    LmiProblem,
    ParseError,
    apply_operator,
    gen_linsys,
    gen_lmi,
    mu_of,
    parse_problem,
    serialize_linsys,
    serialize_lmi,
    stack,
)
from lmisolve.cli import main

MINIMAL_LMI = "lmi 1 1\nB\n0.0\nA 1\n1.0\n"

# constraint -x + 1 <= 0, i.e. x >= 1: infeasible at the default start x = 0
FAR_LMI = "lmi 1 1\nB\n-1.0\nA 1\n-1.0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParse:
    def test_minimal_lmi(self):
        problem, cert = parse_problem(MINIMAL_LMI)
        assert isinstance(problem, LmiProblem)
        assert problem.dim == 1 and problem.num_vars == 1
        np.testing.assert_allclose(problem.coeffs[0].mat, [[1.0]])
        np.testing.assert_allclose(problem.rhs.mat, [[0.0]])
        assert cert is None

    def test_slater_block(self):
        text = "lmi 1 1\nB\n0.0\nA 1\n1.0\nslater 2.0\n-4.0\n"
        problem, cert = parse_problem(text)
        assert cert is not None
        assert cert.margin == 2.0
        assert mu_of(cert) == pytest.approx(2.0)

    def test_lis_format(self):
        text = "lis 2 2\nle 1.0 0.0 1.0\neq 0.0 1.0 2.0\n"
        sys_, cert = parse_problem(text)
        assert isinstance(sys_, LinIneqSystem)
        assert cert is None
        assert list(sys_.kinds) == ["le", "eq"]
        np.testing.assert_allclose(sys_.rhs, [1.0, 2.0])

    def test_blank_lines_ignored(self):
        spaced = "\nlmi 1 1\n\nB\n0.0\n\nA 1\n1.0\n\n"
        problem, _ = parse_problem(spaced)
        assert problem == parse_problem(MINIMAL_LMI)[0]

    def test_truncated_block(self):
        with pytest.raises(ParseError, match="line"):
            parse_problem("lmi 2 1\nB\n1.0 0.0\n0.0 1.0\nA 1\n1.0 0.0\n")

    def test_bad_token_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_problem("lmi 1 1\nB\nxyz\nA 1\n1.0\n")

    def test_asymmetric_matrix(self):
        text = "lmi 2 1\nB\n1.0 2.0\n3.0 4.0\nA 1\n1.0 0.0\n0.0 1.0\n"
        with pytest.raises(ParseError, match="symmetric"):
            parse_problem(text)

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="line 6"):
            parse_problem(MINIMAL_LMI + "extra stuff\n")

    def test_unknown_header(self):
        with pytest.raises(ParseError):
            parse_problem("sdp 1 1\nB\n0.0\n")

    def test_bad_row_kind(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_problem("lis 1 1\nge 1.0 0.0\n")


class TestRoundTrip:
    def test_lmi_with_certificate(self):
        inst = gen_lmi(4, 3, 0.5, 303)
        text = serialize_lmi(inst.problem, inst.certificate)
        problem, cert = parse_problem(text)
        assert problem == inst.problem
        assert cert == inst.certificate
        assert serialize_lmi(problem, cert) == text

    def test_lmi_without_certificate(self):
        inst = gen_lmi(3, 2, 1.0, 304)
        text = serialize_lmi(inst.problem)
        problem, cert = parse_problem(text)
        assert problem == inst.problem
        assert cert is None

    def test_linsys(self):
        sys_, _ = gen_linsys(5, 7, 305, kinds="mixed")
        text = serialize_linsys(sys_)
        parsed, cert = parse_problem(text)
        assert parsed == sys_
        assert cert is None
        assert serialize_linsys(parsed) == text


class TestGenCommand:
    def test_writes_certified_instance(self, capsys):
        assert main(["gen", "--n", "3", "--m", "2", "--sigma", "1.0", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        problem, cert = parse_problem(out)
        assert problem.dim == 3 and problem.num_vars == 2
        assert cert is not None and cert.margin == 1.0

    def test_matches_library_generator(self, capsys):
        assert main(["gen", "--n", "5", "--m", "3", "--sigma", "0.5", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        inst = gen_lmi(5, 3, 0.5, 11)
        assert out == serialize_lmi(inst.problem, inst.certificate)

    def test_bad_parameters_exit_one(self, capsys):
        assert main(["gen", "--n", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSolveCommand:
    def test_certified_file_smooth(self, tmp_path, capsys):
        inst = gen_lmi(5, 3, 1.0, 42)
        path = write(tmp_path, "p.lmi", serialize_lmi(inst.problem, inst.certificate))
        assert main(["solve", "--method", "smooth", "--eps", "1e-8", path]) == 0
        out = capsys.readouterr().out
        assert "status=Solved" in out

    def test_nonsmooth_needs_progress(self, tmp_path, capsys):
        path = write(tmp_path, "far.lmi", FAR_LMI)
        assert main(["solve", "--method", "nonsmooth", "--mu", "1.2", path]) == 0
        out = capsys.readouterr().out
        assert "status=Solved" in out
        assert "iterations=3" in out

    def test_missing_mu(self, tmp_path, capsys):
        path = write(tmp_path, "far.lmi", FAR_LMI)
        assert main(["solve", "--method", "nonsmooth", path]) == 1
        assert "mu" in capsys.readouterr().err

    def test_iteration_cap_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "far.lmi", FAR_LMI)
        code = main(["solve", "--method", "nonsmooth", "--mu", "1.2", "--cap", "1", path])
        assert code == 2
        assert "status=IterationCapReached" in capsys.readouterr().out

    def test_nonfinite_start_exit_one(self, tmp_path, capsys):
        # f(0) = 2 (1e200)^2 overflows to inf, and the gradient at 0 is zero
        text = "lmi 2 1\nB\n-1e200 0.0\n0.0 -1e200\nA 1\n1.0 0.0\n0.0 -1.0\n"
        path = write(tmp_path, "huge.lmi", text)
        code = main(["solve", "--method", "smooth", "--mu", "1.0", "--cap", "50", path])
        assert code == 1
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert "non-finite" in captured.err

    def test_stalled_exit_two(self, tmp_path, capsys):
        # A(x) - B <= 0 stacked with A(x) - B >= I, which no point meets,
        # shifted so that x = 0 here is x = 3 d there; the values bottom out
        # and a phase stops improving
        inst = gen_lmi(6, 3, 1.0, 0)
        p = inst.problem
        p = stack([p, LmiProblem([-a.mat for a in p.coeffs], -(p.rhs.mat + np.eye(p.dim)))])
        shifted = LmiProblem(p.coeffs, p.rhs.mat - apply_operator(p, 3.0 * inst.witness).mat)
        path = write(tmp_path, "shifted.lmi", serialize_lmi(shifted))
        mu = repr(mu_of(inst.certificate))
        argv = ["solve", "--method", "smooth", "--mu", mu, "--eps", "1e-300", "--cap", "600", path]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "status=Stalled" in out
        iters = int(next(l for l in out.splitlines() if l.startswith("iterations=")).split("=")[1])
        assert iters < 600

    def test_trace_rows_match_iterations(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        path = write(tmp_path, "far.lmi", FAR_LMI)
        argv = ["solve", "--method", "bundle-nonsmooth", "--trace", str(trace), path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        iters = int(next(l for l in out.splitlines() if l.startswith("iterations=")).split("=")[1])
        lines = trace.read_text().splitlines()
        assert lines[0] == "phase,iter,total_iter,f_value,elapsed_ms"
        assert len(lines) == iters + 1

    def test_trace_elapsed_fixed_width(self, tmp_path):
        # equal work writes a trace of equal size
        trace = tmp_path / "trace.csv"
        sys_, _ = gen_linsys(4, 6, 9, kinds="eq")
        path = write(tmp_path, "s.lis", serialize_linsys(sys_))
        argv = ["solve", "--method", "linsys", "--lh", "5.0", "--eps", "1e-12",
                "--trace", str(trace), path]
        assert main(argv) == 0
        rows = trace.read_text().splitlines()[1:]
        assert len(rows) > 50
        assert len({len(row.split(",")[4]) for row in rows}) == 1

    def test_linsys_method(self, tmp_path, capsys):
        sys_, _ = gen_linsys(4, 6, 9, kinds="eq")
        path = write(tmp_path, "s.lis", serialize_linsys(sys_))
        assert main(["solve", "--method", "linsys", "--lh", "5.0", path]) == 0
        assert "status=Solved" in capsys.readouterr().out

    def test_linsys_needs_lh(self, tmp_path, capsys):
        sys_, _ = gen_linsys(4, 6, 9, kinds="eq")
        path = write(tmp_path, "s.lis", serialize_linsys(sys_))
        assert main(["solve", "--method", "linsys", path]) == 1
        assert "lh" in capsys.readouterr().err

    def test_method_file_mismatch(self, tmp_path, capsys):
        sys_, _ = gen_linsys(3, 4, 2, kinds="le")
        lis = write(tmp_path, "s.lis", serialize_linsys(sys_))
        assert main(["solve", "--method", "smooth", "--mu", "1.0", lis]) == 1
        assert ".lmi" in capsys.readouterr().err
        lmi = write(tmp_path, "p.lmi", MINIMAL_LMI)
        assert main(["solve", "--method", "linsys", "--lh", "1.0", lmi]) == 1
        assert ".lis" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.lmi")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value(self, tmp_path, capsys):
        path = write(tmp_path, "p.lmi", MINIMAL_LMI)
        assert main(["solve", "--eps", "-1", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_method(self, tmp_path, capsys):
        path = write(tmp_path, "p.lmi", MINIMAL_LMI)
        assert main(["solve", "--method", "newton", path]) == 1
        assert "error:" in capsys.readouterr().err


class TestCheckCommand:
    def test_absent_certificate(self, tmp_path, capsys):
        path = write(tmp_path, "p.lmi", MINIMAL_LMI)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "kind=lmi" in out
        assert "certificate=absent" in out

    def test_valid_certificate(self, tmp_path, capsys):
        inst = gen_lmi(4, 2, 1.0, 13)
        path = write(tmp_path, "p.lmi", serialize_lmi(inst.problem, inst.certificate))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "certificate=valid" in out
        assert "mu=" in out

    def test_invalid_certificate(self, tmp_path, capsys):
        # claims margin 1 for the constraint -x + 1 <= 0 at d = 0, where
        # lambda_1 = +1: the margin fails
        text = FAR_LMI + "slater 1.0\n0.0\n"
        path = write(tmp_path, "bad.lmi", text)
        assert main(["check", path]) == 1
        captured = capsys.readouterr()
        assert "certificate=invalid" in captured.out
        assert "error:" in captured.err

    def test_linsys_file(self, tmp_path, capsys):
        sys_, _ = gen_linsys(3, 5, 8, kinds="mixed")
        path = write(tmp_path, "s.lis", serialize_linsys(sys_))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "kind=lis" in out
        assert "p=3" in out
        assert "q=5" in out
