"""File formats and command-line front end."""

import tracemalloc

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
    solve_linsys,
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

    @pytest.mark.parametrize("text, line, fragment", [
        ("lmi 2 1\nB\n1.0\n0.0 1.0\n", 3, "matrix B: expected 2 values, got 1"),
        ("lmi x 1\n", 1, "n must be an integer, got 'x'"),
        ("lis 0 2\n", 1, "p must be >= 1, got 0"),
        ("lmi 1\n", 1, "header must be 'lmi <n> <m>'"),
        (MINIMAL_LMI + "slater 2.0\n-4.0\n1.0\n", 8, "unexpected content after the problem"),
        ("lis 1 1\nle 1.0 0.0\nle 1.0 0.0\n", 3, "unexpected content after the system"),
        ("lmi 1 1\nC\n0.0\n", 2, "expected 'B', got 'C'"),
        ("lmi 1 1\nB\n0.0\nA 2\n1.0\n", 4, "expected 'A 1', got 'A 2'"),
        (MINIMAL_LMI + "slater 0.0\n-4.0\n", 6, "sigma must be positive, got 0.0"),
        ("lmi 1 1\nB\nnan\nA 1\n1.0\n", 3, "matrix B: not a finite number: 'nan'"),
        ("lis 1 1\nle -inf 0.0\n", 2, "row 1: not a finite number: '-inf'"),
        # two asymmetric pairs: the first in row-major order over the upper triangle
        ("lmi 3 1\nB\n1 2 0\n3 1 5\n0 6 1\nA 1\n1 0 0\n0 1 0\n0 0 1\n", 3,
         "matrix B is not symmetric at entry (1,2)"),
        # the line after the last non-blank one
        ("lmi 2 1\nB\n1.0 0.0\n0.0 1.0\nA 1\n1.0 0.0\n\n\n", 7,
         "expected row 2 of matrix A 1, found end of input"),
    ], ids=["value-count", "non-integer-size", "size-below-one", "header-tokens",
            "after-slater", "after-lis-rows", "expected-B", "expected-A", "sigma-not-positive",
            "nan-entry", "inf-entry", "asymmetric-pairs", "end-of-input"])
    def test_error_names_line_and_cause(self, text, line, fragment):
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert str(info.value).startswith(f"line {line}: ")
        assert fragment in str(info.value)


    @pytest.mark.parametrize("text, error", [
        ("lis 1000000 1000000\nle 1 2\n", "line 2: row 1: expected 1000001 values, got 2"),
        ("lmi 1000000 1\nB\n1\n", "line 3: matrix B: expected 1000000 values, got 1"),
        ("lmi 1000000 1\nB\n", "line 3: expected row 1 of matrix B, found end of input"),
    ], ids=["lis-row", "lmi-row", "lmi-end"])
    def test_header_claiming_more_than_the_file(self, tmp_path, capsys, text, error):
        # a 10^6 x 10^6 array would need 7.28 TiB: the arrays are cut to the
        # rows the text can hold, so the row reader reports what is missing
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert str(info.value) == error
        assert main(["check", write(tmp_path, "big.txt", text)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    def test_parse_peak_memory(self):
        # a block is split into tokens only as it is read, and each block is
        # one float64 array
        inst = gen_lmi(100, 6, 1.0, 3)
        text = serialize_lmi(inst.problem, inst.certificate)
        tracemalloc.start()
        try:
            parse_problem(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)


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

    def test_overflowing_sigma_exit_one(self, capsys):
        # the construction overflows: one error line naming sigma, no warning
        assert main(["gen", "--n", "3", "--m", "2", "--sigma", "1e160"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: sigma 1e+160 is too large: the generated instance overflows"]

    @pytest.mark.parametrize("n, m, seed", [(40, 5, 7), (60, 8, 3)])
    def test_large_blocks_check_valid(self, tmp_path, capsys, n, m, seed):
        # a generated file with a 40 x 40 or 60 x 60 block parses and its
        # certificate holds
        assert main(["gen", "--n", str(n), "--m", str(m), "--seed", str(seed)]) == 0
        path = write(tmp_path, "g.lmi", capsys.readouterr().out)
        assert main(["check", path]) == 0
        assert "certificate=valid" in capsys.readouterr().out.splitlines()


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

    def test_overflowing_linsys_exit_one(self, tmp_path, capsys):
        # the row 1e200 is finite; its Gram matrix entry 1e400 is not
        path = write(tmp_path, "big.lis", "lis 1 2\neq 1e200 0 0\n")
        assert main(["solve", "--method", "linsys", "--lh", "1", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: A^T A contains NaN or Inf\n"

    def test_overflowing_operator_norm_exit_one(self, tmp_path, capsys):
        # the coefficient is finite; ||A||^2 = 1e400 is not: one error line,
        # not a LinAlgError from the Gram matrix's eigenvalues
        path = write(tmp_path, "big.lmi", "lmi 2 1\nB\n0 0\n0 0\nA 1\n1e200 0\n0 1\n")
        assert main(["solve", "--method", "smooth", "--mu", "1", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: operator constants overflow\n"

    @pytest.mark.parametrize("flags", [["--method", "smooth"],
                                       ["--method", "nonsmooth", "--mu", "1e300"],
                                       ["--method", "nonsmooth", "--mu", "inf"]],
                             ids=["certificate-mu", "mu-overflow", "mu-inf"])
    def test_unbounded_budget_exit_one(self, tmp_path, capsys, flags):
        # x >= 1, with a valid certificate whose mu = 1e154 / 1e-160 overflows to inf
        text = "lmi 1 1\nB\n-1\nA 1\n-1\nslater 1e-160\n1e154\n"
        path = write(tmp_path, "big.lmi", text)
        assert main(["solve", *flags, path]) == 1
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("method, coeff", [("nonsmooth", "1"), ("smooth", "1e108")])
    def test_huge_certificate_point_budget_exit_one(self, tmp_path, capsys, method, coeff):
        # mu = ||d|| / sigma = 1e200 is finite, so the solver, not mu_of,
        # rejects it: 4 M^2 mu^2 (non-smooth) or 4 mu ||A|| with ||A|| = 1e108
        # (smooth) overflows. With ||A|| = 1 the smooth budget 4e200 is finite,
        # and the solve ends Solved at once from the feasible start x = 0.
        path = write(tmp_path, "big.lmi", f"lmi 1 1\nB\n0\nA 1\n{coeff}\nslater 1\n-1e200\n")
        assert main(["solve", "--method", method, path]) == 1
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert captured.err.startswith("error: phase budget inf is not finite")

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

    def test_trace_columns_match_library_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        sys_, _ = gen_linsys(4, 6, 9, kinds="mixed")
        path = write(tmp_path, "s.lis", serialize_linsys(sys_))
        argv = ["solve", "--method", "linsys", "--lh", "5.0", "--eps", "1e-12",
                "--trace", str(trace), path]
        assert main(argv) == 0
        cols = [row.split(",") for row in trace.read_text().splitlines()[1:]]
        res = solve_linsys(sys_, 5.0, 1e-12)
        assert res.phases > 1
        assert [tuple(map(int, c[:3])) for c in cols] == [
            (r.phase, r.iter, r.total_iter) for r in res.trace.rows]
        assert np.array([float(c[3]) for c in cols]).tobytes() == res.trace.f_values.tobytes()

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

    def test_huge_certificate_point(self, tmp_path, capsys):
        # squaring d = -1e200 overflows; mu = ||d|| / sigma must not
        path = write(tmp_path, "big.lmi", "lmi 1 1\nB\n0\nA 1\n1\nslater 1\n-1e200\n")
        assert main(["check", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["certificate=valid", "mu=1e+200"]

    def test_huge_symmetric_entries(self, tmp_path, capsys):
        # 0.5 (A + A^T) would overflow, but the matrix is finite and symmetric
        text = "lmi 2 1\nB\n0 0\n0 0\nA 1\n1.5e308 1.5e308\n1.5e308 1.5e308\n"
        problem, _ = parse_problem(text)
        np.testing.assert_array_equal(problem.coeffs[0].mat, np.full((2, 2), 1.5e308))
        assert main(["check", write(tmp_path, "huge.lmi", text)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kind=lmi" and out[-1] == "certificate=absent"

    def test_huge_asymmetric_entries(self, tmp_path, capsys):
        # A - A^T overflows to inf, which still fails the symmetry test
        text = "lmi 2 1\nB\n0 0\n0 0\nA 1\n0 1e308\n-1e308 0\n"
        assert main(["check", write(tmp_path, "asym.lmi", text)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: line 6: matrix A 1 is not symmetric at entry (1,2)"]

    def test_invalid_certificate(self, tmp_path, capsys):
        # claims margin 1 for the constraint -x + 1 <= 0 at d = 0, where
        # lambda_1 = +1: the margin fails
        text = FAR_LMI + "slater 1.0\n0.0\n"
        path = write(tmp_path, "bad.lmi", text)
        assert main(["check", path]) == 1
        captured = capsys.readouterr()
        assert "certificate=invalid" in captured.out
        assert "error:" in captured.err

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.lmi"
        path.write_bytes(b"lmi 1 1\nB\n\xff\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 3: not valid UTF-8\n"

    @pytest.mark.parametrize("data, line", [
        (b"\xfflmi 1 1\nB\n1\n", 1),
        (b"lmi 1 1\r\nB\r\n1\r\nA 1\r\n\xc3\n", 5),  # a UTF-8 sequence cut short
        (b"lmi 1 1\n\nB\n\n1\n# \xe9\n", 6),  # blank lines count
    ])
    def test_file_not_utf8_names_its_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad.lmi"
        path.write_bytes(data)
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line {line}: not valid UTF-8\n"

    def test_crlf_file_parses(self, tmp_path, capsys):
        path = tmp_path / "crlf.lmi"
        path.write_bytes(FAR_LMI.replace("\n", "\r\n").encode())
        assert main(["check", str(path)]) == 0
        assert "kind=lmi" in capsys.readouterr().out

    def test_linsys_file(self, tmp_path, capsys):
        sys_, _ = gen_linsys(3, 5, 8, kinds="mixed")
        path = write(tmp_path, "s.lis", serialize_linsys(sys_))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "kind=lis" in out
        assert "p=3" in out
        assert "q=5" in out
