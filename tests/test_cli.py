import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

from indmom import (ExtensionParam, JacobiCoefficients, RootScanConfig,
                    TruncationPolicy, acceptance, cli, errors, zeros)
from indmom.cli import main
from indmom.config import RunConfig, parse_complex
from indmom.errors import InconclusiveMembershipError, NonConvergenceError
from indmom.evaluation import clear_evaluator_cache


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_basic(self, capsys):
        code, out, _ = run_cli(["eval", "1+0i", "0.5i"], capsys)
        assert code == 0
        assert "cum_p2(1+0i)" in out
        assert "det_residual" in out
        assert "D(1+0i,0+0.5i)" in out  # two-variable pair block
        assert "[N=" in out  # every data line carries truncation metadata

    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(["--seed", "7", "eval", "1+2i"], capsys)
        _, out2, _ = run_cli(["--seed", "7", "eval", "1+2i"], capsys)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["--format", "csv", "eval", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "key,value,annotation"


class TestSupport:
    def test_infinite_support_contains_origin(self, capsys):
        code, out, _ = run_cli(
            ["--t", "inf", "--window", "-8:8", "--nmax", "200",
             "support", "--no-auto-window"], capsys)
        assert code == 0
        assert "x=0 " in out or "x=0\n" in out or "x=-0 " in out

    def test_csv_export(self, tmp_path, capsys):
        out_path = tmp_path / "m.csv"
        code, _, _ = run_cli(
            ["--t", "1", "--window", "-8:8", "--nmax", "200", "--format",
             "csv", "--out", str(out_path), "support", "--no-auto-window"],
            capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,mass"
        assert (tmp_path / "m.csv.meta").exists()

    @pytest.mark.parametrize("extra", [[], ["--no-auto-window"]])
    def test_negative_n_check_is_usage_error(self, extra, capsys):
        code, out, err = run_cli(["--nmax", "200", "support", "--n-check",
                                  "-1", *extra], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: n_check must be at least 0")


class TestComplexLiterals:
    @pytest.mark.parametrize("text, value", [("1 + 2i", 1 + 2j), ("- 2", -2),
                                             (" 0.5i ", 0.5j), ("1e-5 - i", 1e-5 - 1j),
                                             ("i", 1j)])
    def test_space_around_a_sign(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["1 2i", "1 0", "1e - 5", "1 + 2 i"])
    def test_other_inner_space_is_malformed(self, text):
        with pytest.raises(ValueError, match="malformed complex literal"):
            parse_complex(text)

    def test_z0_with_inner_space_is_usage_error(self, capsys):
        code, _, err = run_cli(["--z0", "1 2i", "membership", "p(0.5)"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "'1 2i'" in err

    @pytest.mark.parametrize("text", ["nan", "NaN", "nan+1i", "1-nani", "1e400",
                                      "-1e400", "1+1e400i", "1e400i", "inf", "1+infi"])
    def test_non_finite_parts_are_refused(self, text):
        # "inf" reads as malformed: the i -> j rewrite garbles it
        with pytest.raises(ValueError, match=re.escape(f"complex literal '{text}'")):
            parse_complex(text)

    @pytest.mark.parametrize("args", [
        ["eval", "nan"], ["eval", "1e400"], ["eval", "0.5i", "nan+1i"],
        ["membership", "p(nan)"], ["membership", "(1e400)*p(1)"],
        ["--z0", "nan+1i", "membership", "p(1)"]])
    def test_non_finite_literal_is_usage_error(self, args, capsys):
        # each entry point of a literal: eval points, spec atoms and
        # coefficients, --z0 (xi vector files: TestXi)
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "is not finite" in err


class TestUsageErrors:
    @pytest.mark.parametrize("args, message", [
        (["membership", "w*p(1)+q(1)"], "w coefficient needs an '@t' extension suffix"),
        (["membership", "p(1"], "unbalanced parenthesis (at position 1)"),
        (["membership", "x(1)"], "expected coefficient or atom (at position 0)"),
        (["membership", "2p(1)"], "expected '*' (at position 1)"),
        (["--window", "5", "support"], "window must be lo:hi, got '5'"),
        (["eval", ""], "empty complex literal"),
        (["--c", "inf", "eval", "1"], "power-law exponent must be a finite real > 1"),
        (["--c", "114", "eval", "1"],
         "power-law coefficient a_505 = 506^114 exceeds the float range"),
        (["--tail-tol", "inf", "eval", "1"],
         "tail_tol must be finite and positive, got inf"),
    ], ids=["w-without-t", "unbalanced", "no-atom", "no-star", "window", "empty-point",
            "infinite-c", "c-past-the-float-range", "infinite-tail-tol"])
    def test_usage_error_names_its_fault(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {message}"), err

    def test_largest_exponent_in_range_runs(self, capsys):
        # 509**113 is about 7e305: every coefficient through n_max + 8 is finite
        code, out, _ = run_cli(["--c", "113", "eval", "1"], capsys)
        assert code == 0 and "problem=power_law(c=113)" in out

    def test_out_file_gets_exactly_the_stdout_bytes(self, tmp_path, capsys):
        code, want, _ = run_cli(["eval", "1"], capsys)
        assert code == 0 and want
        path = tmp_path / "report.txt"
        code, out, err = run_cli(["--out", str(path), "eval", "1"], capsys)
        assert (code, out, err) == (0, "", "")
        assert path.read_bytes() == want.encode()


class TestMembership:
    def test_degenerate_zero_vector(self, capsys):
        code, out, _ = run_cli(["membership", "p(0.5)+(-1)*p(0.5)"], capsys)
        assert code == 0
        assert "degenerate_zero_vector = true" in out
        assert "in_DT = true" in out

    def test_zero_vector_residues_read_plus_zero(self, capsys):
        code, out, _ = run_cli(["membership", "p(0.5)-p(0.5)"], capsys)
        assert code == 0
        assert "residue_alpha = 0+0i [N=500]" in out
        assert "residue_beta = 0+0i [N=500]" in out

    def test_eigenvector_truncation_rejected(self, capsys):
        code, out, _ = run_cli(["--nmax", "200", "membership", "p(0.7)"],
                               capsys)
        assert code == 0
        assert "in_DT = false" in out

    def test_w_combination(self, capsys):
        code, out, _ = run_cli(
            ["--nmax", "200", "membership", "w*p(1+1i)+q(1+1i)@1"], capsys)
        assert code == 0
        assert "in_DT = false" in out
        assert "in_DTt(1) = true" in out

    # a support node of t = 1 at L = 200 inside the auto window, and one
    # past it
    @pytest.mark.parametrize("lam", ["16.52100129662582", "-658.6594873311622"])
    def test_w_on_the_support_is_refused(self, lam, capsys):
        code, out, err = run_cli(
            ["--nmax", "200", "membership", f"w*p({lam})+q({lam})@1"], capsys)
        assert code == 1 and out == ""
        assert "lies on the support" in err

    @pytest.mark.parametrize("tol",["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        # the zero vector goes through the same verdict as any other
        for spec in ("p(0.5)", "p(0.5)-p(0.5)"):
            code, out, err = run_cli(["--nmax", "200", "membership", spec,
                                      "--tol", tol], capsys)
            assert code == 2 and out == "", spec
            assert err.startswith("usage error: membership tolerance must be "
                                  "finite and positive"), spec

    def test_lower_basepoint_is_usage_error(self, capsys):
        code, _, err = run_cli(["--z0", "0.5-1i", "membership", "p(0.5)"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "upper half-plane" in err

    def test_malformed_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(["membership", "p(1)+x(2)"], capsys)
        assert code == 2
        assert "position 5" in err


def _unscaled_combine(self, b, d):
    """B + tD with no power-of-two scaling, D for infinity."""
    return d if self.is_infinite else b + self.t * d


class TestHugeT:
    """B + tD, A + tC and the Moebius map stay finite at any finite t: a
    numpy overflow warning raises here, as pytest turns it into an error."""

    @pytest.mark.parametrize("args, line", [
        (["--t", "1e300", "support"], "scan_warning = false"),
        (["--t", "1e308", "zeros", "BtD"], "suspected_missed = false"),
        (["--t", "-1e308", "zeros", "BtD"], "suspected_missed = false"),
        (["--t", "1e308", "zeros", "AtC"], "suspected_missed = false"),
        (["membership", "w*p(1+1i)+q(1+1i)@1e308"], "in_DTt(1e+308) = true"),
    ], ids=["support", "BtD", "BtD-negative", "AtC", "membership"])
    def test_huge_t_runs_without_overflow(self, args, line, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        assert any(row.startswith(line) for row in out.splitlines()), out

    @pytest.mark.parametrize("t", ["2", "-3.5", "1e250"])
    def test_scaling_leaves_reports_byte_identical(self, t, monkeypatch, capsys):
        scaled = run_cli(["--t", t, "support"], capsys)
        monkeypatch.setattr(ExtensionParam, "combine", _unscaled_combine)
        assert run_cli(["--t", t, "support"], capsys) == scaled


@pytest.mark.parametrize("t", ["0", "1", "inf"])
@pytest.mark.parametrize("c", ["1.2", "2"])
def test_precision_leaves_support_and_zeros_reports_alone(c, t, capsys):
    # measures and zero scans are float64 whatever --precision says, so the
    # two commands, which read the same B + tD, print the same nodes
    for command in (["support"], ["zeros", "BtD"]):
        args = ["--c", c, "--t", t, *command]
        code, std, _ = run_cli(args, capsys)
        assert code == 0
        code, ext, _ = run_cli(["--precision", "extended", *args], capsys)
        assert code == 0
        assert "precision=standard" in ext
        assert ext == std                       # header and config_hash too


def test_only_eval_and_verify_name_the_precision(tmp_path, capsys):
    # the other commands compute in float64: one result, one config_hash
    vec = tmp_path / "c.txt"
    vec.write_text("1\n0.5+0.25i\n")
    for command, named in ((["membership", "p(0.5)+(2+1i)*p(1.5)"], False),
                           (["xi", str(vec)], False), (["eval", "0.5i"], True),
                           (["--nmax", "60", "verify"], True)):
        code, std, _ = run_cli(command, capsys)
        assert code == 0
        code, ext, _ = run_cli(["--precision", "extended", *command], capsys)
        assert code == 0
        assert ("precision=extended" in ext) == named
        if not named:
            assert ext == std


class TestZeros:
    def test_scan_d(self, capsys):
        code, out, _ = run_cli(
            ["--window", "-6:6", "--nmax", "200", "zeros", "D"], capsys)
        assert code == 0
        assert "count = 3" in out
        assert "suspected_missed = false" in out

    def test_rect_count(self, capsys):
        code, out, _ = run_cli(
            ["--nmax", "200", "--t", "1", "zeros", "BtD",
             "--rect", "0.5:5.5:0.4:3.0"], capsys)
        assert code == 0
        assert "zero_count = 0" in out

    @pytest.mark.parametrize("name", ["B", "D"])
    def test_t_free_function_label_carries_no_t(self, name, capsys):
        code, out, _ = run_cli(
            ["--window", "-6:6", "--nmax", "200", "--t", "1", "zeros", name],
            capsys)
        assert code == 0
        assert f"function = {name}\n" in out

    def test_missing_t_is_usage_error(self, capsys):
        code, _, err = run_cli(["--nmax", "200", "zeros", "BtD"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "needs --t" in err

    def test_three_part_rect_is_usage_error(self, capsys):
        code, _, err = run_cli(["--nmax", "200", "zeros", "D", "--rect=-1:1:1"],
                               capsys)
        assert code == 2
        assert err.startswith("usage error:") and "re_lo:re_hi:im_lo:im_hi" in err

    def test_infinite_rect_is_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["--nmax", "200", "zeros", "B", "--rect=-1:1:-inf:1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and "finite" in err

    def test_infinite_window_is_usage_error(self, capsys):
        code, out, err = run_cli(["--window=-inf:inf", "zeros", "B"], capsys)
        assert code == 2 and out == ""
        assert err == "usage error: window bounds must be finite, got -inf:inf\n"

    def test_failed_eigensolve_exits_3(self, monkeypatch, capsys):
        def fail(d, e):
            raise NonConvergenceError("tridiagonal eigensolve failed")

        monkeypatch.setattr(zeros, "_tridiagonal_eigvals", fail)
        code, _, err = run_cli(
            ["--window", "-6:6", "--nmax", "200", "zeros", "D"], capsys)
        assert code == 3
        assert err.startswith("non-convergence:")

    def test_failed_bisection_exits_3(self, monkeypatch, capsys):
        def fail(d, e, x, k):
            raise NonConvergenceError("tridiagonal bisection failed")

        monkeypatch.setattr(zeros, "_tridiagonal_eigvals_near", fail)
        code, _, err = run_cli(["--nmax", "200", "verify"], capsys)
        assert code == 3
        assert err.startswith("non-convergence:")


class TestXi:
    def test_apply(self, tmp_path, capsys):
        vf = tmp_path / "vec.txt"
        vf.write_text("# test vector\n0\n1\n0.5+0.25i\n")
        code, out, _ = run_cli(
            ["--nmax", "200", "--z0", "0.4+1.1i", "xi", str(vf)], capsys)
        assert code == 0
        assert "resolvent_residual" in out
        assert "xi_in_DT = true" in out

    def test_bad_entry_is_usage_error(self, tmp_path, capsys):
        vf = tmp_path / "vec.txt"
        vf.write_text("1\nnot-a-number\n")
        code, _, err = run_cli(["xi", str(vf)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and ":2:" in err

    def test_entry_with_inner_space_is_usage_error(self, tmp_path, capsys):
        vf = tmp_path / "vec.txt"
        vf.write_text("1\n0.5 + 0.25i\n1 0\n")
        code, _, err = run_cli(["xi", str(vf)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and f"{vf}:3:" in err

    def test_non_finite_entry_is_usage_error(self, tmp_path, capsys):
        vf = tmp_path / "vec.txt"
        vf.write_text("1\n0.5+0.25i\nnan\n")
        code, out, err = run_cli(["xi", str(vf)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and f"{vf}:3:" in err
        assert "is not finite" in err

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        vf = tmp_path / "vec.txt"
        vf.write_text("# no entries\n\n")
        code, out, err = run_cli(["xi", str(vf)], capsys)
        assert code == 2 and out == ""
        assert err == "usage error: empty vector file\n"

    def test_vector_past_the_level_is_usage_error(self, tmp_path, capsys):
        # residues are summed to n_max, so a longer vector would get a
        # verdict its sums cannot give; at a level reaching its top index
        # it is finite and so in D(T)
        vf = tmp_path / "vec.txt"
        vf.write_text("".join(f"{(k % 7) - 3}+{(k % 5) / 4}i\n" for k in range(60)))
        code, _, err = run_cli(["--nmax", "20", "xi", str(vf)], capsys)
        assert code == 2
        assert err.startswith("usage error:")
        assert "top index 59 exceeds n_max = 20" in err
        code, out, _ = run_cli(["--nmax", "59", "xi", str(vf)], capsys)
        assert code == 0
        assert "xi_in_DT = true" in out


class TestBadInput:
    """Faults in a coefficient file or basepoint are usage errors (exit 2)."""

    def test_malformed_coefficient_file(self, tmp_path, capsys):
        coeffs = tmp_path / "bad.txt"
        coeffs.write_text("1 0\n-4 0\n")
        code, _, err = run_cli(["--problem", str(coeffs), "eval", "1"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and f"{coeffs}:2:" in err

    def test_coefficient_file_too_short(self, tmp_path, capsys):
        coeffs = tmp_path / "short.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 2} 0\n" for n in range(100)))
        code, _, err = run_cli(["--problem", str(coeffs), "--nmax", "100",
                                "eval", "1"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "range exhausted" in err

    def test_coefficient_file_to_level_plus_eight_serves_verify(self, tmp_path,
                                                                capsys):
        # rows 0..n_max + 8, as far as any table reads, the truncated
        # problem's tables of check 12 too
        coeffs = tmp_path / "c2.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 2} 0\n" for n in range(109)))
        code, out, _ = run_cli(["--problem", str(coeffs), "--nmax", "100", "verify"],
                               capsys)
        assert code == 0 and "all_checks = PASS" in out


class TestConfigFile:
    def test_roundtrip(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[problem]\nkind = power_law\nc = 2.0\n"
            "[truncation]\nn_max = 150\ntail_tol = 1e-4\n"
            "[scan]\nwindow = -6:6\n"
            "[run]\nseed = 99\nprecision = standard\n")
        code, out, _ = run_cli(["--config", str(cfgfile), "eval", "1"], capsys)
        assert code == 0
        assert "n_max=150" in out
        assert "seed: 99" in out

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(["--config", "/nonexistent.ini", "eval", "1"],
                             capsys)
        assert code == 2

    @staticmethod
    def _config(tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_preset_flag_overrides_a_file_problem(self, tmp_path, capsys):
        coeffs = tmp_path / "c3.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 3} 0\n" for n in range(300)))
        cfg = self._config(tmp_path, f"[problem]\nkind = file\npath = {coeffs}\n")
        code, out, _ = run_cli(["--config", cfg, "--nmax", "100", "eval", "1"],
                               capsys)
        assert code == 0 and f"problem=file({coeffs})" in out
        code, out, _ = run_cli(["--config", cfg, "--problem", "preset",
                                "--nmax", "100", "eval", "1"], capsys)
        assert code == 0 and "problem=power_law(c=2)" in out

    def test_file_kind_without_path_is_usage_error(self, tmp_path, capsys):
        cfg = self._config(tmp_path, "[problem]\nkind = file\n")
        code, _, err = run_cli(["--config", cfg, "eval", "1"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "path" in err

    @pytest.mark.parametrize("kind", ["", "kind = power_law\n"],
                             ids=["no-kind", "power-law"])
    def test_path_without_file_kind_is_usage_error(self, tmp_path, capsys, kind):
        # the file would otherwise run the power-law preset in silence
        coeffs = tmp_path / "c3.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 3} 0\n" for n in range(300)))
        cfg = self._config(tmp_path, f"[problem]\n{kind}path = {coeffs}\n")
        code, out, err = run_cli(["--config", cfg, "--nmax", "100", "eval", "1"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {cfg}:") and "kind = file" in err

    def test_file_kind_with_c_is_usage_error(self, tmp_path, capsys):
        # as --problem FILE with --c: c would otherwise be dropped in silence
        coeffs = tmp_path / "c3.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 3} 0\n" for n in range(300)))
        cfg = self._config(tmp_path,
                           f"[problem]\nkind = file\npath = {coeffs}\nc = 3\n")
        code, out, err = run_cli(["--config", cfg, "--nmax", "100", "eval", "1"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {cfg}:") and "c names" in err

    @pytest.mark.parametrize("text, name", [
        ("[truncation]\nnmax = 10\n", "unknown key 'nmax' in [truncation]"),
        ("[trunc]\nn_max = 10\n", "unknown section [trunc]"),
        ("[DEFAULT]\nn_max = 10\n", "unknown section [DEFAULT]"),
        ("[problem]\nkind = banana\n", "unknown problem kind 'banana'"),
        ("[problem]\nc = inf\n", "power-law exponent must be a finite real > 1"),
        ("[truncation]\ntail_tol = 1e400\n",
         "tail_tol must be finite and positive, got inf"),
        ("[truncation]\nsafety = inf\n", "safety must be finite and >= 1, got inf"),
    ], ids=["key", "section", "default-section", "kind", "infinite-c",
            "infinite-tail-tol", "infinite-safety"])
    def test_unknown_setting_is_usage_error(self, tmp_path, capsys, text, name):
        cfg = self._config(tmp_path, text)
        code, out, err = run_cli(["--config", cfg, "eval", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and name in err

    def test_file_problem_with_c_flag_is_usage_error(self, tmp_path, capsys):
        coeffs = tmp_path / "c3.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 3} 0\n" for n in range(300)))
        code, _, err = run_cli(["--problem", str(coeffs), "--c", "3",
                                "--nmax", "100", "eval", "1"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "--c" in err

    def test_c_flag_overrides_a_config_file_path(self, tmp_path, capsys):
        coeffs = tmp_path / "c3.txt"
        coeffs.write_text("".join(f"{(n + 1) ** 3} 0\n" for n in range(300)))
        cfg = self._config(tmp_path, f"[problem]\nkind = file\npath = {coeffs}\n")
        code, out, _ = run_cli(["--config", cfg, "--c", "3", "--nmax", "100",
                                "eval", "1"], capsys)
        assert code == 0 and "problem=power_law(c=3)" in out

    @pytest.mark.parametrize("text, command, message", [
        ("window = -inf:inf\n", "support", "window bounds must be finite"),
        ("window = 3:1\n", "support", "window must satisfy lo < hi"),
        ("refine_tol = inf\n", "zeros", "refine_tol must be finite and positive"),
        ("refine_tol = 0\n", "zeros", "refine_tol must be finite and positive"),
    ], ids=["infinite-window", "reversed-window", "infinite-refine-tol",
            "zero-refine-tol"])
    def test_bad_scan_setting_is_usage_error(self, tmp_path, capsys, text, command,
                                             message):
        cfg = self._config(tmp_path, "[scan]\n" + text)
        args = ["--config", cfg, command] + (["B"] if command == "zeros" else [])
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {message}")

    def test_file_and_flag_settings_both_apply(self, tmp_path, capsys):
        cfg = self._config(tmp_path, "[truncation]\nn_max = 150\n")
        code, out, _ = run_cli(["--config", cfg, "--tail-tol", "1e-4",
                                "eval", "1"], capsys)
        assert code == 0
        assert "n_max=150 tail_tol=0.0001 " in out


# every RunConfig field but the output destination and format shapes the
# report body, so each must reach the config line and its hash
HASHED_ALTERNATIVES = {
    "problem": [JacobiCoefficients.power_law(3.0)],
    "truncation": [TruncationPolicy(n_max=501), TruncationPolicy(tail_tol=1e-4),
                   TruncationPolicy(safety=11.0)],
    "scan": [RootScanConfig(window=(-41.0, 40.0)),
             RootScanConfig(window=(-40.0, 40.0), refine_tol=1e-12)],
    "precision": ["extended"],
    "seed": [1235],
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)
                                  if f.name not in ("out", "format")])
def test_every_run_field_enters_config_hash(name):
    base = RunConfig()
    for value in HASHED_ALTERNATIVES[name]:
        assert replace(base, **{name: value}).config_hash() != base.config_hash()


def test_power_law_exponents_one_ulp_apart_hash_apart():
    base = RunConfig()
    assert base.describe() == (
        "problem=power_law(c=2) n_max=500 tail_tol=0.001 safety=10 "
        "window=-40:40 refine_tol=9.9999999999999994e-12 precision=standard "
        "seed=1234")
    assert base.config_hash() == "f3dc4e960a74c93b"
    for c in (2.0, 1.1, 1.2, 1.5, 3.0):
        at = replace(base, problem=JacobiCoefficients.power_law(c))
        near = replace(base, problem=JacobiCoefficients.power_law(
            math.nextafter(c, math.inf)))
        assert at.problem.description == f"power_law(c={c:g})"
        assert near.describe() != at.describe()
        assert near.config_hash() != at.config_hash()
    assert (JacobiCoefficients.power_law(2.0000001).description
            == "power_law(c=2.0000001)")


class TestVerify:
    def test_report_does_not_depend_on_cache_state(self, capsys):
        clear_evaluator_cache()
        code, cold, _ = run_cli(["--nmax", "120", "verify"], capsys)
        assert code == 0
        _, warm, _ = run_cli(["--nmax", "120", "verify"], capsys)
        assert cold == warm

    def test_report_does_not_depend_on_blas_threads(self):
        # threaded BLAS reductions may round differently from serial ones
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        outs = [subprocess.run(
                    [sys.executable, "-m", "indmom.cli", "--nmax", "120", "verify"],
                    env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                    capture_output=True, text=True).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1]

    def test_default_route_imports_no_scipy(self):
        # scipy costs far more import time and memory than a run's budget;
        # tests import it themselves, so only a fresh process can tell
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "indmom.cli",
             "--nmax", "120", "verify"],
            env=env, check=True, capture_output=True, text=True)
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in run.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "indmom.acceptance" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]

    def test_extended_report_names_the_checks_at_its_precision(self, capsys):
        # the header reads precision=extended, but only 01 computes there
        code, out, _ = run_cli(["--precision", "extended", "--nmax", "120", "verify"],
                               capsys)
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == "extended_precision_checks = 01_determinant_identity"
        assert all("precision" not in row for row in rows[1:])
        _, out, _ = run_cli(["--nmax", "120", "verify"], capsys)
        assert "precision_checks" not in out

    def test_a_raising_group_is_one_fail_row(self, monkeypatch, capsys):
        # the report completes: the other groups' rows are as in a full run
        def rows(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("#", "all_checks"))]

        _, whole, _ = run_cli(["--nmax", "120", "verify"], capsys)

        def inconclusive(config, measures):
            raise InconclusiveMembershipError("verdicts disagree")

        monkeypatch.setattr(acceptance, "_check_extensions", inconclusive)
        code, out, err = run_cli(["--nmax", "120", "verify"], capsys)
        assert code == 1
        raised = ["extensions_raised = FAIL [N=120 tol=nan]",
                  "extensions_raised.measured = nan [N=120 tol=nan]"]
        assert [r for r in rows(out) if r not in raised] == [
            r for r in rows(whole) if not r.startswith(("10a_", "10b_"))]
        assert [r for r in rows(out) if r in raised] == raised
        assert "all_checks = FAIL" in out.splitlines()
        assert ("FAIL extensions_raised: measured=nan tol=nan  "
                "InconclusiveMembershipError: verdicts disagree") in err.splitlines()

    def test_level_below_a_hundred_draws_vectors_it_can_judge(self, capsys):
        # check 11 draws top indices up to min(100, n_max)
        code, out, err = run_cli(["--nmax", "20", "verify"], capsys)
        assert code == 0
        assert "all_checks = PASS" in out
        assert "50 seeded finite vectors, M<=20" in err

    @pytest.mark.parametrize("problem", [[], ["--c", "4"]],
                             ids=["preset", "c=4"])
    def test_small_level_suite_passes(self, problem, capsys):
        code, out, err = run_cli(
            problem + ["--nmax", "120", "--seed", "7", "verify"], capsys)
        assert code == 0
        assert "all_checks = PASS" in out
        assert "FAIL" not in err


# Every package error and the exit README documents for it: 2 for a fault in
# what the run is given, 3 for numeric non-convergence, 1 for any other.
_DOCUMENTED_EXITS = {
    errors.BasepointError: 2, errors.CoefficientFileError: 2,
    errors.CoefficientRangeError: 2, errors.SpecStringError: 2,
    errors.NonConvergenceError: 3, errors.IndmomError: 1,
    errors.EvaluationOverflowError: 1, errors.InconclusiveMembershipError: 1,
    errors.ZeroOnContourError: 1, errors.SupportPointError: 1}
_EXIT_PREFIX = {1: "error: ", 2: "usage error: ", 3: "non-convergence: "}


def _raised(error):
    return error("raised", 0) if error is errors.SpecStringError else error("raised")


class TestErrorExits:
    def test_every_package_error_has_a_documented_exit(self):
        assert set(_DOCUMENTED_EXITS) == {
            v for v in vars(errors).values()
            if isinstance(v, type) and issubclass(v, errors.IndmomError)}

    @pytest.mark.parametrize("error", list(_DOCUMENTED_EXITS), ids=lambda e: e.__name__)
    def test_main_maps_each_error_to_its_exit(self, error, monkeypatch, capsys):
        def fail(args, cfg):
            raise _raised(error)

        monkeypatch.setattr(cli, "_cmd_eval", fail)
        code, out, err = run_cli(["eval", "1"], capsys)
        exit_code = _DOCUMENTED_EXITS[error]
        assert (code, out) == (exit_code, "")
        assert err.startswith(_EXIT_PREFIX[exit_code]), err

    @pytest.mark.parametrize("error", list(_DOCUMENTED_EXITS), ids=lambda e: e.__name__)
    def test_verify_reraises_exactly_the_errors_that_end_a_run(self, error,
                                                               monkeypatch, capsys):
        # any other error is one FAIL row, and verify exits 1 for it
        def fail(config):
            raise _raised(error)

        monkeypatch.setattr(acceptance, "_checks", lambda: [("pick", fail, False)])
        exit_code = _DOCUMENTED_EXITS[error]
        if exit_code == 1:
            (row,) = acceptance.run_acceptance(RunConfig())
            assert row.name == "pick_raised" and not row.passed
        else:
            with pytest.raises(error):
                acceptance.run_acceptance(RunConfig())
        code, _, err = run_cli(["verify"], capsys)
        assert code == exit_code
        assert err.startswith(_EXIT_PREFIX[exit_code]) or exit_code == 1, err
