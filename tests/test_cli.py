"""Command-line surface: outputs, exit codes, determinism."""

from importlib import resources

import pytest

from qsteane.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAIL, build_parser, main


def fixture_path(name: str) -> str:
    return str(resources.files("qsteane.fixtures").joinpath(name))


def test_parser_is_built_once():
    assert build_parser() is build_parser()


class TestVerify:
    def test_reports_parameters(self, capsys):
        assert main(["verify", fixture_path("c14_9_2.txt")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "n=14 k=9 d=2 d2=4 dual_containing=yes\n"

    def test_missing_file(self, capsys):
        assert main(["verify", "/no/such/file"]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_bad_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("10\n1\n")
        assert main(["verify", str(bad)]) == EXIT_INPUT_ERROR
        assert "line 2" in capsys.readouterr().err


class TestSteane:
    def test_auto_recovery_with_exact_distance(self, capsys):
        code = main(["steane", "--auto", fixture_path("c14_9_2.txt"), "--exact"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "[[14,2,4]] exact d=4\n"

    def test_explicit_inner_code(self, tmp_path, capsys):
        from qsteane.gf2 import even_weight_code, render_matrix

        from conftest import EXT_HAMMING_8_4

        inner = tmp_path / "c.txt"
        outer = tmp_path / "cp.txt"
        # Self-dual [8,4,4] inside the even-weight [8,7,2] code.
        inner.write_text(render_matrix(EXT_HAMMING_8_4.basis_ints(), 8))
        outer.write_text(render_matrix(even_weight_code(8).basis_ints(), 8))
        assert main(["steane", str(inner), str(outer)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("[[8,3,")

    def test_auto_failure_is_input_error(self, capsys):
        code = main(["steane", "--auto", fixture_path("c18_12_4.txt")])
        assert code == EXIT_INPUT_ERROR
        assert "dual-containing" in capsys.readouterr().err

    def test_auto_above_cap_is_input_error(self, capsys):
        # c14_10_2 has k' = 10, so the search's coset-weight table would
        # walk 2^10 words: refused at cap 9 before the search starts.
        code = main(["--cap", "9", "steane", "--auto", fixture_path("c14_10_2.txt")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: coset-weight table over 2^10 words of C' exceeds cap k' <= 9\n"

    def test_missing_inner_code(self, capsys):
        assert main(["steane", fixture_path("c14_9_2.txt")]) == EXIT_INPUT_ERROR


class TestTable1:
    def test_exit_and_row_lines(self, capsys):
        # The n=18 row cannot be rebuilt (its published enlargement code
        # is not dual-containing), so the overall verdict is FAIL.
        assert main(["table1"]) == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 7
        assert sum(" PASS " in line for line in lines) == 5
        assert "n=18" in lines[5] and "FAIL" in lines[5]
        assert lines[6] == "table1: FAIL"

    def test_byte_identical_runs(self, capsys):
        main(["table1"])
        first = capsys.readouterr().out
        main(["table1"])
        second = capsys.readouterr().out
        assert first == second


class TestFamily:
    def test_params_only(self, capsys):
        assert main(["family", "F5", "7", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "[[128,71,11]] (params only)\n"

    def test_lowercase_family(self, capsys):
        assert main(["family", "f0", "5", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "[[32,15,6]]\n"

    def test_build_proven(self, capsys):
        assert main(["family", "F0", "5", "1", "--build"]) == EXIT_OK
        assert capsys.readouterr().out == "[[32,15,6]] bound holds by construction\n"

    def test_build_refuted_is_verification_failure(self, capsys):
        # 53 generators exceed the default scan cap, but the coset sweep
        # over the 2^12 pairs of C-perp x C-perp certifies every one of
        # the 64 completions: none reaches the claimed d=4.
        assert main(["family", "F4", "5", "0", "--build"]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out == "[[32,21,4]] exact d=3 FAIL\n"

    def test_invalid_parameters(self, capsys):
        assert main(["family", "F0", "4", "1"]) == EXIT_INPUT_ERROR

    def test_build_beyond_desk_scale(self, capsys):
        # The cap governs every scan a build runs, so no m is refused:
        # the coset sweep refutes F4 m=6 (2(n - k) = 14 <= 26), and F0
        # m=6 has at least two completion rows.
        assert main(["family", "F4", "6", "0", "--build"]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out == "[[64,51,4]] exact d=3 FAIL\n"
        assert main(["family", "F0", "6", "1", "--build"]) == EXIT_OK
        assert capsys.readouterr().out == "[[64,44,6]] bound holds by construction\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            # 23 generators and 2(n - k) = 10 pairs' bits, both over cap 9.
            (["--cap", "9", "family", "F4", "4", "0", "--build"], "[[16,7,4]] distance bound unverified\n"),
            # 53 generators and a 2^12-pair sweep, both over cap 11.
            (["--cap", "11", "family", "F4", "5", "0", "--build"], "[[32,21,4]] distance bound unverified\n"),
        ],
    )
    def test_build_respects_the_cap(self, capsys, argv, line):
        assert main(argv) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out == line


class TestBounds:
    def test_writes_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "0", "0.5", "0.001", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,gf4,cs,steane,thm4"
        assert len(lines) == 502
        assert capsys.readouterr().out == f"wrote 501 points to {out}\n"

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bounds", "0", "0.5", "0.001", str(a)])
        main(["bounds", "0", "0.5", "0.001", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, capsys):
        assert main(["bounds", "0.4", "0.2", "0.01", "/tmp/x.csv"]) == EXIT_INPUT_ERROR

    def test_oversized_grid_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "0", "0.5", "1e-12", str(out)]) == EXIT_INPUT_ERROR
        assert "exceeds 10^6" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_delta_is_written_as_zero(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "--", "-0", "-0", "0.1", str(out)]) == EXIT_OK
        assert out.read_text() == "delta,gf4,cs,steane,thm4\n0.000000,1.000000,1.000000,1.000000,1.000000\n"
        assert capsys.readouterr().out == f"wrote 1 points to {out}\n"

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_is_input_error(self, tmp_path, capsys, step):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "0", "0.5", step, str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: step must be finite, got {step}\n"
        assert not out.exists()
