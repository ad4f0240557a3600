"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import io
import random
from importlib import resources
from pathlib import Path

import pytest

from qsteane import bch, cli, steane
from qsteane.bch import coset_extend, extended_bch
from qsteane.enumerators import CertificateError
from qsteane.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAIL, build_parser, main
from qsteane.gf2 import LinearCode, dual, even_weight_code, is_subcode, render_matrix

from conftest import EXT_HAMMING_8_4, dual_containing_code


def fixture_path(name: str) -> str:
    return str(resources.files("qsteane.fixtures").joinpath(name))


def write_code(path, code: LinearCode) -> str:
    path.write_text(render_matrix(code.basis_ints(), code.n))
    return str(path)


#: `qsteane family --build` at the default cap: the verification frontier.
FAMILY_BUILD = Path(__file__).with_name("family_build.txt")


@pytest.fixture(scope="module")
def family_build():
    """stdout and exit code of the listing of every member, built once
    for the module."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["family", "--build"])
    return out.getvalue(), code


def member_lines(listing: str):
    """(family, m, ell, line) per line of a `family` listing."""
    for line in listing.splitlines():
        label, rest = line.split(": ", 1)
        family, m, ell = label.replace("m=", "").replace("ell=", "").split()
        yield family, m, ell, rest


def forbid_scans(monkeypatch):
    """Makes every distance scan `certified_enlarge` can run fail the test."""

    def scan(*args, **kwargs):
        raise AssertionError("a distance scan ran")

    for name in ("min_distance", "second_gdw", "quantum_distance_exact", "_stabiliser_distance", "_coset_distances"):
        monkeypatch.setattr(steane, name, scan)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("cap", ["-1", "-3"])
@pytest.mark.parametrize("argv", [["verify", fixture_path("c14_9_2.txt")], ["family", "F3", "3", "0", "--build"], ["table1"]])
def test_negative_cap_is_usage_error(capsys, cap, argv):
    with pytest.raises(SystemExit, match="2"):
        main(["--cap", cap] + argv)
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"qsteane: error: argument --cap: must be >= 0, got {cap}\n")


def test_zero_cap_is_accepted(capsys):
    # Every scan is then refused, so verify reports no d or d2.
    assert main(["--cap", "0", "verify", fixture_path("c14_9_2.txt")]) == EXIT_OK
    assert capsys.readouterr().out == "n=14 k=9 dual_containing=yes\n"


class TestVerify:
    def test_reports_parameters(self, capsys):
        assert main(["verify", fixture_path("c14_9_2.txt")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "n=14 k=9 d=2 d2=4 dual_containing=yes\n"

    def test_missing_file(self, capsys):
        assert main(["verify", "/no/such/file"]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_wide_dual_containing_code_and_one_row_changed(self, tmp_path, capsys):
        rng = random.Random(1024)
        C = dual_containing_code(rng, 512, 100)
        rows = C.basis_ints()
        # Each row plus a random later one: the file is not in rref.
        rows = [r ^ rows[rng.randrange(i + 1, len(rows))] if i < len(rows) - 1 else r for i, r in enumerate(rows)]
        path = tmp_path / "c.txt"
        path.write_text(render_matrix(rows, 1024))
        assert main(["verify", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "n=1024 k=612 dual_containing=yes\n"
        rows[300] ^= 1 << 17
        B = LinearCode(rows, 1024)
        assert B.k == 612 and not is_subcode(dual(B), B)
        path.write_text(render_matrix(rows, 1024))
        assert main(["verify", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "n=1024 k=612 dual_containing=no\n"

    def test_wide_file_with_crlf_and_a_comment(self, tmp_path, capsys):
        # Bare 0/1 rows are parsed in numpy blocks, the CRLF file with a
        # comment by the line loop: same code, same line.
        rng = random.Random(612)
        rows = dual_containing_code(rng, 512, 100).basis_ints()
        rows = [r ^ rows[rng.randrange(i + 1, len(rows))] if i < len(rows) - 1 else r for i, r in enumerate(rows)]
        lines = [format(r, "01024b") for r in rows]
        plain, crlf = tmp_path / "plain.txt", tmp_path / "crlf.txt"
        plain.write_text("".join(line + "\n" for line in lines))
        crlf.write_bytes("".join(line + "\r\n" for line in ["# 1024 columns"] + lines).encode())
        outputs = []
        for path in (plain, crlf):
            assert main(["verify", str(path)]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == ("n=1024 k=612 dual_containing=yes\n", "")

    @pytest.mark.parametrize(
        "n, code, out, err",
        [
            (1024, EXIT_OK, "n=1024 k=1 d=1024 dual_containing=no\n", ""),
            (1025, EXIT_INPUT_ERROR, "", "error: n must be in [1, 1024]\n"),
        ],
    )
    def test_length_limit(self, tmp_path, capsys, n, code, out, err):
        path = tmp_path / "ones.txt"
        path.write_text("1" * n + "\n")
        assert main(["verify", str(path)]) == code
        assert capsys.readouterr() == (out, err)

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
        # Self-dual [8,4,4] inside the even-weight [8,7,2] code.
        inner = write_code(tmp_path / "c.txt", EXT_HAMMING_8_4)
        assert main(["steane", inner, write_code(tmp_path / "cp.txt", even_weight_code(8))]) == EXIT_OK
        assert capsys.readouterr().out.startswith("[[8,3,")

    def test_auto_with_inner_code_is_input_error(self, capsys):
        # --auto would find C itself, so a C file beside it is refused
        # before either file is opened.
        argv = ["steane", "/no/such/file.txt", fixture_path("c14_9_2.txt"), "--auto", "--exact"]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: give a C matrix file or --auto, not both\n")

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

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_refuted_distance_is_verification_failure(self, tmp_path, capsys, exact):
        # The F4 m=4 pair: every completion is certified at d <= 3.
        C = extended_bch(4, 1)
        Cp = coset_extend(C, extended_bch(4, 0))
        argv = ["steane", write_code(tmp_path / "c.txt", C), write_code(tmp_path / "cp.txt", Cp)]
        assert main(argv + exact) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out == "[[16,7,4]] exact d=3 FAIL\n"

    def test_sweep_over_the_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        # k' = k + 1 with 9 generators and a 2^8-pair sweep, both over cap 7:
        # refused before any scan, with or without --exact.
        forbid_scans(monkeypatch)
        Cp = LinearCode(EXT_HAMMING_8_4.basis_ints() + [0b11000000], 8)
        argv = ["--cap", "7", "steane", write_code(tmp_path / "c.txt", EXT_HAMMING_8_4), write_code(tmp_path / "cp.txt", Cp)]
        for exact in ([], ["--exact"]):
            assert main(argv + exact) == EXIT_INPUT_ERROR
            assert capsys.readouterr() == ("", "error: coset sweep over 2^8 pairs of C-perp x C-perp exceeds cap 7\n")

    def test_exact_over_the_cap_keeps_a_proven_bound(self, tmp_path, capsys):
        # k' = k + 3: the bound is proven, and its 11 generators are over cap 10.
        inner = write_code(tmp_path / "c.txt", EXT_HAMMING_8_4)
        argv = ["--cap", "10", "steane", inner, write_code(tmp_path / "cp.txt", even_weight_code(8)), "--exact"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == ("[[8,3,3]] bound holds by construction\n", "")

    def test_equal_codes_build_css(self, tmp_path, capsys, monkeypatch):
        # C' = C, the even-weight [8,7] code: CSS(C, C) = [[8,6,2]], whose
        # bound d(C) needs no d2 scan.
        calls = []
        d2 = steane.second_gdw
        monkeypatch.setattr(steane, "second_gdw", lambda *a, **kw: calls.append(a) or d2(*a, **kw))
        E8 = write_code(tmp_path / "e8.txt", even_weight_code(8))
        assert main(["steane", E8, E8, "--exact"]) == EXIT_OK
        assert capsys.readouterr() == ("[[8,6,2]] exact d=2\n", "")
        assert calls == []

    def test_one_bit_code_builds_css(self, tmp_path, capsys):
        # C = C' = GF(2), n = k = 1: the trivial-stabiliser [[1,1,1]] code.
        one = tmp_path / "one.txt"
        one.write_text("1\n")
        assert main(["steane", str(one), str(one), "--exact"]) == EXIT_OK
        assert capsys.readouterr() == ("[[1,1,1]] exact d=1\n", "")

    @pytest.mark.parametrize("auto", [False, True])
    def test_self_dual_code_alone_is_input_error(self, tmp_path, capsys, auto):
        # C' = C self-dual gives K = 0; --auto recovers C' itself.
        C = write_code(tmp_path / "c.txt", EXT_HAMMING_8_4)
        assert main(["steane"] + (["--auto", C] if auto else [C, C])) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: enlargement needs K = k + k' - n >= 1, got k=4, k'=4, n=8\n")

    def test_missing_inner_code(self, tmp_path, capsys):
        assert main(["steane", fixture_path("c14_9_2.txt")]) == EXIT_INPUT_ERROR
        capsys.readouterr()
        # An inner code of another length is refused as well.
        inner = write_code(tmp_path / "c.txt", EXT_HAMMING_8_4)
        assert main(["steane", inner, write_code(tmp_path / "cp.txt", even_weight_code(10))]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: C and C' have different lengths\n")


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

    def test_cap_bounds_the_self_dual_search(self, capsys):
        # The first row's C' is the [8,7] even-weight code: its coset
        # table over 2^7 words is refused before any distance scan.
        assert main(["--cap", "6", "table1"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: coset-weight table over 2^7 words of C' exceeds cap k' <= 6\n")

    @pytest.mark.parametrize("cap, r", [(12, 16), (16, 17)])
    def test_row_over_the_cap_is_input_error(self, capsys, cap, r):
        # A row whose k + k' generators exceed the cap is left unscanned:
        # an input error, never a failed row.
        assert main(["--cap", str(cap), "table1"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"error: quantum distance over 2^{r} vectors exceeds cap {cap}\n")


class TestFamily:
    def test_params_only(self, capsys):
        assert main(["family", "F5", "7", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "[[128,71,11]] (params only)\n"

    def test_params_only_with_build(self, capsys):
        assert main(["family", "F5", "7", "1", "--build"]) == EXIT_OK
        assert capsys.readouterr() == ("[[128,71,11]] (params only)\n", "")

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

    def test_failed_certificate_is_verification_failure(self, capsys, monkeypatch):
        def fail(C, w):
            raise CertificateError("coset enumerator numerator is odd")

        monkeypatch.setattr(steane, "_coset_distances", fail)
        assert main(["family", "F4", "4", "0", "--build"]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr() == ("", "error: coset enumerator numerator is odd\n")

    def test_build_listing_is_the_checked_in_frontier(self, family_build):
        # F4 at ell = 0 prints "exact d=3 FAIL" at every m, so it exits 1.
        # A change that moves the frontier regenerates the file.
        assert family_build == (FAMILY_BUILD.read_text(), EXIT_VERIFY_FAIL)
        assert len(family_build[0].splitlines()) == 97

    def test_build_listing_prints_the_single_member_lines(self, family_build, capsys):
        # After its "F m=M ell=L: " label, each member's line is the one
        # `family F M L --build` prints, F5's "(params only)" included.
        built = 0
        for family, m, ell, rest in member_lines(family_build[0]):
            if int(m) > 5:
                continue
            assert main(["family", family, m, ell, "--build"]) in (EXIT_OK, EXIT_VERIFY_FAIL)
            assert capsys.readouterr() == (rest + "\n", "")
            built += 1
        # F0, F2 at ell = 1 and F5 at m = 5; F2 at ell = 0, m = 2..5; F3, F4 at m = 3, 4, 5.
        assert built == 13

    def test_listing_without_build_prints_the_parameters(self, family_build, capsys):
        assert main(["family"]) == EXIT_OK
        members = list(member_lines(capsys.readouterr().out))
        assert [member[:3] for member in members] == [member[:3] for member in member_lines(family_build[0])]
        for family, m, ell, rest in members:
            assert main(["family", family, m, ell]) == EXIT_OK
            assert capsys.readouterr().out == rest + "\n"

    def test_build_listing_respects_the_cap(self, family_build, capsys, monkeypatch):
        # Members up to m = 5: F4 m=5's 2^12-pair sweep is over cap 11, so
        # the listing stops there, after the 11 members before it.
        monkeypatch.setattr(cli, "MAX_LENGTH", 32)
        assert main(["--cap", "11", "family", "--build"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        members = [member[:3] for member in member_lines(family_build[0])]
        assert members[11] == ("F4", "5", "0")
        assert [member[:3] for member in member_lines(out)] == members[:11]
        assert err == "error: coset sweep over 2^12 pairs of C-perp x C-perp exceeds cap 11\n"

    @pytest.mark.parametrize("argv", [["family", "F0"], ["family", "F0", "5"], ["family", "F0", "5", "--build"]])
    def test_partial_member_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit, match="2"):
            main(argv)
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("qsteane family: error: give the family, m and ell, or none of them\n")

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

    def test_claim_above_the_proven_bound_never_reaches_a_build(self, capsys, monkeypatch):
        # A build prints the bound its t values prove, whatever
        # family_params claims.
        params = bch.family_params
        monkeypatch.setattr(bch, "family_params", lambda spec: (*params(spec)[:2], params(spec)[2] + 1))
        assert main(["family", "F0", "6", "1", "--build"]) == EXIT_OK
        assert capsys.readouterr().out == "[[64,44,6]] bound holds by construction\n"

    @pytest.mark.parametrize(
        "cap, m, bits",
        [
            # 23 generators and 2(n - k) = 10 pairs' bits, both over cap 9.
            (9, 4, 10),
            # 53 generators and a 2^12-pair sweep, both over cap 11.
            (11, 5, 12),
        ],
    )
    def test_build_respects_the_cap(self, capsys, monkeypatch, cap, m, bits):
        forbid_scans(monkeypatch)
        assert main(["--cap", str(cap), "family", "F4", str(m), "0", "--build"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"error: coset sweep over 2^{bits} pairs of C-perp x C-perp exceeds cap {cap}\n")


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

    def test_subnormal_step_is_input_error(self, tmp_path, capsys):
        # The point count overflows to inf; it is refused, not a traceback.
        out = tmp_path / "curve.csv"
        assert main(["bounds", "0", "0.5", "1e-310", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: grid of inf points exceeds 10^6; use a larger step\n"
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_is_input_error(self, tmp_path, capsys, step):
        out = tmp_path / "curve.csv"
        assert main(["bounds", "0", "0.5", step, str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: step must be finite, got {step}\n"
        assert not out.exists()
