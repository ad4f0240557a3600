"""Goldens that do not depend on how a word is stored: generator rows
and scan witnesses as coordinate strings (coordinate 0 first), and CLI
stdout on the shipped fixtures."""

from importlib import resources

import pytest

from qsteane.bch import BchSpec, bch_code, extended_bch
from qsteane.cli import EXIT_OK, main
from qsteane.distances import min_distance, quantum_distance_exact, second_gdw
from qsteane.steane import certified_enlarge, find_self_dual_subcode
from qsteane.table1 import load_fixture

from conftest import coordinate_rows, css_code, witness_strings

BCH_7_4_ROWS = ["1 0 0 0 1 1 0", "0 1 0 0 0 1 1", "0 0 1 0 1 1 1", "0 0 0 1 1 0 1"]
EXT_BCH_16_11_ROWS = [
    "1 0 0 0 0 0 0 0 0 0 0 1 1 0 0 1",
    "0 1 0 0 0 0 0 0 0 0 0 0 1 1 0 1",
    "0 0 1 0 0 0 0 0 0 0 0 0 0 1 1 1",
    "0 0 0 1 0 0 0 0 0 0 0 1 1 0 1 0",
    "0 0 0 0 1 0 0 0 0 0 0 1 0 1 0 1",
    "0 0 0 0 0 1 0 0 0 0 0 0 1 0 1 1",
    "0 0 0 0 0 0 1 0 0 0 0 1 1 1 0 0",
    "0 0 0 0 0 0 0 1 0 0 0 0 1 1 1 0",
    "0 0 0 0 0 0 0 0 1 0 0 1 1 1 1 1",
    "0 0 0 0 0 0 0 0 0 1 0 1 0 1 1 0",
    "0 0 0 0 0 0 0 0 0 0 1 1 0 0 1 1",
]

# Per fixture: (d, witness), (d2, witness), and the quantum distance of
# the CSS code on (C' | C'), with the method that answered and witness.
FIXTURE_WITNESSES = {
    "c12_10_2a.txt": (
        (2, ("000000000011",)),
        (3, ("000000000011", "000000000101")),
        (2, "errors", ("000000000000", "000000000011")),
    ),
    "c12_10_2b.txt": (
        (2, ("000000000011",)),
        (3, ("000000000011", "000000000101")),
        (2, "errors", ("000000000000", "000000000011")),
    ),
    "c14_10_2.txt": (
        (2, ("00000000001010",)),
        (4, ("00000000001010", "00000000010100")),
        (2, "errors", ("00000000000000", "00000000001010")),
    ),
    "c14_9_2.txt": (
        (2, ("00000100100000",)),
        (4, ("00000100100000", "00010001100000")),
        (2, "errors", ("00000000000000", "00000100100000")),
    ),
    "c18_12_4.txt": (
        (4, ("000000000011010010",)),
        (6, ("000000000011010010", "000000000101010001")),
        (4, "errors", ("000000000000000000", "000000000011010010")),
    ),
}

# The enlargement `steane --auto` builds from each dual-containing
# fixture: its exact distance, the method that answered and the witness.
AUTO_WITNESSES = {
    "c12_10_2a.txt": (3, "errors", ("000000000101", "001000000100")),
    "c12_10_2b.txt": (3, "errors", ("001100000000", "011000000000")),
    "c14_10_2.txt": (4, "errors", ("00000000000000", "00000001001011")),
    "c14_9_2.txt": (4, "errors", ("00000000000000", "00000001001011")),
}

VERIFY_STDOUT = {
    "c12_10_2a.txt": "n=12 k=10 d=2 d2=3 dual_containing=yes\n",
    "c12_10_2b.txt": "n=12 k=10 d=2 d2=3 dual_containing=yes\n",
    "c14_10_2.txt": "n=14 k=10 d=2 d2=4 dual_containing=yes\n",
    "c14_9_2.txt": "n=14 k=9 d=2 d2=4 dual_containing=yes\n",
    "c18_12_4.txt": "n=18 k=12 d=4 d2=6 dual_containing=no\n",
}

AUTO_STDOUT = {
    "c12_10_2a.txt": "[[12,4,3]] exact d=3\n",
    "c12_10_2b.txt": "[[12,4,3]] exact d=3\n",
    "c14_10_2.txt": "[[14,3,4]] exact d=4\n",
    "c14_9_2.txt": "[[14,2,4]] exact d=4\n",
}


def fixture_path(name: str) -> str:
    return str(resources.files("qsteane.fixtures").joinpath(name))


def test_every_shipped_fixture_is_pinned():
    names = {f.name for f in resources.files("qsteane.fixtures").iterdir() if f.name.endswith(".txt")}
    assert names == set(FIXTURE_WITNESSES) == set(VERIFY_STDOUT)
    assert set(AUTO_WITNESSES) == set(AUTO_STDOUT) == names - {"c18_12_4.txt"}


class TestBchRows:
    def test_bch_7_4(self):
        assert coordinate_rows(bch_code(BchSpec(3, 1))) == BCH_7_4_ROWS

    def test_extended_bch_16_11(self):
        assert coordinate_rows(extended_bch(4, 1)) == EXT_BCH_16_11_ROWS


@pytest.mark.parametrize("name", sorted(FIXTURE_WITNESSES))
def test_fixture_witnesses(name):
    C = load_fixture(name)
    d, d2, q = FIXTURE_WITNESSES[name]
    report = min_distance(C)
    assert (report.value, witness_strings(report, C.n)) == d
    report = second_gdw(C)
    assert (report.value, witness_strings(report, C.n)) == d2
    report = quantum_distance_exact(css_code(C, C))
    assert (report.value, report.method, witness_strings(report, C.n)) == q


@pytest.mark.parametrize("name", sorted(AUTO_WITNESSES))
def test_auto_enlargement_witnesses(name):
    Cp = load_fixture(name)
    report = quantum_distance_exact(certified_enlarge(find_self_dual_subcode(Cp), Cp))
    assert (report.value, report.method, witness_strings(report, Cp.n)) == AUTO_WITNESSES[name]


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT))
def test_verify_stdout(name, capsys):
    assert main(["verify", fixture_path(name)]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_STDOUT[name]


@pytest.mark.parametrize("name", sorted(AUTO_STDOUT))
def test_steane_auto_stdout(name, capsys):
    assert main(["steane", "--auto", fixture_path(name), "--exact"]) == EXIT_OK
    assert capsys.readouterr().out == AUTO_STDOUT[name]
