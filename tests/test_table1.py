"""Fixture loading and the published-table row machinery."""

from dataclasses import replace

import pytest

from qsteane.distances import min_distance
from qsteane.gf2 import dual, even_weight_code, is_subcode
from qsteane import table1
from qsteane.table1 import (
    TABLE1_ROWS,
    Table1Row,
    check_all_rows,
    check_row,
    enlargement_code_for_row,
    load_fixture,
    self_dual_code_for_row,
)


class TestFixtures:
    @pytest.mark.parametrize(
        "name,n,k,d",
        [
            ("c12_10_2a.txt", 12, 10, 2),
            ("c12_10_2b.txt", 12, 10, 2),
            ("c14_9_2.txt", 14, 9, 2),
            ("c14_10_2.txt", 14, 10, 2),
            ("c18_12_4.txt", 18, 12, 4),
        ],
    )
    def test_shipped_matrices_have_published_parameters(self, name, n, k, d):
        code = load_fixture(name)
        assert (code.n, code.k) == (n, k)
        assert min_distance(code).value == d

    def test_both_length_12_variants_are_dual_containing(self):
        for name in ("c12_10_2a.txt", "c12_10_2b.txt"):
            code = load_fixture(name)
            assert is_subcode(dual(code), code)

    def test_each_fixture_is_parsed_once(self, monkeypatch):
        load_fixture.cache_clear()
        table1._self_dual_from_fixture.cache_clear()
        parsed, load = [], table1.load_code
        monkeypatch.setattr(table1, "load_code", lambda data: parsed.append(data) or load(data))
        check_all_rows()
        check_all_rows()
        # c12_10_2a, c14_9_2, c14_10_2 and c18_12_4, once each.
        assert len(parsed) == len(set(parsed)) == 4

    def test_length_18_matrix_is_not_dual_containing(self):
        # Documented defect: the published [18,12,4] matrix does not
        # contain its dual, so the n=18 row cannot be rebuilt from it.
        code = load_fixture("c18_12_4.txt")
        assert not is_subcode(dual(code), code)


class TestRowPlumbing:
    def test_row_invariant(self):
        with pytest.raises(AssertionError):
            Table1Row(8, 4, 7, 4, 2, 99, 3)

    def test_rows_without_fixture_use_even_weight_codes(self):
        assert enlargement_code_for_row(TABLE1_ROWS[0]) == even_weight_code(8)
        assert enlargement_code_for_row(TABLE1_ROWS[2]) == even_weight_code(12)

    def test_recovered_inner_codes_are_self_dual(self):
        for row in TABLE1_ROWS[:5]:
            C = self_dual_code_for_row(row)
            assert C == dual(C)
            assert (C.n, C.k) == (row.n, row.k)
            assert min_distance(C).value == row.d

    def test_length_12_rows_share_the_inner_code(self):
        assert self_dual_code_for_row(TABLE1_ROWS[1]) == self_dual_code_for_row(
            TABLE1_ROWS[2]
        )


class TestRowChecks:
    def test_first_five_rows_reproduce(self, table_checks):
        for check in table_checks[:5]:
            assert check.ok, f"{check.row}: {check.details}"
            assert check.quantum.d_exact == check.row.d_quantum
            assert check.quantum.K == check.row.K

    def test_last_row_fails_honestly(self, table_checks):
        final = table_checks[5]
        assert not final.ok
        assert final.quantum is None
        assert "dual-containing" in final.details

    @pytest.mark.parametrize(
        "changes,details",
        [
            (dict(k=5, K=4), "k=4!=5; K=3!=4"),
            (dict(kprime=6, K=2), "k'=7!=6; K=3!=2"),
            (dict(d=3), "d=4!=3"),
            (dict(dprime=3), "d'=2!=3"),
            (dict(d_quantum=4), "d_exact=3!=4"),
        ],
    )
    def test_wrong_published_value_is_reported(self, changes, details):
        # The [[8,3,3]] row with one published value wrong (K follows k
        # and k', as the row invariant asks).
        check = check_row(replace(TABLE1_ROWS[0], **changes))
        assert check.ok is False
        assert check.details == details
