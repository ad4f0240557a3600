"""Bit-packed GF(2) linear algebra: parsing, rref, duals, enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteane.distances import min_distance, second_gdw
from qsteane.gf2 import (
    BinaryMatrix,
    BinaryVector,
    EnumerationCapError,
    LinearCode,
    MatrixParseError,
    dual,
    even_weight_code,
    extend_parity,
    in_rowspan,
    is_subcode,
    lex_key,
    parse_matrix,
    render_matrix,
    repetition_code,
    rref,
    rref_ints,
)

from conftest import enumerate_codewords, enumerate_span, span_words


small_matrices = st.integers(2, 10).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8).map(
        lambda rows: (rows, n)
    )
)


class TestBinaryVector:
    def test_basic(self):
        v = BinaryVector(5, 0b10110)
        assert v.weight() == 3
        assert [v[i] for i in range(5)] == [0, 1, 1, 0, 1]
        assert str(v) == "01101"

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            BinaryVector(3, 0b1000)

    def test_xor_or(self):
        a = BinaryVector(4, 0b0011)
        b = BinaryVector(4, 0b0110)
        assert (a ^ b).bits == 0b0101
        assert (a | b).bits == 0b0111
        with pytest.raises(ValueError):
            a ^ BinaryVector(5, 0)

    def test_lex_key_orders_like_strings(self):
        vs = [BinaryVector(4, b) for b in range(16)]
        by_key = sorted(vs, key=lambda v: v.lex_key())
        by_str = sorted(vs, key=str)
        assert by_key == by_str


class TestParseRender:
    def test_round_trip(self):
        text = "1 0 1\n0 1 1\n"
        M = parse_matrix(text)
        assert M.rows == 2 and M.cols == 3
        assert parse_matrix(render_matrix(M)).row_ints() == M.row_ints()

    def test_comments_and_blanks_skipped(self):
        M = parse_matrix("# header\n\n101\n  0 1 1  \n")
        assert M.rows == 2

    def test_ragged_rows_report_line(self):
        with pytest.raises(MatrixParseError, match="line 2"):
            parse_matrix("101\n01\n")

    def test_foreign_characters_report_line(self):
        with pytest.raises(MatrixParseError, match="line 1"):
            parse_matrix("1x1\n")

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("# nothing\n\n")


class TestRref:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_idempotent_and_span_preserving(self, data):
        rows, n = data
        red, rank, pivots = rref_ints(rows, n)
        again, rank2, pivots2 = rref_ints(red, n)
        assert (again[:rank], rank2, pivots2) == (red[:rank], rank, pivots)
        # Same row space: every original row reduces to zero and back.
        for r in rows:
            assert in_rowspan(r, red[:rank], pivots)
        for r in red[:rank]:
            code = LinearCode(rows, n)
            assert code.contains_word(r)

    def test_pivot_columns_are_unit(self):
        red, rank, pivots = rref_ints([0b111, 0b110, 0b011], 3)
        for i, p in enumerate(pivots):
            column = [(red[j] >> p) & 1 for j in range(rank)]
            assert column == [1 if j == i else 0 for j in range(rank)]

    def test_matrix_wrapper(self):
        M = BinaryMatrix.from_rows([0b11, 0b10], 2)
        R, rank, pivots = rref(M)
        assert rank == 2 and pivots == [0, 1]
        assert R.row_ints() == [0b01, 0b10]


class TestLinearCode:
    def test_canonical_storage(self):
        a = LinearCode([0b110, 0b011], 3)
        b = LinearCode([0b011, 0b101], 3)  # same row space, different basis
        assert a == b
        assert a.canonical_key() == b.canonical_key()
        assert hash(a) == hash(b)

    def test_rank_deficient_rows(self):
        c = LinearCode([0b11, 0b11, 0b00], 2)
        assert c.k == 1

    def test_contains_word(self):
        c = LinearCode([0b101, 0b011], 3)
        members = set(span_words(c))
        for w in range(8):
            assert c.contains_word(w) == (w in members)


class TestDual:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_dimension_and_orthogonality(self, data):
        rows, n = data
        C = LinearCode(rows, n)
        if C.k == n:
            return
        D = dual(C)
        assert D.k == n - C.k
        for a in C.basis_ints():
            for b in D.basis_ints():
                assert (a & b).bit_count() % 2 == 0
        assert dual(D) == C

    def test_even_weight_and_repetition_are_duals(self):
        for n in (2, 3, 6, 9):
            assert dual(even_weight_code(n)) == repetition_code(n)
            assert dual(repetition_code(n)) == even_weight_code(n)


class TestSubcodeAndEnumeration:
    def test_is_subcode(self):
        rep = repetition_code(6)
        ew = even_weight_code(6)
        assert is_subcode(rep, ew)
        assert not is_subcode(ew, rep)
        with pytest.raises(ValueError):
            is_subcode(rep, repetition_code(5))

    def test_enumerate_matches_span(self):
        c = LinearCode([0b1100, 0b0110, 0b0011], 4)
        seen = sorted(v.bits for v in enumerate_codewords(c))
        assert seen == sorted(span_words(c))
        assert len(seen) == 1 << c.k

    def test_gray_walk_changes_one_generator_per_step(self):
        basis = [0b1100, 0b0110, 0b0011]
        walk = list(enumerate_span(basis))
        for prev, cur in zip(walk, walk[1:]):
            assert (prev ^ cur) in basis

    def test_cap_enforced(self):
        big = LinearCode([1 << i for i in range(12)], 12)
        for scan in (min_distance, second_gdw):
            with pytest.raises(EnumerationCapError):
                scan(big, cap=10)


class TestStandardCodes:
    def test_extend_parity(self):
        c = LinearCode([0b101, 0b011], 3)
        e = extend_parity(c)
        assert (e.n, e.k) == (4, 2)
        assert all(v.weight() % 2 == 0 for v in enumerate_codewords(e))

    def test_even_weight_code(self):
        ew = even_weight_code(5)
        assert (ew.n, ew.k) == (5, 4)
        assert all(v.weight() % 2 == 0 for v in enumerate_codewords(ew))

    def test_lex_key_function(self):
        # 100 reads before 010 as a coordinate string.
        assert lex_key(0b001, 3) > lex_key(0b010, 3)
        rng = random.Random(7)
        for _ in range(50):
            a, b = rng.randrange(16), rng.randrange(16)
            strings = sorted([a, b], key=lambda x: str(BinaryVector(4, x)))
            keys = sorted([a, b], key=lambda x: lex_key(x, 4))
            assert strings == keys

    def test_lex_key_reads_the_coordinate_string(self):
        # The key is the coordinate string read as a binary number, for
        # single-word, limb-boundary and big-int lengths alike.
        rng = random.Random(64)
        for n in (1, 63, 64, 65, 128, 1024):
            for bits in [0, 1, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(20)]:
                assert lex_key(bits, n) == int(str(BinaryVector(n, bits)), 2)
