"""Bit-packed GF(2) linear algebra: parsing, rref, duals, enumeration."""

import random
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteane import gf2
from qsteane.distances import min_distance, second_gdw
from qsteane.gf2 import (
    MAX_LENGTH,
    EnumerationCapError,
    LinearCode,
    MatrixParseError,
    dual,
    even_weight_code,
    extend_parity,
    in_rowspan,
    is_dual_containing,
    is_subcode,
    load_code,
    parse_matrix,
    render_matrix,
    repetition_code,
    rref_ints,
)

from conftest import (
    dual_containing_code,
    enumerate_codewords,
    enumerate_span,
    lex,
    reference_completion_rows,
    reference_quotient_basis,
    span_words,
    xor_sum,
)


small_matrices = st.integers(2, 10).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8).map(
        lambda rows: (rows, n)
    )
)


class TestParseRender:
    def test_round_trip(self):
        text = "1 0 1\n0 1 1\n"
        rows, n = parse_matrix(text)
        assert (len(rows), n) == (2, 3)
        assert parse_matrix(render_matrix(rows, n)) == (rows, n)

    def test_comments_and_blanks_skipped(self):
        rows, _ = parse_matrix("# header\n\n101\n  0 1 1  \n")
        assert len(rows) == 2

    def test_ragged_rows_report_line(self):
        with pytest.raises(MatrixParseError, match="line 2"):
            parse_matrix("101\n01\n")

    def test_foreign_characters_report_line(self):
        with pytest.raises(MatrixParseError, match="line 1"):
            parse_matrix("1x1\n")

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("# nothing\n\n")

    @pytest.mark.parametrize("row", ["1_0", "+1", "0b1", "\uff11\uff10", "\u0661\u0660", "0B1", "-1", "1\x0b0", "1\u00a00"])
    def test_rows_int_would_accept_are_refused(self, row):
        # int(row, 2) takes each of these (a digit separator, a sign, a
        # prefix, fullwidth and Arabic-Indic digits); the parser must not.
        with pytest.raises(MatrixParseError, match=r"^line 3: unexpected characters"):
            parse_matrix(f"# header\n10\n{row}\n")

    def test_spaces_and_tabs_between_digits_are_ignored(self):
        rows, _ = parse_matrix("1 0\t1\n\t0  1\t 1 \n110\n")
        assert rows == [0b101, 0b011, 0b110]

    def test_comment_lines_are_skipped(self):
        rows, n = parse_matrix("# a\n  # indented\n1 1\n#0 1 0\n0 1\n")
        assert (len(rows), n) == (2, 2)

    def test_int_order_is_string_order(self):
        # Coordinate 0 is the highest bit, so ints compare as coordinate
        # strings.
        words = list(range(16))
        assert sorted(words) == sorted(words, key=lambda w: lex(w, 4))
        assert [int(row.replace(" ", ""), 2) for row in render_matrix(words, 4).splitlines()] == words

    def test_ragged_row_after_skipped_lines_reports_its_line(self):
        with pytest.raises(MatrixParseError, match=r"^line 5: row has 2 columns, expected 3$"):
            parse_matrix("101\n\n# c\n011\n01\n")


def _digit_lines(rows, n, end="\n"):
    """rows as bare n-digit 0/1 lines, each ended by `end`."""
    return "".join(format(r, f"0{n}b") + end for r in rows)


def _outcome(parse, text):
    """parse(text), or the text of the MatrixParseError it raises."""
    try:
        return parse(text)
    except MatrixParseError as exc:
        return f"MatrixParseError: {exc}"


class TestWideParse:
    """Matrix files have two readers: `load_code` packs a wide file of
    bare 0/1 rows straight from its bytes (`_digit_rows`), and every
    other file, and so every error, goes to the line parser
    `parse_matrix`.  Both give the same rows."""

    FAST = ("plain", "no final newline")

    @staticmethod
    def _texts(n):
        rng = random.Random(n)
        rows = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(68)]
        plain = _digit_lines(rows, n)
        lines = plain.splitlines()

        def replaced(lineno, line):
            return "".join(x + "\n" for x in lines[: lineno - 1] + [line] + lines[lineno:])

        return {
            "plain": plain,
            "no final newline": plain[:-1],
            "crlf": _digit_lines(rows, n, "\r\n"),
            "blank lines": "\n" + plain.replace("\n", "\n\n", 3) + "\n",
            "comment": "# a wide code\n" + plain,
            "spaces and tabs": replaced(2, " ".join(lines[1])).replace("0", "\t0", 3),
            "ragged row at line 5": replaced(5, lines[4][:-1]),
            "long row at line 5": replaced(5, lines[4] + "1"),
            "x for the newline of line 3": plain.replace("\n", "x", 3).replace("x", "\n", 2),  # only the third
            "2 at line 3": replaced(3, "2" + lines[2][1:]),
            "x at line 3": replaced(3, lines[2][:-1] + "x"),
            "fullwidth one at line 3": replaced(3, lines[2][:-1] + "\uff11"),
            "empty": "",
        }

    @pytest.mark.parametrize("n", [256, 257, 1024])
    def test_same_rows_or_error_as_the_line_loop(self, n, block):
        texts = self._texts(n)
        for name, text in texts.items():
            assert (gf2._digit_rows(text.encode()) is not None) == (name in self.FAST), name
            assert _outcome(load_code, text.encode()) == _outcome(lambda t: LinearCode(*parse_matrix(t)), text), name
        line = {name: _outcome(parse_matrix, text) for name, text in texts.items()}
        rows = [int(row, 2) for row in texts["plain"].splitlines()]
        assert line["plain"] == line["no final newline"] == line["crlf"] == (rows, n)
        assert line["ragged row at line 5"] == f"MatrixParseError: line 5: row has {n - 1} columns, expected {n}"
        assert line["fullwidth one at line 3"].startswith("MatrixParseError: line 3: unexpected characters")

    @pytest.mark.parametrize("n", [256, 257, 300, 1024])
    def test_digit_rows_are_packed_as_pack_packs_them(self, n, block):
        # Padding bits zero, rows in order, across several blocks at 2^3.
        rows = [random.Random(n).getrandbits(n) for _ in range(70)]
        text = _digit_lines(rows, n)
        for data in (text.encode(), text[:-1].encode()):
            M, width = gf2._digit_rows(data)
            assert width == n and M.flags.writeable and M.dtype == np.uint64
            assert np.array_equal(M, gf2._pack(rows, n))

    def test_narrow_texts_take_the_line_loop(self):
        rows = [random.Random(7).getrandbits(255) for _ in range(70)]
        text = _digit_lines(rows, 255)
        assert gf2._digit_rows(text.encode()) is None
        assert parse_matrix(text) == (rows, 255)
        assert load_code(text.encode()) == LinearCode(rows, 255)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_line_parser_reads_wide_rows_without_numpy(self, n, monkeypatch):
        def forbidden(*args):
            raise AssertionError("parse_matrix reached a numpy reader")

        monkeypatch.setattr(gf2, "_digit_rows", forbidden)
        monkeypatch.setattr(gf2, "_unpack", forbidden)
        rows = [random.Random(n).getrandbits(n) for _ in range(70)]
        assert parse_matrix(_digit_lines(rows, n)) == (rows, n)

    @pytest.mark.parametrize("n", [256, 300, 1024])
    @pytest.mark.parametrize("m", [1, 63, 64])
    def test_bare_files_take_the_strip_loop_once(self, n, m, monkeypatch):
        # Whatever the row count: the rref is unique, so the strip loop
        # gives the line parser's code, zero and repeated rows included.
        strips, calls = gf2._rref_strips, []
        monkeypatch.setattr(gf2, "_rref_strips", lambda M, cols: calls.append(cols) or strips(M, cols))
        words = [random.Random(m * n).getrandbits(n) for _ in range(m)]
        repeated = (words[: -(-m // 2)] * 2)[: m - 1] + [0]
        for rows in (words, [0] * m, repeated):
            calls.clear()
            text = _digit_lines(rows, n)
            C = load_code(text.encode())
            assert calls == [n]
            expected = LinearCode(*parse_matrix(text))
            assert (C.n, C.k, C.basis_ints(), C._pivots) == (expected.n, expected.k, expected.basis_ints(), expected._pivots)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1024])
    def test_random_rows_at_limb_boundaries(self, n):
        rng = random.Random(n)
        rows = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        assert parse_matrix(render_matrix(rows, n)) == (rows, n)

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_small_matrices(self, data):
        rows, n = data
        assert parse_matrix(render_matrix(rows, n)) == (rows, n)

    def test_shipped_fixtures(self):
        files = [f for f in resources.files("qsteane.fixtures").iterdir() if f.name.endswith(".txt")]
        assert len(files) == 5
        for f in files:
            rows, n = parse_matrix(f.read_text())
            assert parse_matrix(render_matrix(rows, n)) == (rows, n)

    def test_rendered_row_reads_bit_by_bit(self):
        # Coordinate c of a word is bit n - 1 - c, at every length.
        rng = random.Random(5)
        for n in (1, 7, 64, 65, 300):
            w = rng.getrandbits(n)
            assert render_matrix([w], n) == " ".join(str(w >> (n - 1 - c) & 1) for c in range(n))


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
            assert in_rowspan(r, red[:rank])
        for r in red[:rank]:
            code = LinearCode(rows, n)
            assert r in code

    def test_reduced_rows_come_back_as_they_are(self):
        rng = random.Random(5)
        for n in (8, 64, 300):
            red, rank, pivots = rref_ints([rng.getrandbits(n) for _ in range(n // 2)], n)
            basis = red[:rank]
            assert rref_ints(basis, n) == (basis, rank, pivots)
            # Rows out of order, a row holding another's top bit, or a
            # zero row are not reduced: they take the full elimination.
            for rows in (basis[::-1], [basis[0] ^ basis[1]] + basis[1:], basis + [0]):
                assert rref_ints(rows, n) == (basis + [0] * (len(rows) - rank), rank, pivots)

    def test_pivot_columns_are_unit(self):
        red, rank, pivots = rref_ints([0b111, 0b011, 0b110], 3)
        for i, p in enumerate(pivots):
            column = [(red[j] >> (2 - p)) & 1 for j in range(rank)]
            assert column == [1 if j == i else 0 for j in range(rank)]


class TestLinearCode:
    def test_canonical_storage(self):
        a = LinearCode([0b011, 0b110], 3)
        b = LinearCode([0b110, 0b101], 3)  # same row space, different basis
        assert a == b
        assert a.canonical_key() == b.canonical_key()
        assert hash(a) == hash(b)

    def test_rank_deficient_rows(self):
        c = LinearCode([0b11, 0b11, 0b00], 2)
        assert c.k == 1

    def test_contains_word(self):
        c = LinearCode([0b101, 0b110], 3)
        members = set(span_words(c))
        for w in range(8):
            assert (w in c) == (w in members)

    def test_rows_outside_the_length_are_refused(self):
        # Both rows lie outside [0, 2^3); the first used to vanish in the
        # rref and give a k = 0 code.
        for row in (0b1000, 0b1001, -1):
            with pytest.raises(ValueError, match="outside"):
                LinearCode([row], 3)
        assert LinearCode([], 3).k == 0

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: LinearCode([], 0), f"n must be in [1, {MAX_LENGTH}]"),
            (lambda: LinearCode([1], MAX_LENGTH + 1), f"n must be in [1, {MAX_LENGTH}]"),
            (lambda: even_weight_code(1), "n >= 2 required"),
        ],
        ids=["LinearCode-n=0", "LinearCode-n=1025", "even_weight_code-n=1"],
    )
    def test_lengths_out_of_range_are_refused(self, make, message):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message


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
        c = LinearCode([0b0011, 0b0110, 0b1100], 4)
        seen = sorted(enumerate_codewords(c))
        assert seen == sorted(span_words(c))
        assert len(seen) == 1 << c.k

    def test_gray_walk_changes_one_generator_per_step(self):
        basis = [0b0011, 0b0110, 0b1100]
        walk = list(enumerate_span(basis))
        for prev, cur in zip(walk, walk[1:]):
            assert (prev ^ cur) in basis

    def test_cap_enforced(self):
        big = LinearCode([1 << i for i in range(12)], 12)
        for scan in (min_distance, second_gdw):
            with pytest.raises(EnumerationCapError):
                scan(big, cap=10)


class TestCompletionRows:
    """`_completion_rows` against the plain-int oracles, on pairs that are
    nested and pairs that are not, on both residual paths."""

    @pytest.mark.parametrize("n", [8, 16, 40, 255, 256, 300])
    def test_rows_and_quotient_match_reference(self, n, monkeypatch):
        rng = random.Random(n + 7)
        calls, nested = [], Counter()
        residual = gf2._residual_packed
        monkeypatch.setattr(gf2, "_residual_packed", lambda words, *rest: calls.append(len(words)) or residual(words, *rest))
        for _ in range(12):
            Cp = LinearCode([rng.getrandbits(n) for _ in range(rng.randrange(2, n) if n < 64 else rng.randrange(64, 100))], n)
            inside = [xor_sum(rng.sample(Cp.basis_ints(), rng.randrange(1, Cp.k + 1))) for _ in range(rng.randrange(Cp.k + 1))]
            C = LinearCode(inside + [rng.getrandbits(n) for _ in range(rng.randrange(2))], n)
            calls.clear()
            rows, quotient = gf2._completion_rows(C, Cp)
            # From n = 256 and 64 rows of C' the rows are reduced packed, once.
            assert calls == ([Cp.k] if n >= 256 else [])
            assert rows == reference_completion_rows(C, Cp)
            assert quotient == reference_quotient_basis(C, Cp)
            assert (C.k + len(rows) == Cp.k) is is_subcode(C, Cp)
            nested[is_subcode(C, Cp)] += 1
        assert min(nested[True], nested[False]) >= 3, nested


class TestStandardCodes:
    def test_extend_parity(self):
        c = LinearCode([0b101, 0b110], 3)
        e = extend_parity(c)
        assert (e.n, e.k) == (4, 2)
        assert all(v.bit_count() % 2 == 0 for v in enumerate_codewords(e))
        assert sorted(e.basis_ints()) == [0b0110, 0b1010]  # parity is the last coordinate

    def test_even_weight_code(self):
        ew = even_weight_code(5)
        assert (ew.n, ew.k) == (5, 4)
        assert all(v.bit_count() % 2 == 0 for v in enumerate_codewords(ew))


@pytest.fixture
def int_paths(monkeypatch):
    """Route every matrix to the plain-int paths, the packed kernels' oracle."""
    monkeypatch.setattr(gf2, "_PACKED_MIN_COLS", MAX_LENGTH + 1)


def _case_rows(rng, kind, m, n):
    """m rows of length n: random, rank-deficient, with duplicates, or with zero rows."""
    if kind == "deficient":
        span = [rng.getrandbits(n) for _ in range(rng.randrange(1, 6))]
        return [xor_sum(rng.sample(span, rng.randrange(len(span) + 1))) for _ in range(m)]
    rows = [rng.getrandbits(n) for _ in range(m)]
    if kind == "duplicates" and m:
        rows = [rng.choice(rows[: max(1, m // 3)]) for _ in range(m)]
    elif kind == "zeros":
        rows = [r if rng.random() < 0.5 else 0 for r in rows]
    return rows


class TestPackedKernels:
    KINDS = ("random", "deficient", "duplicates", "zeros")

    def test_rref_matches_int_elimination(self, int_paths):
        rng = random.Random(2024)
        cases = [(n, min(48, rng.choice([0, 1, rng.randrange(2, 12), n + rng.randrange(1, 6)]))) for n in range(1, 301)]
        cases += [(n, m) for n in (255, 256, 257, 320) for m in (0, 64, 90)] + [(1024, 0), (1024, 70), (1024, 130)]
        ranks, strip_sizes = set(), set()
        for i, (n, m) in enumerate(cases):
            rows = _case_rows(rng, self.KINDS[i % 4], m, n)
            got = gf2._rref_packed(rows, n)
            assert got == rref_ints(rows, n), (n, m)
            ranks.add(got[1] % 8)
            strip_sizes |= set(Counter(c // 8 for c in got[2]).values())
        # Every rank mod 8, and tables of every size 2^1 .. 2^8, were met.
        assert ranks == set(range(8)) and strip_sizes == set(range(1, 9))

    @pytest.mark.parametrize("n", [256, 257, 300, 1024])
    def test_strips_on_a_packed_array_match_int_elimination(self, n, int_paths):
        # `_rref_strips` takes the array the byte loader packs; zero and
        # repeated rows among random ones, from the 64-row threshold up.
        rng = random.Random(n)
        for kind in ("zeros", "duplicates"):
            for m in (64, 70, 129):
                rows = _case_rows(rng, kind, m, n)
                assert gf2._rref_strips(gf2._pack(rows, n), n) == rref_ints(rows, n), (kind, m)

    def test_m_greater_than_n_and_empty(self, int_paths):
        rng = random.Random(9)
        for n in (1, 8, 9, 64, 70):
            rows = _case_rows(rng, "random", n + 30, n)
            assert gf2._rref_packed(rows, n) == rref_ints(rows, n)
        assert gf2._rref_packed([], 300) == ([], 0, [])

    @pytest.mark.parametrize("half, t", [(512, 100), (512, 460), (256, 200), (128, 60)])
    def test_rref_on_mixed_dual_containing_codes(self, half, t, int_paths):
        # The benchmark's shapes: [2 half, half + t] codes, their basis
        # rows mixed by a random unitriangular change of basis.
        rng = random.Random(half + t)
        C = dual_containing_code(rng, half, t)
        basis = C.basis_ints()
        rows = [xor_sum([r] + [b for b in basis[i + 1 :] if rng.random() < 0.5]) for i, r in enumerate(basis)]
        rng.shuffle(rows)
        assert gf2._rref_packed(rows, C.n) == rref_ints(rows, C.n) == (basis, C.k, C._pivots)

    def test_strip_basis_and_lut_match_their_definitions(self):
        rng = random.Random(8)
        for mask in range(256):  # every set of pivot bits
            piv = [q for q in range(7, -1, -1) if mask >> q & 1]
            red = [1 << q | rng.getrandbits(8) & ~mask & (1 << q) - 1 for q in piv]  # a reduced basis
            for trial in range(3):
                # Random sums of the reduced bytes, zeros among them; the
                # first trial holds a mixed basis, so it spans them all.
                mixed = [xor_sum([r] + [b for b in red[i + 1 :] if rng.random() < 0.5]) for i, r in enumerate(red)]
                strip = [xor_sum([b for b in red if rng.random() < 0.5]) for _ in range(rng.randrange(30))]
                strip += mixed if trial == 0 else []
                rng.shuffle(strip)
                picked, span = gf2._byte_basis(bytes(strip))
                assert list(span) == [xor_sum([v for i, v in enumerate(picked) if c >> i & 1]) for c in range(len(span))]
                closure = {0}
                for b in strip:
                    closure |= {x ^ b for x in closure}
                assert set(span) == closure and len(span) == 1 << len(picked) == len(closure)
                for i, v in enumerate(picked):  # the first byte outside the span of those before it
                    assert v == next(b for b in strip if b not in span[: 1 << i])
                got, lut = gf2._strip_lut(span)
                pivots = sorted({b.bit_length() - 1 for b in span if b}, reverse=True)
                assert got == pivots
                assert trial or pivots == piv
                on = sum(1 << q for q in pivots)
                assert all(span[lut[b]] & on == b & on for b in range(256))

    @pytest.mark.parametrize("limbs", [1, 2, 16])
    def test_gray_table_matches_its_definition(self, limbs):
        rng = np.random.default_rng(limbs)
        for m in range(9):
            M = rng.integers(0, 1 << 64, size=(m + 5, limbs), dtype=np.uint64)
            at = rng.permutation(len(M))[:m]
            table = gf2._gray_table(M, list(at))
            assert table.shape == (1 << m, limbs)
            for i in range(1, 1 << m):  # entry i is entry i - 1 plus row ctz(i)
                assert (table[i] == table[i - 1] ^ M[at[(i & -i).bit_length() - 1]]).all()
            sums = gf2._combinations(M[at])
            assert all((table[gf2._GRAY_INV[c]] == sums[c]).all() for c in range(1 << m)), m

    def test_gray_inverse_permutes_every_table(self):
        inv = gf2._GRAY_INV
        assert all(inv[i ^ i >> 1] == i for i in range(256))
        for m in range(9):
            assert sorted(inv[: 1 << m]) == list(range(1 << m))
        # The coefficient bytes of `_residual_packed` are mapped before they are shifted.
        assert all(inv[c] >> s == inv[c >> s] for c in range(256) for s in range(8))

    def test_composed_lut_picks_the_same_row_sum(self):
        rng = random.Random(33)
        M = np.array([[rng.getrandbits(64) for _ in range(3)] for _ in range(40)], dtype=np.uint64)
        dims = set()
        for _ in range(300):
            bits = rng.getrandbits(8)  # spans of every dimension 0 .. 8
            strip = bytes(rng.getrandbits(8) & bits for _ in range(len(M)))
            picked, span = gf2._byte_basis(strip)
            dims.add(len(picked))
            lut = gf2._strip_lut(span)[1]
            at = [strip.find(v) for v in picked]
            old, gray = gf2._combinations(M[at]), gf2._gray_table(M, at)
            composed = lut.translate(gf2._GRAY_INV)
            assert max(composed) < len(gray) == len(old)
            assert all((gray[composed[b]] == old[lut[b]]).all() for b in range(256))
        assert dims == set(range(9))

    SHAPES = [(n, k) for n in (256, 257, 263, 319, 320, 511, 1000, 1024) for k in (64, n // 2, n - 1)]
    SHAPES += [(300, k) for k in range(65, 72)]  # a last, partial table of every size

    @staticmethod
    def _shape_codes(rng, n, k):
        """A random [n, k] code, and one whose pivots are k sorted random
        columns that take in the last column (a last, partial byte unless
        8 divides n), each basis row its pivot plus random later columns."""
        yield LinearCode([rng.getrandbits(n) for _ in range(k)], n)
        pivots = sorted(rng.sample(range(n - 1), k - 1) + [n - 1])
        yield LinearCode([1 << (n - 1 - p) | rng.getrandbits(n - 1 - p) for p in pivots], n)

    def test_dual_rows_are_independent_and_orthogonal(self):
        rng = random.Random(19)
        for n, k in self.SHAPES:
            for C in self._shape_codes(rng, n, k):
                rows = dual(C).basis_ints()
                assert len(rows) == n - C.k == LinearCode(rows, n).k, (n, C.k, C._pivots[-1])
                assert not any((a & b).bit_count() & 1 for a in rows for b in C.basis_ints()), (n, C.k)

    def test_residuals_match_reduce_word_by_word(self, monkeypatch):
        rng = random.Random(23)
        calls, sizes = [], set()
        residual = gf2._residual_packed
        monkeypatch.setattr(gf2, "_residual_packed", lambda *args: calls.append(1) or residual(*args))
        for n, k in self.SHAPES:
            for C in self._shape_codes(rng, n, k):
                basis = C.basis_ints()
                words = [rng.getrandbits(n) for _ in range(32)] + [xor_sum(rng.sample(basis, 5)) for _ in range(32)]
                assert list(gf2._residuals(words, C)) == [gf2._reduce(w, basis) for w in words], (n, C.k)
                sizes.add(C.k % 8)
        assert len(calls) == 2 * len(self.SHAPES)  # every batch took the packed kernel
        assert sizes == set(range(8))

    @pytest.mark.parametrize("n", [255, 256, 257, 320])
    def test_public_entry_points_agree_across_the_crossover(self, n, monkeypatch):
        rng = random.Random(n)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(64, 160))]
        C = LinearCode(rows, n)
        other = LinearCode(rows[: C.k // 2] + [rng.getrandbits(n) for _ in range(70)], n)
        assert gf2._packed(n, C.basis_ints()) == (n >= 256)
        packed = (C, dual(C), is_subcode(dual(C), C), is_subcode(other, C), is_subcode(C, C))
        monkeypatch.setattr(gf2, "_PACKED_MIN_COLS", MAX_LENGTH + 1)
        assert packed == (LinearCode(rows, n), dual(C), is_subcode(dual(C), C), is_subcode(other, C), True)
        assert packed[3] is False

    @pytest.mark.parametrize("half", [127, 128, 160])
    def test_dual_containing_on_both_paths(self, half, monkeypatch):
        rng = random.Random(half)
        C = dual_containing_code(rng, half, 20)
        D = dual(C)
        assert (C.k, D.k) == (half + 20, half - 20)
        assert is_subcode(D, C)
        assert all((a & b).bit_count() % 2 == 0 for a in C.basis_ints()[:20] for b in D.basis_ints())
        # One row outside the dual-containing structure breaks containment.
        broken = LinearCode(C.basis_ints()[:-1] + [rng.getrandbits(2 * half)], 2 * half)
        assert not is_subcode(dual(broken), broken)
        monkeypatch.setattr(gf2, "_PACKED_MIN_COLS", MAX_LENGTH + 1)
        assert dual(C) == D and is_subcode(D, C)
        assert not is_subcode(dual(broken), broken)

    def test_is_dual_containing_matches_dual_subcode(self):
        rng = random.Random(31)
        seen = {(packed, yes): 0 for packed in (False, True) for yes in (False, True)}
        for n in list(range(4, 41)) + [63, 64, 65, 128, 200, 254, 255, 256, 257, 280, 300, 320]:
            codes = [LinearCode([0], n), LinearCode([1 << i for i in range(n)], n)]
            codes += [LinearCode([rng.getrandbits(n) for _ in range(rng.randrange(1, n + 1))], n) for _ in range(2)]
            if n % 2 == 0:
                half = n // 2
                C = dual_containing_code(rng, half, rng.randrange(min(half, 40) + 1))
                codes += [C, LinearCode(C.basis_ints()[:-1] + [rng.getrandbits(n)], n)]
            for C in codes:
                yes = is_dual_containing(C)
                assert yes == is_subcode(dual(C), C), (n, C.k)
                seen[gf2._packed(n, C.basis_ints()) and C.k < n <= 2 * C.k, yes] += 1  # the Gram pass ran
        assert (codes[0].k, codes[1].k) == (0, 320)
        assert min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_containment_paths_agree_across_the_word_threshold(self, n, monkeypatch):
        rng = random.Random(n + 1)
        B = LinearCode([rng.getrandbits(n) for _ in range(n // 2 + 40)], n)
        low = gf2._PACKED_MIN_ROWS
        calls = []
        residual = gf2._residual_packed
        monkeypatch.setattr(gf2, "_residual_packed", lambda words, *rest: calls.append(len(words)) or residual(words, *rest))
        for m in range(low - 2, low + 3):
            members = [xor_sum(rng.sample(B.basis_ints(), 7)) for _ in range(m)]
            for words in (members, members[:-1] + [rng.getrandbits(n)]):
                assert gf2._all_in(words, B) == all(w in B for w in words) == (words is members)
                assert list(gf2._residuals(words, B)) == [gf2._reduce(w, B.basis_ints()) for w in words]
        # Word lists below the threshold take the int path, the rest the packed one.
        assert calls == [m for m in range(low, low + 3) for _ in range(4)]

    def test_residual_matches_in_rowspan(self):
        rng = random.Random(11)
        for n in (64, 256, 300):
            C = LinearCode([rng.getrandbits(n) for _ in range(n // 2)], n)
            words = [rng.getrandbits(n) for _ in range(5)] + [xor_sum(rng.sample(C.basis_ints(), 5)) for _ in range(5)]
            res = gf2._residual_packed(words, C.basis_ints(), C._pivots, n)
            assert [not row.any() for row in res] == [w in C for w in words]
            assert [not row.any() for row in res][5:] == [True] * 5


class TestGramRule:
    """`is_dual_containing` by AᵀA = I, against `is_subcode(dual(C), C)`."""

    @staticmethod
    def _verdicts(C, monkeypatch):
        """is_dual_containing(C) on the path C's size picks, then on the int
        path, then the oracle is_subcode(dual(C), C)."""
        verdict = is_dual_containing(C)
        with monkeypatch.context() as m:
            m.setattr(gf2, "_PACKED_MIN_COLS", MAX_LENGTH + 1)
            return verdict, is_dual_containing(C), is_subcode(dual(C), C)

    @staticmethod
    def _spy(monkeypatch, name):
        """Count the calls of gf2.<name>."""
        calls, f = [], getattr(gf2, name)
        monkeypatch.setattr(gf2, name, lambda *args: calls.append(1) or f(*args))
        return calls

    def test_matches_dual_subcode_on_both_paths(self, block, monkeypatch):
        rng = random.Random(41 + block)
        gram = self._spy(monkeypatch, "_gram_is_identity")
        seen = []
        for n in (256, 300, 512, 1024):
            codes = [LinearCode([rng.getrandbits(n) for _ in range(rng.randrange(n // 2, n))], n) for _ in range(2)]
            C = dual_containing_code(rng, n // 2, rng.randrange(64))
            codes += [C, LinearCode(C.basis_ints()[:-1] + [rng.getrandbits(n)], n)]
            for C in codes:
                verdicts = self._verdicts(C, monkeypatch)
                assert len(set(verdicts)) == 1, (n, C.k, verdicts)
                seen.append(verdicts[0])
        assert len(gram) == 16 and seen.count(True) == 4  # every code took the Gram pass once

    @pytest.mark.parametrize("n", [9, 10, 255, 256, 257, 300])
    def test_edge_shapes(self, n, block, monkeypatch):
        rng = random.Random(n)
        half = n // 2
        cases = [
            (LinearCode([0], n), False),  # k = 0
            (LinearCode([1 << i for i in range(n)], n), True),  # k = n
            (even_weight_code(n), n % 2 == 0),  # n - k = 1: dual is the all-ones word
        ]
        for h in (rng.getrandbits(n) | 1, rng.getrandbits(n) | 1):
            # h-perp, spanned by e_i + h_i e_0 (i > 0; coordinate n - 1 is bit 0):
            # it holds its dual {0, h} iff wt(h) is even.
            cases.append((LinearCode([1 << i | h >> i & 1 for i in range(1, n)], n), h.bit_count() % 2 == 0))
        if n % 2:
            cases.append((LinearCode([rng.getrandbits(n) for _ in range(half)], n), False))  # 2k = n - 1
        else:
            C = dual_containing_code(rng, half, 0)  # 2k = n: self-dual
            cases += [(C, True), (LinearCode(C.basis_ints()[:-1] + [rng.getrandbits(n)], n), False)]
        for C, want in cases:
            verdicts = self._verdicts(C, monkeypatch)
            assert len(set(verdicts)) == 1, (n, C.k, verdicts)
            assert verdicts[0] is want, (n, C.k)

    def test_wide_1024_612_with_one_row_replaced(self, block, monkeypatch):
        rng = random.Random(612)
        C = dual_containing_code(rng, 512, 100)
        broken = LinearCode(C.basis_ints()[:-1] + [rng.getrandbits(1024)], 1024)
        assert (C.n, C.k, broken.k) == (1024, 612, 612)
        assert self._verdicts(C, monkeypatch) == (True, True, True)
        assert self._verdicts(broken, monkeypatch) == (False, False, False)

    def test_pass_stops_at_the_first_block_that_differs(self, block, monkeypatch):
        # [I | A] with A's columns e_0 .. e_(f-2) and a last column c zero on
        # rows 0 .. f-2: AᵀA differs from I at most at its last diagonal entry.
        n, k = 600, 320
        f = n - k
        step = max(1, gf2._BLOCK // f)
        for c, want in ((1 << f - 1 | 1 << f, False), (1 << f - 1, True), (1 << f - 1 | 1 << f | 1 << f + 1, True)):
            cols = [1 << g for g in range(f - 1)] + [c]
            A = [sum((col >> i & 1) << (f - 1 - g) for g, col in enumerate(cols)) for i in range(k)]
            C = LinearCode([1 << (n - 1 - i) | a for i, a in enumerate(A)], n)
            blocks = self._spy(monkeypatch, "_odd_overlaps")
            assert is_dual_containing(C) is want is is_subcode(dual(C), C)
            assert len(blocks) == -(-f // step)  # every block ran
        # A last column c with rows f-2, f and f+1 set: AᵀA differs from I
        # only at (f-2, f-1) and (f-1, f-2), which the upper triangle meets
        # in the block of row f-2, the last one at the default _BLOCK.
        cols = [1 << g for g in range(f - 1)] + [1 << f - 2 | 1 << f | 1 << f + 1]
        A = [sum((col >> i & 1) << (f - 1 - g) for g, col in enumerate(cols)) for i in range(k)]
        C_pair = LinearCode([1 << (n - 1 - i) | a for i, a in enumerate(A)], n)
        blocks = self._spy(monkeypatch, "_odd_overlaps")
        assert is_dual_containing(C_pair) is False is is_subcode(dual(C_pair), C_pair)
        assert len(blocks) == (f - 2) // step + 1
        if block == 14:
            assert len(blocks) == -(-f // step)  # every block ran
        broken = LinearCode(C.basis_ints()[:-1] + [random.Random(5).getrandbits(n)], n)
        blocks = self._spy(monkeypatch, "_odd_overlaps")
        assert not is_dual_containing(broken)
        assert len(blocks) == 1
