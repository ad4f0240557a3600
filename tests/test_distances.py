"""Exhaustive distance scans against independent brute-force oracles."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteane import distances
from qsteane.distances import (
    _HALF_ROWS,
    DistanceReport,
    _coset_weights,
    _quantum_scan_errors,
    _span_min,
    _syndrome,
    min_distance,
    quantum_distance_exact,
    second_gdw,
)
from qsteane.gf2 import (
    EnumerationCapError,
    LinearCode,
    _completion_rows,
    dual,
    even_weight_code,
    extend_parity,
    repetition_code,
)
from qsteane.steane import QuantumCode, steane_enlarge

from conftest import (
    EXT_HAMMING_8_4,
    brute_min_distance,
    brute_second_gdw,
    count_weight,
    css_code,
    enumerate_span,
    random_code,
    random_self_orthogonal,
    reference_error_scan,
    reference_min_word,
    reference_quantum_scan,
    reference_second_gdw,
    span_words,
)

HAMMING_7_4 = LinearCode([0b0001011, 0b0010110, 0b0100111, 0b1000101], 7)

random_small_codes = st.integers(0, 10_000).map(
    lambda seed: random_code(random.Random(seed), n=12, k_target=6)
)


def reference_cases(seed: int = 2026) -> list[LinearCode]:
    """Random codes whose lengths cross the 64- and 128-bit limb
    boundaries, then sparse-row codes full of tied minima; k in 2..11."""
    rng = random.Random(seed)
    codes = []
    for lo, hi in ((4, 20), (60, 70), (125, 135)):
        for _ in range(80):
            n = rng.randint(lo, hi)
            codes.append(random_code(rng, n, k_target=rng.randint(2, min(11, n))))
    while len(codes) < 300:
        n = rng.randint(6, 24)
        rows = [sum(1 << c for c in rng.sample(range(n), rng.randint(1, 3))) for _ in range(rng.randint(2, 11))]
        code = LinearCode(rows, n)
        if code.k >= 2:
            codes.append(code)
    return codes


class TestMinDistance:
    def test_known_codes(self):
        assert min_distance(repetition_code(9)).value == 9
        assert min_distance(even_weight_code(9)).value == 2
        assert min_distance(HAMMING_7_4).value == 3
        assert min_distance(extend_parity(HAMMING_7_4)).value == 4

    def test_witness_attains_and_is_lex_smallest(self):
        rep = min_distance(even_weight_code(6))
        (w,) = rep.witness
        assert w.bit_count() == rep.value == 2
        # Lex-smallest weight-2 even word: coordinates 4 and 5.
        assert w == 0b000011

    @settings(max_examples=60, deadline=None)
    @given(random_small_codes)
    def test_matches_oracle(self, code):
        assert min_distance(code).value == brute_min_distance(code)

    def test_split_path_agrees_with_pure_loop(self):
        # k = 18 takes the numpy kernel over several blocks; the oracle
        # is a plain Gray-code walk over the same span.
        code = random_code(random.Random(99), n=24, k_target=18, min_k=18)
        report = min_distance(code)
        expected = reference_min_word(enumerate_span(code.basis_ints()), code.n)
        assert (report.value, report.witness[0]) == expected
        best, (word,) = _span_min([code.basis_ints()], code.n)
        assert (best, word) == expected

    def test_matches_lex_oracle_on_both_paths(self, block):
        # Lengths cross the 64- and 128-bit limb boundaries; k falls on
        # both sides of k = 10, below which a Gray walk once answered, and
        # the kernel also runs directly on the small codes.
        rng = random.Random(2027)
        ks = set()
        for lo, hi in ((4, 20), (60, 70), (125, 135)):
            for _ in range(100):
                n = rng.randint(lo, hi)
                code = random_code(rng, n, k_target=rng.randint(1, min(15, n)), min_k=1)
                expected = reference_min_word(span_words(code), n)
                report = min_distance(code)
                assert (report.value, report.witness[0]) == expected, (n, code.basis_ints())
                best, (word,) = _span_min([code.basis_ints()], n)
                assert (best, word) == expected, (n, code.basis_ints())
                ks.add(code.k)
        assert min(ks) < 10 < max(ks)

    def test_kernel_skips_zero_words_of_dependent_rows(self):
        # Repeated rows put the zero word in every block of the kernel.
        rng = random.Random(5)
        for n in (12, 70):
            code = random_code(rng, n, k_target=9, min_k=9)
            value, word = reference_min_word(span_words(code), n)
            assert _span_min([code.basis_ints() * 2], n) == (value, (word,))

    def test_cap_and_zero_code_errors(self):
        with pytest.raises(EnumerationCapError):
            min_distance(LinearCode([1 << i for i in range(8)], 8), cap=6)
        with pytest.raises(ValueError):
            min_distance(LinearCode([0], 4))


def record_passes(monkeypatch, n: int) -> list:
    """Spy on `distances._residual_pass`.  Each pass of a scan appends
    (own, value, pair): per light word a of its chunk, wt(a) plus the
    least wt(b & ~a) over the pool alone; the same over the whole chunk;
    and the least pair of the two smallest words of {a, b, a ^ b} over
    the chunk's tied cells."""
    passes, run = [], distances._residual_pass

    def spy(pool, chunk, rest):
        w = int(distances._weights(pool[chunk[:1]])[0])
        own = [w + run(pool, chunk[j : j + 1], n)[0] for j in range(len(chunk))]
        least, ties = run(pool, chunk, n)
        cells = [cell for a, b in ties for cell in zip(distances._ints(a, n), distances._ints(b, n))]
        passes.append((own, w + least, min(tuple(sorted((a, b, a ^ b))[:2]) for a, b in cells)))
        return run(pool, chunk, rest)

    monkeypatch.setattr(distances, "_residual_pass", spy)
    return passes


class TestSecondGdw:
    def test_known_values(self):
        # Even-weight code: two weight-2 words sharing a coordinate.
        assert second_gdw(even_weight_code(8)).value == 3
        # Hamming [7,4,3]: two weight-3 codewords overlap in one place.
        assert second_gdw(HAMMING_7_4).value == 5

    def test_witness_is_valid_pair(self):
        rep = second_gdw(HAMMING_7_4)
        a, b = rep.witness
        assert a != b and a and b
        assert a in HAMMING_7_4
        assert b in HAMMING_7_4
        assert (a | b).bit_count() == rep.value

    @settings(max_examples=60, deadline=None)
    @given(random_small_codes)
    def test_matches_oracle(self, code):
        assert second_gdw(code).value == brute_second_gdw(code)

    @settings(max_examples=60, deadline=None)
    @given(random_small_codes)
    def test_weight_hierarchy_inequalities(self, code):
        d1 = min_distance(code).value
        d2 = second_gdw(code).value
        assert d2 >= d1 + 1
        assert d2 >= math.ceil(3 * d1 / 2)

    def test_matches_reference_value_and_witness(self, block):
        for code in reference_cases():
            rep = second_gdw(code)
            got = (rep.value, rep.witness)
            assert got == reference_second_gdw(code), (code.n, code.basis_ints())

    def test_best_drops_on_a_later_word_of_one_chunk(self, block, monkeypatch):
        code = LinearCode([0b100001, 0b010010, 0b001011, 0b000110], 6)
        passes = record_passes(monkeypatch, code.n)
        rep = second_gdw(code)
        assert (rep.value, rep.witness) == reference_second_gdw(code)
        if block == 14:
            # The four weight-2 words share the first pass, and the first
            # of them lies in no minimising subcode.
            own, value, _ = passes[0]
            assert len(own) == 4 and own[0] > min(own) == value == rep.value

    @pytest.mark.parametrize("rows, n, first", [
        # Minimising subcodes whose lightest word weighs 1 and 2: the
        # passes of both weights tie, and a later one holds the witness.
        ([0b1000000, 0b0100001, 0b0010001, 0b0001001, 0b0000101, 0b0000011], 7, False),
        # Here the first pass that ties holds it.
        ([0b100101, 0b010100, 0b001100, 0b000010], 6, True),
    ])
    def test_tie_spanning_two_chunks(self, rows, n, first, block, monkeypatch):
        code = LinearCode(rows, n)
        passes = record_passes(monkeypatch, n)
        rep = second_gdw(code)
        assert (rep.value, rep.witness) == reference_second_gdw(code)
        tied = [pair for _, value, pair in passes if value == rep.value]
        assert len(tied) >= 2 and rep.witness == min(tied)
        assert (tied[0] == rep.witness) == first

    def test_multi_limb_ties_match_reference(self, block):
        # Sparse rows on 65..130 coordinates: many tied minimisers, on
        # two or three limbs.
        rng = random.Random(65)
        checked = 0
        while checked < 40:
            n = rng.randint(65, 130)
            rows = [sum(1 << c for c in rng.sample(range(n), rng.randint(1, 3))) for _ in range(rng.randint(2, 10))]
            code = LinearCode(rows, n)
            if code.k >= 2:
                rep = second_gdw(code)
                assert (rep.value, rep.witness) == reference_second_gdw(code), (n, rows)
                checked += 1

    def test_light_words_of_one_weight_share_a_pass(self, monkeypatch):
        calls, run = [], distances._residual_pass
        monkeypatch.setattr(distances, "_residual_pass",
                            lambda pool, chunk, *rest: calls.append((len(pool), len(chunk))) or run(pool, chunk, *rest))
        # 66 weight-2 words: 8 meet all 2047 words, the other 58 the 66
        # words left once best = 3; one word per pass would take 66.
        rep = second_gdw(even_weight_code(12))
        assert calls == [(2047, 8), (66, 58)]
        assert (rep.value, rep.enumerated_count) == (3, 8 * 2047 + 58 * 66)
        # A pool over _BLOCK words takes one light word per pass.
        calls.clear()
        assert second_gdw(even_weight_code(16)).value == 3
        assert calls == [(32767, 1), (120, 119)]

    def test_memory_is_bounded_by_the_span(self):
        code = random_code(random.Random(48), n=48, k_target=22, min_k=22)
        span_bytes = (1 << 22) * 8
        tracemalloc.start()
        try:
            second_gdw(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * span_bytes

    def test_deterministic_witness(self):
        a = second_gdw(LinearCode([0b110011, 0b011110, 0b010101], 6))
        b = second_gdw(LinearCode([0b010101, 0b110011, 0b011110], 6))
        assert a.witness == b.witness

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            second_gdw(repetition_code(4))


class TestQuantumDistance:
    def test_steane_seven_qubit_code(self):
        # CSS on the Hamming [7,4] code twice: the [[7,1,3]] code.
        Q = css_code(HAMMING_7_4, HAMMING_7_4)
        rep = quantum_distance_exact(Q)
        assert rep.value == 3
        # Half tables of weight 1 and 2: 7 * 3 + 21 * 9 rows, within 2^8.
        assert (rep.method, rep.enumerated_count) == ("errors", 7 * 3 + 21 * 9)

    def test_witness_outside_stabilizer_attains_value(self):
        Q = css_code(HAMMING_7_4, HAMMING_7_4)
        rep = quantum_distance_exact(Q)
        ux, uz = rep.witness
        assert (ux | uz).bit_count() == rep.value

    def test_enlargement_code_value(self):
        C = extend_parity(HAMMING_7_4)  # self-dual [8,4,4]
        Cp = even_weight_code(8)
        Q = steane_enlarge(C, Cp)
        assert quantum_distance_exact(Q).value == 3

    def test_self_dual_convention_notes(self):
        # [[2,0,2]]: stabilizer equals its own symplectic dual.
        Q = QuantumCode(n=2, gx=[0b11, 0b00], gz=[0b00, 0b11], K=0, d_lower=1)
        rep = quantum_distance_exact(Q)
        assert rep.value == 2
        assert "self-dual" in rep.note

    def test_error_side_builds_no_syndrome_list(self, monkeypatch):
        # C is not self-orthogonal, so the test stops at the first nonzero
        # syndrome; only the span side reads all r of them.
        Q = css_code(HAMMING_7_4, HAMMING_7_4)
        calls = []
        syndrome = distances._syndrome
        monkeypatch.setattr(distances, "_syndrome", lambda *args: calls.append(1) or syndrome(*args))
        rep = quantum_distance_exact(Q)
        assert (rep.method, rep.note) == ("errors", "")
        assert 0 < len(calls) < Q.num_generators == 8

    def test_cap(self):
        Q = css_code(HAMMING_7_4, HAMMING_7_4)
        with pytest.raises(EnumerationCapError):
            quantum_distance_exact(Q, cap=7)

    def test_report_type(self):
        rep = quantum_distance_exact(css_code(HAMMING_7_4, HAMMING_7_4))
        assert isinstance(rep, DistanceReport)


def random_derangement(rng: random.Random, n: int) -> list[int]:
    while True:
        image = list(range(n))
        rng.shuffle(image)
        if all(image[i] != i for i in range(n)):
            return image


def permute_bits(image: list[int], bits: int) -> int:
    return sum(1 << image[i] for i in range(len(image)) if (bits >> i) & 1)


def random_scan_case(seed: int) -> QuantumCode:
    """Seeded small code with at most 18 generators: an enlargement code
    (explicit derangement or row mixing), a CSS code, or a
    self-orthogonal CSS code on a self-orthogonal classical code."""
    rng = random.Random(seed)
    n = rng.randrange(4, 15)
    kind = seed % 4
    if kind == 3:
        D = random_self_orthogonal(rng, n, rng.randrange(1, n // 2 + 1))
        return css_code(D, D)
    if kind == 2:
        return css_code(random_code(rng, n, rng.randrange(1, 10), min_k=1),
                        random_code(rng, n, rng.randrange(1, 10), min_k=1))
    while True:
        # C = D-perp is dual-containing; C' adds rows until k' > k.
        C = dual(random_self_orthogonal(rng, n, rng.randrange(max(1, n - 8), n // 2 + 1)))
        extra = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 4))]
        Cp = LinearCode(C.basis_ints() + extra, n)
        if Cp.k > C.k and C.k + Cp.k <= 18:
            break
    halves = None
    if kind == 0 or Cp.k == C.k + 1:
        image = random_derangement(rng, n)
        halves = [permute_bits(image, w) for w in _completion_rows(C, Cp)]
    return steane_enlarge(C, Cp, halves, d_lower=1)


def half_rows(n: int, d: int) -> int:
    """Rows of the half tables the join builds to reach weight d."""
    return sum(math.comb(n, t) * 3**t for t in range(1, (d + 1) // 2 + 1))


class TestErrorSideScan:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000).map(random_scan_case))
    def test_agrees_with_span_walk(self, Q):
        gx, gz = list(Q.gx), list(Q.gz)
        syn = [_syndrome(x, z, gx, gz) for x, z in zip(gx, gz)]
        so = not any(syn)
        expected = _span_min([gx, gz], Q.n, None if so else syn)
        found = _quantum_scan_errors(gx, gz, Q.n, so, budget=4**Q.n)
        if half_rows(Q.n, expected[0]) > _HALF_ROWS:
            assert found is None
            return
        value, witness, rows, pairs = found
        assert (value, witness) == expected
        assert reference_error_scan(gx, gz, Q.n, so, budget=4**Q.n)[:2] == expected
        if len(gx) <= 12:
            assert (value, witness) == reference_quantum_scan(gx, gz, syn, Q.n, so)
            # Every weight-d element of C is met as exactly one pair.
            assert pairs == count_weight(gx, gz, Q.n, value)
        assert rows == half_rows(Q.n, value)

    def test_witness_compares_ux_before_uz(self, block):
        # d = 3: the least ux among the weight-3 elements outside S carries
        # several uz, and a greater ux carries a uz below all of them.
        n, gx, gz = 8, [147, 85, 54, 15, 0, 0, 0, 0, 144], [0, 0, 0, 0, 147, 85, 54, 15, 33]
        syn = [_syndrome(x, z, gx, gz) for x, z in zip(gx, gz)]
        rows = [s << 2 * n | x << n | z for x, z, s in zip(gx, gz, syn)]
        outside = [(v >> n & 0xFF, v & 0xFF) for v in enumerate_span(rows) if v >> 2 * n]
        tied = sorted((x, z) for x, z in outside if (x | z).bit_count() == 3)
        (ux, uz), second = tied[:2]
        assert second[0] == ux and any(x > ux and z < uz for x, z in tied)
        rep = quantum_distance_exact(QuantumCode(n=n, gx=gx, gz=gz, K=0, d_lower=1))
        assert (rep.method, rep.value, rep.witness) == ("errors", 3, (ux, uz))
        assert reference_error_scan(gx, gz, n, False, budget=4**n)[:2] == (3, (ux, uz))

    def test_self_orthogonal_convention(self):
        # C = {I, XX, ZZ, YY}: the weight-1 half table (2 * 3 rows) meets
        # all three weight-2 elements; the prefix loop visits 2 * 3 + 1 * 9.
        Q = QuantumCode(n=2, gx=[0b11, 0b00], gz=[0b00, 0b11], K=0, d_lower=1)
        gx, gz = list(Q.gx), list(Q.gz)
        assert _quantum_scan_errors(gx, gz, 2, True, budget=16) == (2, (0b00, 0b11), 2 * 3, 3)
        assert reference_error_scan(gx, gz, 2, True, budget=16) == (2, (0b00, 0b11), 2 * 3 + 1 * 9)

    def test_closed_form_count_on_f4(self, f4_desk):
        rep = quantum_distance_exact(f4_desk)
        assert rep.method == "errors"
        assert rep.value == 3
        # Half tables of weight 1 and 2 on 16 qubits; the prefix loop
        # visited 16 * 3 + 120 * 9 + 560 * 27 = 16,248 errors.
        assert rep.enumerated_count == 16 * 3 + 120 * 9 == 1_128
        # The cap is checked before either side runs, however cheap.
        with pytest.raises(EnumerationCapError):
            quantum_distance_exact(f4_desk, cap=f4_desk.num_generators - 1)

    def test_over_budget_hands_over_to_span(self):
        # [[8,0,4]] on the self-dual [8,4,4] code: weight 4 needs the
        # half tables of weight 1 and 2, 24 + 252 = 276 rows, more than
        # the 2^8 elements of C.
        Q = css_code(EXT_HAMMING_8_4, EXT_HAMMING_8_4)
        rep = quantum_distance_exact(Q)
        assert (rep.method, rep.value, rep.enumerated_count) == ("span", 4, 1 << 8)
        gx, gz = list(Q.gx), list(Q.gz)
        assert _quantum_scan_errors(gx, gz, 8, True, budget=275) is None
        assert _quantum_scan_errors(gx, gz, 8, True, budget=276)[::2] == (4, 276)
        with pytest.raises(EnumerationCapError):
            quantum_distance_exact(Q, cap=7)

    def test_row_bound_hands_over_to_span(self, monkeypatch):
        Q = css_code(HAMMING_7_4, HAMMING_7_4)
        monkeypatch.setattr(distances, "_HALF_ROWS", 7 * 3 + 21 * 9 - 1)
        rep = quantum_distance_exact(Q)
        assert (rep.method, rep.value, rep.enumerated_count) == ("span", 3, 1 << 8)

    def test_memory_within_the_row_bound(self):
        # n = 24, d = 4: 24 * 3 + 276 * 9 = 2,556 half-table rows, which
        # the docstring bounds at 41 + 55 = 96 bytes each.
        code = random_code(random.Random(1), n=24, k_target=12, min_k=12)
        Q = css_code(code, code)
        tracemalloc.start()
        try:
            rep = quantum_distance_exact(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.method, rep.value, rep.enumerated_count) == ("errors", 4, 2_556)
        assert peak <= 96 * rep.enumerated_count

    def test_wide_syndrome_takes_span(self):
        # 2n - r = 66 syndrome bits do not fit one uint64 word, although
        # the 40 * 3 half-table rows that weight 2 needs are within the
        # 2^14 budget.
        code = LinearCode([0b11 << 38, 0b101 << 37] + [0x7F << (29 - 7 * i) for i in range(5)], 40)
        rep = quantum_distance_exact(css_code(code, code))
        assert (rep.method, rep.value) == ("span", 2)

    def test_classical_scans_report_span(self):
        assert min_distance(HAMMING_7_4).method == "span"
        assert second_gdw(HAMMING_7_4).method == "residual"


def multi_limb_case(rng: random.Random, i: int) -> QuantumCode:
    """A code on 65..140 qubits, where only the span kernel answers: CSS,
    self-orthogonal CSS (with every row repeated in the second variant,
    so that rows are dependent), or random rows (gx | gz); r <= 16."""
    n = rng.randint(65, 140)
    kind = i % 4
    if kind == 0:
        return css_code(random_code(rng, n, rng.randint(1, 8), min_k=1),
                        random_code(rng, n, rng.randint(1, 8), min_k=1))
    if kind in (1, 2):
        D = random_self_orthogonal(rng, n, rng.randint(1, 8 if kind == 1 else 4))
        Q = css_code(D, D)
        if kind == 1:
            return Q
        gx, gz = list(Q.gx) * 2, list(Q.gz) * 2
    else:
        r = rng.randint(2, 16)
        gx = [rng.randrange(1 << n) for _ in range(r)]
        gz = [rng.randrange(1 << n) for _ in range(r)]
    return QuantumCode(n=n, gx=gx, gz=gz, K=0, d_lower=1)


def word(n: int, *coords: int) -> int:
    """The length-n word with the given coordinates set."""
    return sum(1 << (n - 1 - c) for c in coords)


class TestSpanKernel:
    @pytest.mark.parametrize(
        "n, rows",
        [
            # Rows 0, 1 and their sum weigh 2; row 3 is the least word of weight 2.
            (8, [0b11000000, 0b10100000, 0b00011111, 0b00000011]),
            # Across the limb boundary: of the ties {63, 64}, {64, 69} and
            # {63, 69} in span(rows[:3]), limb 0 is zero only in {64, 69};
            # {65, 66} is zero there too and less in limb 1.
            (70, [word(70, 63, 64), word(70, 64, 69), word(70, *range(10)), word(70, 65, 66)]),
        ],
    )
    def test_lex_least_tie_in_a_later_block(self, n, rows, block):
        # At 2^3 words, block 0 is span(rows[:3]) and block 1 adds row 3:
        # the least weight is reached in block 0, the lex-least tie in block 1.
        first = reference_min_word(enumerate_span(rows[:3]), n)
        expected = reference_min_word(enumerate_span(rows), n)
        assert first[0] == expected[0] and first[1] > expected[1]
        assert _span_min([rows], n) == (expected[0], (expected[1],))

    def test_quantum_lex_least_tie_in_a_later_block(self, block):
        # At 2^3 words a quantum block holds the 4 elements of span(rows
        # 0, 1).  (0011 | 0000) reaches wt(x | z) = 2 in block 0; row 2,
        # (0001 | 0011), ties it in block 1 with the lesser x and wins,
        # though its z is greater: x is compared first.
        gx, gz = [0b0011, 0b1111, 0b0001], [0b0000, 0b1111, 0b0011]
        assert reference_quantum_scan(gx[:2], gz[:2], [0, 0], 4, True) == (2, (0b0011, 0b0000))
        expected = reference_quantum_scan(gx, gz, [0, 0, 0], 4, True)
        assert expected == (2, (0b0001, 0b0011))
        assert _span_min([gx, gz], 4) == expected

    def test_multi_limb_quantum_matches_gray_walk(self, block):
        rng = random.Random(65)
        for i in range(60):
            Q = multi_limb_case(rng, i)
            gx, gz = list(Q.gx), list(Q.gz)
            syn = [_syndrome(x, z, gx, gz) for x, z in zip(gx, gz)]
            so = not any(syn)
            expected = reference_quantum_scan(gx, gz, syn, Q.n, so)
            assert _span_min([gx, gz], Q.n, None if so else syn) == expected
            rep = quantum_distance_exact(Q)
            assert rep.method == "span"
            assert (rep.value, rep.witness) == expected


class TestCosetWeights:
    def test_matches_brute_force(self, block):
        # Blocks of 2^3 words hold cosets both larger and smaller than a
        # block; at 2^14 every span is one block.
        rng = random.Random(block)
        for _ in range(80):
            n = rng.choice([6, 12, 20, 70, 130])
            rows = random_code(rng, n, rng.randint(1, 8), min_k=1).basis_ints()
            for i in range(len(rows) - 1):  # leave rref, keep independence
                rows[i] ^= rows[i + 1] * rng.randrange(2)
            p = rng.randint(0, len(rows))
            perp, reps = rows[:p], rows[p:]
            words, lifts = [0], [0]  # lifts[v]: the reps picked by the bits of v
            for row in perp:
                words += [w ^ row for w in words]
            for row in reps:
                lifts += [w ^ row for w in lifts]
            expected = [min([w.bit_count() for w in words[1:]], default=n + 1)]
            expected += [min((lift ^ w).bit_count() for w in words) for lift in lifts[1:]]
            assert _coset_weights(perp, reps, n) == expected
