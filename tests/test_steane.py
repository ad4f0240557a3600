"""Enlargement construction, row mixing, coset sweep, self-dual search."""

import hashlib
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from qsteane import gf2, steane
from qsteane.bch import Gf2mField, coset_extend, extended_bch
from qsteane.distances import _coset_weights, _ints, _span_limbs, _syndrome, min_distance, quantum_distance_exact
from qsteane.enumerators import (
    CertificateError,
    _coset_distances,
    _coset_enumerators,
    _coset_histograms,
    _coset_word,
    _enumerator_distances,
    _krawtchouk_rows,
    _stabiliser_distance,
)
from qsteane.gf2 import (
    CodeConstructionError,
    EnumerationCapError,
    LinearCode,
    _completion_rows,
    dual,
    even_weight_code,
    is_subcode,
)
from qsteane.steane import (
    QuantumCode,
    _isotropic_bases,
    certified_enlarge,
    find_self_dual_subcode,
    is_stabilizer_code,
    mix_completion_rows,
    symplectic_dual,
)
from qsteane.table1 import load_fixture

from conftest import (
    EXT_HAMMING_8_4,
    brute_min_distance,
    css_code,
    dual_containing_code,
    enlargement_code,
    krawtchouk,
    random_code,
    random_self_orthogonal,
    reference_completion_rows,
    reference_coset_sweep,
    reference_isotropic_subcodes,
    reference_quantum_scan,
    reference_self_dual_subcode,
    rref_subspaces,
)


def gaussian_binomial(q: int, r: int) -> int:
    num = den = 1
    for i in range(r):
        num *= (1 << (q - i)) - 1
        den *= (1 << (r - i)) - 1
    return num // den


def shift_halves(C, Cp):
    """Completion rows of C' under the cyclic coordinate shift by one."""
    n = C.n
    return [((w >> 1) | (w << (n - 1))) & ((1 << n) - 1) for w in reference_completion_rows(C, Cp)]


class TestMixCompletionRows:
    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    def test_invertible_and_fix_point_free(self, r):
        # Apply the mixing to unit vectors to expose the matrix itself.
        units = [1 << i for i in range(r)]
        mixed = mix_completion_rows(units)
        images = {}
        for u in range(1, 1 << r):
            img = 0
            for i in range(r):
                if (u >> i) & 1:
                    img ^= mixed[i]
            images[u] = img
            assert img != u  # no nonzero fixed vector
            assert img != 0  # invertible on the span
        assert len(set(images.values())) == (1 << r) - 1

    def test_requires_two_rows(self):
        with pytest.raises(CodeConstructionError):
            mix_completion_rows([0b1])

    def test_span_preserved(self):
        rows = [0b0011, 0b1100]
        mixed = mix_completion_rows(rows)
        span = LinearCode(rows, 4)
        assert LinearCode(mixed, 4) == span


class TestSteaneEnlarge:
    def test_dimensions_and_bound(self):
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8))
        assert (Q.n, Q.K) == (8, 3)
        assert Q.d_lower == min(4, 3) == 3
        assert Q.num_generators == 11
        with pytest.raises(FrozenInstanceError):
            Q.d_exact = 3

    def test_bound_proven_holds_exactly(self):
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8))
        assert quantum_distance_exact(Q).value >= Q.d_lower

    def test_explicit_halves_are_not_proven(self):
        # Second halves other than the mixing still give a stabilizer
        # code, though not the proven bound (`TestSupportingPermutations`).
        C, Cp = EXT_HAMMING_8_4, even_weight_code(8)
        Q = enlargement_code(C, Cp, shift_halves(C, Cp))
        assert is_stabilizer_code(Q)

    def test_rejects_non_dual_containing(self):
        C = LinearCode([0b00001111, 0b11110000], 8)  # C-perp not inside C
        with pytest.raises(CodeConstructionError, match="dual"):
            certified_enlarge(C, even_weight_code(8))

    def test_rejects_non_nested(self):
        C = EXT_HAMMING_8_4
        # k' < k, and k' > k with C' the words zero at coordinate 7.
        for Cp in (LinearCode([0b10000001, 0b10000010, 0b10000100], 8), LinearCode([1 << c for c in range(1, 8)], 8)):
            with pytest.raises(CodeConstructionError, match=r"^C is not a subcode of C'$"):
                certified_enlarge(C, Cp)

    def test_rejects_equal_codes(self):
        # A self-dual C = C' has K = 0: refused before any scan runs.
        with pytest.raises(CodeConstructionError, match=r"K = k \+ k' - n >= 1"):
            certified_enlarge(EXT_HAMMING_8_4, EXT_HAMMING_8_4)

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_codes_build_css(self, seed):
        # k' = k: CSS(C, C), its bound d(C) proven, and its exact d that
        # of the plain CSS assembly.
        rng = random.Random(seed)
        while True:
            n = rng.randrange(4, 15)
            C = dual(random_self_orthogonal(rng, n, rng.randrange(1, n // 2 + 1)))
            if 2 * C.k > n:
                break
        Q = certified_enlarge(C, C)
        want = css_code(C, C)
        assert (Q.gx, Q.gz, Q.K) == (want.gx, want.gz, want.K)
        assert Q.d_lower == min_distance(C).value
        assert Q.d_exact == quantum_distance_exact(want).value >= Q.d_lower

    def test_is_stabilizer_code(self):
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8))
        assert is_stabilizer_code(Q)

    def test_symplectic_dual_dimension(self):
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8))
        assert len(symplectic_dual(Q)) == 2 * Q.n - Q.num_generators

    def test_symplectic_dual_is_orthogonal(self):
        # Rows are (vx | vz) with vx in columns 0 .. n-1, the high bits.
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8))
        for row in symplectic_dual(Q):
            vx, vz = row >> Q.n, row & 0xFF
            assert all(((vx & z).bit_count() + (vz & x).bit_count()) % 2 == 0 for x, z in zip(Q.gx, Q.gz))

    def test_symplectic_dual_past_half_max_length(self):
        # n = 600: the 1200-column symplectic matrix is longer than any
        # LinearCode read from outside may be.
        rng = random.Random(600)
        n = 600
        gx, gz = [rng.getrandbits(n) for _ in range(40)], [rng.getrandbits(n) for _ in range(40)]
        Q = QuantumCode(n=n, gx=gx, gz=gz, K=0, d_lower=1)
        S = symplectic_dual(Q)
        assert len(S) == 2 * n - 40
        assert gf2.rref_ints(S, 2 * n)[1] == len(S)
        for row in S:
            vx, vz = row >> n, row & ((1 << n) - 1)
            assert all(((vx & z).bit_count() + (vz & x).bit_count()) % 2 == 0 for x, z in zip(gx, gz))
        assert not is_stabilizer_code(Q)

    @pytest.mark.parametrize("half", [20, 80])
    def test_is_stabilizer_code_on_both_paths(self, half, monkeypatch):
        # CSS on a dual-containing C is a stabilizer code; one foreign row
        # breaks it.  At half = 80 the 2n = 320 columns and 140 dual rows
        # take the packed containment test.
        rng = random.Random(half)
        n = 2 * half
        rows = [1 << i | 1 << (i + half) for i in range(half)] + [rng.getrandbits(half) for _ in range(10)]
        C = LinearCode(rows, n)
        broken = LinearCode(C.basis_ints()[:-1] + [rng.getrandbits(n)], n)
        codes = [css_code(C, C), css_code(broken, broken)]
        packed = [is_stabilizer_code(Q) for Q in codes]
        monkeypatch.setattr(gf2, "_PACKED_MIN_COLS", gf2.MAX_LENGTH + 1)
        assert packed == [is_stabilizer_code(Q) for Q in codes] == [True, False]


class TestQuantumCode:
    def test_rows_are_checked(self):
        QuantumCode(n=3, gx=[0b111], gz=[0b000], K=0, d_lower=1)
        with pytest.raises(ValueError, match="row counts"):
            QuantumCode(n=3, gx=[0b111, 0b001], gz=[0b000], K=0, d_lower=1)
        for bad in (0b1000, -1):
            with pytest.raises(ValueError, match="outside"):
                QuantumCode(n=3, gx=[0b111], gz=[bad], K=0, d_lower=1)

    @pytest.mark.parametrize("n", [0, gf2.MAX_LENGTH + 1])
    def test_length_out_of_range_is_refused(self, n):
        with pytest.raises(ValueError) as refused:
            QuantumCode(n=n, gx=[], gz=[], K=0, d_lower=1)
        assert str(refused.value) == f"n must be in [1, {gf2.MAX_LENGTH}]"

    def test_halves_are_int_tuples(self):
        Q = QuantumCode(n=2, gx=[0b11, 0b00], gz=[0b00, 0b11], K=0, d_lower=1)
        assert (Q.gx, Q.gz, Q.num_generators) == ((0b11, 0b00), (0b00, 0b11), 2)


class TestSupportingPermutations:
    def test_cyclic_shift_fails_condition_here(self):
        # The naive coordinate shift P does not support the bound on this
        # instance: for some nonzero completion word w, Pw or w + Pw lies
        # in C, and the exact distance drops below min(d1, d2').
        C, Cp = EXT_HAMMING_8_4, even_weight_code(8)
        pairs = [(0, 0)]
        for w, pw in zip(reference_completion_rows(C, Cp), shift_halves(C, Cp)):
            pairs += [(a ^ w, b ^ pw) for a, b in pairs]
        assert any(pw in C or w ^ pw in C for w, pw in pairs[1:])
        Q = enlargement_code(C, Cp, shift_halves(C, Cp), d_lower=3)
        assert quantum_distance_exact(Q).value < 3


class TestCertifiedEnlarge:
    def test_wide_completion_uses_proven_mixing(self):
        # k' - k = 3: the bound is proven, and d is settled once its
        # stabiliser, |S| = 2^5, is within the cap.
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8))
        assert Q.d_exact == quantum_distance_exact(Q).value >= Q.d_lower
        assert repr(Q) == "QuantumCode[[8,3,3]]"
        Q = certified_enlarge(EXT_HAMMING_8_4, even_weight_code(8), d_lower=3, cap=4)
        assert Q.d_exact is None
        assert repr(Q) == "QuantumCode[[8,3,>=3]]"  # the proven bound, unscanned

    def test_single_row_completion_is_scanned(self):
        # k' = k + 1: no fix-point-free linear map exists, so the result
        # must carry an exhaustively computed exact distance.
        C = EXT_HAMMING_8_4
        Cp = LinearCode(C.basis_ints() + [0b11000000], 8)
        assert Cp.k == C.k + 1
        Q = certified_enlarge(C, Cp)
        assert Q.d_exact is not None
        assert Q.d_exact == quantum_distance_exact(Q).value

    def test_coset_sweep_is_complete(self):
        # Every v in GF(2)^n, not only the library's coset representatives.
        reached = set()
        for seed in range(40):
            C, Cp = single_row_case(seed)
            Q = certified_enlarge(C, Cp)
            best = max(
                quantum_distance_exact(enlargement_code(C, Cp, [v])).value
                for v in range(1 << C.n)
            )
            assert (Q.d_exact >= Q.d_lower) == (best >= Q.d_lower)
            if best < Q.d_lower:
                assert Q.d_exact == best
            assert Q.d_exact == quantum_distance_exact(Q).value
            assert certified_enlarge(C, Cp).gz == Q.gz
            reached.add(best >= Q.d_lower)
        assert reached == {True, False}  # both outcomes are exercised

    def test_out_of_reach_is_refused(self, monkeypatch):
        # Below 2(n - k) neither the zero-coset scan (k + k' generators)
        # nor the sweep (2^(2(n - k)) pairs) is in reach: refused before
        # the bound's own scans.
        scans = count_bound_scans(monkeypatch)
        C = EXT_HAMMING_8_4
        Cp = LinearCode(C.basis_ints() + [0b11000000], 8)
        with pytest.raises(EnumerationCapError, match=r"^coset sweep over 2\^8 pairs of C-perp x C-perp exceeds cap 7$"):
            certified_enlarge(C, Cp, cap=2 * (C.n - C.k) - 1)
        assert scans == []

    @pytest.mark.parametrize("extra", range(4))
    def test_certified_or_refused(self, extra, monkeypatch):
        # At every cap the code comes back with an exact d, or with d
        # unknown and a bound its construction proves (k' != k + 1), or
        # is refused, exactly when k' = k + 1 and the sweep's 2(n - k)
        # bits exceed the cap, before any scan of the bound.
        scans = count_bound_scans(monkeypatch)
        for seed in range(10):
            C, Cp = nested_case(seed, extra)
            full = certified_enlarge(C, Cp)
            for cap in range(27):
                refused = extra == 1 and 2 * (C.n - C.k) > cap
                scans.clear()
                try:
                    Q = certified_enlarge(C, Cp, d_lower=None if refused else full.d_lower, cap=cap)
                except EnumerationCapError:
                    assert refused and scans == []
                    continue
                assert not refused
                assert Q.d_exact is not None or extra != 1
                assert (Q.gx, Q.gz) == (full.gx, full.gz) and Q.d_exact in (None, full.d_exact)

    def test_sweep_alone_beyond_scan_cap(self):
        # cap = 2(n - k) = 8 < k + k' = 9: the zero coset is not scanned,
        # and the sweep alone certifies the winner.
        C = EXT_HAMMING_8_4
        Cp = LinearCode(C.basis_ints() + [0b11000000], 8)
        Q = certified_enlarge(C, Cp, d_lower=3, cap=2 * (C.n - C.k))
        _, want = reference_coset_sweep(C, Cp, 3)
        assert (Q.gx, Q.gz, Q.d_exact) == (want.gx, want.gz, want.d_exact)

    def test_matches_per_coset_oracle(self, monkeypatch):
        calls = []
        f = steane._completion_rows
        monkeypatch.setattr(steane, "_completion_rows", lambda *a: calls.append(1) or f(*a))
        # Every bound from 1 to n + 1, so that the zero coset, a later
        # coset and no coset at all reach it in turn.
        for C, Cp in sweep_cases():
            for d_lower in range(1, C.n + 2):
                calls.clear()
                Q = certified_enlarge(C, Cp, d_lower=d_lower)
                # The completion row is found once.
                assert len(calls) == 1
                _, want = reference_coset_sweep(C, Cp, d_lower)
                assert (Q.gx, Q.gz, Q.d_exact) == (want.gx, want.gz, want.d_exact)
                assert Q.d_lower == d_lower and Q.d_exact is not None

    def test_zero_coset_scan_disagreement_raises(self, monkeypatch):
        # F4 m=3: the zero coset has d = 2 < 4, so the sweep runs and its
        # value for v = 0 is checked against the scan's.
        C, Cp = f4_pair(3)
        monkeypatch.setattr(steane, "_coset_distances", lambda C, w: [3] * (1 << (C.n - C.k)))
        with pytest.raises(CertificateError, match="v = 0"):
            certified_enlarge(C, Cp, d_lower=4)


class TestCosetSweep:
    def test_distances_match_per_coset_oracle(self, block):
        for C, Cp in sweep_cases():
            (w,), _ = _completion_rows(C, Cp)
            want, _ = reference_coset_sweep(C, Cp, 1)
            assert _coset_distances(C, w) == want

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_f4_histogram(self, m):
        # Every completion of the ell = 0 member reaches at most d = 3,
        # and the counts follow 2^m + 2 / 2^m - 2.
        C, Cp = f4_pair(m)
        (w,), _ = _completion_rows(C, Cp)
        assert Counter(_coset_distances(C, w)) == {2: 2**m + 2, 3: 2**m - 2}

    @pytest.mark.parametrize("m", range(3, 11))
    def test_f4_ell_0_theorem(self, m):
        # C is the extended Hamming code: coordinate c < n - 1 has label
        # p_c = alpha^c, the parity coordinate 0, and sigma(u) = (wt u mod 2,
        # sum of p_c over supp u) has kernel exactly C.  For every even w
        # outside C, coset v has d = 2 when v is odd, v in C or v in w + C,
        # and d = 3 otherwise: x = e_i + e_j with p_i + p_j = s_w, and
        # z = e_i + e_k with p_k = p_i + s_v.  No z inside a pair {i, j}
        # has the syndrome of such a v, so no weight-2 element exists.
        C, Cp = f4_pair(m)
        n, mask = C.n, (1 << m) - 1
        label = [Gf2mField(m).power(c) for c in range(n - 1)] + [0]
        at = {p: c for c, p in enumerate(label)}
        assert len(at) == n
        checks = [(1 << n) - 1] + [sum(1 << (n - 1 - c) for c in range(n) if label[c] >> b & 1) for b in range(m)]
        assert all((row & h).bit_count() % 2 == 0 for row in C.basis_ints() for h in checks)
        assert LinearCode(checks, n).k == m + 1 == n - C.k

        def sigma(u: int) -> int:
            s = (u.bit_count() & 1) << m
            while u:
                low = u & -u
                s ^= label[n - low.bit_length()]
                u ^= low
            return s

        def e(*coords: int) -> int:
            return sum(1 << (n - 1 - c) for c in set(coords))

        D = dual(C)
        cosets = [_coset_word(C, i) for i in range(1 << (m + 1))]
        syndromes = [sigma(v) for v in cosets]
        rng = random.Random(m)
        words, _ = _completion_rows(C, Cp)
        while len(words) < 4:
            u = rng.getrandbits(n)
            u ^= u.bit_count() & 1  # even, through the parity coordinate
            if sigma(u):
                words.append(u)
        for w in words:
            sw = sigma(w)
            assert sw and not sw >> m  # x in w + C is even and nonzero: d >= 2
            # Every syndrome of a z inside a pair {i, j} with p_i + p_j = s_w.
            pairs = [(i, at[label[i] ^ sw]) for i in range(n)]
            reach = {sigma(z) for i, j in pairs for z in (0, e(i), e(j), e(i, j))}
            dist = []
            for v, sv in zip(cosets, syndromes):
                i = at[sv & mask] if sv >> m else 0
                x = e(*pairs[i])
                if sv >> m:
                    z = e(i)
                elif sv in (0, sw):
                    z = x if sv else 0
                else:
                    z = e(i, at[label[i] ^ sv])
                assert sigma(x) == sw and sigma(z) == sv and x not in D
                if m <= 6:
                    assert x ^ w in C and z ^ v in C
                dist.append((x | z).bit_count())
                assert (dist[-1] == 2) == (sv in reach)
            assert Counter(dist) == {2: 2**m + 2, 3: 2**m - 2}
            if m <= 8:
                assert _coset_distances(C, w) == dist

    def test_corrupted_histograms_raise(self):
        C, Cp = f4_pair(3)
        (w,), _ = _completion_rows(C, Cp)
        T, f = _coset_histograms(gf2._dual_rows(C), w, C.n)
        A = _coset_enumerators(T, f)
        log_size = 2 * (C.n - C.k) - 1
        assert _enumerator_distances(A, C.n, log_size) == _coset_distances(C, w)

        odd = f.copy()
        odd[1, 4] += 1
        with pytest.raises(CertificateError, match="odd"):
            _coset_enumerators(T, odd)
        extra_zero = T.copy()
        extra_zero[0] += 2
        with pytest.raises(CertificateError, match="A_0"):
            _coset_enumerators(extra_zero, f)
        negative = T.copy()
        negative[1] -= 2  # no pair has weight 1
        with pytest.raises(CertificateError, match="negative"):
            _coset_enumerators(negative, f)

        moved = A.copy()  # one stabiliser element moved from weight 4 to 5
        moved[:, 4] -= 1
        moved[:, 5] += 1
        with pytest.raises(CertificateError, match="MacWilliams row 1 "):
            _enumerator_distances(moved, C.n, log_size)
        with pytest.raises(CertificateError, match="MacWilliams row 0 "):
            _enumerator_distances(A, C.n, log_size + 1)  # B_0 = 1/2
        with pytest.raises(CertificateError, match="MacWilliams row 0 "):
            _enumerator_distances(A, C.n, log_size - 1)  # B_0 = 2


class TestStabiliserEnumerator:
    def test_krawtchouk_recurrence_matches_closed_form(self):
        for n in range(65):
            rows = list(_krawtchouk_rows(n, list(range(n + 1))))
            assert rows == [[krawtchouk(n, j, t) for t in range(n + 1)] for j in range(n + 1)]

    def test_matches_scans(self, block):
        # Random second halves keep every code a stabiliser code (C is
        # dual-containing); the rows appended after it are dependent, so
        # log2 |S| must come from the rank for the B_0 = 1 check to pass.
        sizes = set()
        for seed in range(60):
            C, Cp = enlargement_pair(seed)
            rng = random.Random(seed)
            Q = enlargement_code(C, Cp, [rng.randrange(1 << C.n) for _ in range(Cp.k - C.k)])
            gx, gz, n = list(Q.gx), list(Q.gz), Q.n
            d = _stabiliser_distance(gx, gz, n)
            assert d == quantum_distance_exact(Q).value
            if len(gx) <= 16:
                syn = [_syndrome(x, z, gx, gz) for x, z in zip(gx, gz)]
                assert d == reference_quantum_scan(gx, gz, syn, n, False)[0]
            extra = [(gx[0] ^ gx[-1], gz[0] ^ gz[-1]), (gx[1], gz[1]), (0, 0)]
            assert _stabiliser_distance(gx + [x for x, _ in extra], gz + [z for _, z in extra], n) == d
            sizes.add((Cp.k - C.k > 1, 2 * n - len(gx) > 6))
        assert sizes == {(False, False), (False, True), (True, False), (True, True)}

    def test_certified_enlarge_routes_by_stabiliser_size(self, monkeypatch):
        # [[8,3,3]]: 11 generators, |S| = 2^5, and the join gives up, as
        # weight 3 needs 276 half-table rows, more than S's 32 elements.
        # [[8,1,3]]: 9 generators, |S| = 2^7, and the join finds the zero
        # coset's d = 2 from 24 rows; the coset sweep then settles d = 3.
        C = EXT_HAMMING_8_4
        single = LinearCode(C.basis_ints() + [0b11000000], 8)
        for Cp, log_size, above_calls in ((even_weight_code(8), 5, ["join", "enum"]), (single, 7, ["join"])):
            calls = []
            enumerate_, join = steane._stabiliser_distance, steane._quantum_scan_errors
            monkeypatch.setattr(steane, "_stabiliser_distance", lambda *a: calls.append("enum") or enumerate_(*a))
            monkeypatch.setattr(steane, "_quantum_scan_errors", lambda *a, **k: calls.append("join") or join(*a, **k))
            monkeypatch.setattr(steane, "_ENUMERATOR_MAX_LOG", log_size)
            below = certified_enlarge(C, Cp, d_lower=3)
            assert calls == ["enum"]
            calls.clear()
            monkeypatch.setattr(steane, "_ENUMERATOR_MAX_LOG", log_size - 1)
            above = certified_enlarge(C, Cp, d_lower=3)
            assert calls == above_calls
            assert below == above and below.d_exact == 3
            monkeypatch.undo()


def enlargement_pair(seed: int):
    """Seeded dual-containing C < C' with n <= 14 and k + k' <= 22:
    k' = k + 1 for even seeds, k' - k >= 2 for odd ones."""
    rng = random.Random(seed)
    while True:
        n = rng.randrange(4, 15)
        C = dual(random_self_orthogonal(rng, n, rng.randrange(1, n // 2 + 1)))
        Cp = LinearCode(C.basis_ints() + [rng.randrange(1, 1 << n) for _ in range(1 + seed % 2 * 2)], n)
        if Cp.k > C.k and (Cp.k == C.k + 1) == (seed % 2 == 0) and C.k + Cp.k <= 22:
            return C, Cp


def f4_pair(m: int):
    """C < C' of the F4 member at ell = 0, built as `build_family_code` does."""
    C = extended_bch(m, 1)
    return C, coset_extend(C, extended_bch(m, 0))


def sweep_cases():
    """The k' = k + 1 cases checked against the per-coset oracle:
    `single_row_case` seeds 0-39 and F4 at m = 3 and 4."""
    return [single_row_case(seed) for seed in range(40)] + [f4_pair(3), f4_pair(4)]


def nested_case(seed: int, extra: int):
    """Seeded dual-containing C < C' with k' = k + extra, n <= 14 and K >= 1."""
    rng = random.Random(seed)
    while True:
        n = rng.randrange(4, 15)
        C = dual(random_self_orthogonal(rng, n, rng.randrange(1, n // 2 + 1)))
        Cp = LinearCode(C.basis_ints() + [rng.randrange(1, 1 << n) for _ in range(extra)], n)
        if Cp.k == C.k + extra and C.k + Cp.k > n:
            return C, Cp


def count_bound_scans(monkeypatch) -> list[str]:
    """The names of the bound scans `certified_enlarge` runs from now on,
    in order."""
    scans = []
    for name in ("min_distance", "second_gdw"):
        scan = getattr(steane, name)
        monkeypatch.setattr(steane, name, lambda *a, name=name, scan=scan, **kw: scans.append(name) or scan(*a, **kw))
    return scans


def single_row_case(seed: int):
    """Seeded dual-containing C < C' with k' = k + 1 and n <= 8."""
    rng = random.Random(seed)
    while True:
        n = rng.randrange(4, 9)
        C = dual(random_self_orthogonal(rng, n, rng.randrange(1, n // 2 + 1)))
        Cp = LinearCode(C.basis_ints() + [rng.randrange(1, 1 << n)], n)
        if Cp.k == C.k + 1:
            return C, Cp


class TestRrefSubspaces:
    @pytest.mark.parametrize(
        "q,r,count",
        [(4, 2, 35), (5, 1, 31), (5, 5, 1), (6, 3, 1395), (3, 0, 1)],
    )
    def test_counts_match_gaussian_binomials(self, q, r, count):
        seen = [tuple(rows) for rows in rref_subspaces(q, r)]
        assert len(seen) == len(set(seen)) == count == gaussian_binomial(q, r)

    def test_each_basis_is_rref_of_rank_r(self):
        from qsteane.gf2 import rref_ints

        # Bit i of a row is coefficient i, so the row read as a word of
        # length 4 has coefficient i at coordinate i: its bits reversed.
        for rows in rref_subspaces(4, 2):
            words = [int(format(row, "04b")[::-1], 2) for row in rows]
            red, rank, _ = rref_ints(words, 4)
            assert rank == 2 and red[:2] == words

    def test_bad_range(self):
        with pytest.raises(ValueError):
            list(rref_subspaces(3, 4))


class TestFindSelfDualSubcode:
    def test_recovers_extended_hamming(self):
        C = find_self_dual_subcode(even_weight_code(8))
        assert (C.n, C.k) == (8, 4)
        assert C == dual(C)
        assert min_distance(C).value == 4  # the best self-dual [8,4]

    def test_small_even_length(self):
        C = find_self_dual_subcode(even_weight_code(6))
        assert C == dual(C)
        assert min_distance(C).value == 2  # no [6,3,4] self-dual code exists

    def test_deterministic(self):
        a = find_self_dual_subcode(even_weight_code(8))
        b = find_self_dual_subcode(even_weight_code(8))
        assert a == b

    def test_already_self_dual_returned_as_is(self):
        assert find_self_dual_subcode(EXT_HAMMING_8_4) == EXT_HAMMING_8_4

    def test_rejects_odd_length(self):
        with pytest.raises(CodeConstructionError):
            find_self_dual_subcode(even_weight_code(7))

    def test_rejects_non_dual_containing(self):
        Cp = LinearCode([0b001111, 0b111100], 6)
        with pytest.raises(CodeConstructionError):
            find_self_dual_subcode(Cp)

    def test_result_sits_between_dual_and_code(self):
        Cp = even_weight_code(10)
        C = find_self_dual_subcode(Cp)
        assert is_subcode(dual(Cp), C) and is_subcode(C, Cp)

    def test_matches_reference_on_fixtures_and_even_weight(self):
        for Cp in [even_weight_code(n) for n in (6, 8, 10)] + [
            load_fixture(name) for name in ("c12_10_2a.txt", "c12_10_2b.txt", "c14_9_2.txt", "c14_10_2.txt")
        ]:
            C = find_self_dual_subcode(Cp)
            assert C == reference_self_dual_subcode(Cp)

    def test_matches_reference_on_random_codes(self):
        # Dual-containing C' = dual(S) always holds the all-ones word (the
        # words of S are even), and then a self-dual subcode exists; the
        # codes without that word are not dual-containing.
        outcomes = set()
        for seed in range(240):
            Cp = random_search_case(seed)
            try:
                want = reference_self_dual_subcode(Cp)
            except CodeConstructionError:
                with pytest.raises(CodeConstructionError):
                    find_self_dual_subcode(Cp)
                outcomes.add("refused")
                continue
            assert (1 << Cp.n) - 1 in Cp
            C = find_self_dual_subcode(Cp)
            assert C == want
            if Cp.k == Cp.n // 2:
                outcomes.add("self-dual")
            else:
                outcomes.add("found")
        assert outcomes == {"refused", "self-dual", "found"}

    def test_even_weight_12_winner_is_pinned(self):
        # The flat reference cannot reach q = 10, so the winner (highest d,
        # then least key) is pinned by the sha256 of repr(canonical_key()).
        C = find_self_dual_subcode(even_weight_code(12))
        assert C == dual(C) and min_distance(C).value == 4
        digest = hashlib.sha256(repr(C.canonical_key()).encode()).hexdigest()
        assert digest == "4421ebe3000315a93089e08337b8a97e7aa846ddf4aefbe08837ac7492afeafc"

    @pytest.mark.parametrize("n,count", [(6, 15), (8, 135), (10, 2295), (12, 75735)])
    def test_isotropic_leaves_match_mass_formula(self, n, count):
        # Self-dual codes of length n: prod_{i=1}^{n/2-1} (2^i + 1), all
        # of them inside the even-weight code.
        _, walk = unpruned_walk(even_weight_code(n))
        assert sum(1 for _ in walk) == count

    def test_isotropic_leaves_match_reference(self):
        for Cp in search_cases():
            leaves = isotropic_leaves(Cp)
            codes = [C for C, _, _ in leaves]
            assert len(set(codes)) == len(codes)
            assert set(codes) == set(reference_isotropic_subcodes(Cp))
            assert all(d == brute_min_distance(C) for C, _, d in leaves)

    def test_leaf_keys_read_off_the_lifts(self):
        # The key the walk carries down to each leaf, without an rref, is
        # the canonical key of the code its lifts span with C'-perp.
        for Cp in [*search_cases(), *(even_weight_code(n) for n in (6, 8, 10))]:
            for C, key, _ in isotropic_leaves(Cp):
                assert key == C.canonical_key()

    def test_cap_refused_before_the_search(self, monkeypatch):
        Cp = load_fixture("c12_10_2a.txt")
        with pytest.raises(EnumerationCapError, match="k' <= 9"):
            find_self_dual_subcode(Cp, cap=Cp.k - 1)
        assert find_self_dual_subcode(Cp, cap=Cp.k) == find_self_dual_subcode(Cp)
        # A wide C' over the cap is refused before its dual is built.
        wide = dual_containing_code(random.Random(5), 256, 20)
        monkeypatch.setattr(steane, "dual", lambda C: pytest.fail("dual(C') built for a refused search"))
        with pytest.raises(EnumerationCapError) as refused:
            find_self_dual_subcode(wide)
        assert str(refused.value) == "coset-weight table over 2^276 words of C' exceeds cap k' <= 26"
        # A self-dual C' needs no search, so no table and no cap.
        assert find_self_dual_subcode(EXT_HAMMING_8_4, cap=1) == EXT_HAMMING_8_4


def random_search_case(seed: int) -> LinearCode:
    """Seeded C' for the self-dual search, even n from 4 to 14.

    One seed in six gives a random code without the all-ones word, which
    is never dual-containing; the rest give C' = dual(S) for a random
    self-orthogonal S with 2 dim S >= n - 6, so that C'/dual(C') has
    dimension at most 6 and the flat reference search stays cheap.
    """
    rng = random.Random(seed)
    n = rng.randrange(4, 15, 2)
    if seed % 6 == 5:
        while True:
            Cp = random_code(rng, n, rng.randrange(2, n))
            if (1 << n) - 1 not in Cp:
                return Cp
    while True:
        S = random_self_orthogonal(rng, n, rng.randrange(max(1, (n - 5) // 2), n // 2 + 1))
        if n - 2 * S.k <= 6:
            return dual(S)


def search_cases() -> list[LinearCode]:
    """The C' of `random_search_case` seeds 0-79 that need a search:
    dual-containing, of even length and not self-dual."""
    cases = map(random_search_case, range(80))
    return [Cp for Cp in cases if Cp.n % 2 == 0 and is_subcode(dual(Cp), Cp) and Cp.k > Cp.n // 2]


def unpruned_walk(Cp: LinearCode):
    """C'-perp's basis and the search's walk on C' with pruning off."""
    perp = dual(Cp).basis_ints()
    reps = _completion_rows(dual(Cp), Cp)[1]
    weights = _coset_weights(perp, reps, Cp.n)
    lifts = _ints(_span_limbs(reps, Cp.n), Cp.n)
    return perp, _isotropic_bases(lifts, Cp.k - Cp.n // 2, weights, perp, lambda m: False)


def isotropic_leaves(Cp: LinearCode) -> list[tuple[LinearCode, tuple, int]]:
    """Every leaf of the search on C' with pruning off: the code spanned
    by C'-perp and the leaf's lifts, the key the walk yields for it, and
    the minimum of the coset-weight table over its subspace."""
    perp, walk = unpruned_walk(Cp)
    return [(LinearCode(perp + basis, Cp.n), key, m) for basis, m, key in walk]
