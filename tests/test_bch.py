"""BCH codes over GF(2^m), their nesting chain, and the quantum families."""

import random

import pytest

from qsteane import bch, distances, gf2, steane
from qsteane.bch import (
    PRIMITIVE_POLYS,
    BchSpec,
    FamilySpec,
    Gf2mField,
    bch_code,
    build_family_code,
    coset_extend,
    extended_bch,
    family_params,
    verify_nesting,
)
from qsteane.distances import min_distance, quantum_distance_exact, second_gdw
from qsteane.enumerators import CertificateError
from qsteane.gf2 import (
    CodeConstructionError,
    LinearCode,
    _completion_rows,
    dual,
    is_subcode,
    parse_matrix,
    render_matrix,
)
from qsteane.steane import certified_enlarge, is_stabilizer_code

from conftest import (
    coordinate_rows,
    enumerate_codewords,
    lex,
    reference_coset_extend,
    reference_completion_rows,
    span_words,
    xor_sum,
)


class TestGf2mField:
    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_tables_cover_the_multiplicative_group(self, m):
        field = Gf2mField(m)
        assert sorted(field.antilog) == list(range(1, 1 << m))
        assert field.power(field.order) == 1

    def test_mul_agrees_with_polynomial_arithmetic(self):
        field = Gf2mField(4)
        # alpha^3 * alpha^5 = alpha^8; 0 annihilates.
        assert field.mul(field.power(3), field.power(5)) == field.power(8)
        assert field.mul(0, 7) == 0

    def test_rejects_non_primitive_modulus(self, monkeypatch):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5.
        monkeypatch.setitem(bch.PRIMITIVE_POLYS, 4, 0b11111)
        with pytest.raises(ValueError, match="primitive"):
            Gf2mField(4)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            Gf2mField(1)


class TestBchCode:
    @pytest.mark.parametrize(
        "m,t,k", [(4, 1, 11), (5, 1, 26), (5, 2, 21), (5, 3, 16)]
    )
    def test_dimension_and_exact_distance(self, m, t, k):
        code = bch_code(BchSpec(m, t))
        assert (code.n, code.k) == ((1 << m) - 1, k)
        assert min_distance(code).value == 2 * t + 1

    @pytest.mark.parametrize("m", range(2, 9))
    def test_rows_vanish_at_the_designed_roots(self, m):
        # The definition: every codeword c(x) = sum_j c_j x^j (c_j at
        # coordinate j) has c(alpha^j) = 0 for j = 1 .. 2t.
        field = Gf2mField(m)
        n, t = field.order, 0
        while BchSpec(m, t).in_dual_containing_regime():
            code = bch_code(BchSpec(m, t))
            for c in code.basis_ints():
                support = [q for q, ch in enumerate(lex(c, n)) if ch == "1"]
                for j in range(1, 2 * t + 1):
                    value = 0
                    for q in support:
                        value ^= field.power(j * q)
                    assert value == 0, (m, t, j)
            t += 1

    def test_trivial_t_zero(self):
        code = bch_code(BchSpec(4, 0))
        assert (code.n, code.k) == (15, 15)

    def test_codes_are_cyclic(self):
        # Stated on coordinate strings: shifting every coordinate one
        # place, either way round, maps each generator row into the code.
        for m, t in ((3, 1), (4, 1), (5, 3)):
            code = bch_code(BchSpec(m, t))
            words = {lex(w, code.n) for w in span_words(code)}
            for row in coordinate_rows(code):
                s = row.replace(" ", "")
                assert s[-1] + s[:-1] in words
                assert s[1:] + s[0] in words

    @pytest.mark.parametrize("m,t", [(3, 1), (4, 1), (5, 2), (6, 3)])
    def test_rows_round_trip_through_the_matrix_text(self, m, t):
        for code in (bch_code(BchSpec(m, t)), extended_bch(m, t)):
            text = render_matrix(code.basis_ints(), code.n)
            assert LinearCode(*parse_matrix(text)) == code

    def test_regime_is_enforced(self):
        with pytest.raises(CodeConstructionError, match="regime"):
            bch_code(BchSpec(4, 2))  # designed distance 5 > 2^2 - 1

    @pytest.mark.parametrize("m", [4, 5])
    def test_nesting_and_dual_containment(self, m):
        assert verify_nesting(m)

    def test_extended_parameters(self):
        e = extended_bch(4, 1)
        assert (e.n, e.k) == (16, 11)
        assert min_distance(e).value == 4
        assert is_subcode(dual(e), e)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_extended_basis_is_the_full_rref(self, m):
        for t in (1, 2) if m >= 5 else (1,):
            rows = [r << 1 | r.bit_count() & 1 for r in bch_code(BchSpec(m, t)).basis_ints()]
            E = extended_bch(m, t)
            # Reversed, the rows are not reduced, so rref_ints eliminates in full.
            assert E.basis_ints() == gf2.rref_ints(rows[::-1], E.n)[0]

    def test_extended_bch_runs_one_elimination(self, monkeypatch):
        calls, packed = [], gf2._rref_packed
        monkeypatch.setattr(gf2, "_rref_packed", lambda rows, cols: calls.append(len(rows)) or packed(rows, cols))
        E = extended_bch(10, 2)
        assert (E.n, E.k) == (1024, 1003)
        # bch_code's elimination; the parity extension of its basis is reduced.
        assert calls == [1003]


class TestFamilyParams:
    @pytest.mark.parametrize(
        "family,m,ell,expected",
        [
            ("F0", 5, 1, (32, 15, 6)),
            ("F4", 4, 0, (16, 7, 4)),
            ("F5", 7, 1, (128, 71, 11)),
            ("F2", 4, 0, (16, 14, 2)),
            ("F3", 4, 0, (16, 10, 3)),
        ],
    )
    def test_spot_values(self, family, m, ell, expected):
        assert family_params(FamilySpec(family, m, ell)) == expected

    def test_derived_params_match_the_papers_closed_forms(self, monkeypatch):
        # The paper's validity conditions and [[n, K, d]], written out;
        # the t values of the family table must give the same members.
        # Every member has 6 ell < 2^ceil(m/2), so the ell walked cover
        # them all.  Arithmetic only: nothing is built.
        monkeypatch.setattr(bch, "extended_bch", None)
        members = 0
        for m in range(2, 17):
            n, half = 1 << m, 1 << ((m + 1) // 2)
            for ell in range(-2, half):
                closed = {
                    "F0": (ell >= 1 and 6 * ell <= half, (n, n - (5 * ell - 2) * m - 2, 6 * ell)),
                    "F2": (ell >= 0 and 6 * ell + 2 <= half, (n, n - 5 * ell * m - 2, 6 * ell + 2)),
                    "F3": (ell >= 0 and 6 * ell + 4 <= half, (n, n - (5 * ell + 1) * m - 2, 6 * ell + 3)),
                    "F4": (ell >= 0 and 6 * ell + 4 <= half, (n, n - (5 * ell + 2) * m - 1, 6 * ell + 4)),
                    "F5": (ell >= 0 and 6 * ell + 6 <= half, (n, n - (5 * ell + 3) * m - 1, 6 * ell + 5)),
                }
                for family, (valid, params) in closed.items():
                    spec = FamilySpec(family, m, ell)
                    assert spec.condition() == valid, spec
                    if valid:
                        members += 1
                        assert family_params(spec) == params, spec
                    else:
                        with pytest.raises(CodeConstructionError, match="dual-containing regime"):
                            family_params(spec)
        assert members == 841

    def test_condition_violation(self):
        # 6 > 2^2: C's t = 2 has 2t + 1 = 5 > 2^2 - 1.
        with pytest.raises(CodeConstructionError, match=r"^F0 m=4 ell=1 needs BCH t=2, outside the dual-containing regime"):
            family_params(FamilySpec("F0", 4, 1))
        # C''s t = 2 ell - 1 = -1.
        with pytest.raises(CodeConstructionError, match=r"^F0 m=5 ell=0 needs BCH t=-1,"):
            family_params(FamilySpec("F0", 5, 0))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: BchSpec(1, 0), "m must be in [2, 16], got 1"),
            (lambda: BchSpec(4, -1), "t must be >= 0"),
            (lambda: FamilySpec("F0", 17, 1), "m must be in [2, 16], got 17"),
            (lambda: coset_extend(extended_bch(4, 1), extended_bch(4, 1)), "ambient code equals C1: no coset to add"),
            (lambda: coset_extend(extended_bch(3, 1), extended_bch(4, 0)), "length mismatch: 8 != 16"),
        ],
        ids=["BchSpec-m=1", "BchSpec-t=-1", "FamilySpec-m=17", "coset_extend-C1=ambient", "coset_extend-lengths"],
    )
    def test_out_of_range_specs_are_refused(self, make, message):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message

    def test_family_name_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("F1", 4, 0)


class TestCosetExtend:
    def test_lex_smallest_coset_leader_matches_brute_force(self):
        C1 = extended_bch(4, 1)
        big = extended_bch(4, 0)
        Cp = coset_extend(C1, big)
        assert Cp.k == C1.k + 1
        # Oracle: lexicographically smallest word of big outside C1.
        outside = [v for v in enumerate_codewords(big) if v and v not in C1]
        best = min(outside)
        assert best in Cp
        assert Cp == LinearCode(C1.basis_ints() + [best], big.n)

    def test_requires_nesting(self):
        with pytest.raises(CodeConstructionError, match=r"^C1 is not a subcode of the ambient code$"):
            coset_extend(extended_bch(4, 0), extended_bch(4, 1))
        # Not nested, though the ambient code is the larger.
        big = extended_bch(4, 1)
        C1 = LinearCode(big.basis_ints()[1:] + [1], big.n)
        with pytest.raises(CodeConstructionError, match=r"^C1 is not a subcode of the ambient code$"):
            coset_extend(C1, big)

    @pytest.mark.parametrize("n", [*range(8, 41, 4), 256, 512])
    def test_matches_reference_on_random_nested_pairs(self, n, monkeypatch):
        rng = random.Random(n)
        calls = []
        residual = gf2._residual_packed
        monkeypatch.setattr(gf2, "_residual_packed", lambda words, *rest: calls.append(len(words)) or residual(words, *rest))
        for _ in range(12):
            big = LinearCode([rng.getrandbits(n) for _ in range(rng.randrange(2, n) if n <= 40 else rng.randrange(64, 100))], n)
            rows = big.basis_ints()
            C1 = LinearCode([xor_sum(rng.sample(rows, rng.randrange(1, big.k + 1))) for _ in range(big.k - rng.randrange(1, min(7, big.k + 1)))], n)
            calls.clear()
            picked, quotient = _completion_rows(C1, big)
            assert picked == reference_completion_rows(C1, big)
            # From n = 256 and 64 rows of C' the rows are reduced packed,
            # once for the completion and once for all of coset_extend.
            assert calls == ([big.k] if n >= 256 else [])
            assert coset_extend(C1, big) == reference_coset_extend(C1, big)
            assert calls == ([big.k] * 2 if n >= 256 else [])
            # A basis of big/C1 in rref, zero on C1's pivot columns: that
            # fixes it, and its last row is the lex-smallest coset leader.
            pivots = sum(1 << (row.bit_length() - 1) for row in C1.basis_ints())
            assert quotient == LinearCode(quotient, n).basis_ints() and not any(w & pivots for w in quotient)
            assert len(quotient) == big.k - C1.k and LinearCode(C1.basis_ints() + quotient, n) == big
            assert LinearCode(C1.basis_ints() + quotient[-1:], n) == reference_coset_extend(C1, big)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_f4_enlargement_matches_reference(self, m):
        for ell in range(3):
            if FamilySpec("F4", m, ell).condition():
                C1, big = extended_bch(m, 2 * ell + 1), extended_bch(m, 2 * ell)
                assert coset_extend(C1, big) == reference_coset_extend(C1, big)


class TestBuildFamilyCode:
    def test_f0_desk_scale(self):
        Q = build_family_code(FamilySpec("F0", 5, 1))
        assert (Q.n, Q.K, Q.d_lower) == (32, 15, 6)
        assert is_stabilizer_code(Q)

    def test_f3_m10_is_a_stabilizer_code(self):
        # n = 1024: the symplectic matrix has 2048 columns, past MAX_LENGTH.
        Q = build_family_code(FamilySpec("F3", 10, 0))
        assert (Q.n, Q.K) == (1024, 1012)
        assert is_stabilizer_code(Q)

    def test_f3_desk_scale_certifies_exactly(self):
        Q = build_family_code(FamilySpec("F3", 4, 0))
        assert (Q.n, Q.K, Q.d_lower) == (16, 10, 3)
        assert quantum_distance_exact(Q).value == 3

    def test_f4_second_weight_mechanism(self, f4_desk):
        # The enlargement code has d' = 2 yet d2' = 4: the added coset
        # holds every weight-2 word and its words are far apart.
        spec = FamilySpec("F4", 4, 0)
        C1 = extended_bch(4, 1)
        Cp = coset_extend(C1, extended_bch(4, 0))
        assert min_distance(Cp).value == 2
        assert second_gdw(Cp).value == 4
        light = [v for v in enumerate_codewords(Cp) if v.bit_count() == 2]
        assert light and all(w not in C1 for w in light)
        for i, a in enumerate(light):
            for b in light[i + 1 :]:
                assert (a ^ b).bit_count() >= 4
        assert family_params(spec) == (16, 7, 4)
        assert (f4_desk.n, f4_desk.K) == (16, 7)

    def test_wide_build_never_walks_the_generator_span(self, monkeypatch):
        # F0 m=7 ell=1: 233 generators, but |S| = 2^23 is within the
        # default cap; n = 128 stops the join, and the enumerator answers.
        def scan(*args, **kwargs):
            raise AssertionError("a span walk ran")

        monkeypatch.setattr(distances, "_span_min", scan)
        monkeypatch.setattr(distances, "quantum_distance_exact", scan)
        Q = build_family_code(FamilySpec("F0", 7, 1))
        assert (Q.n, Q.K, Q.num_generators, Q.d_exact) == (128, 105, 233, 6)

    def test_zero_coset_cross_check_always_runs(self, monkeypatch):
        # F4 m=5: 53 generators, over the cap, but the zero coset's
        # |S| = 2^11 is within it, so a sweep whose coset 0 disagrees
        # with the enumerator is caught.
        sweep = steane._coset_distances
        monkeypatch.setattr(steane, "_coset_distances", lambda C, w: [d + (i == 0) for i, d in enumerate(sweep(C, w))])
        with pytest.raises(CertificateError, match="^coset sweep gives d=3 for v = 0, the scan d=2$"):
            build_family_code(FamilySpec("F4", 5, 0))

    def test_f4_desk_scale_is_certified(self, f4_desk):
        # k' = k + 1 leaves no provable mixing map; the builder records
        # the best exhaustively verified distance instead.
        assert f4_desk.d_exact is not None
        assert is_stabilizer_code(f4_desk)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_f4_ell_0_builds_its_bch_code_once(self, m, monkeypatch):
        # At ell = 0, C and C1 are the same code, extended_bch(m, 1).
        calls = []
        build = bch.extended_bch
        monkeypatch.setattr(bch, "extended_bch", lambda m, t: calls.append(t) or build(m, t))
        Q = build_family_code(FamilySpec("F4", m, 0))
        assert calls == [1, 0]
        C = build(m, 1)
        want = certified_enlarge(C, coset_extend(build(m, 1), build(m, 0)), d_lower=4)
        assert (Q.gx, Q.gz) == (want.gx, want.gz)

    @pytest.mark.parametrize("m, d_exact", [(2, 2), (3, 2), (4, 2)])
    def test_f2_ell_0_builds_css_of_even_weight_code(self, m, d_exact):
        # C' = C, the even-weight code: CSS(C, C), whose bound d(C) = 2 is
        # proven; at every m its 2n - 2 generators leave |S| = 2^2, so
        # the stabiliser enumerator settles d even where they are over the cap.
        Q = build_family_code(FamilySpec("F2", m, 0))
        assert (Q.n, Q.K, Q.d_lower) == family_params(FamilySpec("F2", m, 0))
        assert Q.d_exact == d_exact

    def test_f5_is_params_only(self):
        with pytest.raises(CodeConstructionError, match="parameters-only"):
            build_family_code(FamilySpec("F5", 7, 1))

    def test_build_matches_closed_form_k(self):
        for spec in (
            FamilySpec("F0", 5, 1),
            FamilySpec("F2", 5, 1),
            FamilySpec("F3", 4, 0),
            FamilySpec("F3", 5, 0),
            FamilySpec("F4", 5, 0),
        ):
            n, K, _ = family_params(spec)
            Q = build_family_code(spec)
            assert (Q.n, Q.K) == (n, K)
