"""Acceptance gate: one test (and one printed verdict line) per criterion.

Two published claims are refuted by exact computation, and the gate
asserts the verified truth about them together with certificates that
do not rest on the scan or search under test:

- The shipped [18,12,4] matrix is not dual-containing (hull dimension
  2, a weight-6 word of its dual lies outside it), so no self-dual C
  with dual(C') <= C <= C' exists and the n=18 pipeline must be
  refused.  No self-dual [18,9,6] code exists at all: the weight
  enumerator Gleason's theorem forces has a fractional, negative
  shadow coefficient.  Criteria 1 and 2 check both certificates.
- The smallest F4 member (m=4, ell=0) has C = C1 and k' = k+1, so its
  code depends only on the coset v + C of the mixed completion row.
  All 32 cosets carry a logical operator of weight <= 3; criterion 5
  checks each witness on plain ints and asserts the exact distance 3.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qsteane.bch import (
    BchSpec,
    FamilySpec,
    bch_code,
    coset_extend,
    extended_bch,
    family_params,
    verify_nesting,
)
from qsteane.bounds import bound_cs, bound_gf4, bound_steane, bound_thm4, emit_curve, pair_count_identity
from qsteane.cli import main
from qsteane.distances import min_distance, quantum_distance_exact, second_gdw
from qsteane.gf2 import CodeConstructionError, LinearCode, dual, is_subcode
from qsteane.steane import QuantumCode, find_self_dual_subcode
from qsteane.table1 import TABLE1_ROWS, load_fixture, self_dual_code_for_row

from conftest import (
    brute_second_gdw,
    fixture_rows,
    gleason_shadow,
    in_span,
    random_code,
    shadow_obstruction,
    span_words,
    symplectic_product,
)
from test_bounds import brute_pair_count


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def n18_refutation() -> list[str]:
    """Failures of the two certificates behind the n=18 row (empty when
    both hold).

    1. The lightest word of dual(C') outside C' has weight 6; it is
       checked on the fixture's own rows as plain ints.  So C' is not
       dual-containing, and no C with dual(C') <= C <= C' is self-dual.
    2. The Gleason-shadow obstruction for (n, d) = (18, 6): no
       self-dual [18,9,6] code exists at all.
    """
    failures = []
    Cp = load_fixture("c18_12_4.txt")
    cp_words = set(span_words(Cp))
    dual_words = span_words(dual(Cp))
    hull = [w for w in dual_words if w in cp_words]
    if len(hull) != 1 << 2:
        failures.append(f"hull has {len(hull)} words, expected 2^2")
    witness = min((w for w in dual_words if w not in cp_words), key=int.bit_count, default=0)
    if witness.bit_count() != 6:
        failures.append(f"dual witness has weight {witness.bit_count()}")
    if any((witness & row).bit_count() & 1 for row in fixture_rows("c18_12_4.txt")):
        failures.append("dual witness is not orthogonal to every fixture row")
    if witness in cp_words:
        failures.append("dual witness lies in C'")
    W, _ = gleason_shadow(18, 6)
    if {i: int(c) for i, c in enumerate(W) if c} != {0: 1, 6: 102, 8: 153, 10: 153, 12: 102, 18: 1}:
        failures.append(f"forced enumerator {W}")
    if "S_1 = -9/8" not in shadow_obstruction(18, 6):
        failures.append("no shadow obstruction at (18, 6)")
    return failures


def test_criterion_1_example_pipeline_18_3_6():
    """The search refuses the shipped [18,12,4] matrix with "C' is not
    dual-containing", as its docstring requires, and both certificates
    of n18_refutation hold, so the published [[18,3,6]] pipeline has no
    inner code to start from.  The obstruction is not vacuous: it
    predicts the weight enumerators of the self-dual codes recovered for
    rows n = 8, 12, 14, leaves (22, 6) and (24, 8) open, and gives no
    verdict on the underdetermined (18, 4)."""
    try:
        find_self_dual_subcode(load_fixture("c18_12_4.txt"))
        refusal = "search returned a code"
    except CodeConstructionError as exc:
        refusal = str(exc)
    failures = [] if refusal == "C' is not dual-containing" else [f"search: {refusal}"]
    failures += n18_refutation()
    for row in TABLE1_ROWS[:5]:
        C = self_dual_code_for_row(row)
        weights = Counter(w.bit_count() for w in span_words(C))
        W, _ = gleason_shadow(row.n, row.d)
        if weights != {i: c for i, c in enumerate(W) if c}:
            failures.append(f"n={row.n}: enumerator {dict(weights)} not predicted")
    if shadow_obstruction(22, 6) != [] or shadow_obstruction(24, 8) != []:
        failures.append("obstruction refutes an existing code")
    if shadow_obstruction(18, 4) is not None:
        failures.append("verdict on an underdetermined system")
    detail = "; ".join(failures) or "n=18 refused: C' not dual-containing, no self-dual [18,9,6] exists"
    verdict(1, not failures, detail)


def test_criterion_2_table_rows_golden(table_checks):
    """Rows 1-5 reproduce exactly: K = k + k' - n and the printed quantum
    distance by exhaustive scans.  Row 6 (n=18) is refused with no
    quantum code and a "dual-containing" reason, backed by the two
    certificates of n18_refutation."""
    *reproduced, last = table_checks
    bad = [f"n={c.row.n},k'={c.row.kprime}: {c.details}" for c in reproduced if not c.ok]
    if len(reproduced) != 5:
        bad.append(f"{len(table_checks)} rows checked")
    if last.ok or last.quantum is not None or "dual-containing" not in last.details:
        bad.append(f"n=18 row not refused: {last.details}")
    bad += n18_refutation()
    verdict(2, not bad, "; ".join(bad) or "rows 1-5 reproduced, row 6 refused with both certificates")


def test_criterion_3_generalized_distance_suite():
    """1000 random codes: d2 >= ceil(3 d1 / 2) and d2 equals an
    independent brute-force oracle."""
    rng = random.Random(20_26)
    violations = 0
    for _ in range(1000):
        n = rng.randrange(4, 17)
        code = random_code(rng, n, k_target=min(8, n - 1))
        d1 = min_distance(code).value
        d2 = second_gdw(code).value
        if d2 < math.ceil(3 * d1 / 2) or d2 != brute_second_gdw(code):
            violations += 1
    verdict(3, violations == 0, f"{violations} violations over 1000 random codes")


def test_criterion_4_bch_regime():
    """m in {4,5}, every regime-valid t: exact dimension 2^m-1-mt and
    exact distance 2t+1, plus dual containment and nesting."""
    failures = []
    for m in (4, 5):
        t_max = ((1 << ((m + 1) // 2)) - 2) // 2
        for t in range(1, t_max + 1):
            code = bch_code(BchSpec(m, t))
            n = (1 << m) - 1
            if code.k != n - m * t:
                failures.append(f"m={m},t={t}: k={code.k}")
            if min_distance(code).value != 2 * t + 1:
                failures.append(f"m={m},t={t}: d!=2t+1")
            if not is_subcode(dual(code), code):
                failures.append(f"m={m},t={t}: not dual-containing")
        if not verify_nesting(m):
            failures.append(f"m={m}: chain broken")
    verdict(4, not failures, "dimensions, distances, nesting all exact" if not failures else "; ".join(failures))


def f4_coset_sweep(C: LinearCode, w: int) -> tuple[Counter, list[str]]:
    """Exact distances of span{(C|0), (0|C), (w|v)}, one v per coset v + C.

    Each scan's witness is checked on plain ints: its weight is the
    reported distance, it lies in the span of the generator rows, and
    its symplectic product with some generator row is nonzero, so it is
    a logical operator.  Returns the distance histogram and the failures.
    """
    n, basis = C.n, C.basis_ints()
    complement: list[int] = []
    for i in range(n):
        if not in_span(1 << (n - 1 - i), basis + complement):
            complement.append(1 << (n - 1 - i))
    histogram: Counter = Counter()
    failures = []
    for combo in range(1 << len(complement)):
        v = 0
        for i, unit in enumerate(complement):
            if (combo >> i) & 1:
                v ^= unit
        gx = basis + [0] * len(basis) + [w]
        gz = [0] * len(basis) + basis + [v]
        Q = QuantumCode(n, gx, gz, K=2 * C.k + 1 - n, d_lower=1)
        report = quantum_distance_exact(Q)
        ux, uz = report.witness
        histogram[report.value] += 1
        if not (
            (ux | uz).bit_count() == report.value
            and in_span(ux << n | uz, [x << n | z for x, z in zip(gx, gz)])
            and any(symplectic_product((ux, uz), row) for row in zip(gx, gz))
        ):
            failures.append(f"coset {combo}: witness fails its check")
    return histogram, failures


def test_criterion_5_f4_desk_scale(f4_desk):
    """F4 at m=4, ell=0: d'=2 but d2'=4 beats ceil(3d'/2)=3, closed-form
    [[16,7,4]], and the built [[16,7]] code has exact distance 3.  The
    claimed 4 is out of reach: at ell=0, C = C1, so k' = k+1 and the
    code depends only on the coset v + C of the second half of the one
    completion row.  All 2^5 = 32 cosets are swept and each carries a
    checked logical operator of weight <= 3 (histogram {2: 18, 3: 14}),
    so 3 is the best any completion reaches."""
    C1 = extended_bch(4, 1)
    Cp = coset_extend(C1, extended_bch(4, 0))
    dp = min_distance(Cp).value
    d2p = second_gdw(Cp).value
    exact = f4_desk.d_exact if f4_desk.d_exact is not None else quantum_distance_exact(f4_desk).value
    # One coset of C1 is added, so any word of C' outside C1 completes it.
    w = next(row for row in Cp.basis_ints() if row not in C1)
    histogram, failures = f4_coset_sweep(C1, w)
    ok = (
        Cp.k == C1.k + 1
        and dp == 2
        and d2p == 4 > math.ceil(3 * dp / 2)
        and family_params(FamilySpec("F4", 4, 0)) == (16, 7, 4)
        and (f4_desk.n, f4_desk.K) == (16, 7)
        and exact == 3
        and histogram == {2: 18, 3: 14}
        and not failures
    )
    verdict(
        5,
        ok,
        f"d'={dp}, d2'={d2p}, built [[{f4_desk.n},{f4_desk.K}]], exact distance {exact}, "
        f"coset distances {dict(sorted(histogram.items()))}" + "".join(f"; {f}" for f in failures),
    )


def test_criterion_6_family_formulas():
    """Closed forms for every valid (family, m <= 10, ell) match an
    independent K computation; builds at m <= 5 agree; spot values."""
    failures = []
    for m in range(2, 11):
        half = 1 << ((m + 1) // 2)
        n = 1 << m
        for ell in range(0, half):
            # Independent K: component dimensions summed directly.
            cases = {
                "F0": (ell >= 1 and 6 * ell <= half, (n - 1 - m * (3 * ell - 1)) + (n - 1 - m * (2 * ell - 1)) - n),
                "F2": (6 * ell + 2 <= half, (n - 1 - 3 * ell * m) + (n - 1 - 2 * ell * m) - n),
                "F3": (6 * ell + 4 <= half, (n - 1 - m * (3 * ell + 1)) + (n - 1 - 2 * ell * m) - n),
                "F4": (6 * ell + 4 <= half, (n - 1 - m * (3 * ell + 1)) + (n - m * (2 * ell + 1)) - n),
                # F5 adds one logical qubit to F0 at ell+1.
                "F5": (6 * ell + 6 <= half, (n - 1 - m * (3 * ell + 2)) + (n - 1 - m * (2 * ell + 1)) - n + 1),
            }
            for family, (valid, k_independent) in cases.items():
                if not valid:
                    continue
                _, K, _ = family_params(FamilySpec(family, m, ell))
                if K != k_independent:
                    failures.append(f"{family} m={m} ell={ell}: {K} != {k_independent}")
    spots = {
        ("F0", 5, 1): (32, 15, 6),
        ("F4", 4, 0): (16, 7, 4),
        ("F5", 7, 1): (128, 71, 11),
    }
    for (family, m, ell), expected in spots.items():
        if family_params(FamilySpec(family, m, ell)) != expected:
            failures.append(f"spot {family} m={m}")
    from qsteane.bch import build_family_code

    for spec in (FamilySpec("F0", 5, 1), FamilySpec("F2", 5, 1), FamilySpec("F3", 4, 0), FamilySpec("F3", 5, 0), FamilySpec("F4", 5, 0)):
        Q = build_family_code(spec)
        if Q.K != family_params(spec)[1]:
            failures.append(f"build {spec.family} m={spec.m}")
    verdict(6, not failures, "formulas and builds agree" if not failures else "; ".join(failures))


def test_criterion_7_bounds():
    """Pair identity exact for t <= 30; brute pair counts within the
    (3^t+1)/8 bound for t <= 12; curve relations on a 501-point grid."""
    failures = []
    for t in range(1, 31):
        pair_count_identity(t)  # raises if the two sides disagree
    for t in range(1, 13):
        if brute_pair_count(t) > Fraction(3**t + 1, 8):
            failures.append(f"pair count exceeds bound at t={t}")
    pts = emit_curve(0.0, 0.5, 0.001)
    if len(pts) != 501 or any(p.r_steane < p.r_cs for p in pts):
        failures.append("curve comparison failed")
    for f in (bound_gf4, bound_cs, bound_steane, bound_thm4):
        if abs(f(0.0) - 1.0) > 1e-12:
            failures.append(f"{f.__name__}(0) != 1")
    verdict(7, not failures, "identity, counts, and curves all hold" if not failures else "; ".join(failures))


def test_criterion_8_determinism(tmp_path, capsys):
    """Repeated table and curve runs produce byte-identical output."""
    main(["table1"])
    first = capsys.readouterr().out
    main(["table1"])
    second = capsys.readouterr().out
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bounds", "0", "0.5", "0.001", str(a)])
    main(["bounds", "0", "0.5", "0.001", str(b)])
    capsys.readouterr()
    ok = first == second and a.read_bytes() == b.read_bytes()
    verdict(8, ok, "table and curve outputs byte-identical across runs")
