"""Primitive narrow-sense BCH codes over GF(2^m) and the quantum code
families built from their nested, dual-containing chain.

Dual containment holds exactly when the designed distance 2t+1 stays
below 2^ceil(m/2); inside that regime the codes have dimension
2^m - 1 - m*t and, by the BCH bound, distance at least the designed
2t+1.  The test suite checks that the distance equals it at
(m, t) = (4, 1), (5, 1), (5, 2) and (5, 3).

Each family member is fixed by the t values of the BCH codes it is
built from (`_FAMILY_TS`), and everything else is derived from them:
whether the member exists, its [[n, K, d]], with d the bound those t
values prove (`family_bound`), and its build.  F5(m, ell) is F0(m,
ell + 1) under the propagation rule [[n, K, d]] -> [[n, K + 1, d - 1]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf2 import DEFAULT_ENUM_CAP, MAX_LENGTH, CodeConstructionError, LinearCode, _completion_rows, extend_parity, is_dual_containing, is_subcode
from .steane import QuantumCode, certified_enlarge

# One canonical primitive polynomial per extension degree (bit i is the
# coefficient of x^i; the leading bit is the x^m term).
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

# The BCH t values a family member is built from, by ell: t of C, t of
# C' (for F4, of the ambient code the coset is taken from) and, for F4
# only, t of C1.  F5 is propagated from F0 at ell + 1 (Calderbank, Rains,
# Shor and Sloane, IEEE Trans. IT 44, 1998, Thm 6), so it has F0's t
# values there.
_FAMILY_TS = {
    "F0": lambda ell: (3 * ell - 1, 2 * ell - 1, None),
    "F2": lambda ell: (3 * ell, 2 * ell, None),
    "F3": lambda ell: (3 * ell + 1, 2 * ell, None),
    "F4": lambda ell: (3 * ell + 1, 2 * ell, 2 * ell + 1),
    "F5": lambda ell: _FAMILY_TS["F0"](ell + 1),
}
FAMILIES = tuple(_FAMILY_TS)


class Gf2mField:
    """GF(2^m) with log/antilog tables over a primitive polynomial."""

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLYS:
            raise ValueError(f"m must be in [2, 16], got {m}")
        self.m = m
        modulus = PRIMITIVE_POLYS[m]
        size = 1 << m
        self.antilog = [0] * (size - 1)
        self.log = [0] * size
        x = 1
        for i in range(size - 1):
            self.antilog[i] = x
            self.log[x] = i
            x <<= 1
            if x & size:
                x ^= modulus
        if x != 1 or len(set(self.antilog)) != size - 1:
            raise ValueError(f"modulus {modulus:#b} is not primitive for m={m}")

    @property
    def order(self) -> int:
        return (1 << self.m) - 1

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog[(self.log[a] + self.log[b]) % self.order]

    def power(self, exp: int) -> int:
        """alpha^exp for the fixed primitive element alpha."""
        return self.antilog[exp % self.order]


@dataclass(frozen=True)
class BchSpec:
    """Primitive narrow-sense BCH code parameters (designed distance 2t+1)."""

    m: int
    t: int

    def __post_init__(self):
        if self.m not in PRIMITIVE_POLYS:
            raise ValueError(f"m must be in [2, 16], got {self.m}")
        if self.t < 0:
            raise ValueError("t must be >= 0")

    def in_dual_containing_regime(self) -> bool:
        return 2 * self.t + 1 <= (1 << ((self.m + 1) // 2)) - 1


@dataclass(frozen=True)
class FamilySpec:
    """One of the quantum code families F0, F2, F3, F4, F5."""

    family: str
    m: int
    ell: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.m not in PRIMITIVE_POLYS:
            raise ValueError(f"m must be in [2, 16], got {self.m}")

    def condition(self) -> bool:
        """Whether the member exists: every BCH t it is built from is in
        the dual-containing regime.  The t of C' is the least and the t
        of C the largest, so those two decide; t of C' >= 0 also forces
        ell >= 0."""
        tc, tp, _ = _FAMILY_TS[self.family](self.ell)
        return tp >= 0 and BchSpec(self.m, tc).in_dual_containing_regime()


def bch_code(spec: BchSpec) -> LinearCode:
    """The narrow-sense primitive BCH code of length 2^m - 1.

    Generator polynomial: g(x) = prod (x - alpha^r) over every root
    r = s 2^i mod n with s odd, s < 2t and i < m, the union of the
    2-cyclotomic cosets of 1, 3, ..., 2t - 1; that is the lcm of the
    minimal polynomials of alpha, alpha^3, ..., alpha^(2t-1).  Only the
    dual-containing regime is accepted; t = 0 yields the full [n, n, 1]
    space.
    """
    if not spec.in_dual_containing_regime():
        raise CodeConstructionError(
            f"designed distance {2 * spec.t + 1} violates the dual-containment "
            f"regime 2t+1 <= 2^ceil(m/2) - 1 for m={spec.m}"
        )
    m, t = spec.m, spec.t
    n = (1 << m) - 1
    if n > MAX_LENGTH:  # refused before the field and 2^m big-int rows are built
        raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
    field = Gf2mField(m)
    gen = [1]  # coefficients in GF(2^m), x^0 first
    for r in {(s << i) % n for s in range(1, 2 * t, 2) for i in range(m)}:
        root = field.power(r)
        gen = [a ^ field.mul(root, b) for a, b in zip([0] + gen, gen + [0])]
    assert all(c in (0, 1) for c in gen)
    k = n - (len(gen) - 1)
    # Row i is x^i g(x), coefficient j at coordinate j: g's coefficients
    # from x^0 up, as a word, starting at coordinate i.
    g = int("".join(map(str, gen)), 2)
    code = LinearCode([g << (k - 1 - i) for i in range(k)], n)
    if t >= 1 and code.k != n - m * t:
        raise CodeConstructionError(
            f"dimension {code.k} != {n - m * t}: outside the clean BCH regime"
        )
    return code


def extended_bch(m: int, t: int) -> LinearCode:
    """Parity extension of the BCH code: [2^m, 2^m - 1 - mt, 2t + 2]."""
    return extend_parity(bch_code(BchSpec(m, t)))


def verify_nesting(m: int) -> bool:
    """Check the chain property and dual containment for every valid t."""
    specs = itertools.takewhile(BchSpec.in_dual_containing_regime, (BchSpec(m, t) for t in itertools.count(1)))
    codes = [bch_code(spec) for spec in specs]
    for smaller, larger in zip(codes[1:], codes):
        if not is_subcode(smaller, larger):
            return False
    return all(is_dual_containing(c) for c in codes)


def family_params(spec: FamilySpec) -> tuple[int, int, int]:
    """[[n, K, d]] of the member, from its BCH t values, without building
    anything: n = 2^m, K = k(t of C) + k' - n with k(t) = 2^m - 1 - m*t
    and k' = k(t of C'), or k(t of C1) + 1 for F4's one added coset, and
    d = `family_bound`.  F5 adds one to K and takes one from d."""
    tc, tp, t1 = _FAMILY_TS[spec.family](spec.ell)
    if not spec.condition():
        raise CodeConstructionError(
            f"{spec.family} m={spec.m} ell={spec.ell} needs BCH t={tp if tp < 0 else tc}, outside "
            "the dual-containing regime t >= 0, 2t+1 <= 2^ceil(m/2) - 1"
        )
    n, m, d = 1 << spec.m, spec.m, family_bound(spec)
    K = (n - 1 - m * tc) + (n - 1 - m * tp if t1 is None else n - m * t1) - n
    return (n, K + 1, d - 1) if spec.family == "F5" else (n, K, d)


def family_bound(spec: FamilySpec) -> int:
    """The enlargement bound min(d(C), d2(C')) for a family member,
    proven from the t values it is built from (for F5, those of F0 at
    ell + 1, whose bound `family_params` lowers by one):

    (a) d(extended_bch(m, t)) >= 2t + 2: the BCH bound, plus the parity
        bit, which makes every odd weight even;
    (b) d2 >= ceil(3d/2) for a code of minimum distance d: two distinct
        nonzero words a, b cover (wt a + wt b + wt(a + b)) / 2 positions;
    (c) for F4, C' = C1 + <c> inside the ambient code A: a 2-dimensional
        subspace not within C1 holds one word of C1 and two of A, so
        d2(C') >= ceil((d(C1) + 2 d(A)) / 2), which (b) on C1 does not
        undercut because d(C1) >= d(A).

    With k' - k >= 2 the row mixing turns this into a proven quantum
    distance bound, and so does CSS(C, C) at k' = k (F2 at ell = 0).
    F4 at ell = 0 (C1 = C) has k' = k + 1, where no mixing applies: the
    chain then bounds only the classical d(C) and d2(C'), and the
    quantum distance is certified by `certified_enlarge`'s scan or coset
    sweep, not proven (it is 3 at every m >= 3, below the 4 returned
    here; see the README's theorem).
    """
    dc, dp, d1 = (None if t is None else 2 * t + 2 for t in _FAMILY_TS[spec.family](spec.ell))  # (a)
    d2 = -(-3 * dp // 2) if d1 is None else -(-(d1 + 2 * dp) // 2)  # (b), (c)
    return min(dc, d2)


def coset_extend(C1: LinearCode, big: LinearCode) -> LinearCode:
    """span(C1 + {c}) for the lexicographically smallest c in big \\ C1.

    The lex-smallest words of the cosets of C1 in big, with 0, are the
    span of the quotient basis of `gf2._completion_rows`, so c is its
    last row: any other combination has a higher pivot.  The same call
    decides C1 <= big.
    """
    if C1.n != big.n:
        raise ValueError(f"length mismatch: {C1.n} != {big.n}")
    rows, quotient = _completion_rows(C1, big)
    if C1.k + len(rows) != big.k:
        raise CodeConstructionError("C1 is not a subcode of the ambient code")
    if not quotient:
        raise CodeConstructionError("ambient code equals C1: no coset to add")
    return LinearCode(C1.basis_ints() + [quotient[-1]], C1.n)


def build_family_code(spec: FamilySpec, cap: int = DEFAULT_ENUM_CAP) -> QuantumCode:
    """Construct the family member as an explicit stabilizer code.

    F0/F2/F3 run the enlargement on parity-extended nested BCH codes
    (F2 at ell = 0 has C' = C: CSS(C, C)); F4 enlarges into the union of
    a BCH code with one coset inside the next code of the chain.  F5 has
    no in-scope construction and is refused (its parameters remain
    available via family_params).  The distance bound passed on is
    `family_bound`'s, and K is checked against the BCH dimensions.
    `cap` bounds the scans `certified_enlarge` runs, as everywhere.
    """
    _, K, _ = family_params(spec)
    if spec.family == "F5":
        raise CodeConstructionError(
            "F5 is a parameters-only family (derived from F0 by an external "
            "construction); use family_params"
        )
    tc, tp, t1 = _FAMILY_TS[spec.family](spec.ell)
    C, Cp = extended_bch(spec.m, tc), extended_bch(spec.m, tp)
    if t1 is not None:  # F4; at ell = 0, C1 is C
        Cp = coset_extend(C if t1 == tc else extended_bch(spec.m, t1), Cp)
    Q = certified_enlarge(C, Cp, d_lower=family_bound(spec), cap=cap)
    if Q.K != K:
        raise CodeConstructionError(
            f"constructed K={Q.K} disagrees with K={K} from the BCH dimensions"
        )
    return Q
