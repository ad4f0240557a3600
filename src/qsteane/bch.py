"""Primitive narrow-sense BCH codes over GF(2^m) and the quantum code
families built from their nested, dual-containing chain.

Dual containment holds exactly when the designed distance 2t+1 stays
below 2^ceil(m/2); inside that regime the codes have dimension
2^m - 1 - m*t and true distance equal to the designed one (verified
exhaustively at desk scale by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf2 import DEFAULT_ENUM_CAP, CodeConstructionError, LinearCode, _completion_rows, _residuals, extend_parity, is_dual_containing, is_subcode, rref_ints
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

FAMILIES = ("F0", "F2", "F3", "F4", "F5")


class Gf2mField:
    """GF(2^m) with log/antilog tables over a primitive polynomial."""

    def __init__(self, m: int, modulus: Optional[int] = None):
        if m not in PRIMITIVE_POLYS:
            raise ValueError(f"m must be in [2, 16], got {m}")
        self.m = m
        self.modulus = modulus if modulus is not None else PRIMITIVE_POLYS[m]
        size = 1 << m
        self.antilog = [0] * (size - 1)
        self.log = [0] * size
        x = 1
        for i in range(size - 1):
            self.antilog[i] = x
            self.log[x] = i
            x <<= 1
            if x & size:
                x ^= self.modulus
        if x != 1 or len(set(self.antilog)) != size - 1:
            raise ValueError(f"modulus {self.modulus:#b} is not primitive for m={m}")

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

    def condition(self) -> tuple[bool, str]:
        """(holds, text) for the family's validity condition on (m, ell)."""
        half = 1 << ((self.m + 1) // 2)
        checks = {
            "F0": (self.ell >= 1 and 6 * self.ell <= half, "6*ell <= 2^ceil(m/2) with ell >= 1"),
            "F2": (self.ell >= 0 and 6 * self.ell + 2 <= half, "6*ell + 2 <= 2^ceil(m/2)"),
            "F3": (self.ell >= 0 and 6 * self.ell + 4 <= half, "6*ell + 4 <= 2^ceil(m/2)"),
            "F4": (self.ell >= 0 and 6 * self.ell + 4 <= half, "6*ell + 4 <= 2^ceil(m/2)"),
            "F5": (self.ell >= 0 and 6 * self.ell + 6 <= half, "6*ell + 6 <= 2^ceil(m/2)"),
        }
        return checks[self.family]


def cyclotomic_cosets(m: int) -> list[list[int]]:
    """2-cyclotomic cosets mod 2^m - 1, ordered by smallest element."""
    if not 2 <= m <= 16:
        raise ValueError("m must be in [2, 16]")
    n = (1 << m) - 1
    seen = [False] * n
    cosets = []
    for s in range(n):
        if seen[s]:
            continue
        coset = []
        x = s
        while not seen[x]:
            seen[x] = True
            coset.append(x)
            x = (2 * x) % n
        cosets.append(sorted(coset))
    return cosets


def _minimal_poly(field: Gf2mField, coset: list[int]) -> list[int]:
    """Coefficients (GF(2^m), low degree first) of prod_{j in coset} (x - alpha^j)."""
    poly = [1]
    for j in coset:
        root = field.power(j)
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] ^= c
            nxt[i] ^= field.mul(c, root)
        poly = nxt
    return poly


def bch_code(spec: BchSpec) -> LinearCode:
    """The narrow-sense primitive BCH code of length 2^m - 1.

    Generator polynomial: lcm of the minimal polynomials of
    alpha, alpha^3, ..., alpha^(2t-1).  Only the dual-containing regime
    is accepted; t = 0 yields the full [n, n, 1] space.
    """
    if not spec.in_dual_containing_regime():
        raise CodeConstructionError(
            f"designed distance {2 * spec.t + 1} violates the dual-containment "
            f"regime 2t+1 <= 2^ceil(m/2) - 1 for m={spec.m}"
        )
    m, t = spec.m, spec.t
    n = (1 << m) - 1
    field = Gf2mField(m)
    coset_of = {}
    for coset in cyclotomic_cosets(m):
        for s in coset:
            coset_of[s] = coset
    gen_poly = 1
    covered: set[int] = set()
    for s in range(1, 2 * t + 1):
        if s in covered:
            continue
        coset = coset_of[s]
        covered.update(coset)
        coeffs = _minimal_poly(field, coset)
        assert all(c in (0, 1) for c in coeffs)
        block = sum(c << i for i, c in enumerate(coeffs))
        gen_poly = _poly_mul_gf2(gen_poly, block)
    k = n - (gen_poly.bit_length() - 1)
    # Row i is x^i g(x), coefficient j at coordinate j: g's coefficients
    # read from x^0 up, as a word, starting at coordinate i.
    g = int(format(gen_poly, "b")[::-1], 2)
    code = LinearCode([g << (k - 1 - i) for i in range(k)], n)
    if t >= 1 and code.k != n - m * t:
        raise CodeConstructionError(
            f"dimension {code.k} != {n - m * t}: outside the clean BCH regime"
        )
    return code


def _poly_mul_gf2(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def extended_bch(m: int, t: int) -> LinearCode:
    """Parity extension of the BCH code: [2^m, 2^m - 1 - mt, 2t + 2]."""
    return extend_parity(bch_code(BchSpec(m, t)))


def verify_nesting(m: int) -> bool:
    """Check the chain property and dual containment for every valid t."""
    t_max = ((1 << ((m + 1) // 2)) - 2) // 2
    codes = [bch_code(BchSpec(m, t)) for t in range(1, t_max + 1)]
    for smaller, larger in zip(codes[1:], codes):
        if not is_subcode(smaller, larger):
            return False
    return all(is_dual_containing(c) for c in codes)


def family_params(spec: FamilySpec) -> tuple[int, int, int]:
    """Closed-form [[n, K, d]] for the family, without building anything."""
    holds, text = spec.condition()
    if not holds:
        raise CodeConstructionError(
            f"{spec.family} requires {text}; violated by m={spec.m}, ell={spec.ell}"
        )
    n = 1 << spec.m
    m, ell = spec.m, spec.ell
    if spec.family == "F0":
        return (n, n - (5 * ell - 2) * m - 2, 6 * ell)
    if spec.family == "F2":
        return (n, n - 5 * ell * m - 2, 6 * ell + 2)
    if spec.family == "F3":
        return (n, n - (5 * ell + 1) * m - 2, 6 * ell + 3)
    if spec.family == "F4":
        return (n, n - (5 * ell + 2) * m - 1, 6 * ell + 4)
    return (n, n - (5 * ell + 3) * m - 1, 6 * ell + 5)


def coset_extend(C1: LinearCode, big: LinearCode) -> LinearCode:
    """span(C1 + {c}) for the lexicographically smallest c in big \\ C1.

    The lex-smallest word of a coset c + C1 is the residual of c modulo
    C1 (`gf2._residuals`), which is linear in c.  So the leaders of the
    cosets of C1 in big, with 0, are the span of the residuals of the
    completion rows, and c, the smallest nonzero word of that span, is
    the last row of its rref: any other combination has a higher pivot.
    """
    if not is_subcode(C1, big):
        raise CodeConstructionError("C1 is not a subcode of the ambient code")
    if big.k < C1.k + 1:
        raise CodeConstructionError("ambient code equals C1: no coset to add")
    leaders, rank, _ = rref_ints(_residuals(_completion_rows(C1, big), C1), C1.n)
    return LinearCode(C1.basis_ints() + [leaders[rank - 1]], C1.n)


def build_family_code(spec: FamilySpec, cap: int = DEFAULT_ENUM_CAP) -> QuantumCode:
    """Construct the family member as an explicit stabilizer code.

    F0/F2/F3 run the enlargement on parity-extended nested BCH codes;
    F4 enlarges into the union of a BCH code with one coset inside the
    next code of the chain.  F5 has no in-scope construction and is
    refused (its parameters remain available via family_params).  `cap`
    bounds the scans `certified_enlarge` runs, as everywhere.
    """
    n, K, d = family_params(spec)
    m, ell = spec.m, spec.ell
    if spec.family == "F5":
        raise CodeConstructionError(
            "F5 is a parameters-only family (derived from F0 by an external "
            "construction); use family_params"
        )
    if spec.family == "F0":
        C, Cp = extended_bch(m, 3 * ell - 1), extended_bch(m, 2 * ell - 1)
    elif spec.family == "F2":
        C, Cp = extended_bch(m, 3 * ell), extended_bch(m, 2 * ell)
    elif spec.family == "F3":
        C, Cp = extended_bch(m, 3 * ell + 1), extended_bch(m, 2 * ell)
    else:  # F4
        C = extended_bch(m, 3 * ell + 1)
        C1 = extended_bch(m, 2 * ell + 1)
        Cp = coset_extend(C1, extended_bch(m, 2 * ell))
    if Cp.k == C.k:
        raise CodeConstructionError(
            f"{spec.family} degenerates at ell={ell}: C' equals C, so there "
            "is nothing to enlarge (the closed-form parameters still hold)"
        )
    Q = certified_enlarge(C, Cp, d_lower=d, cap=cap)
    if Q.K != K:
        raise CodeConstructionError(
            f"constructed K={Q.K} disagrees with the closed form K={K}"
        )
    return Q
