"""Steane enlargement of dual-containing binary codes.

Builds the 2n-column generator

    (G  | 0  )
    (0  | G  )
    (G' | H' )

from a dual-containing C with generator G and an enlargement C' whose
basis extends G by G'.  H' is G' under a fix-point-free invertible
linear map of its rows, which proves the distance bound when G' has at
least two rows; with one row, H' is swept over the cosets of C and
each choice is certified by exhaustive scan.  Also provides the
stabilizer checks and the isotropic-subspace search that recovers a
self-dual code sitting between C'-perp and C'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .distances import min_distance, quantum_distance_exact, second_gdw
from .gf2 import (
    DEFAULT_ENUM_CAP,
    BinaryMatrix,
    CodeConstructionError,
    LinearCode,
    dual,
    is_subcode,
    rref_ints,
)


@dataclass
class QuantumCode:
    """An [[n, K, d]] stabilizer code given by its generator halves."""

    n: int
    Gx: BinaryMatrix
    Gz: BinaryMatrix
    K: int
    d_lower: int
    d_exact: Optional[int] = None
    #: True when the construction itself proves distance >= d_lower
    #: (fix-point-free row mixing); False means the bound is a claim
    #: needing exhaustive certification.
    bound_proven: bool = False

    def __post_init__(self):
        if self.Gx.rows != self.Gz.rows or self.Gx.cols != self.n or self.Gz.cols != self.n:
            raise ValueError("Gx/Gz shape mismatch")

    @property
    def num_generators(self) -> int:
        return self.Gx.rows

    def params(self) -> tuple[int, int, int]:
        return (self.n, self.K, self.d_exact if self.d_exact is not None else self.d_lower)

    def __repr__(self):
        n, K, d = self.params()
        tag = "" if self.d_exact is not None else ">="
        return f"QuantumCode[[{n},{K},{tag}{d}]]"


def mix_completion_rows(rows: Sequence[int]) -> list[int]:
    """Image of the completion rows under a fix-point-free invertible
    linear map of their span.

    The map is the companion matrix of x^r + x + 1 acting on the row
    coefficients: it is invertible (nonzero constant term) and has no
    eigenvalue 1 (the polynomial does not vanish at 1), so every mixed
    combination differs from its preimage.  Needs r >= 2.
    """
    r = len(rows)
    if r < 2:
        raise CodeConstructionError("row mixing needs at least two completion rows")
    # Companion action: e_i -> e_{i+1} for i < r-1, and the reduction
    # x^r = x + 1 sends e_{r-1} -> e_0 + e_1.
    return [rows[i + 1] for i in range(r - 1)] + [rows[0] ^ rows[1]]


def steane_enlarge(
    C: LinearCode,
    Cp: LinearCode,
    halves: Optional[Sequence[int]] = None,
    *,
    d_lower: Optional[int] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> QuantumCode:
    """Assemble the enlargement quantum code from C and C' >= C.

    Requires dual(C) <= C and C a proper subcode of C'.  The logical
    dimension is K = k + k' - n; the constructive distance bound is
    min(d1(C), d2(C')), computed here unless supplied by the caller
    (closed-form family builds pass it in to avoid huge pair scans).

    `halves` gives the second halves of the completion rows explicitly,
    one word per row; the result is a stabilizer code for any choice,
    but its distance needs separate certification.  Without `halves`
    the fix-point-free linear row mixing produces them, which makes the
    distance bound provable outright; that needs k' - k >= 2.
    """
    if C.n != Cp.n:
        raise CodeConstructionError("C and C' have different lengths")
    if not is_subcode(dual(C), C):
        raise CodeConstructionError("C is not dual-containing: dual(C) not within C")
    if not is_subcode(C, Cp):
        raise CodeConstructionError("C is not a subcode of C'")
    if Cp.k < C.k + 1:
        raise CodeConstructionError(
            f"k' too small: enlargement needs k' > k, got k'={Cp.k}, k={C.k}"
        )
    n = C.n
    g_rows = C.basis_ints()
    gp_rows = _completion_rows(C, Cp)
    if halves is None:
        mixed = mix_completion_rows(gp_rows)
    elif len(halves) == len(gp_rows):
        mixed = list(halves)
    else:
        raise CodeConstructionError(
            f"{len(halves)} halves given for {len(gp_rows)} completion rows"
        )
    gx = [r for r in g_rows] + [0] * len(g_rows) + gp_rows
    gz = [0] * len(g_rows) + [r for r in g_rows] + mixed

    if d_lower is None:
        d_lower = min(min_distance(C, cap=cap).value, second_gdw(Cp, cap=cap).value)
    return QuantumCode(
        n=n,
        Gx=BinaryMatrix.from_rows(gx, n),
        Gz=BinaryMatrix.from_rows(gz, n),
        K=C.k + Cp.k - n,
        d_lower=d_lower,
        bound_proven=halves is None,
    )


def _completion_rows(C: LinearCode, Cp: LinearCode) -> list[int]:
    """Rows of rref(C') that extend the basis of C to a basis of C'."""
    basis = C.basis_ints()
    out = []
    for row in Cp.basis_ints():
        _, rank, _ = rref_ints(basis + out + [row], C.n)
        if rank > len(basis) + len(out):
            out.append(row)
    assert len(basis) + len(out) == Cp.k
    return out


def certified_enlarge(
    C: LinearCode,
    Cp: LinearCode,
    *,
    d_lower: Optional[int] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> QuantumCode:
    """Enlargement whose distance bound is proved or exhaustively checked.

    With at least two completion rows the fix-point-free row mixing
    applies and the bound min(d1(C), d2(C')) holds by construction.
    The k' = k + 1 case admits no such map.  Its one completion row w
    gets a second half v, and span{(C|0), (0|C), (w|v)} depends only on
    the coset v + C, so one representative per coset covers every
    choice: the words supported off the pivot columns of rref(C), in
    increasing order from 0.  Each is certified with the exact
    distance scan; the first to reach the bound is returned, else the
    first of highest exact distance.  When the scan is out of reach
    (too many generators) the first candidate is returned uncertified.
    """
    if d_lower is None:
        d_lower = min(min_distance(C, cap=cap).value, second_gdw(Cp, cap=cap).value)

    if Cp.k - C.k >= 2:
        return steane_enlarge(C, Cp, d_lower=d_lower, cap=cap)

    pivots = set(C._pivots)
    free = [c for c in range(C.n) if c not in pivots]
    best: Optional[QuantumCode] = None
    for i in range(1 << len(free)):
        v = sum(1 << c for j, c in enumerate(free) if (i >> j) & 1)
        Q = steane_enlarge(C, Cp, [v], d_lower=d_lower, cap=cap)
        if C.k + Cp.k > cap:
            return Q
        Q.d_exact = quantum_distance_exact(Q, cap=cap).value
        if Q.d_exact >= d_lower:
            return Q
        if best is None or Q.d_exact > best.d_exact:
            best = Q
    return best


def symplectic_dual(Q: QuantumCode) -> BinaryMatrix:
    """Basis (Hx|Hz) of all (vx|vz) with Gx.vz^T + Gz.vx^T = 0.

    Returned as a (2n - r) x 2n matrix whose left half is Hx and right
    half is Hz (column i of the x-part is bit i, z-part bit n+i).
    """
    n = Q.n
    gx, gz = Q.Gx.row_ints(), Q.Gz.row_ints()
    # Null space of the r x 2n matrix [Gz | Gx]: symplectic orthogonality
    # swaps the halves against (vx | vz).
    rows = [gz[i] | (gx[i] << n) for i in range(len(gx))]
    M = LinearCode(rows, 2 * n)
    return dual(M).gen


def is_stabilizer_code(Q: QuantumCode) -> bool:
    """True iff the symplectic dual of C lies inside C (C-perp <= C)."""
    n = Q.n
    gx, gz = Q.Gx.row_ints(), Q.Gz.row_ints()
    span = LinearCode([gx[i] | (gz[i] << n) for i in range(len(gx))], 2 * n)
    for row in symplectic_dual(Q).row_ints():
        if not span.contains_word(row):
            return False
    return True


def rref_subspaces(q: int, r: int) -> Iterator[list[int]]:
    """All r-dimensional subspaces of GF(2)^q, one canonical rref basis
    each, in a fixed deterministic order (pivot columns, then free bits)."""
    if not 0 <= r <= q:
        raise ValueError("need 0 <= r <= q")
    for pivots in itertools.combinations(range(q), r):
        pivset = set(pivots)
        # Free positions: in row i, columns right of pivots[i] that are
        # not pivot columns themselves.
        free = [
            [c for c in range(pivots[i] + 1, q) if c not in pivset]
            for i in range(r)
        ]
        slots = [(i, c) for i in range(r) for c in free[i]]
        for assign in range(1 << len(slots)):
            rows = [1 << pivots[i] for i in range(r)]
            for b, (i, c) in enumerate(slots):
                if (assign >> b) & 1:
                    rows[i] |= 1 << c
            yield rows


def find_self_dual_subcode(Cp: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> LinearCode:
    """Search for a self-dual [n, n/2] code C with dual(C') <= C <= C'.

    Scans every (k' - n/2)-dimensional subspace of the quotient
    C'/dual(C'), keeps the isotropic ones, and lifts the winner: the
    candidate of maximum minimum distance, ties broken by the
    lexicographically smallest canonical generator matrix.
    """
    n, kp = Cp.n, Cp.k
    if n % 2:
        raise CodeConstructionError("self-dual codes need even length")
    Cperp = dual(Cp)
    if not is_subcode(Cperp, Cp):
        raise CodeConstructionError("C' is not dual-containing")
    r = kp - n // 2
    if r < 0:
        raise CodeConstructionError("k' < n/2: no self-dual code can fit inside C'")
    if r == 0:
        return Cp  # C' is already self-dual

    # Coset representatives spanning C'/dual(C').
    reps = _completion_rows(Cperp, Cp)
    q = len(reps)  # = 2k' - n

    # Gram data of the representatives: the induced bilinear form and the
    # (linear over GF(2)) self-product q(u) = parity of weight.
    gram = [sum(((reps[i] & reps[j]).bit_count() & 1) << j for j in range(q)) for i in range(q)]
    self_prod = [reps[i].bit_count() & 1 for i in range(q)]

    def lift_ok(rows: Sequence[int]) -> bool:
        lifted_forms = []
        for v in rows:
            g = 0
            sq = 0
            for i in range(q):
                if (v >> i) & 1:
                    g ^= gram[i]
                    sq ^= self_prod[i]
            if sq:
                return False
            lifted_forms.append(g)
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                if (lifted_forms[a] & rows[b]).bit_count() & 1:
                    return False
        return True

    perp_basis = Cperp.basis_ints()
    best: Optional[tuple[int, tuple, LinearCode]] = None
    for rows in rref_subspaces(q, r):
        if not lift_ok(rows):
            continue
        lifted = []
        for v in rows:
            w = 0
            for i in range(q):
                if (v >> i) & 1:
                    w ^= reps[i]
            lifted.append(w)
        cand = LinearCode(perp_basis + lifted, n)
        assert cand.k == n // 2
        d = min_distance(cand, cap=cap).value
        key = (-d, cand.canonical_key())
        if best is None or key < best[:2]:
            best = (key[0], key[1], cand)
    if best is None:
        raise CodeConstructionError(
            "no isotropic subspace of the required dimension exists"
        )
    return best[2]
