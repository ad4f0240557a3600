"""Steane enlargement of dual-containing binary codes.

Builds the 2n-column generator

    (G  | 0  )
    (0  | G  )
    (G' | H' )

from a dual-containing C with generator G and an enlargement C' whose
basis extends G by G'.  H' is G' under a fix-point-free invertible
linear map of its rows, which proves the distance bound when G' has at
least two rows.  With one row, H' matters only through its coset of C:
the zero coset is scanned first, and when it falls short of the bound,
one batched sweep over the pairs of C-perp x C-perp gives the exact
distance of every coset at once.  Also provides the stabilizer checks
and the search that recovers a self-dual code sitting between C'-perp
and C': a depth-first walk over the isotropic subspaces of C'/C'-perp,
which reads each candidate's distance off a table of coset weights and
cuts every branch lighter than the best code found.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .distances import _coset_weights, min_distance, quantum_distance_exact, second_gdw
from .enumerators import CertificateError, _coset_distances, _coset_word
from .gf2 import (
    DEFAULT_ENUM_CAP,
    MAX_LENGTH,
    CodeConstructionError,
    EnumerationCapError,
    LinearCode,
    _all_in,
    _completion_rows,
    dual,
    is_dual_containing,
    is_subcode,
)


@dataclass
class QuantumCode:
    """An [[n, K, d]] stabilizer code given by its generator halves:
    generator i is (gx[i] | gz[i]), each half a word of length n."""

    n: int
    gx: tuple
    gz: tuple
    K: int
    d_lower: int
    d_exact: Optional[int] = None
    #: True when the construction itself proves distance >= d_lower
    #: (fix-point-free row mixing); False means the bound is a claim
    #: needing exhaustive certification.
    bound_proven: bool = False

    def __post_init__(self):
        self.gx, self.gz = tuple(self.gx), tuple(self.gz)
        if not 0 < self.n <= MAX_LENGTH:
            raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
        if len(self.gx) != len(self.gz):
            raise ValueError("gx/gz shape mismatch: different row counts")
        if any(r < 0 or r >> self.n for r in self.gx + self.gz):
            raise ValueError(f"gx/gz shape mismatch: row outside [0, 2^{self.n})")

    @property
    def num_generators(self) -> int:
        return len(self.gx)

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
    if not is_dual_containing(C):
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
    gx = g_rows + [0] * len(g_rows) + gp_rows
    gz = [0] * len(g_rows) + g_rows + mixed

    if d_lower is None:
        d_lower = min(min_distance(C, cap=cap).value, second_gdw(Cp, cap=cap).value)
    return QuantumCode(
        n=n,
        gx=gx,
        gz=gz,
        K=C.k + Cp.k - n,
        d_lower=d_lower,
        bound_proven=halves is None,
    )


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
    choice: the words supported off the pivot columns of rref(C), the
    i-th setting the free columns picked by the bits of i, from v = 0.

    The zero coset is scanned first with `quantum_distance_exact`, when
    its k + k' generators are within the cap, and returned if it reaches
    the bound.  Otherwise every coset's exact distance comes from one
    sweep over the 2^(2(n-k)) pairs of C-perp x C-perp
    (`enumerators._coset_distances`), run when 2(n - k) <= cap.  A
    dual-containing C has n - k <= k, so every zero coset within reach
    of the scan is within reach of the sweep too.  The sweep's
    temporaries are bounded by its blocks of 2^16 pairs; it keeps
    2^(n-k) * (n + 1) int64 counts.  The first coset to reach the bound
    is returned, else the first of highest exact distance: the zero
    coset's code with its last second half replaced.  When the sweep is
    out of reach the zero coset is returned uncertified.
    """
    if Cp.k - C.k >= 2:
        return steane_enlarge(C, Cp, d_lower=d_lower, cap=cap)

    zero = steane_enlarge(C, Cp, [0], d_lower=d_lower, cap=cap)
    d_lower = zero.d_lower
    if C.k + Cp.k <= cap:
        zero.d_exact = quantum_distance_exact(zero, cap=cap).value
        if zero.d_exact >= d_lower:
            return zero
    if 2 * (C.n - C.k) > cap:
        return zero
    ds = _coset_distances(C, zero.gx[-1], d_lower - 1)
    if zero.d_exact is not None and ds[0] != zero.d_exact:
        raise CertificateError(f"coset sweep gives d={ds[0]} for v = 0, the scan d={zero.d_exact}")
    best = next((i for i, d in enumerate(ds) if d >= d_lower), None)
    if best is None:
        best = ds.index(max(ds))
    return dataclasses.replace(zero, gz=zero.gz[:-1] + (_coset_word(C, best),), d_exact=ds[best])


def symplectic_dual(Q: QuantumCode) -> list[int]:
    """Basis (Hx|Hz) of all (vx|vz) with Gx.vz^T + Gz.vx^T = 0.

    Returned as the 2n - r rref rows of a 2n-column matrix, vx in
    columns 0 .. n-1 and vz in columns n .. 2n-1: row >> n is vx and
    row & (2^n - 1) is vz.
    """
    n = Q.n
    # Null space of the r x 2n matrix [Gz | Gx]: symplectic orthogonality
    # swaps the halves against (vx | vz).
    return dual(LinearCode([z << n | x for x, z in zip(Q.gx, Q.gz)], 2 * n)).basis_ints()


def is_stabilizer_code(Q: QuantumCode) -> bool:
    """True iff the symplectic dual of C lies inside C (C-perp <= C)."""
    n = Q.n
    span = LinearCode([x << n | z for x, z in zip(Q.gx, Q.gz)], 2 * n)
    return _all_in(symplectic_dual(Q), span)


def _lift(v: int, rows: Sequence[int]) -> int:
    """Sum of the rows picked by the bits of v."""
    w = 0
    for i, row in enumerate(rows):
        if v >> i & 1:
            w ^= row
    return w


def _isotropic_bases(
    reps: Sequence[int], r: int, weights: Sequence[int], prune: Callable[[int], bool]
) -> Iterator[tuple[list[int], int]]:
    """Depth-first walk over the r-dimensional isotropic subspaces V of
    GF(2)^q, q = len(reps).

    A vector v stands for lift(v), the sum of the reps its bits pick; V
    is isotropic when every lift in it has even weight and any two are
    orthogonal.  Yields (rows, m) per V: its canonical rref basis, each
    row's pivot its lowest set bit, pivots ascending, and m, the minimum
    of `weights` over V with weights[0] counted.

    Rows are filled from the last to the first, so a row's free columns
    are known once every later pivot is fixed.  A row is rejected as
    soon as its lift is odd or not orthogonal to a chosen row's lift,
    and a branch is cut when prune(m) holds for the minimum m over its
    partial span, which can only fall as rows are added.
    """
    q = len(reps)
    # Gram data of the representatives: row i of the induced bilinear
    # form, and the self-product (parity of weight), linear over GF(2).
    # A lift is odd or meets a chosen lift oddly iff v has odd overlap
    # with `odd` or with that lift's Gram row.
    gram = [sum(((reps[i] & reps[j]).bit_count() & 1) << j for j in range(q)) for i in range(q)]
    odd = sum((rep.bit_count() & 1) << i for i, rep in enumerate(reps))

    def extend(rows, checks, span, m, top, pivots):
        i = r - 1 - len(rows)  # the row to fill; its pivot lies in [i, top)
        for p in range(i, top):
            free = ((1 << q) - (2 << p)) & ~pivots
            sub = free
            while True:
                v = (1 << p) | sub
                if not any((c & v).bit_count() & 1 for c in checks):
                    new = [x ^ v for x in span]
                    low = min(m, min([weights[x] for x in new]))
                    if not prune(low):
                        if i == 0:
                            yield [v] + rows, low
                        else:
                            yield from extend(
                                [v] + rows, checks + [_lift(v, gram)], span + new, low, p, pivots | 1 << p
                            )
                if not sub:
                    break
                sub = (sub - 1) & free

    yield from extend([], [odd], [0], weights[0], q, 0)


def find_self_dual_subcode(Cp: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> LinearCode:
    """Search for a self-dual [n, n/2] code C with dual(C') <= C <= C'.

    Every such C is dual(C') plus the lift of an r-dimensional isotropic
    subspace of the quotient C'/dual(C'), r = k' - n/2.  A table holds
    the lightest word of each coset of dual(C') in C' (and of dual(C')
    itself), so a candidate's minimum distance is the table's minimum
    over its subspace.  The search walks the isotropic subspaces depth
    first and cuts every branch whose partial span already holds a word
    lighter than the best candidate found; only the surviving leaves
    become codes.  The winner is the candidate of maximum minimum
    distance, ties broken by the lexicographically smallest canonical
    generator matrix.  That key is unique per code, so the result does
    not depend on the order of the walk.

    A self-dual C' is returned as it is.  Otherwise the table walks all
    2^k' words of C', so k' > cap raises EnumerationCapError before the
    search starts.
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
    if kp > cap:
        raise EnumerationCapError(
            f"coset-weight table over 2^{kp} words of C' exceeds cap k' <= {cap}"
        )

    # Coset representatives spanning C'/dual(C').
    perp_basis = Cperp.basis_ints()
    reps = _completion_rows(Cperp, Cp)
    weights = _coset_weights(perp_basis, reps, n)
    best_d, best_key, best = 0, None, None
    for rows, d in _isotropic_bases(reps, r, weights, lambda m: m < best_d):
        cand = LinearCode(perp_basis + [_lift(v, reps) for v in rows], n)
        assert cand.k == n // 2
        key = cand.canonical_key()
        if best is None or d > best_d or key < best_key:
            best_d, best_key, best = d, key, cand
    # Never None: a dual-containing C' of even length holds the all-ones
    # word and hence a self-dual subcode, and nothing is pruned before the
    # first leaf (best_d = 0).
    assert best is not None
    return best
