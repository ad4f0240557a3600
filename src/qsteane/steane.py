"""Steane enlargement of dual-containing binary codes.

`certified_enlarge` builds the 2n-column generator

    (G  | 0  )
    (0  | G  )
    (G' | H' )

from a dual-containing C with generator G and an enlargement C' whose
basis extends G by G', and settles the built code's distance.  With no
row in G' (C' = C) the code is CSS(C, C), whose distance bound is
proven.  With at least two, H' is G' under a fix-point-free invertible
linear map of its rows, which proves the distance bound.  With one, H'
matters only through its coset of C: when the zero coset's code falls
short of the bound, one batched sweep over the pairs of C-perp x C-perp
gives the exact distance of every coset at once.  A built code's exact
distance comes from its stabiliser's weight enumerator when the
stabiliser is small, and from the error-side join otherwise.  Also
provides the stabilizer checks and the search that recovers a self-dual
code sitting between C'-perp and C': a depth-first walk over the
isotropic subspaces of C'/C'-perp, which reads each candidate's distance
off a table of coset weights and cuts every branch lighter than the best
code found.  Its pools of candidate rows are bitmasks over the
quotient's vectors, cut down by ANDs with masks of the walk's linear
conditions, and each leaf's canonical key is carried down the walk with
it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .distances import _coset_weights, _stabiliser_rows, min_distance, quantum_distance_exact, second_gdw
from .enumerators import CertificateError, _coset_distances, _coset_word, _stabiliser_distance
from .gf2 import (
    DEFAULT_ENUM_CAP,
    MAX_LENGTH,
    CodeConstructionError,
    EnumerationCapError,
    LinearCode,
    _all_in,
    _completion_rows,
    _quotient_basis,
    _unchecked_code,
    dual,
    is_dual_containing,
    is_subcode,
)

# `certified_enlarge` settles d from the stabiliser's weight enumerator
# when |S| <= 2^16, else by the error-side join.  Timed on random
# dual-containing pairs, n = 12..24 (2-core x86-64, numpy 2.4): the
# enumerator costs about 0.15 ms plus 8 ns per element of S, the join a
# near-fixed 0.3-0.9 ms for d <= 4.  At 2^16 the enumerator took 0.50-0.53
# ms against 0.64-0.74 ms at d = 3, 4; at 2^17, 0.76-0.78 ms against
# 0.34 ms at d = 2, and 1.3 ms against 0.67 ms at 2^18.
_ENUMERATOR_MAX_LOG = 16


@dataclass(frozen=True)
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
        object.__setattr__(self, "gx", tuple(self.gx))
        object.__setattr__(self, "gz", tuple(self.gz))
        if not 0 < self.n <= MAX_LENGTH:
            raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
        if len(self.gx) != len(self.gz):
            raise ValueError("gx/gz shape mismatch: different row counts")
        if any(r < 0 or r >> self.n for r in self.gx + self.gz):
            raise ValueError(f"gx/gz shape mismatch: row outside [0, 2^{self.n})")

    @property
    def num_generators(self) -> int:
        return len(self.gx)

    def __repr__(self):
        """[[n,K,d]]: d_exact when known, else ">=d_lower" for a proven
        bound and "d_lower?" for an unverified one."""
        if self.d_exact is not None:
            d = self.d_exact
        else:
            d = f">={self.d_lower}" if self.bound_proven else f"{self.d_lower}?"
        return f"QuantumCode[[{self.n},{self.K},{d}]]"


def mix_completion_rows(rows: Sequence[int]) -> list[int]:
    """Image of the completion rows under a fix-point-free invertible
    linear map of their span.

    The map is the companion matrix of x^r + x + 1 acting on the row
    coefficients: it is invertible (nonzero constant term) and has no
    eigenvalue 1 (the polynomial does not vanish at 1), so every mixed
    combination differs from its preimage.  No rows (C' = C) map to
    none; one row admits no such map and is refused.
    """
    if len(rows) == 1:
        raise CodeConstructionError("row mixing needs no completion row or at least two")
    # Companion action: e_i -> e_{i+1} for i < r-1, and the reduction
    # x^r = x + 1 sends e_{r-1} -> e_0 + e_1.
    return [*rows[1:], rows[0] ^ rows[1]] if rows else []


def certified_enlarge(
    C: LinearCode,
    Cp: LinearCode,
    *,
    d_lower: Optional[int] = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> QuantumCode:
    """The enlargement quantum code of C and C' >= C, its distance bound
    proved or exhaustively checked.

    Requires dual(C) <= C <= C' and K = k + k' - n >= 1 (K = 0 only
    for a self-dual C = C').  The distance bound is min(d1(C), d2(C')),
    computed here unless supplied by the caller (family builds pass the
    bound `bch.family_bound` proves, to avoid huge pair scans).  The
    completion rows G' get second halves H' by k' - k:

    - k' = k: no completion rows; the code is CSS(C, C), with
      stabiliser C-perp x C-perp.  A logical operator (x|z) has x or z
      in C but not in C-perp, so d >= d(C) = min(d(C), d2(C)) holds by
      construction.
    - k' - k >= 2: H' is G' under the fix-point-free row mixing
      (`mix_completion_rows`), and the bound holds by construction.
    - k' = k + 1 admits no such map.  The one completion row w gets a
      second half v, and span{(C|0), (0|C), (w|v)} depends only on the
      coset v + C, so one representative per coset covers every choice:
      the words supported off the pivot columns of rref(C), the i-th
      setting the free columns picked by the bits of i, from v = 0.

    The one place that settles a built code's exact distance.  When the
    k + k' generators are within the cap, d_exact comes from the cheaper
    of two exact methods; otherwise it is left None.  The generators are
    independent, so the stabiliser S has 2^(2n - k - k') elements.  Up
    to 2^16 (`_ENUMERATOR_MAX_LOG`), S's weight enumerator and the
    quantum MacWilliams identities give d
    (`enumerators._stabiliser_distance`, about 0.15 ms plus 8 ns per
    element of S).  Above it, `quantum_distance_exact` runs its
    error-side join, whose near-fixed 0.3-0.9 ms is then the smaller.
    With k' = k + 1 the zero coset's code is returned if its d reaches
    the bound.  Otherwise every coset's exact distance comes from one
    sweep over the 2^(2(n-k)) pairs of C-perp x C-perp
    (`enumerators._coset_distances`), run when 2(n - k) <= cap and
    checked against the zero coset's d.  A dual-containing C has
    n - k <= k, so every zero coset within reach of the scan is within
    reach of the sweep too.  The sweep keeps one block of temporaries
    (`gf2._blocks`) and 2^(n-k) * (n + 1) int64 counts.  The first
    coset to reach the bound is returned, else the first of highest
    exact distance.  When the sweep is out of reach the zero coset is
    returned uncertified.
    """
    if C.n != Cp.n:
        raise CodeConstructionError("C and C' have different lengths")
    if not is_dual_containing(C):
        raise CodeConstructionError("C is not dual-containing: dual(C) not within C")
    if not is_subcode(C, Cp):
        raise CodeConstructionError("C is not a subcode of C'")
    K = C.k + Cp.k - C.n
    if K < 1:
        raise CodeConstructionError(f"enlargement needs K = k + k' - n >= 1, got k={C.k}, k'={Cp.k}, n={C.n}")
    if d_lower is None:
        d_lower = min(min_distance(C, cap=cap).value, second_gdw(Cp, cap=cap).value)
    single = Cp.k == C.k + 1
    g_rows = C.basis_ints()
    gp_rows = _completion_rows(C, Cp)
    Q = QuantumCode(
        n=C.n,
        gx=g_rows + [0] * C.k + gp_rows,
        gz=[0] * C.k + g_rows + ([0] if single else mix_completion_rows(gp_rows)),
        K=K,
        d_lower=d_lower,
        bound_proven=not single,
    )
    if Q.num_generators <= cap:
        # The generators are independent, so 2n - r is log2 |S|.
        if 2 * Q.n - Q.num_generators <= _ENUMERATOR_MAX_LOG:
            d = _stabiliser_distance(Q.gx, Q.gz, Q.n)
        else:
            d = quantum_distance_exact(Q, cap=cap).value
        Q = dataclasses.replace(Q, d_exact=d)
    if not single or 2 * (C.n - C.k) > cap or Q.d_exact is not None and Q.d_exact >= d_lower:
        return Q
    ds = _coset_distances(C, gp_rows[0])
    if Q.d_exact is not None and ds[0] != Q.d_exact:
        raise CertificateError(f"coset sweep gives d={ds[0]} for v = 0, the scan d={Q.d_exact}")
    best = next((i for i, d in enumerate(ds) if d >= d_lower), None)
    if best is None:
        best = ds.index(max(ds))
    return dataclasses.replace(Q, gz=Q.gz[:-1] + (_coset_word(C, best),), d_exact=ds[best])


def symplectic_dual(Q: QuantumCode) -> list[int]:
    """Basis (Hx|Hz) of all (vx|vz) with Gx.vz^T + Gz.vx^T = 0.

    Returned as the 2n - r rref rows of a 2n-column matrix, vx in
    columns 0 .. n-1 and vz in columns n .. 2n-1: row >> n is vx and
    row & (2^n - 1) is vz.
    """
    return _unchecked_code(_stabiliser_rows(Q.gx, Q.gz, Q.n), 2 * Q.n).basis_ints()


def is_stabilizer_code(Q: QuantumCode) -> bool:
    """True iff the symplectic dual of C lies inside C (C-perp <= C)."""
    n = Q.n
    span = _unchecked_code([x << n | z for x, z in zip(Q.gx, Q.gz)], 2 * n)
    return _all_in(symplectic_dual(Q), span)


def _isotropic_bases(
    lifts: Sequence[int], r: int, weights: Sequence[int], perp: Sequence[int], prune: Callable[[int], bool]
) -> Iterator[tuple[list[int], int, tuple]]:
    """Depth-first walk over the r-dimensional isotropic subspaces V of
    GF(2)^q, 2^q = len(lifts): every lifts[v], v in V, is even and any
    two are orthogonal.  Yields (basis, m, key) per V: the lifts of its
    canonical rref basis (each row's pivot its lowest set bit), last row
    first; m, the minimum of `weights` over V with weights[0] counted;
    and the canonical key of span(perp + basis), for perp an rref basis
    on whose pivot columns every lift is zero.

    Rows are filled from the last to the first, each from a pool of the
    v that can still follow the rows chosen so far: lift even and
    orthogonal to theirs, pivot below the last chosen pivot, no bit at
    any chosen pivot.  A pool is a bitmask over [0, 2^q), and choosing a
    row takes a few ANDs of it with fixed masks: bit[j] holds the v with
    bit j set and mult[j] the multiples of 2^j.  Evenness and
    orthogonality to lifts[u] are linear in v, <v, parity> = 0 and
    <v, gram[u]> = 0, so the v that break them are an XOR of bit masks.
    A branch is cut when prune(m) holds for the minimum m over its
    partial span, which can only fall as rows are added.

    perp's rows go down the walk reduced by the lifts chosen so far: a
    lift clears its pivot, its highest bit, in a row w by
    min(w, w ^ lift).  A leaf's key is then those rows and its basis,
    sorted.
    """
    size = len(lifts)
    q = size.bit_length() - 1

    def tile(pattern, period):
        # The pattern of bits 0 .. period - 1 repeated over [0, 2^q).
        while period < size:
            pattern |= pattern << period
            period <<= 1
        return pattern

    mult = [tile(1, 1 << j) for j in range(q)]
    bit = [tile(((1 << (1 << j)) - 1) << (1 << j), 2 << j) for j in range(q)]

    def odd(a):
        """The v with <v, a> = 1."""
        mask = 0
        while a:
            j = a.bit_length() - 1
            mask ^= bit[j]
            a ^= 1 << j
        return mask

    # <lifts[u], lifts[v]> = <u, gram[v]>, and wt(lifts[v]) is odd iff
    # <v, parity> = 1: both are linear over the reps lifts[1 << j].
    reps = [lifts[1 << j] for j in range(q)]
    gram = [0]
    for rep in reps:
        col = sum(((rep & other).bit_count() & 1) << k for k, other in enumerate(reps))
        gram += [g ^ col for g in gram]
    parity = sum((rep.bit_count() & 1) << j for j, rep in enumerate(reps))

    def extend(i, chosen, reduced, pool, span, m):
        # Fill row i from the v of the pool with pivot at least i; chosen
        # holds the lifts of the rows above it, reduced perp's rows.
        cand = pool & mult[i]
        if i == 0:
            while cand:
                v = cand.bit_length() - 1
                cand ^= 1 << v
                low = min(m, min([weights[x ^ v] for x in span]))
                if not prune(low):
                    lift = lifts[v]
                    basis = chosen + [lift]
                    key = basis + [min(w, w ^ lift) for w in reduced]
                    key.sort(reverse=True)
                    yield basis, low, tuple(key)
            return
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            new = [x ^ v for x in span]
            low = min(m, min([weights[x] for x in new]))
            if prune(low):
                continue
            # What follows has no bit at v's pivot p, a bit below it, and
            # a lift orthogonal to v's.
            p = (v & -v).bit_length() - 1
            sub = pool & ~(bit[p] | mult[p] | odd(gram[v]))
            lift = lifts[v]
            yield from extend(i - 1, chosen + [lift], [min(w, w ^ lift) for w in reduced], sub, span + new, low)

    # The first pool: every nonzero v with an even lift.  Each row is
    # tried largest v first: fewer tied leaves on the table's codes than
    # ascending.
    yield from extend(r - 1, [], list(perp), (1 << size) - 2 & ~odd(parity), [0], weights[0])


def find_self_dual_subcode(Cp: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> LinearCode:
    """Search for a self-dual [n, n/2] code C with dual(C') <= C <= C'.

    Every such C is dual(C') plus the lift of an r-dimensional isotropic
    subspace of the quotient C'/dual(C'), r = k' - n/2.  A table holds
    the lightest word of each coset of dual(C') in C' (and of dual(C')
    itself), so a candidate's minimum distance is the table's minimum
    over its subspace.  The search walks the isotropic subspaces depth
    first and cuts every branch whose partial span already holds a word
    lighter than the best candidate found.  The winner is the candidate
    of maximum minimum distance, ties broken by the lexicographically
    smallest canonical generator matrix, which the walk carries down to
    each leaf; only the winner becomes a code.  That key is unique per code,
    so the result does not depend on the order of the walk.

    A self-dual C' is returned as it is.  Otherwise the table walks all
    2^k' words of C', so k' > cap raises EnumerationCapError before the
    search starts.
    """
    n, kp = Cp.n, Cp.k
    if n % 2:
        raise CodeConstructionError("self-dual codes need even length")
    if not is_dual_containing(Cp):
        raise CodeConstructionError("C' is not dual-containing")
    r = kp - n // 2  # >= 0, as dual(C') <= C'
    if r == 0:
        return Cp  # C' is already self-dual
    if kp > cap:
        raise EnumerationCapError(
            f"coset-weight table over 2^{kp} words of C' exceeds cap k' <= {cap}"
        )
    Cperp = dual(Cp)

    # The reps are in rref and zero on dual(C')'s pivot columns, so the
    # lifts of a canonical basis are in rref too.
    perp_basis = Cperp.basis_ints()
    reps = _quotient_basis(Cperp, Cp)
    weights = _coset_weights(perp_basis, reps, n)
    lifts = [0]  # lifts[v]: the sum of the reps picked by the bits of v
    for rep in reps:
        lifts += [x ^ rep for x in lifts]
    best_d, best_key = 0, None
    for _, d, key in _isotropic_bases(lifts, r, weights, perp_basis, lambda m: m < best_d):
        if best_key is None or d > best_d or key < best_key:
            best_d, best_key = d, key
    # A dual-containing C' of even length holds the all-ones word and so a
    # self-dual subcode, and nothing is pruned before the first leaf.
    assert best_key is not None
    best = LinearCode(best_key, n)
    assert best.k == n // 2 and best.canonical_key() == best_key
    return best
