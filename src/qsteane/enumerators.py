"""Exact distances from weight enumerators.

A stabiliser code's distance follows from the weight enumerator of its
stabiliser S by the quantum MacWilliams identities
(`_enumerator_distances`).  `_stabiliser_distance` histograms the 2^s
elements of S for it; `steane.certified_enlarge` takes that path up to
s = 16, where it beats the error-side join
(`distances._quantum_scan_errors`), and above it when the join gives up.

The k' = k + 1 enlargements of a dual-containing C differ only in one
coset of C, and `_coset_distances` certifies all 2^(n-k) of them at
once: one pass over the pairs of C-perp x C-perp and a Walsh-Hadamard
transform give every coset's stabiliser weight enumerator, and the
quantum MacWilliams identities turn each into an exact distance.
Every count is checked on the way (even, nonnegative, exactly
divisible), and any failure raises CertificateError.

Spans are `distances._span_limbs` arrays, and the pass runs over the
blocks of `gf2._blocks`, which bound its temporaries.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .distances import _span_blocks, _span_limbs, _stabiliser_rows, _weights
from .gf2 import LinearCode, _blocks, _dual_rows


class CertificateError(RuntimeError):
    """Raised when an exact computation fails one of its own consistency
    checks: a count that must be even, nonnegative or exactly divisible
    is not.  Such a result is never returned."""


def _coset_distances(C: LinearCode, w: int) -> list[int]:
    """Exact distance of every enlargement span{(C|0), (0|C), (w|v)} of a
    dual-containing C by one completion row w, one v per coset v + C.

    Coset i is v_i = `_coset_word(C, i)`.  Its stabiliser is the
    hyperplane S_i = {(a|b) in C-perp x C-perp : a.v_i = b.w}, of size
    2^(2(n-k)-1).  Row s of the span of `gf2._dual_rows(C)` is the one
    dual word a whose j-th non-pivot column is bit j of s, so a.v_i is
    the parity of s & i, and one pass over the pairs (a, b) gives every
    coset's weight enumerator through a Walsh-Hadamard transform over s
    (`_coset_histograms`, `_coset_enumerators`).  The quantum
    MacWilliams identities turn each into a distance
    (`_enumerator_distances`).

    Entry i is the exact d of coset i.  Costs 2^(2(n-k)) pairs; memory
    is one block of pairs (`gf2._blocks`) and the 2^(n-k) * (n + 1)
    int64 counts.
    """
    n, q = C.n, C.n - C.k
    T, f = _coset_histograms(_dual_rows(C), w, n)
    return _enumerator_distances(_coset_enumerators(T, f), n, 2 * q - 1)


def _coset_word(C: LinearCode, i: int) -> int:
    """v_i, the representative of coset i of C: the word on the
    non-pivot columns of rref(C) whose j-th such column is set iff bit j
    of i is."""
    pivots = set(C._pivots)
    free = [c for c in range(C.n) if c not in pivots]
    return sum(1 << (C.n - 1 - c) for j, c in enumerate(free) if i >> j & 1)


def _coset_histograms(dual_rows: list[int], w: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, f) over the pairs (a, b) of the span of `dual_rows`: T[t] counts
    the pairs with wt(a | b) = t, and f[s, t] sums (-1)^(b.w) over those
    with a = row s of the span.  Rows a run against every b in the
    blocks of `gf2._blocks`."""
    span = _span_limbs(dual_rows, n)
    odd = (_weights(span & _span_limbs([w], n)[1]) & 1).astype(bool)
    f = np.zeros((len(span), n + 1), dtype=np.int64)
    T = np.zeros(n + 1, dtype=np.int64)
    for sign, bs in ((1, span[~odd]), (-1, span[odd])):
        for start, block in _blocks(span, bs, np.bitwise_or):
            wt = _weights(block).astype(np.intp)
            wt += np.arange(len(wt))[:, None] * (n + 1)
            counts = np.bincount(wt.ravel(), minlength=len(wt) * (n + 1)).reshape(-1, n + 1)
            f[start : start + len(counts)] += sign * counts
            T += counts.sum(axis=0)
    return T, f


def _walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Row v of the result is sum_s (-1)^|s & v| f[s], for 2^m rows."""
    out = f.copy()
    h = 1
    while h < len(out):
        pairs = out.reshape(-1, 2, h, out.shape[1])
        lo, hi = pairs[:, 0].copy(), pairs[:, 1]
        pairs[:, 0] += hi
        np.subtract(lo, hi, out=hi)
        h *= 2
    return out


def _coset_enumerators(T: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row i: the weight enumerator A_i of stabiliser S_i, from the pass's
    histograms, A_i[t] = (T[t] + WHT(f[:, t])[i]) / 2.  Raises
    CertificateError unless every numerator is even, A_i[0] = 1 and every
    count is nonnegative."""
    twice = T + _walsh_hadamard(f)
    if (twice & 1).any():
        raise CertificateError("coset enumerator numerator is odd")
    A = twice >> 1
    if (A[:, 0] != 1).any():
        raise CertificateError("coset enumerator has A_0 != 1")
    if (A < 0).any():
        raise CertificateError("coset enumerator has a negative count")
    return A


def _stabiliser_distance(gx: Sequence[int], gz: Sequence[int], n: int) -> int:
    """Exact distance of the stabiliser code with normaliser N = span(gx|gz),
    from the weight enumerator of its stabiliser S, the symplectic dual
    of N (`distances._stabiliser_rows`, 2n - rank(gx|gz) rows).

    Needs S <= N, as for every code `steane.certified_enlarge` builds,
    and S != N.  Histograms wt(x | z) over the 2^(2n - rank) elements of
    S block by block (`_span_blocks`), so memory is one block of
    temporaries, and hands the row to `_enumerator_distances`, whose
    checks raise CertificateError.  No witness: only the value.
    """
    S = _stabiliser_rows(gx, gz, n)
    limbs, mask = -(-n // 64), (1 << n) - 1
    A = np.zeros(n + 1, dtype=np.int64)
    for _, block in _span_blocks([[h >> n for h in S], [h & mask for h in S]], n):
        A += np.bincount(_weights(block[:, :limbs] | block[:, limbs:]).ravel(), minlength=n + 1)
    return _enumerator_distances(A[None], n, len(S))[0]


def _krawtchouk_rows(n: int, weights: list[int]) -> Iterator[list[int]]:
    """Rows j = 0, 1, ..., n of the quaternary Krawtchouk polynomials at
    the given weights, [K_j(t) for t in weights], in exact ints, by the
    three-term recurrence j K_j(t) = (3(n - j + 1) + j - 1 - 4t) K_{j-1}(t)
    - 3(n - j + 2) K_{j-2}(t), from K_0 = 1 and K_1(t) = 3n - 4t."""
    prev, row = [0] * len(weights), [1] * len(weights)
    for j in range(1, n + 2):
        yield row
        prev, row = row, [((3 * (n - j + 1) + j - 1 - 4 * t) * a - 3 * (n - j + 2) * b) // j for t, a, b in zip(weights, row, prev)]


def _enumerator_distances(A: np.ndarray, n: int, log_size: int) -> list[int]:
    """Distance of each stabiliser code whose stabiliser S, of size
    2^log_size, has weight enumerator row A[i]; its normaliser N = S-perp
    must contain S.

    The quantum MacWilliams identities (Shor and Laflamme, PRL 78, 1997;
    Rains, IEEE Trans. IT 44, 1998) give N's enumerator,
    B_j = 2^-log_size sum_t A[t] K_j(t), and d = min{j >= 1 : B_j > A_j}.
    Rows j = 0, 1, ... are taken in exact integers while a code is open,
    so every code gets its exact d.  Raises CertificateError unless
    every sum divides exactly, B_0 = 1 and B_j >= A_j.
    """
    weights = np.flatnonzero(A.any(axis=0)).tolist()
    counts = A[:, weights].tolist()  # Python ints: the sums are exact
    d = [0] * len(A)
    open_ = list(range(len(A)))
    rows = _krawtchouk_rows(n, weights)
    j = 0
    while open_ and j <= n:
        K = next(rows)
        have = A[:, j].tolist()
        still = []
        for i in open_:
            total = sum(a * k for a, k in zip(counts[i], K))
            B, rest = divmod(total, 1 << log_size)
            if rest or B < have[i] or (j == 0 and B != 1):
                raise CertificateError(f"MacWilliams row {j} fails: B_{j} = {total} / 2^{log_size}, A_{j} = {have[i]}")
            if j and B > have[i]:
                d[i] = j
            else:
                still.append(i)
        open_ = still
        j += 1
    if open_:
        raise CertificateError("normaliser has no element outside the stabiliser")
    return d
