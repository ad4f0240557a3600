"""Exact weight and distance scans.

Everything here is exhaustive.  Minimum distance and the second
generalized Hamming weight walk every codeword (and codeword pair).

The exact quantum distance is certified from the error side first:
Pauli errors are visited by weight, 1, 2, ..., and each is tested for
membership in C = span(Gx|Gz) by its syndrome against the symplectic
dual S.  The first weight holding an element of C outside S is the
distance.  That side costs C(n,w)*3^w errors per weight; when the total
would exceed the 2^r elements of C, or the syndrome does not fit one
uint64 word, the scan falls back to walking the whole row space.

Row-space walks above ~2^18 words take a numpy-vectorized split path
(single-word codes only, n <= 63); larger n falls back to a pure
big-int loop.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .gf2 import (
    DEFAULT_ENUM_CAP,
    BinaryVector,
    EnumerationCapError,
    LinearCode,
    dual,
    enumerate_span,
    lex_key,
)

if TYPE_CHECKING:
    from .steane import QuantumCode

_VECTOR_SPLIT = 13  # half-space size for the numpy split path
_PURE_LOOP_MAX_K = 17  # below this a plain Python Gray walk is fast enough
# Most rows in the error side's suffix table, one uint64 syndrome each.
# Weight layers are never stored whole, so this bounds the scan's memory.
_TABLE_ROWS = 1 << 14


@dataclass(frozen=True)
class DistanceReport:
    """Result of an exhaustive distance scan, with attaining witness.

    `method` names the scan that answered: "span" walked every element
    of the row space, "errors" visited Pauli errors by weight.
    `enumerated_count` counts the elements visited by that method.
    """

    value: int
    witness: tuple
    enumerated_count: int
    method: str
    note: str = ""


def min_distance(C: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact minimum distance by full codeword enumeration.

    The witness is the lexicographically smallest codeword attaining
    the minimum, so results do not depend on how the scan is split.
    """
    if C.k == 0:
        raise ValueError("distance undefined for zero code")
    if C.k > cap:
        raise EnumerationCapError(
            f"min_distance over 2^{C.k} codewords exceeds cap k <= {cap}"
        )
    basis = C.basis_ints()
    if C.k < _PURE_LOOP_MAX_K or C.n > 63:
        best, best_word = C.n + 1, None
        word = 0
        for i in range(1, 1 << C.k):
            word ^= basis[(i & -i).bit_length() - 1]
            w = word.bit_count()
            if w < best or (w == best and lex_key(word, C.n) < lex_key(best_word, C.n)):
                best, best_word = w, word
    else:
        best, best_word = _min_weight_split(basis, C.n)
    C.cached_d1 = best
    return DistanceReport(
        value=best,
        witness=(BinaryVector(C.n, best_word),),
        enumerated_count=1 << C.k,
        method="span",
    )


def _gray_span_array(basis: list[int]) -> np.ndarray:
    arr = np.empty(1 << len(basis), dtype=np.uint64)
    word = 0
    arr[0] = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        arr[i] = word
    return arr


def _min_weight_split(basis: list[int], n: int) -> tuple[int, int]:
    """Minimum nonzero weight over span(basis); numpy inner half-space."""
    kb = min(len(basis), _VECTOR_SPLIT)
    lo = _gray_span_array(basis[:kb])
    best, best_word = n + 1, None
    word = 0
    outer = basis[kb:]
    for i in range(1 << len(outer)):
        if i:
            word ^= outer[(i & -i).bit_length() - 1]
        vals = np.bitwise_count(np.uint64(word) ^ lo)
        if i == 0:
            vals[0] = n + 1  # skip the zero codeword
        bmin = int(vals.min())
        if bmin <= best:
            for idx in np.flatnonzero(vals == bmin):
                cand = word ^ int(lo[idx])
                if bmin < best or lex_key(cand, n) < lex_key(best_word, n):
                    best, best_word = bmin, cand
    return best, best_word


def second_gdw(C: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact second generalized Hamming weight.

    Minimum OR-weight over pairs of distinct nonzero codewords (the
    minimum support of a 2-dimensional subcode).  The pair scan is
    pruned: any pair's OR-weight is at least the larger of the two
    weights, so codewords at or above the current best are skipped.
    """
    if C.k < 2:
        raise ValueError("no 2-dimensional subcode: k < 2")
    if C.k > cap:
        raise EnumerationCapError(
            f"second_gdw over 2^{C.k} codewords exceeds cap k <= {cap}"
        )
    words = [w for w in enumerate_span(C.basis_ints(), cap=cap) if w]
    words.sort(key=lambda w: (w.bit_count(), lex_key(w, C.n)))
    wts = [w.bit_count() for w in words]

    best = C.n + 1
    for i in range(len(words)):
        if wts[i] >= best:
            break
        wi = words[i]
        for j in range(i + 1, len(words)):
            if wts[j] >= best:
                break
            w = (wi | words[j]).bit_count()
            if w < best:
                best = w

    # Deterministic witness: lexicographically smallest pair among the
    # minimizers (only codewords of weight <= best can participate).
    light = [w for w in words if w.bit_count() <= best]
    best_pair = None
    for i in range(len(light)):
        for j in range(i + 1, len(light)):
            if (light[i] | light[j]).bit_count() == best:
                pair = tuple(sorted((light[i], light[j]), key=lambda w: lex_key(w, C.n)))
                key = (lex_key(pair[0], C.n), lex_key(pair[1], C.n))
                if best_pair is None or key < best_pair[0]:
                    best_pair = (key, pair)
    assert best_pair is not None
    C.cached_d2 = best
    return DistanceReport(
        value=best,
        witness=tuple(BinaryVector(C.n, w) for w in best_pair[1]),
        enumerated_count=1 << C.k,
        method="span",
    )


def quantum_distance_exact(Q: "QuantumCode", cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact quantum distance of the stabilizer code with generators (Gx|Gz).

    Returns the minimum generalized weight over vectors of C that are
    not symplectically orthogonal to all of C (i.e. lie outside the
    stabilizer C-perp).  When C equals its symplectic dual the minimum
    is taken over all nonzero elements instead, and the report says so.

    Pauli errors are visited by weight first (method "errors"); the
    first weight with such a vector is the distance.  When that side
    would visit more than the 2^r elements of C, or n > 64, or the
    symplectic dual of C has more than 64 dimensions, the full row
    space is walked instead (method "span").  Either way the witness is
    the lexicographically smallest (ux, uz) attaining the minimum.
    """
    gx = Q.Gx.row_ints()
    gz = Q.Gz.row_ints()
    r, n = len(gx), Q.n
    if r > cap:
        raise EnumerationCapError(
            f"quantum distance over 2^{r} vectors exceeds cap {cap}"
        )
    # Symplectic syndrome of each generator against all generators:
    # incremental tracking makes the orthogonality test O(1) per step.
    syn = [_syndrome(x, z, gx, gz) for x, z in zip(gx, gz)]

    self_orthogonal = all(s == 0 for s in syn)
    note = "self-dual convention: minimum over nonzero elements of C" if self_orthogonal else ""

    found = _quantum_scan_errors(gx, gz, n, self_orthogonal, budget=1 << r)
    if found is not None:
        value, wit, visited = found
        method = "errors"
    else:
        scan = _quantum_scan_split if n <= 63 else _quantum_scan_pure
        value, wit = scan(gx, gz, syn, n, self_orthogonal)
        visited, method = 1 << r, "span"
    if wit is None:
        raise ValueError("no vector outside the stabilizer: empty scan")
    ux, uz = wit
    return DistanceReport(
        value=value,
        witness=(BinaryVector(n, ux), BinaryVector(n, uz)),
        enumerated_count=visited,
        method=method,
        note=note,
    )


def _syndrome(ux: int, uz: int, rx: list[int], rz: list[int]) -> int:
    """Bit i is the symplectic product of (ux|uz) with row (rx[i]|rz[i])."""
    s = 0
    for i, (x, z) in enumerate(zip(rx, rz)):
        s |= (((ux & z).bit_count() + (uz & x).bit_count()) & 1) << i
    return s


def _transpose(rows: list[int], n: int) -> list[int]:
    """cols[q] has bit i set iff rows[i] has bit q set."""
    cols = [0] * n
    for i, row in enumerate(rows):
        while row:
            cols[(row & -row).bit_length() - 1] |= 1 << i
            row &= row - 1
    return cols


def _pauli_layer(table: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Syndromes of every Pauli error on each support.

    `table[q]` holds the syndromes of X, Z and Y on qubit q.  Row
    s * 3^t + p of the result is support s (a row of `supports`) under
    pattern p, whose base-3 digits pick X, Z or Y for each qubit in
    turn, so rows keep the order of the supports.
    """
    out = np.zeros((len(supports), 1), dtype=np.uint64)
    for c in range(supports.shape[1]):
        out = (out[:, :, None] ^ table[supports[:, c]][:, None, :]).reshape(len(supports), -1)
    return out.ravel()


def _pauli_bits(qubits: tuple, pattern: int) -> tuple[int, int]:
    """(ux, uz) of the Pauli error with base-3 pattern on the given qubits."""
    ux = uz = 0
    for q in reversed(qubits):
        pattern, p = divmod(pattern, 3)
        ux |= (p != 1) << q  # X or Y
        uz |= (p != 0) << q  # Z or Y
    return ux, uz


def _quantum_scan_errors(gx, gz, n, self_orthogonal, budget):
    """Error-side quantum distance scan.

    Visits Pauli errors e by weight w = 1, 2, ... .  e lies in C iff its
    syndrome against a basis of S, the symplectic dual of C, is 0; the
    syndrome is an XOR of per-qubit columns.  Such an e counts when it
    is outside S (any nonzero e in the self-orthogonal case).  The
    whole first weight with such an e is visited, for the
    lexicographically smallest witness.

    Each weight is split as a prefix over the lowest qubits, looped in
    Python, and a suffix from a table of every weight-t error (at most
    _TABLE_ROWS rows) ordered by lowest qubit, so the suffixes above a
    prefix form one contiguous slice.  Returns (value, (ux, uz),
    visited), or None when n > 64, S needs more than 64 syndrome bits,
    or the errors up to the next weight would exceed `budget`.
    """
    if n > 64:
        return None
    S = dual(LinearCode([z | (x << n) for x, z in zip(gx, gz)], 2 * n))
    if S.k > 64:
        return None
    mask = (1 << n) - 1
    # Bit i of the syndrome of X_q is bit q of the z-half of row i of S;
    # of Z_q, bit q of its x-half.
    bx = _transpose([h >> n for h in S.basis_ints()], n)
    bz = _transpose([h & mask for h in S.basis_ints()], n)
    table = np.array([bx, bz, [a ^ b for a, b in zip(bx, bz)]], dtype=np.uint64).T.copy()

    visited = 0
    for w in range(1, n + 1):
        layer = math.comb(n, w) * 3**w
        visited += layer
        if visited > budget:
            return None
        if layer <= _TABLE_ROWS:
            t = w
            supports = list(itertools.combinations(range(n), t))
            suffix = _pauli_layer(table, np.array(supports, dtype=np.intp))
            # start[q]: first suffix row whose lowest qubit is above q.
            lowest = [s[0] for s in supports]
            start = [bisect.bisect_right(lowest, q) * 3**t for q in range(n)]
        best = None
        for prefix in itertools.combinations(range(n), w - t):
            lo = start[prefix[-1]] if prefix else 0
            if lo == len(suffix):
                continue
            tail = suffix[lo:]
            pre = _pauli_layer(table, np.array([prefix], dtype=np.intp)).tolist()
            for i, syn in enumerate(pre):
                for j in (np.flatnonzero(tail == syn) + lo).tolist():
                    s, p = divmod(j, 3**t)
                    ux, uz = _pauli_bits(prefix + supports[s], i * 3**t + p)
                    if not self_orthogonal and _syndrome(ux, uz, gx, gz) == 0:
                        continue  # an element of the stabilizer S
                    key = _pair_lex(ux, uz, n)
                    if best is None or key < best[0]:
                        best = (key, (ux, uz))
        if best is not None:
            return w, best[1], visited
    return None


def _pair_lex(ux: int, uz: int, n: int) -> tuple[int, int]:
    return (lex_key(ux, n), lex_key(uz, n))


def _quantum_scan_split(gx, gz, syn, n, self_orthogonal):
    r = len(gx)
    kb = min(r, _VECTOR_SPLIT)
    bx = _gray_span_array(gx[:kb])
    bz = _gray_span_array(gz[:kb])
    bs = _gray_span_array(syn[:kb])
    ox, oz, osyn = gx[kb:], gz[kb:], syn[kb:]
    ax = az = asyn = 0
    best, best_wit = n + 1, None
    for i in range(1 << (r - kb)):
        if i:
            j = (i & -i).bit_length() - 1
            ax ^= ox[j]
            az ^= oz[j]
            asyn ^= osyn[j]
        ux = np.uint64(ax) ^ bx
        uz = np.uint64(az) ^ bz
        vals = np.bitwise_count(ux | uz)
        if self_orthogonal:
            live = vals != 0
        else:
            live = (np.uint64(asyn) ^ bs) != 0
        if not live.any():
            continue
        bmin = int(vals[live].min())
        if bmin <= best:
            for idx in np.flatnonzero(live & (vals == bmin)):
                cand = (ax ^ int(bx[idx]), az ^ int(bz[idx]))
                if bmin < best or _pair_lex(*cand, n) < _pair_lex(*best_wit, n):
                    best, best_wit = bmin, cand
    return best, best_wit


def _quantum_scan_pure(gx, gz, syn, n, self_orthogonal):
    r = len(gx)
    ux = uz = s = 0
    best, best_wit = n + 1, None
    for i in range(1, 1 << r):
        j = (i & -i).bit_length() - 1
        ux ^= gx[j]
        uz ^= gz[j]
        s ^= syn[j]
        if (s == 0) != self_orthogonal:
            continue
        if self_orthogonal and ux == 0 and uz == 0:
            continue
        w = (ux | uz).bit_count()
        if w < best or (w == best and _pair_lex(ux, uz, n) < _pair_lex(*best_wit, n)):
            best, best_wit = w, (ux, uz)
    return best, best_wit
