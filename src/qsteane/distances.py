"""Exact weight and distance scans.

Everything here is exhaustive.  Minimum distance walks every codeword.
The second generalized Hamming weight d2 is read off residual codes:
one numpy pass per chunk of light codewords a, over the other codewords
b, finds the fewest coordinates outside supp a that some b covers; the
passes stop once a weighs more than 2/3 of the best d2 so far.

The exact quantum distance is certified from the error side first, one
weight w = 1, 2, ... at a time, by a meet-in-the-middle join: a Pauli
error lies in C = span(Gx|Gz) iff the syndromes of its two halves
against the symplectic dual S agree, so tables of the half-weight
errors, sorted by syndrome, are matched with `np.searchsorted`.  The
first weight holding an element of C outside S is the distance.  When
the tables would hold more rows than the 2^r elements of C, or a
syndrome does not fit one uint64 word, the public witness scan
`quantum_distance_exact` walks the row space; `steane` never does.

Words are ints with coordinate c at bit n - 1 - c (see `gf2`), so int
order is lexicographic order.  Spans are numpy arrays built by doubling,
ceil(n/64) uint64 limbs per word, the word's big-endian limbs shifted
to start at column 0, so that rows compare limb by limb as words do.
Every span and pair pass runs over the blocks of `gf2._blocks`.  Every
row-space walk, at any n and k, runs one numpy kernel, `_span_min`;
`_weights` is the one popcount over limbs and `_lexmin` the one rule
that picks a lex-least row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import gf2  # gf2._BLOCK is read at call time, so one setattr resizes every pass
from .gf2 import DEFAULT_ENUM_CAP, EnumerationCapError, LinearCode, _bits, _blocks, _combinations, _dual_rows, _pack, _unchecked_code, _unpack

if TYPE_CHECKING:
    from .steane import QuantumCode

_HALF_ROWS = 1 << 20  # most rows over the error side's half tables; bounds its memory


@dataclass(frozen=True)
class DistanceReport:
    """Result of an exhaustive distance scan, with attaining witness.

    `witness` holds words as ints: one codeword for d, two for d2, and
    (ux, uz) for the quantum distance.

    `method` names the scan that answered: "span" walked every element
    of the row space, "errors" joined half-weight Pauli errors weight by
    weight, "residual" ran one pass over a pool of codewords per chunk
    of light words.  `enumerated_count` counts the elements visited by
    that method (for "errors", the half-table rows built).
    """

    value: int
    witness: tuple
    enumerated_count: int
    method: str
    note: str = ""


def min_distance(C: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact minimum distance by full codeword enumeration.

    Every code, at any n and k, takes the one span kernel `_span_min`.
    The witness is the lexicographically smallest codeword attaining
    the minimum.
    """
    if C.k == 0:
        raise ValueError("distance undefined for zero code")
    if C.k > cap:
        raise EnumerationCapError(f"min_distance over 2^{C.k} codewords exceeds cap k <= {cap}")
    best, (best_word,) = _span_min([C.basis_ints()], C.n)
    return DistanceReport(value=best, witness=(best_word,), enumerated_count=1 << C.k, method="span")


def _span_limbs(basis: list[int], n: int) -> np.ndarray:
    """Every word of span(basis), one row of ceil(n/64) uint64 limbs each.

    Built by doubling (`gf2._combinations`): row i is the sum of the
    basis rows picked by the bits of i.  The limbs are those of
    `gf2._pack` read as big-endian numbers (coordinate c at bit
    63 - c % 64 of limb c // 64), so comparing rows limb by limb as
    unsigned integers compares them as words.
    """
    return _combinations(_pack(basis, n).view(">u8").astype(np.uint64))


def _ints(rows: np.ndarray, n: int) -> list[int]:
    """Rows of `_span_limbs` back as the words they hold."""
    return _unpack(rows.astype(">u8"), n)


def _weights(rows: np.ndarray) -> np.ndarray:
    """int16 weight of each word of limbs along axis 1: the one popcount of the scans."""
    counts = np.bitwise_count(rows)  # summed limb by limb: np.sum over axis 1 is several times slower
    return sum((counts[:, c] for c in range(1, counts.shape[1])), counts[:, 0].astype(np.int16))


def _lexmin(rows: np.ndarray) -> np.ndarray:
    """The least of rows of uint64 limbs, compared limb by limb as words:
    the one rule that picks a lex-least witness among numpy rows."""
    for c in range(rows.shape[1]):
        rows = rows[rows[:, c] == rows[:, c].min()]
    return rows[0]


def _span_blocks(halves: list[list[int]], n: int, syn: Optional[list[int]] = None):
    """`_blocks` over span{(x_i | z_i | syn_i)}, the limbs of the rows of
    `halves` ([rows] or [xs, zs], n bits) and of `syn` joined: the span of
    the later rows runs over that of the first, so word i of the span is
    block[i // N - start, :, i % N], N = block.shape[2]."""
    split = (gf2._BLOCK // len(halves)).bit_length() - 1
    parts = [(rows, n) for rows in halves] + ([] if syn is None else [(syn, len(syn))])
    inner = np.concatenate([_span_limbs(rows[:split], m) for rows, m in parts], axis=1)
    outer = np.concatenate([_span_limbs(rows[split:], m) for rows, m in parts], axis=1)
    return _blocks(outer, inner, np.bitwise_xor, len(halves))


def _coset_weights(perp: list[int], reps: list[int], n: int) -> list[int]:
    """Weight of the lightest word of each coset lift(v) + span(perp).

    lift(v) is the sum of the rows of `reps` picked by the bits of v,
    and the rows of perp + reps must be independent.  Entry 0 is the
    lightest nonzero word of span(perp), or n + 1 when perp is empty.
    Walks all 2^(len(perp) + len(reps)) words of the span of perp + reps
    (`_span_blocks`); word i lies in coset i >> len(perp).
    """
    p = len(perp)
    table = np.full(1 << len(reps), n + 1, dtype=np.int16)
    for start, block in _span_blocks([perp + reps], n):
        wts = _weights(block).ravel()
        if start == 0:
            wts[0] = n + 1  # the zero word
        mins = wts.reshape(-1, min(len(wts), 1 << p)).min(axis=1)
        rows = table[start * block.shape[2] >> p :][: len(mins)]
        np.minimum(rows, mins, out=rows)
    return table.tolist()


def _span_min(halves: list[list[int]], n: int, syn: Optional[list[int]] = None) -> tuple[int, Optional[tuple]]:
    """Lightest element of span{(x_i | z_i)} by wt(x | z), with witness.

    `halves` holds the rows of each half: [rows] for a classical code,
    [xs, zs] for a quantum one.  With `syn`, the syndrome of each row
    as an int, only elements of nonzero syndrome count; without it,
    every nonzero element does.  The witness is the lexicographically
    smallest element attaining the minimum, compared half by half.

    The one span walk of the module: minimum distance at every n and k,
    and `quantum_distance_exact`'s span side; runs over `_span_blocks`.
    Returns (weight, one word per half), or (n + 1, None) when no
    element counts.
    """
    limbs = -(-n // 64)
    halves_limbs = len(halves) * limbs
    best, best_wit = n + 1, None
    for _, block in _span_blocks(halves, n, syn):
        words = block[:, :limbs] if len(halves) == 1 else block[:, :limbs] | block[:, limbs:halves_limbs]
        vals = _weights(words)
        if syn is not None:
            vals[(block[:, halves_limbs:] == 0).all(axis=1)] = n + 1
        bmin = int(vals.min())
        if bmin == 0:  # the zero element never counts; with independent rows it is row 0 of block 0
            vals[vals == 0] = n + 1
            bmin = int(vals.min())
        if bmin > min(best, n):
            continue
        # The least tied row, limbs gathered column by column, x first.
        wit = _lexmin(np.stack([block[:, c][vals == bmin] for c in range(halves_limbs)], axis=1))
        if bmin == best:
            wit = _lexmin(np.stack([best_wit, wit]))
        best, best_wit = bmin, wit
    return best, None if best_wit is None else tuple(_ints(best_wit.reshape(len(halves), -1), n))


def second_gdw(C: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact second generalized Hamming weight d2.

    The minimum support of a 2-dimensional subcode {a, b, a^b}.  As
    wt(a) + wt(b) + wt(a^b) = 2 d2 for a minimising subcode, its
    lightest word a weighs at most 2 d2 / 3, and its support has
    wt(a) + wt(b & ~a) coordinates.  So the nonzero a, in increasing
    weight while 3 wt(a) <= 2 best, take one numpy pass per chunk of
    max(1, gf2._BLOCK // len(pool)) light words of one weight, for the
    minimum of wt(b & ~a) over the other nonzero words b (the residual
    code of C on the complement of supp a; V. K. Wei, IEEE Trans. IT,
    1991).  Every word of a minimising subcode weighs at most d2, so
    after each pass the words heavier than the best value so far leave
    the pool of b.  `enumerated_count` sums the (a, b) cells compared,
    len(chunk) * len(pool) per pass: the pool shrinks between chunks.

    The witness is the least, over the minimising subcodes, of the pair
    of a subcode's two lexicographically smallest words.

    Memory: the span takes 2^k * ceil(n/64) * 8 bytes (512 MB at the
    cap k = 26 for n <= 64), the weights 2 bytes per word, the pool at
    most the span again, an 8-byte index per light word of one weight,
    and one block of temporaries (`_blocks`), plus under 100 bytes per
    limb of each tied (a, b) kept at the best value.
    """
    if C.k < 2:
        raise ValueError("no 2-dimensional subcode: k < 2")
    if C.k > cap:
        raise EnumerationCapError(f"second_gdw over 2^{C.k} codewords exceeds cap k <= {cap}")
    pool = _span_limbs(C.basis_ints(), C.n)[1:]
    wt = _weights(pool)
    best, tied, compared, w = C.n + 1, [], 0, int(wt.min())
    while 3 * w <= 2 * best:
        # Words of weight w < best stay in the pool, in order, so `done` counts them throughout.
        light, done = np.flatnonzero(wt == w), 0
        while done < len(light) and 3 * w <= 2 * best:
            chunk = light[done : done + max(1, gf2._BLOCK // len(pool))]
            rest, ties = _residual_pass(pool, chunk, best - w)
            done += len(chunk)
            compared += len(chunk) * len(pool)
            if w + rest < best:
                best, tied = w + rest, []
                pool, wt = pool[wt <= best], wt[wt <= best]
                light = np.flatnonzero(wt == w)
            tied += ties
        w += 1
    a, b = (np.concatenate(rows) for rows in zip(*tied))
    cells = np.concatenate([a, b, a ^ b], axis=1).reshape(len(a), 3, -1)
    # x, the least tied word, is least in its cells; their least other word is second.
    x = _lexmin(cells.reshape(-1, a.shape[1]))
    is_x = (cells == x).all(axis=2)
    pair = _ints(np.stack([x, _lexmin(cells[is_x.any(axis=1, keepdims=True) & ~is_x])]), C.n)
    return DistanceReport(value=best, witness=tuple(pair), enumerated_count=compared, method="residual")


def _residual_pass(pool: np.ndarray, chunk: np.ndarray, rest: int) -> tuple[int, list]:
    """Least wt(b & ~a) over the rows b != a of pool and a of pool[chunk],
    if at most rest, and the (a, b) rows attaining it."""
    ties = []
    for start, block in _blocks(pool, ~pool[chunk], np.bitwise_and):
        outside = _weights(block)  # [i, j]: wt(pool[start + i] & ~pool[chunk[j]])
        if (m := int(outside.min())) == 0:  # b = a: a lighter b inside a would have ended the scan
            outside[outside == 0] = rest + 1
            m = int(outside.min())
        if m < rest:
            rest, ties = m, []
        if m == rest:
            ib, ia = np.divmod(np.flatnonzero(outside == m), len(chunk))
            ties.append((pool[chunk[ia]], pool[start + ib]))
    return rest, ties


def quantum_distance_exact(Q: "QuantumCode", cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact quantum distance of the stabilizer code with generators (Gx|Gz).

    Returns the minimum generalized weight over vectors of C that are
    not symplectically orthogonal to all of C (i.e. lie outside the
    stabilizer C-perp).  When C equals its symplectic dual the minimum
    is taken over all nonzero elements instead, and the report says so.

    The error side, a meet-in-the-middle join of half-weight Pauli
    errors (method "errors", counting the half-table rows built), runs
    first; beyond 2^r or _HALF_ROWS rows, or 64 qubits, generators or
    syndrome bits, the 2^r elements of C are walked (method "span").
    Either way the witness is the lex-smallest (ux, uz) of least weight.
    This is the public witness scan; `steane` does not call it.
    """
    gx, gz = list(Q.gx), list(Q.gz)
    r, n = len(gx), Q.n
    if r > cap:
        raise EnumerationCapError(f"quantum distance over 2^{r} vectors exceeds cap {cap}")
    self_orthogonal = not any(_syndrome(x, z, gx, gz) for x, z in zip(gx, gz))
    note = "self-dual convention: minimum over nonzero elements of C" if self_orthogonal else ""

    if found := _quantum_scan_errors(gx, gz, n, self_orthogonal, budget=1 << r):
        (value, wit, visited, _), method = found, "errors"
    else:
        syn = None if self_orthogonal else [_syndrome(x, z, gx, gz) for x, z in zip(gx, gz)]
        (value, wit), visited, method = _span_min([gx, gz], n, syn), 1 << r, "span"
    if wit is None:
        raise ValueError("no vector outside the stabilizer: empty scan")
    return DistanceReport(value=value, witness=wit, enumerated_count=visited, method=method, note=note)


def _stabiliser_rows(gx: Sequence[int], gz: Sequence[int], n: int) -> list[int]:
    """A basis of S, the symplectic dual of span(gx|gz): 2n - rank rows
    x << n | z, one per non-pivot column (`gf2._dual_rows`).  S holds the
    (x | z) with x.gz_i + z.gx_i = 0, the dual of the rows (gz_i | gx_i)."""
    return _dual_rows(_unchecked_code([z << n | x for x, z in zip(gx, gz)], 2 * n))


def _syndrome(ux: int, uz: int, rx: list[int], rz: list[int]) -> int:
    """Bit i is the symplectic product of (ux|uz) with row (rx[i]|rz[i])."""
    s = 0
    for i, (x, z) in enumerate(zip(rx, rz)):
        s |= (((ux & z).bit_count() + (uz & x).bit_count()) & 1) << i
    return s


def _columns(blocks: list[list[int]], n: int) -> np.ndarray:
    """(n, len(blocks)) uint64: entry [q, j] has bit i set iff row i of
    blocks[j], of at most 64 rows, has column q set."""
    bits = np.zeros((64 * len(blocks), n), dtype=np.uint8)
    at = [64 * j + i for j, block in enumerate(blocks) for i in range(len(block))]
    bits[at] = _bits(_pack([row for block in blocks for row in block], n), n)
    return np.packbits(bits, axis=0, bitorder="little").T.copy().view("<u8")


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


def _pauli_rows(table: np.ndarray, supports: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR of the entries table[q, P] over the qubits q and Paulis P of
    the given rows of `_pauli_layer(table, supports)`."""
    t = supports.shape[1]
    s, p = np.divmod(rows, 3**t)
    out = np.zeros((len(rows), table.shape[2]), dtype=np.uint64)
    for c in reversed(range(t)):  # the last qubit is the lowest digit
        p, digit = np.divmod(p, 3)
        out ^= table[supports[s, c], digit]
    return out


def _half_table(table: np.ndarray, n: int, t: int) -> tuple:
    """Every weight-t Pauli error, sorted by syndrome and then by lowest
    qubit q (n for the identity): (supports, order, syn, above, keys,
    uniq, ends).  Sorted row i is `_pauli_layer(table, supports)` row
    order[i], of syndrome syn[i] and highest qubit above[i] - 1; its key
    is rank * (n + 1) + q, rank being the place of syn[i] among the
    distinct syndromes uniq, whose rows end before row ends[rank]."""
    supports = np.array(list(itertools.combinations(range(n), t)), dtype=np.uint8)
    syn = _pauli_layer(table, supports)
    low = np.repeat(supports[:, 0] if t else [n], 3**t)
    order = np.lexsort((low, syn))
    syn = syn[order]
    new = np.concatenate([[True], syn[1:] != syn[:-1]])
    keys = (np.cumsum(new, dtype=np.int64) - 1) * (n + 1) + low[order]
    above = np.repeat(supports[:, -1] + 1 if t else [0], 3**t)[order]
    return supports, order, syn, above, keys, syn[new], np.append(np.flatnonzero(new)[1:], len(new))


def _quantum_scan_errors(gx, gz, n, self_orthogonal, budget):
    """Error-side quantum distance scan: a meet-in-the-middle join.

    Runs weight by weight, w = 1, 2, ... .  A Pauli error e lies in C iff
    its syndrome against a basis of S, the symplectic dual of C, is 0,
    and counts when its syndrome against the generators is not (any
    nonzero e of C in the self-orthogonal case).  The first weight with
    such an e is matched whole, for the lex-smallest witness.

    Split e into e1, on the lowest ceil(w/2) qubits of its support, and
    e2, on the rest: e lies in C iff syn(e1) = syn(e2).  With the e2
    sorted by syndrome and then by lowest qubit, those matching an e1 of
    highest qubit p, the blocks q = p + 1 .. n of its syndrome, form one
    range, found by `np.searchsorted`: each element of C of weight w is
    met once, as one canonical pair (Dumer, Kovalev and Pryadko, IEEE
    Trans. IT, 2017).  Each half table is built once, for all weights.

    Returns (value, (ux, uz), rows, pairs): rows counts the half-table
    rows built, sum C(n,t) 3^t over 1 <= t <= ceil(value/2), and pairs
    the elements of C of weight value.  Returns None when n, S.k or the
    number of generators exceeds 64, or rows would exceed `budget` or
    _HALF_ROWS.  Memory: a row is held as at most 41 bytes (`_half_table`)
    and a table's sort or a weight's join takes at most about 55 bytes
    more per row, so the scan stays within 96 MB at _HALF_ROWS = 2^20.
    """
    if n > 64 or len(gx) > 64:
        return None
    hs = _stabiliser_rows(gx, gz, n)
    if len(hs) > 64:
        return None
    # table[q, P] for P = X, Z, Y on qubit q: the syndrome against S (of
    # X_q, column q of the z-half of S; of Z_q, of its x-half), the
    # syndrome against the generators, ux and uz.
    eye, mask = [1 << i for i in range(n)], (1 << n) - 1
    cols = _columns([[h & mask for h in hs], gz, eye, [], [h >> n for h in hs], gx, [], eye], n)
    table = np.concatenate([cols, cols[:, :4] ^ cols[:, 4:]], axis=1).reshape(n, 3, 4)
    half, rows = {0: _half_table(table[:, :, 0], n, 0)}, 0
    for w in range(1, n + 1):
        t1, t2 = (w + 1) // 2, w // 2
        if t1 not in half:
            rows += math.comb(n, t1) * 3**t1
            if rows > min(budget, _HALF_ROWS):
                return None
            half[t1] = _half_table(table[:, :, 0], n, t1)
        (sup1, order1, syn1, above, *_), (sup2, order2, _, _, keys, uniq, ends) = half[t1], half[t2]
        # The e2 for an e1 have keys rank * (n + 1) + q for above <= q <= n.
        rank = np.searchsorted(uniq, syn1)
        hit = uniq.take(rank, mode="clip") == syn1
        cnt = ends.take(rank, mode="clip")
        rank *= n + 1
        rank += above
        lo = np.searchsorted(keys, rank)
        cnt -= lo
        cnt *= hit
        i1 = np.flatnonzero(cnt)
        if not len(i1):
            continue
        c = cnt[i1]
        i2 = order2[np.arange(c.sum()) - np.repeat(np.cumsum(c) - c - lo[i1], c)]
        found = _pauli_rows(table, sup1, order1[np.repeat(i1, c)]) ^ _pauli_rows(table, sup2, i2)
        pairs = len(found)
        if not self_orthogonal:
            found = found[found[:, 1] != 0]  # drop the elements of the stabilizer S
        if len(found):
            return w, tuple(map(int, _lexmin(found[:, 2:]))), rows, pairs
    return None
