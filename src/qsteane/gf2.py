"""GF(2) words, matrices and linear codes as plain Python ints.

A word of length n is an int with coordinate c at bit n - 1 - c: its
binary digits, written out to n places, are the coordinate string, so
int order is lexicographic order and every lex-smallest witness rule is
a plain comparison.  One machine word for n <= 64, a big int up to
n = 1024.  A matrix is a list of such rows together with n.

Elimination, batched membership and the Gram pass take numpy kernels
instead when the matrix has at least _PACKED_MIN_COLS columns and
_PACKED_MIN_ROWS rows (`_packed`); they return the same ints the int
paths give.  The dual is always built on ints.  Elimination runs on
packed rows: the big-endian bytes of the row's int, shifted left to fill
ceil(n/64) 64-bit limbs, so coordinate c is bit 7 - c % 8 of byte c // 8
and byte j holds the strip of columns 8j .. 8j + 7, most significant bit
first.  Each strip's pivot rows and lookup table are found on that byte
column as a Python bytes object, by `bytes.translate` passes; the table
of the pivot rows' sums is built along a Gray code, in one gather and
one cumulative XOR (`_gray_table`), and one numpy gather and XOR clears
the strip.  A word's bits at the pivot columns, and the free columns of
the Gram pass, are read off the unpacked rows, one 0/1 byte per column
(`_bits`).
`distances._span_limbs` reads the packed bytes as big-endian uint64
limbs, so that comparing limbs compares words.  Every span, pair and
Gram pass runs over the blocks of `_blocks`.

Matrix files have two readers.  `load_code` reads a file's bytes: a
file of bare rows of at least _PACKED_MIN_COLS 0/1 digits is checked and
packed by numpy, in blocks of rows, straight into the elimination's
layout and reduced by the strip loop, so its rows become ints once,
from the reduced basis.  Any other file is decoded and read by
`parse_matrix`, the plain line parser (no numpy), which gives the same
rows and raises every parse error.  The Gram pass covers one triangle
of the symmetric AᵀA.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MAX_LENGTH = 1024
DEFAULT_ENUM_CAP = 26
# Matrices (or batches of words) with at least this many columns and
# rows go to the packed kernels.  Timed on random matrices (2-core x86-64,
# numpy 2.4, a shared host): the packed rref costs about 45-80 us per strip
# of 8 pivots (72 us at 1,024 rows; 60-100 us, 83 us, with tables built by
# doubling), the int one a Python step per row per pivot, and they cross
# at 32-48 rows for n = 256..1024 (48-64 when timed with doubling, before
# the Gray-code tables).  Batched membership is
# cheaper packed from about 20 words, but no caller sends a batch of 20-63
# words at n >= 256, so one rule serves both.  Below n = 256 numpy's
# per-call cost would dominate the many small codes the searches build.
_PACKED_MIN_COLS = 256
_PACKED_MIN_ROWS = 64
_BLOCK = 1 << 14  # most words in one block of `_blocks`
# `bytes.translate` tables of the Four-Russians strip: _IDENTITY maps
# byte b to b, _BIT_LENGTH to b.bit_length().  As little-endian ints,
# v * _ONES repeats byte v with no carry, so _IDENTITY ^ v * _ONES is the
# table of b ^ v and _IDENTITY & v * _ONES that of b & v.  XOR by v is
# XOR by its high nibble, then by its low one: 32 tables (9 KB), not 256
# (74 KB, a measurable share of a wide `verify`'s peak memory).
_IDENTITY = bytes(range(256))
_BIT_LENGTH = bytes(b.bit_length() for b in range(256))
_ONES = int.from_bytes(b"\1" * 256, "little")
_XOR_HIGH, _XOR_LOW = (
    [(int.from_bytes(_IDENTITY, "little") ^ v * _ONES).to_bytes(256, "little") for v in nibbles]
    for nibbles in (range(0, 256, 16), range(16))
)
# Gray-code order of a Four-Russians table (`_gray_table`): entry i sums
# the rows picked by the bits of i ^ i >> 1, and differs from entry i - 1
# by row _CTZ[i], the count of trailing zeros of i.  _GRAY_INV maps c to
# i with i ^ i >> 1 == c, the entry that sums the rows picked by c; it
# permutes [0, 2^m) for every m <= 8 and commutes with right shifts.
_CTZ = np.array([0] + [(i & -i).bit_length() - 1 for i in range(1, 256)], dtype=np.intp)
_GRAY_INV = bytes(sorted(range(256), key=lambda i: i ^ i >> 1))


class MatrixParseError(ValueError):
    """Raised when a matrix text block cannot be parsed."""


class EnumerationCapError(ValueError):
    """Raised when an exhaustive scan would exceed the configured cap."""


class CodeConstructionError(ValueError):
    """Raised when construction preconditions are violated."""


def rref_ints(rows: Sequence[int], cols: int) -> tuple[list[int], int, list[int]]:
    """Reduced row-echelon form on int rows of `cols` columns.

    Returns (reduced rows, rank, pivot column indices).  Zero rows are
    kept at the bottom so the shape is preserved.  A reduced row's pivot
    is its first nonzero column, its highest set bit.  Wide matrices go
    through the bit-packed kernel `_rref_packed`, which returns the same
    (the reduced row-echelon form is unique).  Rows already in that form
    (nonzero, top bits descending, no row holding another's top bit), as
    the parity extension of a reduced basis is, come back as they are.
    """
    work = list(rows)
    if all(r.bit_length() > s.bit_length() for r, s in zip(work, work[1:] + [0])):
        pivot_bits = sum(1 << r.bit_length() >> 1 for r in work)  # the top bits, descending
        if all(r & pivot_bits == 1 << r.bit_length() >> 1 for r in work):
            return work, len(work), [cols - r.bit_length() for r in work]
    if _packed(cols, work):
        return _rref_packed(work, cols)
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        mask = 1 << (cols - 1 - col)
        pivot = next((i for i in range(r, len(work)) if work[i] & mask), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i] & mask:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work, r, pivots


def _reduce(word: int, basis_rref: Sequence[int]) -> int:
    """word with every pivot column of the rref basis cleared: the
    lex-smallest word of the coset word + span(basis_rref).  XORing a
    row clears its pivot, the row's highest bit, exactly when the
    result is smaller."""
    for row in basis_rref:
        word = min(word, word ^ row)
    return word


def in_rowspan(vec: int, basis_rref: Sequence[int]) -> bool:
    """Membership test against an rref basis (reduce and check zero)."""
    return _reduce(vec, basis_rref) == 0


# --- bit-packed kernels for wide matrices ------------------------------------


def _packed(cols: int, rows: list[int]) -> bool:
    """Whether rows over `cols` columns go to the packed kernels."""
    return cols >= _PACKED_MIN_COLS and len(rows) >= _PACKED_MIN_ROWS


def _pack(rows: Sequence[int], n: int) -> np.ndarray:
    """Rows of n columns as an (m, ceil(n/64)) uint64 array holding each
    row's big-endian bytes, shifted to start at column 0 (byte c // 8
    holds columns 8(c // 8) .., most significant bit first)."""
    limbs = -(-n // 64)
    pad = 64 * limbs - n
    buf = bytearray(b"".join((r << pad).to_bytes(8 * limbs, "big") for r in rows))
    return np.frombuffer(buf, dtype=np.uint64).reshape(len(rows), limbs)


def _unpack(M: np.ndarray, n: int) -> list[int]:
    """Inverse of `_pack`, and of `np.packbits` along rows: the rows of
    M, of any byte width, as ints of n columns."""
    buf, step = M.tobytes(), M.itemsize * M.shape[1]
    pad = 8 * step - n
    return [int.from_bytes(buf[i : i + step], "big") >> pad for i in range(0, len(buf), step)]


def _bits(M: np.ndarray, n: int) -> np.ndarray:
    """Packed rows (`_pack`, `np.packbits`) as 0/1 bytes: [i, c] is column c of row i."""
    return np.unpackbits(M.view(np.uint8), axis=1, count=n)


def _blocks(outer: np.ndarray, inner: np.ndarray, op, width: int = 1, upper: bool = False):
    """Yield (start, op(outer[start : start + step], inner)) over outer.

    Rows hold uint64 limbs: `width` n-bit words, then any limbs that ride
    along uncounted.  Blocks are limb-major, block[i, c, j] =
    op(outer[start + i, c], inner[j, c]), so each limb is contiguous.
    This is the block rule of every span, pair and Gram pass: a block
    holds at most _BLOCK words or one row of outer, so a pass keeps one
    block of temporaries, a few times _BLOCK * limbs * 8 bytes, at any
    size.  With `upper`, a block meets only inner[start:], the rows from
    its own first row onward: a symmetric pass of outer against itself
    then covers one triangle and the diagonal.
    """
    inner = np.ascontiguousarray(inner.T)
    step = max(1, _BLOCK // (width * inner.shape[1]))
    for start in range(0, len(outer), step):
        yield start, op(outer[start : start + step, :, None], inner[:, start:] if upper else inner)


def _combinations(R: np.ndarray) -> np.ndarray:
    """All 2^m sums of the rows of the (m, limbs) array R, m >= 0: entry x
    sums the rows picked by the bits of x.  Every word of a span, built by
    doubling, one XOR call per row.  It serves spans only: the Gray-code
    build of `_gray_table` is one sequential pass, which loses on
    span-sized tables of 1 limb (2^14 rows: 89 us against 54 us) and of 8
    or more (16 limbs: 1.3 ms against 0.4 ms), though it wins at 2-4
    limbs (91 us against 213 us at 2; 2-core x86-64, numpy 2.4)."""
    table = np.empty((1 << len(R), R.shape[1]), dtype=np.uint64)
    table[0] = 0
    for j, row in enumerate(R):
        np.bitwise_xor(table[: 1 << j], row, out=table[1 << j : 2 << j])
    return table


def _gray_table(M: np.ndarray, at: Sequence[int]) -> np.ndarray:
    """The Four-Russians table of the rows M[at[0]], .., M[at[m - 1]],
    m <= 8, in Gray-code order: entry i sums the rows picked by the bits
    of i ^ i >> 1, so entry _GRAY_INV[c] is entry c of `_combinations`.
    Entry i is entry i - 1 plus row at[ctz(i)], so one gather lays out
    the rows to add and one cumulative XOR adds them up: two numpy calls
    where doubling takes one per row (8 rows of 16 limbs: 11 us against
    24 us; 2-core x86-64, numpy 2.4)."""
    table = np.empty((1 << len(at), M.shape[1]), dtype=np.uint64)
    table[0] = 0
    # mode="clip": the indices are in range, and "raise" would buffer `out`.
    np.take(M, np.asarray(at, dtype=np.intp)[_CTZ[1 : len(table)]], axis=0, out=table[1:], mode="clip")
    return np.bitwise_xor.accumulate(table, axis=0, out=table)


def _byte_basis(strip: bytes) -> tuple[list[int], bytes]:
    """An XOR basis of the bytes of strip, and its span.

    Each basis byte is the first byte of strip outside the span of those
    before it.  Span entry c is the sum of the basis bytes picked by the
    bits of c; each new basis byte appends the coset it spans."""
    basis: list[int] = []
    span, rest = b"\0", strip.translate(None, b"\0")
    while rest:
        v = rest[0]
        coset = span.translate(_XOR_HIGH[v >> 4]).translate(_XOR_LOW[v & 15])
        rest = rest.translate(None, coset)  # the bytes still outside the span
        span += coset
        basis.append(v)
    return basis, span


def _strip_lut(span: bytes) -> tuple[list[int], bytes]:
    """The pivot bits of a span of bytes (`_byte_basis`), highest (first
    column) first, and the Four-Russians lut: lut byte b is the index c
    of the one span entry that matches b on the pivot bits.

    The pivots are the bits that lead some byte of the span; on them the
    span's bytes take every value once, so the lut inverts that map."""
    lens = span.translate(_BIT_LENGTH)
    piv = [q for q in range(7, -1, -1) if q + 1 in lens]
    pivot_bits = sum(1 << q for q in piv)
    # The table of b -> b & pivot_bits.
    on_pivots = (int.from_bytes(_IDENTITY, "little") & pivot_bits * _ONES).to_bytes(256, "little")
    return piv, on_pivots.translate(bytes.maketrans(span.translate(on_pivots), _IDENTITY[: len(span)]))


def _rref_packed(rows: list[int], cols: int) -> tuple[list[int], int, list[int]]:
    """`rref_ints` by the Method of Four Russians on uint64 limbs: the
    rows packed (`_pack`) and reduced by `_rref_strips`."""
    return _rref_strips(_pack(rows, cols), cols)


def _rref_strips(M: np.ndarray, cols: int) -> tuple[list[int], int, list[int]]:
    """`rref_ints` of the packed rows M (`_pack`'s layout, writable),
    reduced in place; the reduced rows become ints only here, at the end.

    Gauss-Jordan one strip of 8 columns (one byte of every row) at a
    time, on bytes objects: below the pivot rows found so far, the rows
    whose bytes form `_byte_basis` become the strip's pivot rows.  All
    sums of them go in one table, built along a Gray code
    (`_gray_table`), and a single gather-and-XOR clears the strip's
    pivot columns from every other row.  The lut of `_strip_lut` names
    the sum by its combination c; composed with _GRAY_INV, by one more
    `bytes.translate`, it names the table entry that holds it.
    """
    m = len(M)
    M8 = M.view(np.uint8)
    pivots: list[int] = []
    r = 0
    for j in range(-(-cols // 8)):
        col = M8[:, j].tobytes()
        picked, span = _byte_basis(col[r:])
        if not picked:
            continue
        piv, lut = _strip_lut(span)
        lut = lut.translate(_GRAY_INV)
        at = [col.find(v, r) for v in picked]
        table = _gray_table(M, at)
        M ^= np.take(table, np.frombuffer(col.translate(lut), np.uint8), axis=0)
        # The picked rows are now zero: move the rows they displace into
        # their slots and put the reduced pivot rows at r .. r + kb - 1.
        kb = len(picked)
        holes = [a for a in at if a >= r + kb]
        if holes:
            M[holes] = M[[i for i in range(r, r + kb) if i not in at]]
        M[r : r + kb] = table[[lut[1 << q] for q in piv]]
        pivots += [8 * j + 7 - q for q in piv]
        r += kb
        if r == m:
            break
    return _unpack(M[:r], cols) + [0] * (m - r), r, pivots


def _free_bits(basis: list[int], pivots: list[int], n: int) -> np.ndarray:
    """A, the bits of an rref basis on its free (non-pivot) columns, as
    0/1 bytes (`_bits`): A[i, f] is the f-th free column of basis[i]."""
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    return np.take(_bits(_pack(basis, n), n), free, axis=1)


def _odd_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An `_blocks` op: [i, j] = parity of popcount(a[i] & b[j]), the
    parity of the XOR of the limbs' ANDs, taken one limb at a time so
    that no temporary holds more than one limb."""
    acc = a[:, 0] & b[0]
    for c in range(1, len(b)):
        acc ^= a[:, c] & b[c]
    return np.bitwise_count(acc) & 1


def _gram_is_identity(A: np.ndarray) -> bool:
    """Whether AᵀA = I over GF(2), for the 0/1 bytes A (k, f): the columns
    of A packed as rows of uint64 limbs (from a contiguous copy of Aᵀ,
    which packs about 3x faster than the transposed view), one `_blocks`
    pass of parities over the upper triangle of the symmetric AᵀA, the
    diagonal included, stopping at the first block that differs from
    the identity."""
    k, f = A.shape
    cols = np.zeros((f, -(-k // 64) * 8), dtype=np.uint8)
    cols[:, : -(-k // 8)] = np.packbits(np.ascontiguousarray(A.T), axis=1)
    cols = cols.view(np.uint64)
    for _, odd in _blocks(cols, cols, _odd_overlaps, upper=True):
        odd[np.arange(len(odd)), np.arange(len(odd))] ^= 1  # the block's diagonal
        if odd.any():
            return False
    return True


def _residual_packed(words: list[int], basis: list[int], pivots: list[int], n: int) -> np.ndarray:
    """Each word w plus sum_i w[pivots[i]] basis[i], packed: zero exactly
    when w lies in the span of the rref basis.  A word's coefficients are
    its own bits at the pivot columns, so every word is reduced in one
    pass, eight basis rows (one Gray-code table, `_gray_table`) at a
    time.  Each coefficient byte c is mapped to _GRAY_INV[c], the table
    entry that sums the rows c picks."""
    W, R = _pack(words, n), _pack(basis, n)
    coef = np.packbits(np.take(_bits(W, n), pivots, axis=1), axis=1)  # np.take: 2.5x faster than [:, pivots]
    coef = np.frombuffer(_GRAY_INV, dtype=np.uint8)[coef]
    for q in range(0, len(basis), 8):
        # Byte q // 8 holds the coefficients of rows q .., the first at
        # its top bit: drop the unused low bits (_GRAY_INV commutes with
        # the shift) and take the rows reversed.
        k = min(8, len(basis) - q)
        W ^= np.take(_gray_table(R, range(q + k - 1, q - 1, -1)), coef[:, q // 8] >> (8 - k), axis=0)
    return W


class LinearCode:
    """A binary [n, k] linear code, stored by its canonical rref generator.

    The rows are words of length n (ints in [0, 2^n)); any other row is
    refused.
    """

    def __init__(self, rows: Sequence[int], n: int):
        if not 0 < n <= MAX_LENGTH:
            raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
        rows = list(rows)
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"row outside [0, 2^{n}): not a word of length {n}")
        self._span(rows, n)

    def _span(self, rows, n: int, rref=rref_ints) -> "LinearCode":
        """Make self the span of rows, unchecked: words of length n, or
        with rref=`_rref_strips` their packed array (`_pack`)."""
        work, self.k, self._pivots = rref(rows, n)
        self.n, self._basis = n, work[: self.k]
        return self

    def basis_ints(self) -> list[int]:
        return list(self._basis)

    def __contains__(self, word: int) -> bool:
        return in_rowspan(word, self._basis)

    def canonical_key(self) -> tuple:
        return tuple(self._basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.n == other.n and self._basis == other._basis

    def __hash__(self):
        return hash((self.n, tuple(self._basis)))

    def __repr__(self):
        return f"LinearCode[n={self.n}, k={self.k}]"


def _dual_rows(C: LinearCode) -> list[int]:
    """Generator rows of the dual of C, one per non-pivot column of C's
    rref basis; that column is the row's only non-pivot one, so the rows
    are independent."""
    n = C.n
    pivset = set(C._pivots)
    rows = []
    for c in range(n):
        if c in pivset:
            continue
        bit = 1 << (n - 1 - c)
        v = bit
        for row in C._basis:
            if row & bit:
                v |= 1 << (row.bit_length() - 1)  # the row's pivot
        rows.append(v)
    return rows


def _unchecked_code(rows: list[int], n: int) -> LinearCode:
    """LinearCode(rows, n) without its checks, for rows known to be words
    of length n.  n may exceed MAX_LENGTH, which bounds the codes read
    from outside: the symplectic matrix of a length-n quantum code has
    2n columns."""
    return object.__new__(LinearCode)._span(rows, n)


def dual(C: LinearCode) -> LinearCode:
    """Euclidean dual: the [n, n-k] null space of the generator matrix."""
    return _unchecked_code(_dual_rows(C), C.n)


def _residuals(words: list[int], B: LinearCode) -> Iterable[int]:
    """Each word modulo B: the lex-smallest word of its coset w + B, zero
    exactly when w lies in B; a linear map with kernel B.  Wide batches
    (`_packed`) take one `_residual_packed` call, unpacked only when not
    all zero; otherwise the words are reduced lazily, so a caller may stop
    early."""
    if not _packed(B.n, words):
        return (_reduce(w, B._basis) for w in words)
    W = _residual_packed(words, B._basis, B._pivots, B.n)
    return _unpack(W, B.n) if W.any() else [0] * len(words)


def _all_in(words: list[int], B: LinearCode) -> bool:
    """True iff every word lies in B."""
    return not any(_residuals(words, B))


def _completion_rows(C: LinearCode, Cp: LinearCode) -> tuple[list[int], list[int]]:
    """(rows, quotient): the rows of rref(C') that extend the basis of C
    to one of C + C', and the rref basis of C + C' modulo C, zero on C's
    pivot columns.  C <= C' iff C.k + len(rows) == C'.k.

    A row is picked when its residual modulo C lies outside the span of
    the picked rows' residuals.  So the rows are reduced modulo C in one
    `_residuals` call, and a running basis holds the picked residuals,
    fully reduced: sorted, it is the rref quotient basis, whose span
    holds the lex-smallest word of each coset of C in C'."""
    out: list[int] = []
    echelon: list[int] = []
    for row, left in zip(Cp._basis, _residuals(Cp._basis, C)):
        left = _reduce(left, echelon)
        if left:
            out.append(row)
            # Clear the new pivot from the other rows, so the basis stays
            # reduced and `_reduce` may take its rows in any order.
            top = 1 << (left.bit_length() - 1)
            echelon = [e ^ left if e & top else e for e in echelon] + [left]
    return out, sorted(echelon, reverse=True)


def is_subcode(A: LinearCode, B: LinearCode) -> bool:
    """True iff every codeword of A lies in B."""
    if A.n != B.n:
        raise ValueError(f"length mismatch: {A.n} != {B.n}")
    return _all_in(A._basis, B)


def is_dual_containing(C: LinearCode) -> bool:
    """True iff dual(C) <= C, by the Gram identity AᵀA = I over GF(2).

    With the pivot columns first, C's rref basis reads [I | A] and
    dual(C) has generator [Aᵀ | I], whose rows f, g have inner product
    (AᵀA + I)[f, g].  As C = dual(dual(C)), dual(C) <= C iff dual(C) is
    self-orthogonal, iff AᵀA = I; this needs n - k <= k.  Wide codes
    test AᵀA on packed columns of A (`_gram_is_identity`), the others
    the pairwise parity of the dual's rows as ints.
    """
    n, k = C.n, C.k
    if 2 * k < n:
        return False
    if k == n:
        return True
    if _packed(n, C._basis):
        return _gram_is_identity(_free_bits(C._basis, C._pivots, n))
    rows = _dual_rows(C)
    return not any((a & b).bit_count() & 1 for i, a in enumerate(rows) for b in rows[i:])


_NOT_DIGITS = str.maketrans("", "", "01")


def _digit_rows(data: bytes) -> tuple[np.ndarray, int] | None:
    """The rows of a file of rows of n 0/1 digits only, each ended by
    '\n' (the last may lack it), n >= _PACKED_MIN_COLS, packed in
    `_pack`'s layout; None for any other file.  The bytes are checked
    and packed by numpy in blocks of whole rows of at most 4 * _BLOCK
    digits (64 KiB), so that no temporary grows with the file."""
    n = data.find(b"\n")  # the first row's length
    if n < 0:
        n = len(data)
    m = -(-len(data) // (n + 1))
    if n < _PACKED_MIN_COLS or len(data) < m * (n + 1) - 1:
        return None
    M = np.zeros((m, -(-n // 64)), dtype=np.uint64)
    M8 = M.view(np.uint8)
    step = max(1, 4 * _BLOCK // n)  # the rows of a block
    for start in range(0, m, step):
        block = data[start * (n + 1) : (start + step) * (n + 1)]
        if len(block) % (n + 1):
            block += b"\n"  # the last row, without its newline
        lines = np.frombuffer(block, np.uint8).reshape(-1, n + 1)
        bits = lines[:, :n] ^ ord("0")
        if bits.max() > 1 or (lines[:, n] != ord("\n")).any():
            return None
        M8[start : start + len(lines), : -(-n // 8)] = np.packbits(bits, axis=1)
    return M, n


def parse_matrix(text: str) -> tuple[list[int], int]:
    """Parse a text block of 0/1 rows into (rows, n).

    Each row is read as a binary number, so its first digit is
    coordinate 0.  Lines end at '\n' only.  Spaces and tabs between
    digits are ignored; blank lines and lines starting with '#' are
    skipped.  Ragged rows or foreign characters raise MatrixParseError
    with the offending line number.  One `int(..., 2)` call per row and
    no numpy: this is the plain reader, and the oracle of `load_code`,
    which sends it every file but the bare-row ones, decoded as text
    mode decodes it, with its line ends mapped to '\n'.
    """
    rows: list[int] = []
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        digits = stripped
        if " " in digits or "\t" in digits:
            digits = digits.replace(" ", "").replace("\t", "")
        try:
            row = int(digits, 2)
        except ValueError:
            row = None
        # int() also takes a sign, '_', a '0b' prefix and non-ASCII digits.
        if row is None or digits[0] in "+-" or "_" in digits or "b" in digits or "B" in digits or not digits.isascii():
            bad = digits.translate(_NOT_DIGITS)  # only to word the error
            raise MatrixParseError(
                f"line {lineno}: unexpected characters {sorted(set(bad))}"
            )
        if width is None:
            width = len(digits)
        elif len(digits) != width:
            raise MatrixParseError(
                f"line {lineno}: row has {len(digits)} columns, expected {width}"
            )
        rows.append(row)
    if width is None:
        raise MatrixParseError("no matrix rows found")
    return rows, width


def load_code(data: bytes) -> LinearCode:
    """The code spanned by the rows of a matrix file's bytes, read as
    text mode reads the file (UTF-8, '\r\n' and '\r' ending lines).

    A file of bare rows (`_digit_rows`, on the bytes with their line
    ends mapped to '\n') goes from bytes to packed rows and through the
    strip loop (`_rref_strips`), whatever its row count, so its rows
    become ints once, from the reduced basis.  Any other file is decoded
    and read by `parse_matrix`: the same rows, and the same errors, a
    decoding error naming the byte's offset in the file.
    """
    # The test first: replace(b"\r\n", ..) scans a file about 70x slower
    # than `in` does, even when it finds nothing.
    plain = _digit_rows(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data)
    if plain is None:
        # Decoded before the line ends are mapped, so that a decoding
        # error names the byte's offset in the file, as text mode's does.
        text = data.decode()
        return LinearCode(*parse_matrix(text.replace("\r\n", "\n").replace("\r", "\n")))
    M, n = plain
    if n > MAX_LENGTH:
        raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
    return object.__new__(LinearCode)._span(M, n, _rref_strips)


def render_matrix(rows: Sequence[int], n: int) -> str:
    """Inverse of parse_matrix: one space-separated 0/1 line per row."""
    return "\n".join(" ".join(format(r, f"0{n}b")) for r in rows)


def extend_parity(C: LinearCode) -> LinearCode:
    """Append an overall parity bit: [n, k] -> [n+1, k], all codewords even."""
    return LinearCode([r << 1 | r.bit_count() & 1 for r in C.basis_ints()], C.n + 1)


def even_weight_code(n: int) -> LinearCode:
    """The [n, n-1, 2] code of all even-weight words."""
    if n < 2:
        raise ValueError("n >= 2 required")
    return LinearCode([0b11 << i for i in range(n - 1)], n)


def repetition_code(n: int) -> LinearCode:
    """The [n, 1, n] repetition code."""
    return LinearCode([(1 << n) - 1], n)
