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
first.  A word's bits at the pivot columns, and the free columns of the
Gram pass, are read off the unpacked rows, one 0/1 byte per column
(`_bits`).
`distances._span_limbs` reads the packed bytes as big-endian uint64
limbs, so that comparing limbs compares words.  Every span, pair and
Gram pass runs over the blocks of `_blocks`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MAX_LENGTH = 1024
DEFAULT_ENUM_CAP = 26
# Matrices (or batches of words) with at least this many columns and
# rows go to the packed kernels.  Timed on random matrices (2-core x86-64,
# numpy 2.4): the packed rref costs a near-fixed ~0.1 ms per strip of 8
# pivots, the int one a Python step per row per pivot, and they cross at
# 64-96 rows for n = 256..1024.  Batched membership is cheaper packed
# from about 20 words, but no caller sends a batch of 20-63 words at
# n >= 256, so one rule serves both.  Below n = 256 numpy's per-call cost
# would dominate the many small codes the searches build.
_PACKED_MIN_COLS = 256
_PACKED_MIN_ROWS = 64
_BLOCK = 1 << 14  # most words in one block of `_blocks`
# The nonzero byte values, scrambled (times 101 mod 256) so that the
# first few a strip holds are likely independent: the first nine of the
# full order already span GF(2)^8.
_BYTE_ORDER = np.frombuffer(bytes(b * 101 % 256 for b in range(1, 256)), np.uint8)


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


def _blocks(outer: np.ndarray, inner: np.ndarray, op, width: int = 1):
    """Yield (start, op(outer[start : start + step], inner)) over outer.

    Rows hold uint64 limbs: `width` n-bit words, then any limbs that ride
    along uncounted.  Blocks are limb-major, block[i, c, j] =
    op(outer[start + i, c], inner[j, c]), so each limb is contiguous.
    This is the block rule of every span, pair and Gram pass: a block
    holds at most _BLOCK words or one row of outer, so a pass keeps one
    block of temporaries, a few times _BLOCK * limbs * 8 bytes, at any
    size.
    """
    inner = np.ascontiguousarray(inner.T)
    step = max(1, _BLOCK // (width * inner.shape[1]))
    for start in range(0, len(outer), step):
        yield start, op(outer[start : start + step, :, None], inner)


def _combinations(R: np.ndarray) -> np.ndarray:
    """All 2^m sums of the rows of the (m, limbs) array R, m >= 0: entry x
    sums the rows picked by the bits of x.  The Four-Russians table, and
    every word of a span."""
    table = np.empty((1 << len(R), R.shape[1]), dtype=np.uint64)
    table[0] = 0
    for j, row in enumerate(R):
        np.bitwise_xor(table[: 1 << j], row, out=table[1 << j : 2 << j])
    return table


def _rref_packed(rows: list[int], cols: int) -> tuple[list[int], int, list[int]]:
    """`rref_ints` by the Method of Four Russians on uint64 limbs.

    Gauss-Jordan one strip of 8 columns (one byte of every row) at a
    time.  The strip's pivots are found on small ints, from the distinct
    bytes of the rows below the pivot rows found so far; all sums of the
    chosen pivot rows go in one table, and a single gather-and-XOR clears
    the strip's pivot columns from every other row.
    """
    m = len(rows)
    M = _pack(rows, cols)
    M8 = M.view(np.uint8)
    seen = np.empty(256, dtype=bool)
    pivots: list[int] = []
    r = 0
    for j in range(-(-cols // 8)):
        seen[:] = False
        seen[M8[r:, j]] = True
        # An XOR basis of the strip's bytes: each reduced byte is keyed by
        # its highest bit (its first column) and tagged with the chosen
        # rows it sums.
        chosen: list[int] = []
        basis: dict[int, tuple[int, int]] = {}
        for v in _BYTE_ORDER[seen[_BYTE_ORDER]].tolist():
            x, combo = v, 1 << len(chosen)
            for p, (b, bc) in basis.items():
                if x >> p & 1:
                    x, combo = x ^ b, combo ^ bc
            if x:
                basis[x.bit_length() - 1] = (x, combo)
                chosen.append(v)
                if len(chosen) == 8:
                    break
        if not chosen:
            continue
        # Back-substitute, so each byte has one bit on the pivot columns.
        piv, red = list(basis), list(basis.values())
        for i in range(len(piv) - 2, -1, -1):
            x, combo = red[i]
            for q in range(i + 1, len(piv)):
                if x >> piv[q] & 1:
                    x, combo = x ^ red[q][0], combo ^ red[q][1]
            red[i] = (x, combo)
        unit = dict(zip(piv, (combo for _, combo in red)))
        lut = np.zeros(256, dtype=np.uint8)  # byte -> chosen rows matching it on the pivots
        for q in range(8):
            np.bitwise_xor(lut[: 1 << q], unit.get(q, 0), out=lut[1 << q : 2 << q])
        strip = M8[r:, j].tobytes()
        at = [r + strip.find(v) for v in chosen]
        table = _combinations(M[at])
        M ^= table[lut[M8[:, j]]]
        # The chosen rows are now zero: move the rows they displace into
        # their slots and put the reduced pivot rows at r .. r + kb - 1.
        kb = len(chosen)
        holes = [a for a in at if a >= r + kb]
        if holes:
            M[holes] = M[[i for i in range(r, r + kb) if i not in at]]
        piv.sort(reverse=True)  # by column
        M[r : r + kb] = table[[unit[p] for p in piv]]
        pivots += [8 * j + 7 - p for p in piv]
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
    of A packed as rows of uint64 limbs, one `_blocks` pass of parities,
    stopping at the first block that differs from the identity."""
    k, f = A.shape
    cols = np.zeros((f, -(-k // 64) * 8), dtype=np.uint8)
    cols[:, : -(-k // 8)] = np.packbits(A.T, axis=1)
    cols = cols.view(np.uint64)
    for start, odd in _blocks(cols, cols, _odd_overlaps):
        odd[np.arange(len(odd)), np.arange(start, start + len(odd))] ^= 1
        if odd.any():
            return False
    return True


def _residual_packed(words: list[int], basis: list[int], pivots: list[int], n: int) -> np.ndarray:
    """Each word w plus sum_i w[pivots[i]] basis[i], packed: zero exactly
    when w lies in the span of the rref basis.  A word's coefficients are
    its own bits at the pivot columns, so every word is reduced in one
    pass, eight basis rows (one table) at a time."""
    W, R = _pack(words, n), _pack(basis, n)
    coef = np.packbits(np.take(_bits(W, n), pivots, axis=1), axis=1)  # np.take: 2.5x faster than [:, pivots]
    for q in range(0, len(basis), 8):
        # Byte q // 8 holds the coefficients of rows q .., the first at
        # its top bit: drop the unused low bits and take the rows reversed.
        rows = R[q : q + 8]
        W ^= _combinations(rows[::-1])[coef[:, q // 8] >> (8 - len(rows))]
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

    def _span(self, rows: list[int], n: int) -> "LinearCode":
        """Make self the span of rows, words of length n, unchecked."""
        work, self.k, self._pivots = rref_ints(rows, n)
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


def _completion_rows(C: LinearCode, Cp: LinearCode) -> list[int]:
    """Rows of rref(C') that extend the basis of C to a basis of C' >= C.

    A row is picked when it lies outside the span of C and the rows
    picked before it, that is, when its residual modulo C lies outside
    the span of theirs.  So the rows are reduced modulo C in one
    `_residuals` call, and a running rref basis holds only the picked
    residuals."""
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
    assert C.k + len(out) == Cp.k
    return out


def _quotient_basis(C: LinearCode, B: LinearCode) -> list[int]:
    """Basis of B/C, C <= B: the rref of the completion rows' residuals
    modulo C, zero on C's pivot columns."""
    rows, rank, _ = rref_ints(_residuals(_completion_rows(C, B), C), C.n)
    return rows[:rank]


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


def parse_matrix(text: str) -> tuple[list[int], int]:
    """Parse a text block of 0/1 rows into (rows, n).

    Each row is read as a binary number, so its first digit is
    coordinate 0.  Lines end at '\n' only.  Spaces and tabs between
    digits are ignored; blank lines and lines starting with '#' are
    skipped.  Ragged rows or
    foreign characters raise MatrixParseError with the offending line
    number.
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
