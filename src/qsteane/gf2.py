"""Word-packed GF(2) vectors, matrices and linear codes.

Rows are stored as Python ints (bit i = coordinate i): one machine word
for n <= 64, a big int up to n = 1024.  All higher-level machinery
(distance scans, Steane assembly, BCH construction) works on these
bitsets.

Matrices with at least _PACKED_MIN_COLS columns and _PACKED_MIN_ROWS
rows are reduced, dualised and tested for containment on a bit-packed
copy instead, and the results come back as the same ints the int paths
give.  The copy has ceil(n/64) uint64 limbs per row, coordinate c at bit
c % 64 of limb c // 64 (little-endian), which is the int's own bit order:
`int.to_bytes`/`int.from_bytes` convert a row in one call, and byte
c // 8 of a row holds the 8-column strip the Four-Russians elimination
works on.  `distances._span_limbs` puts coordinate c at bit 63 - c % 64
instead, so that comparing limbs compares words lexicographically; the
algebra here needs no order, only XOR and bit extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

MAX_LENGTH = 1024
DEFAULT_ENUM_CAP = 26
# Matrices with at least this many columns and rows go to the packed
# kernels.  Timed on random matrices (2-core x86-64, numpy 2.4): the
# packed rref costs a near-fixed ~0.1 ms per strip of 8 pivots, the int
# one a Python step per row per pivot, and they cross at 64-96 rows for
# n = 256..1024; batched membership crosses near 32 words, and the
# packed dual is faster at every k from n = 256.  Below n = 256 numpy's
# per-call cost would dominate the many small codes the searches build.
_PACKED_MIN_COLS = 256
_PACKED_MIN_ROWS = 64
_LE64 = np.dtype("<u8")
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


@dataclass(frozen=True)
class BinaryVector:
    """A GF(2) vector of fixed length, bits packed into an int."""

    length: int
    bits: int

    def __post_init__(self):
        if not 0 < self.length <= MAX_LENGTH:
            raise ValueError(f"length must be in [1, {MAX_LENGTH}]")
        if self.bits >> self.length:
            raise ValueError("bits exceed vector length")

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "BinaryVector") -> "BinaryVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BinaryVector(self.length, self.bits ^ other.bits)

    def __or__(self, other: "BinaryVector") -> "BinaryVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BinaryVector(self.length, self.bits | other.bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def lex_key(self) -> int:
        """Key ordering vectors as left-to-right coordinate strings."""
        return lex_key(self.bits, self.length)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]


def lex_key(bits: int, n: int) -> int:
    """Key ordering words as coordinate strings b0 b1 ... b_{n-1}.

    Reverses the n low bits, so integer comparison of keys compares the
    strings lexicographically.  Needs 0 <= bits < 2^n.
    """
    return int(format(bits, f"0{n}b")[::-1], 2)


@dataclass(frozen=True)
class BinaryMatrix:
    """A dense GF(2) matrix; every row is a BinaryVector of width cols."""

    cols: int
    data: tuple

    def __post_init__(self):
        for row in self.data:
            if row.length != self.cols:
                raise ValueError("row length != cols")

    @property
    def rows(self) -> int:
        return len(self.data)

    @classmethod
    def from_rows(cls, rows: Sequence[int], cols: int) -> "BinaryMatrix":
        return cls(cols, tuple(BinaryVector(cols, r) for r in rows))

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.data]

    def __str__(self) -> str:
        return render_matrix(self)


def rref_ints(rows: Sequence[int], cols: int) -> tuple[list[int], int, list[int]]:
    """Reduced row-echelon form on int-packed rows.

    Returns (reduced rows, rank, pivot column indices).  Zero rows are
    kept at the bottom so the shape is preserved.  Wide matrices go
    through the bit-packed kernel `_rref_packed`, which returns the same
    (the reduced row-echelon form is unique).
    """
    work = list(rows)
    if _packed(cols, work):
        return _rref_packed(work, cols)
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        mask = 1 << col
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


def rref(M: BinaryMatrix) -> tuple[BinaryMatrix, int, list[int]]:
    """Reduced row-echelon form of M over GF(2)."""
    if M.rows == 0:
        raise ValueError("empty matrix")
    work, rank, pivots = rref_ints(M.row_ints(), M.cols)
    return BinaryMatrix.from_rows(work, M.cols), rank, pivots


def in_rowspan(vec: int, basis_rref: Sequence[int], pivots: Sequence[int]) -> bool:
    """Membership test against an rref basis (reduce and check zero)."""
    v = vec
    for row, p in zip(basis_rref, pivots):
        if (v >> p) & 1:
            v ^= row
    return v == 0


# --- bit-packed kernels for wide matrices ------------------------------------


def _packed(cols: int, rows: list[int]) -> bool:
    """Whether rows over `cols` columns go to the packed kernels: a large
    enough matrix whose rows all fit its columns."""
    if cols < _PACKED_MIN_COLS or len(rows) < _PACKED_MIN_ROWS:
        return False
    return min(rows) >= 0 and max(rows) >> cols == 0


def _pack(rows: Sequence[int], limbs: int) -> np.ndarray:
    """Rows as an (m, limbs) uint64 array, coordinate c at bit c % 64 of
    limb c // 64 (so byte c // 8 of a row holds coordinates 8(c // 8) ..)."""
    buf = bytearray(b"".join(r.to_bytes(8 * limbs, "little") for r in rows))
    return np.frombuffer(buf, dtype=_LE64).reshape(len(rows), limbs)


def _unpack(M: np.ndarray) -> list[int]:
    """Inverse of `_pack`: the rows of M as ints."""
    buf, step = M.tobytes(), 8 * M.shape[1]
    return [int.from_bytes(buf[i : i + step], "little") for i in range(0, len(buf), step)]


def _combinations(R: Sequence[np.ndarray]) -> np.ndarray:
    """All 2^len(R) sums of the packed rows R: entry x sums the rows picked
    by the bits of x.  The Four-Russians table."""
    table = np.empty((1 << len(R), len(R[0])), dtype=_LE64)
    table[0] = 0
    for j, row in enumerate(R):
        np.bitwise_xor(table[: 1 << j], row, out=table[1 << j : 2 << j])
    return table


def _transpose(M: np.ndarray) -> np.ndarray:
    """Packed transpose: row c of the result is column c of M (bit i =
    row i), for every c < 64 * limbs; M's rows are padded to whole limbs.

    Works on 8 x 8 bit blocks held one per uint64 (byte i = row i of the
    block), each transposed in place by three masked swaps.
    """
    m, limbs = M.shape
    blocks = -(-m // 64) * 8
    X = np.zeros((8 * limbs, 8 * blocks), dtype=np.uint8)
    X[:, :m] = M.view(np.uint8).T
    X = X.view(_LE64)
    t = np.empty_like(X)
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        np.right_shift(X, shift, out=t)
        t ^= X
        t &= mask
        X ^= t
        t <<= shift
        X ^= t
    # Byte c of block (j, b) now holds column 8j + c over rows 8b .. 8b + 7.
    Y = X.view(np.uint8).reshape(8 * limbs, blocks, 8).transpose(0, 2, 1)
    return np.ascontiguousarray(Y).reshape(64 * limbs, blocks).view(_LE64)


def _select_columns(M: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Columns `cols` of M, in that order, packed from bit 0."""
    return _transpose(_transpose(M)[list(cols)])[: len(M)]


def _rref_packed(rows: list[int], cols: int) -> tuple[list[int], int, list[int]]:
    """`rref_ints` by the Method of Four Russians on uint64 limbs.

    Gauss-Jordan one strip of 8 columns (one byte of every row) at a
    time.  The strip's pivots are found on small ints, from the distinct
    bytes of the rows below the pivot rows found so far; all sums of the
    chosen pivot rows go in one table, and a single gather-and-XOR clears
    the strip's pivot columns from every other row.
    """
    m, limbs = len(rows), -(-cols // 64)
    M = _pack(rows, limbs)
    M8 = M.view(np.uint8)
    seen = np.empty(256, dtype=bool)
    pivots: list[int] = []
    r = 0
    for j in range(-(-cols // 8)):
        seen[:] = False
        seen[M8[r:, j]] = True
        # An XOR basis of the strip's bytes: each reduced byte is keyed by
        # its lowest bit and tagged with the chosen rows it sums.
        chosen: list[int] = []
        basis: dict[int, tuple[int, int]] = {}
        for v in _BYTE_ORDER[seen[_BYTE_ORDER]].tolist():
            x, combo = v, 1 << len(chosen)
            for p, (b, bc) in basis.items():
                if x >> p & 1:
                    x, combo = x ^ b, combo ^ bc
            if x:
                basis[(x & -x).bit_length() - 1] = (x, combo)
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
        table = _combinations([M[a] for a in at])
        M ^= table[lut[M8[:, j]]]
        # The chosen rows are now zero: move the rows they displace into
        # their slots and put the reduced pivot rows at r .. r + kb - 1.
        kb = len(chosen)
        holes = [a for a in at if a >= r + kb]
        if holes:
            M[holes] = M[[i for i in range(r, r + kb) if i not in at]]
        piv.sort()
        M[r : r + kb] = table[[unit[p] for p in piv]]
        pivots += [8 * j + p for p in piv]
        r += kb
        if r == m:
            break
    return _unpack(M[:r]) + [0] * (m - r), r, pivots


def _dual_packed(basis: list[int], pivots: list[int], n: int) -> list[int]:
    """Generator rows of the dual of an rref basis, by packed transposes.

    Dual row f is e_c + sum_i basis[i][c] e_{pivots[i]}, c the f-th free
    column.  So in the transpose D^T, row c is the unit vector e_f, and
    row pivots[i] is basis[i] restricted to the free columns.
    """
    k = len(basis)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    restricted = _select_columns(_pack(basis, -(-n // 64)), free)
    dt = np.zeros((n, restricted.shape[1]), dtype=_LE64)
    dt[pivots] = restricted
    dt[free] = _pack([1 << f for f in range(n - k)], dt.shape[1])
    return _unpack(_transpose(dt)[: n - k])


def _residual_packed(words: list[int], basis: list[int], pivots: list[int], n: int) -> np.ndarray:
    """Each word w plus sum_i w[pivots[i]] basis[i], packed: zero exactly
    when w lies in the span of the rref basis.  A word's coefficients are
    its own bits at the pivot columns, so every word is reduced in one
    pass, eight basis rows (one table) at a time."""
    limbs = -(-n // 64)
    W, R = _pack(words, limbs), _pack(basis, limbs)
    coef = _select_columns(W, pivots).view(np.uint8)
    for q in range(0, len(basis), 8):
        W ^= _combinations(R[q : q + 8])[coef[:, q // 8]]
    return W


@dataclass
class LinearCode:
    """A binary [n, k] linear code, stored by its canonical rref generator.

    cached_d1 / cached_d2 hold exact distances once a scan has computed
    them; they are never guessed.
    """

    n: int
    k: int = field(init=False)
    gen: BinaryMatrix = field(init=False)
    cached_d1: Optional[int] = field(default=None, compare=False)
    cached_d2: Optional[int] = field(default=None, compare=False)

    _basis: list[int] = field(init=False, repr=False, compare=False)
    _pivots: list[int] = field(init=False, repr=False, compare=False)

    def __init__(self, rows: Sequence[int], n: int):
        if not 0 < n <= MAX_LENGTH:
            raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
        work, rank, pivots = rref_ints(list(rows), n)
        self.n = n
        self.k = rank
        self._basis = work[:rank]
        self._pivots = pivots
        self.gen = BinaryMatrix.from_rows(self._basis, n) if rank else BinaryMatrix(n, ())
        self.cached_d1 = None
        self.cached_d2 = None

    @classmethod
    def from_matrix(cls, M: BinaryMatrix) -> "LinearCode":
        return cls(M.row_ints(), M.cols)

    def basis_ints(self) -> list[int]:
        return list(self._basis)

    def contains_word(self, bits: int) -> bool:
        return in_rowspan(bits, self._basis, self._pivots)

    def canonical_key(self) -> tuple:
        return tuple(lex_key(r, self.n) for r in self._basis)

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
    if _packed(n, C._basis) and C.k < n:
        return _dual_packed(C._basis, C._pivots, n)
    pivset = set(C._pivots)
    free_cols = [c for c in range(n) if c not in pivset]
    rows = []
    for c in free_cols:
        v = 1 << c
        for row, p in zip(C._basis, C._pivots):
            if (row >> c) & 1:
                v |= 1 << p
        rows.append(v)
    return rows


def dual(C: LinearCode) -> LinearCode:
    """Euclidean dual: the [n, n-k] null space of the generator matrix."""
    return LinearCode(_dual_rows(C), C.n)


def _all_in(words: list[int], B: LinearCode) -> bool:
    """True iff every word lies in B."""
    if _packed(B.n, words) and B.k:
        return not _residual_packed(words, B._basis, B._pivots, B.n).any()
    return all(B.contains_word(w) for w in words)


def is_subcode(A: LinearCode, B: LinearCode) -> bool:
    """True iff every codeword of A lies in B."""
    if A.n != B.n:
        raise ValueError(f"length mismatch: {A.n} != {B.n}")
    return _all_in(A._basis, B)


def is_dual_containing(C: LinearCode) -> bool:
    """True iff dual(C) <= C: `is_subcode(dual(C), C)` without the rref
    of the dual's generator rows that building dual(C) costs."""
    return _all_in(_dual_rows(C), C)


_NOT_DIGITS = str.maketrans("", "", "01")


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse a text block of 0/1 rows into a BinaryMatrix.

    Spaces and tabs between digits are ignored; blank lines and lines
    starting with '#' are skipped.  Ragged rows or foreign characters
    raise MatrixParseError with the offending line number.
    """
    rows: list[int] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        digits = stripped.replace(" ", "").replace("\t", "")
        # Checked before int(), which would also take '_', a sign, a
        # '0b' prefix or non-ASCII digits.
        bad = digits.translate(_NOT_DIGITS)
        if bad:
            raise MatrixParseError(
                f"line {lineno}: unexpected characters {sorted(set(bad))}"
            )
        if width is None:
            width = len(digits)
        elif len(digits) != width:
            raise MatrixParseError(
                f"line {lineno}: row has {len(digits)} columns, expected {width}"
            )
        rows.append(int(digits[::-1], 2))
    if width is None:
        raise MatrixParseError("no matrix rows found")
    return BinaryMatrix.from_rows(rows, width)


def render_matrix(M: BinaryMatrix) -> str:
    """Inverse of parse_matrix: one space-separated 0/1 line per row."""
    return "\n".join(" ".join(str(row)) for row in M.data)


def extend_parity(C: LinearCode) -> LinearCode:
    """Append an overall parity bit: [n, k] -> [n+1, k], all codewords even."""
    rows = []
    for r in C.basis_ints():
        if r.bit_count() & 1:
            r |= 1 << C.n
        rows.append(r)
    return LinearCode(rows, C.n + 1)


def even_weight_code(n: int) -> LinearCode:
    """The [n, n-1, 2] code of all even-weight words."""
    if n < 2:
        raise ValueError("n >= 2 required")
    return LinearCode([0b11 << i for i in range(n - 1)], n)


def repetition_code(n: int) -> LinearCode:
    """The [n, 1, n] repetition code."""
    return LinearCode([(1 << n) - 1], n)
