"""Word-packed GF(2) vectors, matrices and linear codes.

Rows are stored as Python ints (bit i = coordinate i), which gives a
single machine word for n <= 64 and transparent big-int fallback up to
n = 1024.  All higher-level machinery (distance scans, Steane assembly,
BCH construction) works on these bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

MAX_LENGTH = 1024
DEFAULT_ENUM_CAP = 26


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
        return "".join(str(self[i]) for i in range(self.length))


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
    kept at the bottom so the shape is preserved.
    """
    work = list(rows)
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


def dual(C: LinearCode) -> LinearCode:
    """Euclidean dual: the [n, n-k] null space of the generator matrix."""
    n = C.n
    pivset = set(C._pivots)
    free_cols = [c for c in range(n) if c not in pivset]
    rows = []
    for c in free_cols:
        v = 1 << c
        for row, p in zip(C._basis, C._pivots):
            if (row >> c) & 1:
                v |= 1 << p
        rows.append(v)
    return LinearCode(rows, n)


def is_subcode(A: LinearCode, B: LinearCode) -> bool:
    """True iff every codeword of A lies in B."""
    if A.n != B.n:
        raise ValueError(f"length mismatch: {A.n} != {B.n}")
    return all(B.contains_word(r) for r in A._basis)


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
        bad = set(digits) - {"0", "1"}
        if bad:
            raise MatrixParseError(
                f"line {lineno}: unexpected characters {sorted(bad)}"
            )
        if width is None:
            width = len(digits)
        elif len(digits) != width:
            raise MatrixParseError(
                f"line {lineno}: row has {len(digits)} columns, expected {width}"
            )
        bits = 0
        for i, ch in enumerate(digits):
            if ch == "1":
                bits |= 1 << i
        rows.append(bits)
    if width is None:
        raise MatrixParseError("no matrix rows found")
    return BinaryMatrix.from_rows(rows, width)


def render_matrix(M: BinaryMatrix) -> str:
    """Inverse of parse_matrix: one space-separated 0/1 line per row."""
    return "\n".join(" ".join(str(row[i]) for i in range(M.cols)) for row in M.data)


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
