"""Shared fixtures and independent brute-force oracles.

Words are ints with coordinate c at bit n - 1 - c, as in the library, so
the oracles take lexicographic minima with plain int comparisons; `lex`
writes a word out as its coordinate string.

The oracles deliberately avoid the library's scan machinery: plain
itertools/numpy reimplementations used to cross-check the optimized
paths, among them the Gray-code walks that check the numpy span
kernel, the prefix-loop error scan that checks the meet-in-the-middle
join, and the running-echelon completion rows and coset-leader subset
walk that check `_completion_rows` and `coset_extend`.  The one
exception is the per-coset k' = k + 1 loop, which checks the batched
coset sweep with the library's own distance scan, on codes assembled
here from the running-echelon completion rows (`enlargement_code`,
which also serves the tests that need second halves of their own).
The certificate checkers (fixture rows,
span membership, symplectic product, the Gleason-shadow obstruction)
work on plain ints and exact fractions only.  The rate-bound curve's
oracle evaluates the scalar bound functions point by point.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from importlib import resources
from typing import Iterator, Optional, Sequence

import numpy as np
import pytest

from qsteane import gf2
from qsteane.bch import FamilySpec, build_family_code
from qsteane.bounds import bound_cs, bound_gf4, bound_steane, bound_thm4
from qsteane.gf2 import CodeConstructionError, LinearCode, dual, extend_parity, render_matrix
from qsteane.distances import quantum_distance_exact
from qsteane.steane import QuantumCode
from qsteane.table1 import TABLE1_ROWS, check_row


#: Hamming [7,4,3] and its parity extension, the self-dual [8,4,4] code.
HAMMING_7_4 = LinearCode([0b0001011, 0b0010110, 0b0100111, 0b1000101], 7)
EXT_HAMMING_8_4 = extend_parity(HAMMING_7_4)


def span_words(code: LinearCode) -> list[int]:
    """All 2^k codewords by direct linear combination (no Gray walk)."""
    words = [0]
    for row in code.basis_ints():
        words += [w ^ row for w in words]
    return words


def xor_sum(rows: Sequence[int]) -> int:
    return functools.reduce(operator.xor, rows, 0)


def enumerate_span(basis: Sequence[int]) -> Iterator[int]:
    """Gray-code walk over the span of `basis`: starts at 0, each step
    XORs a single basis element, visits every element exactly once."""
    word = 0
    yield word
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        yield word


def enumerate_codewords(code: LinearCode) -> Iterator[int]:
    """All 2^k codewords in Gray-code order over the message space."""
    return enumerate_span(code.basis_ints())


def lex(word: int, n: int) -> str:
    """A word as its coordinate string, coordinate 0 first."""
    return format(word, f"0{n}b")


def coordinate_rows(code: LinearCode) -> list[str]:
    """The rows of the canonical basis of code as `render_matrix` writes them."""
    return render_matrix(code.basis_ints(), code.n).splitlines()


def witness_strings(report, n: int) -> tuple[str, ...]:
    """The witness words of a distance report as coordinate strings."""
    return tuple(lex(w, n) for w in report.witness)


def css_code(cx: LinearCode, cz: LinearCode) -> QuantumCode:
    """Plain CSS assembly (Gx|0), (0|Gz)."""
    gx = cx.basis_ints() + [0] * cz.k
    gz = [0] * cx.k + cz.basis_ints()
    return QuantumCode(n=cx.n, gx=gx, gz=gz, K=cx.k + cz.k - cx.n, d_lower=1)


def brute_min_distance(code: LinearCode) -> int:
    return min(w.bit_count() for w in span_words(code) if w)


def reference_min_word(words, n: int) -> tuple[int, int]:
    """Weight and lexicographically smallest word among the lightest
    nonzero words."""
    word = min((w for w in words if w), key=lambda w: (w.bit_count(), w))
    return word.bit_count(), word


def reference_quantum_scan(gx, gz, syn, n, self_orthogonal):
    """Quantum distance and witness by a Gray-code walk over all 2^r
    combinations of the rows (gx[i] | gz[i]), with syndrome syn[i].

    Counts the elements of nonzero syndrome, or every nonzero element
    when self_orthogonal; the witness is the lexicographically smallest
    (ux, uz) of least weight wt(ux | uz), or None when nothing counts.
    """
    best, best_wit = n + 1, None
    rows = [(s << 2 * n) | (x << n) | z for x, z, s in zip(gx, gz, syn)]
    mask = (1 << n) - 1
    for v in enumerate_span(rows):
        ux, uz, s = (v >> n) & mask, v & mask, v >> 2 * n
        if (s == 0) != self_orthogonal or not ux | uz:
            continue
        key = ((ux | uz).bit_count(), ux, uz)
        if best_wit is None or key < best:
            best, best_wit = key, (ux, uz)
    return (best[0], best_wit) if best_wit else (n + 1, None)


def reference_error_scan(gx, gz, n, self_orthogonal, budget):
    """Quantum distance and witness by visiting Pauli errors e weight by
    weight, each tested for membership in C = span(Gx|Gz) by its
    syndrome against a basis of S, the symplectic dual of C.

    e counts when it lies in C and outside S (any nonzero e when
    self_orthogonal); the whole first weight holding one is visited, for
    the lexicographically smallest (ux, uz).  Each weight is split as a
    prefix over the lowest qubits, looped in Python, and a suffix from a
    table of every weight-t error (at most 2^14 rows) ordered by lowest
    qubit, so the suffixes above a prefix form one contiguous slice.
    Returns (value, (ux, uz), visited), visited counting the errors of
    weight <= value, or None when n > 64, S needs more than 64 syndrome
    bits, or the errors up to the next weight would exceed `budget`.
    """
    if n > 64:
        return None
    S = dual(LinearCode([z << n | x for x, z in zip(gx, gz)], 2 * n)).basis_ints()
    if len(S) > 64:
        return None

    def columns(rows):  # bit i of column q: column q of rows[i]
        return [sum((row >> (n - 1 - q) & 1) << i for i, row in enumerate(rows)) for q in range(n)]

    bx, bz = columns([h & ((1 << n) - 1) for h in S]), columns([h >> n for h in S])
    table = np.array([bx, bz, [a ^ b for a, b in zip(bx, bz)]], dtype=np.uint64).T.copy()

    def layer(supports):  # row s * 3^t + p: support s under base-3 pattern p
        out = np.zeros((len(supports), 1), dtype=np.uint64)
        for c in range(supports.shape[1]):
            out = (out[:, :, None] ^ table[supports[:, c]][:, None, :]).reshape(len(supports), -1)
        return out.ravel()

    def pauli(qubits, pattern):  # (ux, uz); the last qubit is the lowest digit
        ux = uz = 0
        for q in reversed(qubits):
            pattern, p = divmod(pattern, 3)
            ux |= (p != 1) << (n - 1 - q)  # X or Y
            uz |= (p != 0) << (n - 1 - q)  # Z or Y
        return ux, uz

    visited = 0
    for w in range(1, n + 1):
        size = math.comb(n, w) * 3**w
        visited += size
        if visited > budget:
            return None
        if size <= 1 << 14:
            t = w
            supports = list(itertools.combinations(range(n), t))
            suffix = layer(np.array(supports, dtype=np.intp))
            # start[q]: first suffix row whose lowest qubit is above q.
            lowest = [s[0] for s in supports]
            start = [bisect.bisect_right(lowest, q) * 3**t for q in range(n)]
        best = None
        for prefix in itertools.combinations(range(n), w - t):
            lo = start[prefix[-1]] if prefix else 0
            tail = suffix[lo:]
            for i, syn in enumerate(layer(np.array([prefix], dtype=np.intp)).tolist()):
                for j in (np.flatnonzero(tail == syn) + lo).tolist():
                    s, p = divmod(j, 3**t)
                    e = pauli(prefix + supports[s], i * 3**t + p)
                    if not self_orthogonal and not any(symplectic_product(e, g) for g in zip(gx, gz)):
                        continue  # an element of the stabilizer S
                    if best is None or e < best:
                        best = e
        if best is not None:
            return w, best, visited
    return None


def count_weight(gx, gz, n, w) -> int:
    """Elements (ux | uz) of span{(gx_i | gz_i)} with wt(ux | uz) = w,
    counted by a Gray-code walk over all 2^r combinations of the rows."""
    rows = [(x << n) | z for x, z in zip(gx, gz)]
    return sum(((v >> n) | v & ((1 << n) - 1)).bit_count() == w for v in enumerate_span(rows))


def enlargement_code(C: LinearCode, Cp: LinearCode, halves: Sequence[int], d_lower: int = 1) -> QuantumCode:
    """The enlargement code with explicit second halves: generators
    (g|0) and (0|g) per row g of rref(C), and (w_i|halves[i]) per
    completion row w_i (`reference_completion_rows`).  A stabilizer code
    for any halves when C is dual-containing; its bound d_lower is not
    proven."""
    G, W = C.basis_ints(), reference_completion_rows(C, Cp)
    assert len(halves) == len(W)
    return QuantumCode(n=C.n, gx=G + [0] * C.k + W, gz=[0] * C.k + G + list(halves), K=C.k + Cp.k - C.n, d_lower=d_lower)


def reference_coset_sweep(C: LinearCode, Cp: LinearCode, d_lower: int) -> tuple[list[int], QuantumCode]:
    """The k' = k + 1 certification one coset at a time: each coset's
    code is built with `enlargement_code` and scanned with
    `quantum_distance_exact`.

    Returns every coset's exact distance, coset i setting the non-pivot
    columns of rref(C) picked by the bits of i, and the winner: the first
    coset reaching d_lower, else the first of highest distance, with its
    d_exact set.
    """
    pivots = set(C._pivots)
    free = [1 << (C.n - 1 - c) for c in range(C.n) if c not in pivots]
    ds, best = [], None
    for i in range(1 << len(free)):
        v = sum(bit for j, bit in enumerate(free) if i >> j & 1)
        Q = enlargement_code(C, Cp, [v], d_lower)
        Q = dataclasses.replace(Q, d_exact=quantum_distance_exact(Q).value)
        ds.append(Q.d_exact)
        if best is None or best.d_exact < d_lower and Q.d_exact > best.d_exact:
            best = Q
    return ds, best


def brute_second_gdw(code: LinearCode) -> int:
    """Independent oracle: numpy broadcast over all codeword pairs."""
    words = np.array([w for w in span_words(code) if w], dtype=np.uint32)
    ors = words[:, None] | words[None, :]
    wts = np.bitwise_count(ors)
    np.fill_diagonal(wts, code.n + 1)
    return int(wts.min())


def reference_second_gdw(code: LinearCode) -> tuple[int, tuple[int, int]]:
    """Reference d2 and witness by the pruned pair loop over all words.

    The witness is the pair of codewords, lexicographically smallest
    as coordinate strings, that is smallest among the minimising pairs.
    """
    n = code.n
    words = [w for w in span_words(code) if w]
    words.sort(key=lambda w: (w.bit_count(), w))
    wts = [w.bit_count() for w in words]

    best = n + 1
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

    light = [w for w in words if w.bit_count() <= best]
    best_pair = None
    for i in range(len(light)):
        for j in range(i + 1, len(light)):
            if (light[i] | light[j]).bit_count() == best:
                pair = tuple(sorted((light[i], light[j])))
                if best_pair is None or pair < best_pair:
                    best_pair = pair
    return best, best_pair


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


def reference_isotropic_subcodes(Cp: LinearCode) -> list[LinearCode]:
    """Every self-dual C with dual(C') <= C <= C', by the flat search:
    each (k' - n/2)-dimensional subspace of C'/dual(C') is lifted, and
    kept when the lifts are even and pairwise orthogonal (the rows of
    dual(C') are orthogonal to all of C').  Needs a dual-containing C'
    of even length, k' > n/2."""
    perp = dual(Cp).basis_ints()
    reps: list[int] = []
    for row in Cp.basis_ints():
        if not in_span(row, perp + reps):
            reps.append(row)
    lift = [0]  # lift[v]: the sum of the reps picked by the bits of v
    for rep in reps:
        lift += [w ^ rep for w in lift]
    even = [w.bit_count() % 2 == 0 for w in lift]
    out = []
    for rows in rref_subspaces(len(reps), Cp.k - Cp.n // 2):
        if all(even[v] for v in rows) and all(
            (lift[a] & lift[b]).bit_count() % 2 == 0 for a, b in itertools.combinations(rows, 2)
        ):
            out.append(LinearCode(perp + [lift[v] for v in rows], Cp.n))
    return out


def reference_self_dual_subcode(Cp: LinearCode) -> LinearCode:
    """The self-dual code the search must return, with the same errors:
    among `reference_isotropic_subcodes`, the one of maximum minimum
    distance, ties broken by the smallest canonical key."""
    n = Cp.n
    if n % 2:
        raise CodeConstructionError("odd length")
    if not all(in_span(w, Cp.basis_ints()) for w in dual(Cp).basis_ints()):
        raise CodeConstructionError("not dual-containing")
    if Cp.k < n // 2:
        raise CodeConstructionError("k' < n/2")
    if Cp.k == n // 2:
        return Cp
    cands = reference_isotropic_subcodes(Cp)
    if not cands:
        raise CodeConstructionError("no isotropic subspace")
    return min(cands, key=lambda C: (-brute_min_distance(C), C.canonical_key()))


def fixture_rows(name: str) -> list[int]:
    """Rows of a shipped matrix file as plain ints (each line read as a
    binary number), read here rather than by the library's parser."""
    text = resources.files("qsteane.fixtures").joinpath(name).read_text()
    lines = (line.replace(" ", "") for line in text.splitlines())
    return [int(line, 2) for line in lines if line and not line.startswith("#")]


def _reduce(word: int, pivots: dict[int, int]) -> int:
    """Clear the leading bits of word against rows keyed by leading bit."""
    while word and (word.bit_length() - 1) in pivots:
        word ^= pivots[word.bit_length() - 1]
    return word


def in_span(word: int, rows: Sequence[int]) -> bool:
    """Span membership by plain Gaussian elimination."""
    pivots: dict[int, int] = {}
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
    return _reduce(word, pivots) == 0


def reference_completion_rows(C: LinearCode, Cp: LinearCode) -> list[int]:
    """Rows of rref(C') outside the span of C and of the rows picked
    before them, by a running echelon of all k + picked rows."""
    pivots: dict[int, int] = {}
    for row in C.basis_ints():
        pivots[row.bit_length() - 1] = row
    out = []
    for row in Cp.basis_ints():
        left = _reduce(row, pivots)
        if left:
            out.append(row)
            pivots[left.bit_length() - 1] = left
    return out


def reference_coset_extend(C1: LinearCode, big: LinearCode) -> LinearCode:
    """span(C1 + {c}) for the lex-smallest c in big \\ C1, by walking all
    2^(k_big - k_1) - 1 nonzero sums of the completion rows and keeping
    the smallest one with every pivot column of rref(C1) cleared."""
    reps = reference_completion_rows(C1, big)
    best = None
    for combo in range(1, 1 << len(reps)):
        v = 0
        for i, rep in enumerate(reps):
            if combo >> i & 1:
                v ^= rep
        for row in C1.basis_ints():
            v = min(v, v ^ row)
        if best is None or v < best:
            best = v
    return LinearCode(C1.basis_ints() + [best], C1.n)


def symplectic_product(a: tuple[int, int], b: tuple[int, int]) -> int:
    """<(ax|az), (bx|bz)> = ax.bz + az.bx over GF(2)."""
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a: list, e: int) -> list:
    out = [Fraction(1)]
    for _ in range(e):
        out = _poly_mul(out, a)
    return out


def _combine(coeffs: list, polys: list, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for c, poly in zip(coeffs, polys):
        for i, x in enumerate(poly):
            out[i] += c * x
    return out


def gleason_shadow(n: int, d: int) -> Optional[tuple[list[Fraction], list[Fraction]]]:
    """Weight and shadow enumerators [A_0..A_n], [S_0..S_n] forced on a
    self-dual [n, n/2, >= d] code, or None when they are not forced.

    Gleason: W(y) = sum_j a_j (1+y^2)^(n/2-4j) (y^2 (1-y^2)^2)^j over
    j <= n/8, for every self-dual code (all weights even).  Conway and
    Sloane's shadow is S(y) = sum_j a_j (-1/4)^j (2y)^(n/2-4j)
    (1-y^4)^(2j).  The j-th term starts at y^(2j) with coefficient 1, so
    A_0 = 1 and A_2 = ... = A_(2j) = 0 fix a_0..a_j one after another;
    when d/2 <= n/8, a_(d/2)..a_(n/8) stay free and nothing is forced.
    """
    if n % 2 or n < 2:
        raise ValueError("self-dual codes have even length")
    top = n // 8
    if d // 2 <= top:
        return None
    terms = [
        _poly_mul(_poly_pow([1, 0, 1], n // 2 - 4 * j), _poly_pow([0, 0, 1, 0, -2, 0, 1], j))
        for j in range(top + 1)
    ]
    a: list[Fraction] = []
    for j in range(top + 1):
        a.append(Fraction(j == 0) - sum(a[i] * terms[i][2 * j] for i in range(j)))
    shadows = [
        _poly_mul(_poly_pow([0, 2], n // 2 - 4 * j), _poly_pow([1, 0, 0, 0, -1], 2 * j))
        for j in range(top + 1)
    ]
    return _combine(a, terms, n), _combine([c * Fraction(-1, 4) ** j for j, c in enumerate(a)], shadows, n)


def shadow_obstruction(n: int, d: int) -> Optional[list[str]]:
    """Why no self-dual [n, n/2, >= d] code exists: every coefficient the
    forced enumerators give that is not a count (negative or fractional,
    or a nonzero A_i with 0 < i < d).  An empty list means no
    obstruction; None means the enumerators are not forced (no verdict).
    """
    forced = gleason_shadow(n, d)
    if forced is None:
        return None
    W, S = forced
    reasons = [f"A_{i} = {c} below d" for i, c in enumerate(W[1:d], start=1) if c]
    for name, coeffs in (("A", W), ("S", S)):
        reasons += [f"{name}_{i} = {c}" for i, c in enumerate(coeffs) if c < 0 or c.denominator != 1]
    return reasons


def random_code(rng: random.Random, n: int, k_target: int, min_k: int = 2) -> LinearCode:
    """A random [n, k] code with k >= min_k (resamples degenerate draws)."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(k_target)]
        code = LinearCode(rows, n)
        if code.k >= min_k:
            return code


def random_self_orthogonal(rng: random.Random, n: int, k: int) -> LinearCode:
    """A random self-orthogonal [n, <= k] code: even-weight rows, pairwise orthogonal."""
    rows = []
    for _ in range(8 * k):
        v = rng.randrange(1, 1 << n)
        if v.bit_count() % 2 == 0 and all((v & u).bit_count() % 2 == 0 for u in rows):
            rows.append(v)
            if LinearCode(rows, n).k == k:
                break
    return LinearCode(rows or [0b11 << (n - 2)], n)


def reference_curve(delta_min: float, delta_max: float, step: float) -> list[tuple]:
    """(delta, r_gf4, r_cs, r_steane, r_thm4) per grid point, each rate
    max(0.0, bound_*(delta)) from the scalar functions; the grid is built
    as a list, point by point."""
    if delta_min == delta_max:
        deltas = [delta_min]
    else:
        count = int(math.floor((delta_max - delta_min) / step + 1e-9)) + 1
        deltas = [min(delta_min + i * step, delta_max) for i in range(count)]
    bounds = (bound_gf4, bound_cs, bound_steane, bound_thm4)
    return [(d, *(max(0.0, f(d)) for f in bounds)) for d in deltas]


def reference_curve_csv(points: list[tuple]) -> str:
    """The curve CSV written one f-string per point."""
    lines = ["delta,gf4,cs,steane,thm4\n"]
    for d, g, c, s, t in points:
        lines.append(f"{d:.6f},{g:.6f},{c:.6f},{s:.6f},{t:.6f}\n")
    return "".join(lines)


def dual_containing_code(rng, half: int, t: int) -> LinearCode:
    """[2 half, half + t] code span{(y|y)} + {(z_j|0)}, coordinates shuffled:
    it holds its dual {(x|x) : x orthogonal to every z_j}."""
    n = 2 * half
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [(1 << i) | (1 << (i + half)) for i in range(half)] + [rng.getrandbits(half) for _ in range(t)]
    return LinearCode([sum(1 << perm[c] for c in range(n) if r >> c & 1) for r in rows], n)


@pytest.fixture(params=[14, 3])
def block(request, monkeypatch):
    """Runs a test at `gf2._BLOCK` = 2^14, the default, and at 2^3,
    where every span, pair and Gram pass of more than 8 words takes
    several blocks; the parameter is the exponent."""
    monkeypatch.setattr(gf2, "_BLOCK", 1 << request.param)
    return request.param


@pytest.fixture(scope="session")
def table_checks():
    """All published-table row checks, computed once per session."""
    return [check_row(row) for row in TABLE1_ROWS]


@pytest.fixture(scope="session")
def f4_desk():
    """The smallest F4 instance (m=4, ell=0), built and certified once."""
    return build_family_code(FamilySpec("F4", 4, 0))
