"""Asymptotic rate bounds for quantum codes and their comparison curves.

Four lower bounds on the achievable rate R_Q at relative distance
delta_Q: the GF(4) Varshamov-Gilbert bound, the binary CSS bound, the
enlargement bound 1 - H(x) - H(2x/3), and the refined bound
1 - x*log2(3)/2 - 3H(x)/2 obtained by randomizing both codes of the
enlargement.  Also the exact pair-counting identity used in the
refined bound's derivation, in rational arithmetic.

Each rate is written once, as a function of (delta, H(delta),
H(2 delta / 3)), and serves both one float (`bound_*`) and a block of
float64 grid points (`emit_curve`).  The array path is bit for bit the
scalar one: numpy's +, -, * and / on float64 round exactly as Python's
float operations do, the operations run in the same order, and the
logarithms are taken by `math.log2` mapped over each block.  `np.log2`
is not used: its vectorised kernel differs from the C library's log2,
which `math.log2` calls, in the last bit on about 0.2% of inputs in
(0, 1) (x86-64, numpy 2.4), and that can change a printed digit.

The CSV is the `%.6f` text of every cell, spelled in numpy.  Every
`emit_curve` cell lies in [0, 1] with no sign bit, so it prints as
d.dddddd, the digits of the integer q = rint(v * 10^6); rint rounds
half to even, as `%` does on an exact tie.  The product v * 10^6 is
rounded, by at most 2^-34, so where it lies within `_TIE_BAND` = 10^-6
of a half-integer q is read off `"%.6f" % v` instead; outside the band
both round the same way.  The characters of q come from two tables of
ASCII words, indexed by q // 1000 and q % 1000.  A block holding any
other value (NaN, a negative value, -0.0, above 1) is formatted by `%`
row by row, so the bytes are those of `_CSV_ROW` for every float64
record array.  Entropies and rates are evaluated `_EVAL_BLOCK` points
at a time and the CSV is formatted `_CSV_BLOCK` rows at a time, so the
temporaries stay small next to the 40 bytes per point of the returned
record array: a 20,001-point curve, emitted and written, allocates at
most about 1.36 MB (tracemalloc peak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

import numpy as np

LOG2_3 = math.log2(3)
# Points per block of entropy evaluation, and rows per CSV write.
_EVAL_BLOCK = 4096
_CSV_BLOCK = 1024
_CSV_ROW = "%.6f,%.6f,%.6f,%.6f,%.6f\n"
# A cell whose v * 10^6 lies within this distance of a half-integer is
# formatted by `%`: far wider than the product's rounding error.
_TIE_BAND = 1e-6
# A cell d.dddddd and its separator, the eight characters read as one
# little-endian word (`_cell_words`).
_CELL = np.dtype([("chars", "<i8"), ("sep", "u1")])

# The four rates, keyed by their field in `emit_curve`'s records, as
# functions of (delta, H(delta), H(2 delta / 3)).
_RATES = {
    "r_gf4": lambda d, h, h23: 1.0 - d * LOG2_3 - h,
    "r_cs": lambda d, h, h23: 1.0 - 2.0 * h,
    "r_steane": lambda d, h, h23: 1.0 - h - h23,
    "r_thm4": lambda d, h, h23: 1.0 - d * LOG2_3 / 2.0 - 1.5 * h,
}
_CURVE_DTYPE = np.dtype([("delta", np.float64)] + [(name, np.float64) for name in _RATES])


@dataclass(frozen=True)
class PairCountIdentity:
    """Both sides of the even-weight pair-counting identity at a given t."""

    t: int
    value: Fraction  # common value of the sum and the closed form
    upper_bound: Fraction  # (1/8) (3^t + 1)


def entropy(x: float) -> float:
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x), H(0)=H(1)=0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy domain is [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _log2(v: np.ndarray) -> np.ndarray:
    """`math.log2` of every element of v; `np.log2` differs in the last bit
    on some inputs."""
    return np.fromiter(map(math.log2, v.tolist()), np.float64, len(v))


def _entropies(x: np.ndarray) -> np.ndarray:
    """`entropy` of every element of x, all in [0, 1/2], bit for bit."""
    # log2(1) = 0 stands in for log2(0); the expression then gives -0.0.
    h = -x * _log2(np.where(x > 0.0, x, 1.0)) - (1.0 - x) * _log2(1.0 - x)
    h[x == 0.0] = 0.0
    return h


def _rate(name: str, delta: float) -> float:
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 1/2], got {delta}")
    return _RATES[name](delta, entropy(delta), entropy(2.0 * delta / 3.0))


def bound_gf4(delta: float) -> float:
    """GF(4) Varshamov-Gilbert rate: 1 - delta*log2(3) - H(delta)."""
    return _rate("r_gf4", delta)


def bound_cs(delta: float) -> float:
    """Binary CSS rate: 1 - 2 H(delta)."""
    return _rate("r_cs", delta)


def bound_steane(delta: float) -> float:
    """Enlargement rate: 1 - H(delta) - H(2 delta / 3)."""
    return _rate("r_steane", delta)


def bound_thm4(delta: float) -> float:
    """Refined enlargement rate: 1 - delta*log2(3)/2 - 3 H(delta) / 2."""
    return _rate("r_thm4", delta)


def pair_count_identity(t: int) -> PairCountIdentity:
    """Evaluate (1/2) sum_j C(t, 2j) 2^(2j-1) and (1/8)(3^t + (-1)^t).

    Both sides are computed independently in exact rationals and must
    agree; the returned upper bound (1/8)(3^t + 1) dominates the count
    of unordered pairs of distinct nonzero even-weight vectors whose
    bitwise OR is a fixed weight-t vector.
    """
    if not 1 <= t <= 30:
        raise ValueError(f"t must be in [1, 30], got {t}")
    lhs = Fraction(1, 2) * sum(
        math.comb(t, 2 * j) * Fraction(2) ** (2 * j - 1) for j in range(t // 2 + 1)
    )
    rhs = Fraction(3**t + (-1) ** t, 8)
    if lhs != rhs:
        raise AssertionError(f"pair-count identity fails at t={t}: {lhs} != {rhs}")
    return PairCountIdentity(t=t, value=lhs, upper_bound=Fraction(3**t + 1, 8))


def emit_curve(delta_min: float, delta_max: float, step: float) -> np.recarray:
    """Evaluate all four bounds on a regular grid, clamping rates at 0.

    Returns a record array with one record per grid point and float64
    fields delta, r_gf4, r_cs, r_steane, r_thm4; each rate field equals
    `max(0.0, bound_*(delta))` exactly.  A step that is not finite, and
    grids of more than 10^6 points, are refused before anything is
    built.
    """
    if not 0.0 <= delta_min <= delta_max <= 0.5:
        raise ValueError("need 0 <= delta_min <= delta_max <= 1/2")
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step}")
    if delta_min < delta_max and step <= 0.0:
        raise ValueError("step must be positive")
    # -0.0 passes the range check; abs makes it 0.0 and changes nothing else.
    delta_min, delta_max = abs(delta_min), abs(delta_max)
    if delta_min == delta_max:
        deltas = np.array([delta_min], dtype=np.float64)
    else:
        cells = (delta_max - delta_min) / step + 1e-9  # inf for a step below about 2.8e-309
        count = math.floor(cells) + 1 if math.isfinite(cells) else math.inf
        if count > 10**6:
            raise ValueError(f"grid of {count} points exceeds 10^6; use a larger step")
        deltas = np.minimum(delta_min + np.arange(count) * step, delta_max)
    points = np.recarray(len(deltas), dtype=_CURVE_DTYPE)
    points.delta = deltas
    for lo in range(0, len(deltas), _EVAL_BLOCK):
        d = deltas[lo : lo + _EVAL_BLOCK]
        h, h23 = _entropies(d), _entropies(2.0 * d / 3.0)
        block = points[lo : lo + _EVAL_BLOCK]
        for name, rate in _RATES.items():
            block[name] = np.maximum(rate(d, h, h23), 0.0)
    return points


def _cell_words() -> tuple[np.ndarray, np.ndarray]:
    """(high, low): high[q // 1000] + low[q % 1000] is the cell d.dddddd
    of q in [0, 10^6] as a little-endian word, "d.ddd" in bytes 0-4 from
    high and the last three digits in bytes 5-7 from low."""
    i, zero = np.arange(1001), ord("0")
    ascii3 = (i % 1000 // 100 + zero) + (i // 10 % 10 + zero) * 2**8 + (i % 10 + zero) * 2**16
    return (i // 1000 + zero) + ord(".") * 2**8 + ascii3 * 2**16, ascii3[:1000] * 2**40


def _fixed_point(v: np.ndarray) -> np.ndarray:
    """v * 10^6 rounded to the integer that `%.6f` prints, for v in [0, 1]:
    rint, which rounds half to even, except in the tie band, where the
    digits of `%` are taken."""
    x = v * 1e6
    q = np.rint(x)
    for i in np.flatnonzero(np.abs(x - q) > 0.5 - _TIE_BAND).tolist():
        q[i] = int(("%.6f" % v[i]).replace(".", ""))
    return q.astype(np.intp)


def write_curve_csv(points: np.recarray, out: TextIO) -> None:
    """CSV with header delta,gf4,cs,steane,thm4 and fixed 6-decimal cells,
    one write per block of rows.

    The bytes are those of `_CSV_ROW % row` for every row.  A block whose
    cells all lie in [0, 1] without a sign bit, as every `emit_curve`
    cell does, is spelled in numpy, each cell from the integer q of
    `_fixed_point` by two table lookups (`_cell_words`).  Any other block
    (NaN, a negative value, -0.0, a value above 1) goes through `_CSV_ROW`.
    """
    out.write("delta,gf4,cs,steane,thm4\n")
    high, low = _cell_words()
    values = np.ascontiguousarray(points).view(np.float64)  # five cells a row
    for lo in range(0, len(values), 5 * _CSV_BLOCK):
        v = values[lo : lo + 5 * _CSV_BLOCK]
        if not (~np.signbit(v) & (v <= 1.0)).all():
            out.write((_CSV_ROW * (len(v) // 5)) % tuple(v.tolist()))
            continue
        q = _fixed_point(v)
        hi = q // 1000
        cells = np.empty(len(v), _CELL)
        cells["chars"] = high.take(hi) + low.take(q - hi * 1000)
        cells["sep"] = ord(",")
        cells["sep"][4::5] = ord("\n")
        out.write(cells.tobytes().decode("ascii"))
