"""Asymptotic rate bounds for quantum codes and their comparison curves.

Four lower bounds on the achievable rate R_Q at relative distance
delta_Q: the GF(4) Varshamov-Gilbert bound, the binary CSS bound, the
enlargement bound 1 - H(x) - H(2x/3), and the refined bound
1 - x*log2(3)/2 - 3H(x)/2 obtained by randomizing both codes of the
enlargement.  Also the exact pair-counting identity used in the
refined bound's derivation, in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

LOG2_3 = math.log2(3)


@dataclass(frozen=True)
class BoundCurvePoint:
    """Rates of all four bounds at one relative distance, clamped at 0."""

    delta: float
    r_gf4: float
    r_cs: float
    r_steane: float
    r_thm4: float


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


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 1/2], got {delta}")


def bound_gf4(delta: float) -> float:
    """GF(4) Varshamov-Gilbert rate: 1 - delta*log2(3) - H(delta)."""
    _check_delta(delta)
    return 1.0 - delta * LOG2_3 - entropy(delta)


def bound_cs(delta: float) -> float:
    """Binary CSS rate: 1 - 2 H(delta)."""
    _check_delta(delta)
    return 1.0 - 2.0 * entropy(delta)


def bound_steane(delta: float) -> float:
    """Enlargement rate: 1 - H(delta) - H(2 delta / 3)."""
    _check_delta(delta)
    return 1.0 - entropy(delta) - entropy(2.0 * delta / 3.0)


def bound_thm4(delta: float) -> float:
    """Refined enlargement rate: 1 - delta*log2(3)/2 - 3 H(delta) / 2."""
    _check_delta(delta)
    return 1.0 - delta * LOG2_3 / 2.0 - 1.5 * entropy(delta)


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


def emit_curve(delta_min: float, delta_max: float, step: float) -> list[BoundCurvePoint]:
    """Evaluate all four bounds on a regular grid, clamping rates at 0.

    A step that is not finite, and grids of more than 10^6 points, are
    refused before anything is built.
    """
    if not 0.0 <= delta_min <= delta_max <= 0.5:
        raise ValueError("need 0 <= delta_min <= delta_max <= 1/2")
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step}")
    if delta_min < delta_max and step <= 0.0:
        raise ValueError("step must be positive")
    if delta_min == delta_max:
        deltas = [delta_min]
    else:
        count = int(math.floor((delta_max - delta_min) / step + 1e-9)) + 1
        if count > 10**6:
            raise ValueError(f"grid of {count} points exceeds 10^6; use a larger step")
        deltas = [min(delta_min + i * step, delta_max) for i in range(count)]
    return [
        BoundCurvePoint(
            delta=d,
            r_gf4=max(0.0, bound_gf4(d)),
            r_cs=max(0.0, bound_cs(d)),
            r_steane=max(0.0, bound_steane(d)),
            r_thm4=max(0.0, bound_thm4(d)),
        )
        for d in deltas
    ]


def write_curve_csv(points: list[BoundCurvePoint], out: TextIO) -> None:
    """CSV with header delta,gf4,cs,steane,thm4 and fixed 6-decimal cells."""
    out.write("delta,gf4,cs,steane,thm4\n")
    for p in points:
        out.write(
            f"{p.delta:.6f},{p.r_gf4:.6f},{p.r_cs:.6f},{p.r_steane:.6f},{p.r_thm4:.6f}\n"
        )
