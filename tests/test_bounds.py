"""Rate-bound formulas, the pair-counting identity, and curve emission."""

import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteane.bounds import (
    LOG2_3,
    bound_cs,
    bound_gf4,
    bound_steane,
    bound_thm4,
    emit_curve,
    entropy,
    pair_count_identity,
    write_curve_csv,
)

unit_interval = st.floats(0.0, 1.0, allow_nan=False)
half_interval = st.floats(0.0, 0.5, allow_nan=False)


class TestEntropy:
    def test_endpoints_and_center(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0
        assert entropy(0.5) == 1.0

    def test_pinned_high_precision_value(self):
        # 50-digit evaluation: H(0.11) = 0.49991595816452799564...
        assert entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(unit_interval)
    def test_symmetry(self, x):
        assert entropy(x) == pytest.approx(entropy(1.0 - x), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy(-0.01)
        with pytest.raises(ValueError):
            entropy(1.01)


class TestBoundFormulas:
    def test_all_equal_one_at_zero(self):
        for f in (bound_gf4, bound_cs, bound_steane, bound_thm4):
            assert abs(f(0.0) - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(half_interval)
    def test_steane_dominates_cs(self, d):
        # H(2d/3) <= H(d) on [0, 1/2], so one H is traded for a smaller one.
        assert bound_steane(d) >= bound_cs(d) - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(half_interval)
    def test_thm4_composition_identity(self, d):
        composed = (1 - entropy(d)) + (1 - d * LOG2_3 / 2 - entropy(d) / 2) - 1
        assert bound_thm4(d) == pytest.approx(composed, abs=1e-12)

    def test_cs_zero_crossing_location(self):
        assert bound_cs(0.109) > 0 > bound_cs(0.111)

    def test_domain_checks(self):
        for f in (bound_gf4, bound_cs, bound_steane, bound_thm4):
            with pytest.raises(ValueError):
                f(0.51)


def brute_pair_count(t: int) -> int:
    """Unordered pairs of distinct nonzero even-weight vectors on t
    coordinates whose bitwise OR is the all-ones weight-t vector."""
    count = 0
    full = (1 << t) - 1
    # Per coordinate the pair (x_i, z_i) must be one of 01, 10, 11.
    for choice in itertools.product((0b01, 0b10, 0b11), repeat=t):
        x = sum(((c >> 1) & 1) << i for i, c in enumerate(choice))
        z = sum((c & 1) << i for i, c in enumerate(choice))
        if x == 0 or z == 0 or x == z:
            continue
        if x.bit_count() % 2 or z.bit_count() % 2:
            continue
        assert (x | z) == full
        count += 1
    return count // 2


class TestPairCountIdentity:
    def test_known_values(self):
        assert pair_count_identity(1).value == Fraction(1, 4)
        assert pair_count_identity(2).value == Fraction(10, 8)

    @pytest.mark.parametrize("t", range(1, 31))
    def test_sum_equals_closed_form(self, t):
        p = pair_count_identity(t)
        lhs = Fraction(1, 2) * sum(
            math.comb(t, 2 * j) * Fraction(2) ** (2 * j - 1)
            for j in range(t // 2 + 1)
        )
        assert p.value == lhs == Fraction(3**t + (-1) ** t, 8)
        assert p.upper_bound == Fraction(3**t + 1, 8)

    @pytest.mark.parametrize("t", range(1, 13))
    def test_brute_force_counts_respect_upper_bound(self, t):
        assert brute_pair_count(t) <= Fraction(3**t + 1, 8)

    def test_range(self):
        with pytest.raises(ValueError):
            pair_count_identity(0)
        with pytest.raises(ValueError):
            pair_count_identity(31)


class TestEmitCurve:
    def test_single_point_range(self):
        pts = emit_curve(0.0, 0.0, 0.1)
        assert len(pts) == 1
        assert pts[0].r_gf4 == pts[0].r_thm4 == 1.0

    def test_grid_size_and_clamping(self):
        pts = emit_curve(0.0, 0.5, 0.001)
        assert len(pts) == 501
        assert all(
            min(p.r_gf4, p.r_cs, p.r_steane, p.r_thm4) >= 0.0 for p in pts
        )
        assert all(p.r_steane >= p.r_cs for p in pts)

    def test_columns_monotone_non_increasing(self):
        pts = emit_curve(0.0, 0.5, 0.005)
        for a, b in zip(pts, pts[1:]):
            assert b.r_gf4 <= a.r_gf4 + 1e-12
            assert b.r_cs <= a.r_cs + 1e-12
            assert b.r_steane <= a.r_steane + 1e-12
            assert b.r_thm4 <= a.r_thm4 + 1e-12

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            emit_curve(0.2, 0.1, 0.01)
        with pytest.raises(ValueError):
            emit_curve(0.0, 0.6, 0.01)
        with pytest.raises(ValueError):
            emit_curve(0.0, 0.5, 0.0)

    def test_oversized_grid_refused(self):
        # 5 * 10^11 points would exhaust memory; the refusal comes first.
        with pytest.raises(ValueError, match="exceeds 10\\^6"):
            emit_curve(0.0, 0.5, 1e-12)
        with pytest.raises(ValueError, match="1000001 points"):
            emit_curve(0.0, 0.5, 0.5 / 10**6)

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_refused(self, step):
        for hi in (0.0, 0.5):
            with pytest.raises(ValueError, match=f"step must be finite, got {step}"):
                emit_curve(0.0, hi, step)

    def test_csv_format(self):
        buf = io.StringIO()
        write_curve_csv(emit_curve(0.0, 0.002, 0.001), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "delta,gf4,cs,steane,thm4"
        assert lines[1] == "0.000000,1.000000,1.000000,1.000000,1.000000"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 5 for line in lines[1:])
