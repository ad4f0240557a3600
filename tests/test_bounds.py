"""Rate-bound formulas, the pair-counting identity, and curve emission."""

import io
import itertools
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteane import bounds, cli
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

from conftest import reference_curve, reference_curve_csv

unit_interval = st.floats(0.0, 1.0, allow_nan=False)
half_interval = st.floats(0.0, 0.5, allow_nan=False)


def _cells_csv_of(values: list[float]) -> str:
    """write_curve_csv of a curve record array holding values, five a row."""
    buf = io.StringIO()
    write_curve_csv(np.array(values, np.float64).view(bounds._CURVE_DTYPE).view(np.recarray), buf)
    return buf.getvalue()


def _near_ties() -> list[float]:
    """Exact decimal ties v * 10^6 = k + 1/2 (the odd multiples of 1/128,
    the only ones a float64 holds), the nearest floats to other ties, and
    the floats one and two ulps either side of each."""
    rng = random.Random(26)
    ties = [j / 128 for j in range(1, 128, 2)] + [(rng.randrange(10**6) + 0.5) / 1e6 for _ in range(2000)]
    ties += [2.5e-6, 0.9999995]
    out = []
    for v in ties:
        lo = hi = v
        for _ in range(2):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            out += [lo, hi]
        out.append(v)
    return out


def _oracle_grids():
    """Seeded (delta_min, delta_max, step) grids: single points, steps
    that do not divide the range, one shaped like the benchmark's
    20,001-point curve, and grids past every zero crossing."""
    rng = random.Random(10)
    grids = [(0.0, 0.0, 0.1), (0.5, 0.5, 0.1), (0.0, 0.5, 0.001), (0.0, 0.5, 0.003)]
    for _ in range(30):
        lo = rng.uniform(0.0, 0.5)
        hi = rng.uniform(lo, 0.5)
        grids.append((lo, hi, (hi - lo) / rng.randrange(1, 5000) * rng.uniform(1.0001, 1.9)))
    lo = rng.randrange(0, 500) / 10000
    grids.append((lo, 0.5, (0.5 - lo) / 20000))
    return grids + CLAMPED_GRIDS


# Every rate is 0 from delta ~ 0.19 (the GF(4) bound's zero) on.
CLAMPED_GRIDS = [(0.2, 0.5, 0.0007), (0.26, 0.49, 3e-5), (0.45, 0.5, 0.0013)]
ORACLE_GRIDS = _oracle_grids()


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

    def test_block_path_equals_scalar_bit_for_bit(self):
        rng = random.Random(5)
        x = np.array([0.0, 5e-324, 1e-300, 0.11, 0.5] + [rng.uniform(0.0, 0.5) for _ in range(5000)])
        # tobytes also tells 0.0 from -0.0, which == does not.
        assert bounds._entropies(x).tobytes() == np.array([entropy(v) for v in x.tolist()]).tobytes()

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
        # Below about 2.8e-309 the point count overflows to inf.
        for step in (1e-310, 5e-324):
            with pytest.raises(ValueError, match="grid of inf points exceeds 10\\^6"):
                emit_curve(0.0, 0.5, step)
        with pytest.raises(ValueError, match="1000001 points"):
            emit_curve(0.0, 0.5, 0.5 / 10**6)

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_refused(self, step):
        for hi in (0.0, 0.5):
            with pytest.raises(ValueError, match=f"step must be finite, got {step}"):
                emit_curve(0.0, hi, step)

    def test_fields_equal_the_scalar_bounds_exactly(self):
        for grid in ORACLE_GRIDS:
            pts = emit_curve(*grid)
            assert pts.dtype.names == ("delta", "r_gf4", "r_cs", "r_steane", "r_thm4")
            assert pts.tolist() == reference_curve(*grid), grid
        assert len(emit_curve(*ORACLE_GRIDS[-4])) == 20001

    def test_clamped_grids_are_all_zero(self):
        for grid in CLAMPED_GRIDS:
            rates = emit_curve(*grid)[["r_gf4", "r_cs", "r_steane", "r_thm4"]].tolist()
            assert set(itertools.chain.from_iterable(rates)) == {0.0}, grid

    def test_csv_bytes_equal_the_point_by_point_writer(self):
        for grid in ORACLE_GRIDS:
            buf = io.StringIO()
            write_curve_csv(emit_curve(*grid), buf)
            assert buf.getvalue() == reference_curve_csv(reference_curve(*grid)), grid

    @pytest.mark.parametrize("block", [1024, 4])
    def test_block_format_equals_per_row_format(self, block, monkeypatch):
        # 20,001 and 7 rows: a partial last block at either block size.
        monkeypatch.setattr(bounds, "_CSV_BLOCK", block)
        for grid in ((0.0123, 0.5, (0.5 - 0.0123) / 20000), (0.0, 0.3, 0.05)):
            pts = emit_curve(*grid)
            assert len(pts) % block
            buf = io.StringIO()
            write_curve_csv(pts, buf)
            rows = "".join(bounds._CSV_ROW % row for row in pts.tolist())
            assert buf.getvalue() == "delta,gf4,cs,steane,thm4\n" + rows, grid

    def test_strided_records_format_row_by_row(self):
        # Every other point: a view whose records are not adjacent.
        pts = emit_curve(0, 0.5, 0.01)[::2]
        buf = io.StringIO()
        write_curve_csv(pts, buf)
        rows = "".join(bounds._CSV_ROW % row for row in pts.tolist())
        assert buf.getvalue() == "delta,gf4,cs,steane,thm4\n" + rows

    def test_negative_zero_endpoints_become_zero(self):
        for grid in ((-0.0, -0.0, 0.1), (-0.0, 0.0, 0.1), (-0.0, 0.1, 0.05)):
            pts = emit_curve(*grid)
            assert math.copysign(1.0, pts[0].delta) == 1.0
            assert pts.tolist() == reference_curve(0.0, grid[1] + 0.0, grid[2])

    def test_memory_is_bounded(self):
        # The records take 40 bytes a point (0.8 MB here); evaluation and
        # formatting work in blocks of a few thousand points beside them.
        lo = 0.0123
        tracemalloc.start()
        try:
            pts = emit_curve(lo, 0.5, (0.5 - lo) / 20000)
            with open(os.devnull, "w") as fh:
                write_curve_csv(pts, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 20001
        assert peak <= 2 * 10**6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(unit_interval, min_size=1, max_size=60))
    def test_cells_equal_percent_format(self, values):
        values = values + [0.0] * (-len(values) % 5)
        cells = _cells_csv_of(values).replace("\n", ",").split(",")[5:-1]
        assert cells == ["%.6f" % v for v in values]

    @pytest.mark.parametrize("block", [1024, 4])
    def test_ties_and_near_ties(self, block, monkeypatch):
        monkeypatch.setattr(bounds, "_CSV_BLOCK", block)
        values = _near_ties() + [0.0, 1.0, 0.5, 5e-324, math.nextafter(1.0, 0.0), 5e-7, 1.5e-6]
        values += [0.0] * (-len(values) % 5)
        want = ["%.6f" % v for v in values]
        # rint(v * 10^6) alone misprints some of them: the tie band is needed.
        assert any(q != int(w.replace(".", "")) for q, w in zip(np.rint(np.array(values) * 1e6).tolist(), want))
        assert _cells_csv_of(values).replace("\n", ",").split(",")[5:-1] == want

    @pytest.mark.parametrize("block", [1024, 4])
    @pytest.mark.parametrize("odd", [math.nan, -math.nan, -1e-9, -0.0, 1.0000000000000002, 2.5, math.inf, -math.inf])
    def test_out_of_range_blocks_take_the_row_format(self, odd, block, monkeypatch):
        monkeypatch.setattr(bounds, "_CSV_BLOCK", block)
        rng = random.Random(7)
        values = [rng.random() for _ in range(5 * 11)]
        values[23] = odd
        want = "delta,gf4,cs,steane,thm4\n" + "".join(
            bounds._CSV_ROW % tuple(values[i : i + 5]) for i in range(0, len(values), 5)
        )
        assert _cells_csv_of(values) == want

    def test_cli_bytes_on_the_benchmark_grid(self, tmp_path, capsys):
        # lo in [0, 0.05) and 20,000 steps, as the benchmark writes them.
        rng = random.Random(11)
        for lo in [0.0, 0.0499] + [rng.randrange(0, 500) / 10000 for _ in range(3)]:
            step = (0.5 - lo) / 20000
            path = tmp_path / "bounds.csv"
            assert cli.main(["bounds", repr(lo), "0.5", repr(step), str(path)]) == 0
            assert capsys.readouterr().out == "wrote 20001 points to %s\n" % path
            want = reference_curve_csv(reference_curve(lo, 0.5, step))
            assert path.read_bytes() == want.encode("ascii"), lo

    def test_csv_format(self):
        buf = io.StringIO()
        write_curve_csv(emit_curve(0.0, 0.002, 0.001), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "delta,gf4,cs,steane,thm4"
        assert lines[1] == "0.000000,1.000000,1.000000,1.000000,1.000000"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 5 for line in lines[1:])

