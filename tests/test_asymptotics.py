"""Tests for the generic polynomial family and asymptotic sweeps."""

from fractions import Fraction

import pytest

from magicfiber import (
    PolyFamily,
    b_family,
    bracket_check,
    family_poly,
    make_poly,
    ratio_table,
    unique_root_gt1,
)
from magicfiber.asymptotics import _cmp_root_to_power

# Frozen regression cells for the g=2 family, (q, v) = (2, 4), tol 1e-12;
# derived once with the certified pipeline and cross-checked against exact
# sign evaluation, Sturm isolation, and numpy roots.
RATIO_CELLS = {
    10: 0.9108789124794,
    100: 1.0317660947265,
    1000: 1.1829456598908,
    10000: 1.2992476324758,
}


class TestInstantiate:
    def test_matches_family_poly(self):
        for g in range(0, 51, 10):
            fam = b_family(g)
            for p in range(0, 51, 7):
                assert fam.instantiate(p) == family_poly(g, p)

    def test_simple_family(self):
        fam = PolyFamily(offset=0, spread=1, low=1, mid=make_poly([(0, 1)]))
        assert fam.instantiate(3) == make_poly(
            [(7, 1), (6, -1), (3, -1), (1, -1), (0, 1)]
        )

    def test_leading_collision_rejected(self):
        # low == 2m+offset+spread kills the leading term after merging
        fam = PolyFamily(offset=0, spread=1, low=7, mid=make_poly([(0, 1)]))
        with pytest.raises(ValueError, match="leading term"):
            fam.instantiate(3)

    def test_mid_dominating_rejected(self):
        fam = PolyFamily(offset=0, spread=1, low=1, mid=make_poly([(40, 1)]))
        with pytest.raises(ValueError, match="leading term"):
            fam.instantiate(3)

    def test_nonpositive_mid_rejected(self):
        with pytest.raises(ValueError):
            PolyFamily(offset=0, spread=1, low=1, mid=make_poly([(1, -1)]))

    def test_value_at_one_is_negative(self):
        fam = PolyFamily(offset=2, spread=3, low=4, mid=make_poly([(2, 3), (0, 1)]))
        for m in (1, 5, 20):
            assert fam.instantiate(m).at_one() == -4  # -mid(1)


class TestPowerComparison:
    def test_known_sides(self):
        # lambda(2,10) = 1.12819... vs 10^(0.9/10) = 1.23027 and 10^(0.05/10)
        f = family_poly(2, 10)
        root = unique_root_gt1(f)
        sign, _ = _cmp_root_to_power(f, root, 10, Fraction(9, 10), Fraction(1, 10**12))
        assert sign == -1
        sign, _ = _cmp_root_to_power(f, root, 10, Fraction(1, 20), Fraction(1, 10**12))
        assert sign == 1

    def test_refines_through_coarse_bracket(self):
        # a deliberately coarse bracket forces refinement before the verdict
        f = family_poly(2, 10)
        root = unique_root_gt1(f, Fraction(1, 4))
        sign, refined = _cmp_root_to_power(
            f, root, 10, Fraction(1, 20), Fraction(1, 4)
        )
        assert sign == 1
        assert refined.hi - refined.lo <= root.hi - root.lo


class TestBracketCheck:
    def test_wide_bracket_holds(self):
        rep = bracket_check(b_family(2), "0.5", "2.0", 2, 120)
        assert rep.failures == ()
        assert rep.threshold == 2
        assert rep.holds_tail

    def test_narrow_bracket_fails_at_desk_scale(self):
        rep = bracket_check(b_family(2), "0.9", "1.1", 2, 120)
        assert rep.failures == tuple(range(2, 121))
        assert rep.threshold is None
        assert not rep.holds_tail

    def test_threshold_monotonicity(self):
        wide = bracket_check(b_family(2), "0.5", "2.0", 2, 60)
        narrow = bracket_check(b_family(2), "0.7", "1.5", 2, 60)
        wide_thr = wide.threshold if wide.threshold is not None else float("inf")
        narrow_thr = narrow.threshold if narrow.threshold is not None else float("inf")
        assert wide_thr <= narrow_thr

    def test_verdicts_stable_under_refinement(self):
        fam = b_family(2)
        coarse = bracket_check(fam, "0.5", "2.0", 2, 40, tol=Fraction(1, 10**6))
        fine = bracket_check(fam, "0.5", "2.0", 2, 40, tol=Fraction(1, 2 * 10**6))
        assert coarse.failures == fine.failures

    def test_m_one_fails_upper(self):
        rep = bracket_check(b_family(2), "0.5", "2.0", 1, 4)
        assert 1 in rep.failures

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            bracket_check(b_family(2), "1.1", "1.2", 2, 4)


class TestRatioTable:
    def test_frozen_regression_cells(self):
        table = ratio_table(b_family(2), 2, 4, sorted(RATIO_CELLS))
        assert table.strictly_increasing
        assert not table.strictly_decreasing
        for row in table.rows:
            want = RATIO_CELLS[row.m]
            assert row.ratio_lo - 1e-9 <= want <= row.ratio_hi + 1e-9
            assert row.ratio_hi - row.ratio_lo < 1e-6

    def test_unit_slope_deviation_decreases(self):
        table = ratio_table(b_family(2), 1, 0, [2**k for k in range(4, 11)])
        devs = [abs((r.ratio_lo + r.ratio_hi) / 2 - 1.0) for r in table.rows]
        assert all(r.ratio_lo > 0 for r in table.rows)
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_error_bounds_inherit_bracket(self):
        coarse = ratio_table(b_family(2), 2, 4, [50], tol=Fraction(1, 10**4))
        fine = ratio_table(b_family(2), 2, 4, [50], tol=Fraction(1, 10**10))
        assert fine.rows[0].ratio_hi - fine.rows[0].ratio_lo < (
            coarse.rows[0].ratio_hi - coarse.rows[0].ratio_lo
        )

    def test_bounds_contain_the_mpmath_ratio_at_tight_tol(self):
        # At tol 1e-20 the bracket is far narrower than a float's rounding of
        # n*log(lambda)/log(n), so only the outward rounding keeps the ratio.
        mpmath = pytest.importorskip("mpmath")
        fam = b_family(2)
        table = ratio_table(fam, 2, 4, [10**6, 10**6 + 3], tol=Fraction(1, 10**20))

        def mpf(x):
            return mpmath.mpf(x.numerator) / x.denominator

        with mpmath.workprec(200):
            for row in table.rows:
                terms = fam.instantiate(row.m).terms
                lo, hi, n = mpf(row.root.lo), mpf(row.root.hi), mpf(row.n)
                lam = mpmath.findroot(
                    lambda t: mpmath.fsum(c * t**e for e, c in terms), (lo, hi),
                    solver="anderson",
                )
                assert lo <= lam <= hi
                ratio = n * mpmath.log(lam) / mpmath.log(n)
                assert row.ratio_lo <= ratio <= row.ratio_hi, (
                    f"m={row.m}: {mpmath.nstr(ratio, 16)} outside "
                    f"[{row.ratio_lo!r}, {row.ratio_hi!r}]"
                )

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ratio_table(b_family(2), 0, 4, [10])
        with pytest.raises(ValueError):
            ratio_table(b_family(2), 1, 0, [1])  # q*m+v = 1
