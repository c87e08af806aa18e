"""Tests for the asymptotic sweeps over the family m -> family_poly(g, m)."""

from fractions import Fraction

import pytest

from magicfiber import (
    b_family,
    bracket_check,
    family_poly,
    ratio_table,
    unique_root_gt1,
)
from magicfiber.asymptotics import _cmp_root_to_power, _dyadic_pow_cmp

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
                assert fam(p) == family_poly(g, p)


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


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) by integer Newton."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


class TestDyadicPowCmp:
    @pytest.mark.parametrize("m, a, b", [(2, 1, 3), (10, 9, 10), (37, 1, 2), (50, 11, 10)])
    def test_near_ties(self, m, a, b):
        # the two dyadics 2^-200 apart around m^(a/e): floats cannot tell
        # their sides, so only the exact path gets them right
        e, k = b * m, 200
        r = _iroot(m**a << (k * e), e)
        assert r**e < m**a << (k * e) < (r + 1) ** e
        assert _dyadic_pow_cmp(Fraction(r, 2**k), e, m, a) == -1
        assert _dyadic_pow_cmp(Fraction(r + 1, 2**k), e, m, a) == 1

    def test_far_sides_with_huge_exponents(self):
        # lambda(2, 10) = 1.128...: far above 10^(1/10^400) and far below
        # 10^(10^400/10); neither power could be built
        x = unique_root_gt1(family_poly(2, 10)).lo
        assert _dyadic_pow_cmp(x, 10**400 * 10, 10, 1) == 1
        assert _dyadic_pow_cmp(x, 10, 10, 10**400) == -1


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
                terms = fam(row.m).terms
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
