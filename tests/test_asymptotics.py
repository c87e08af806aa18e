"""Tests for the asymptotic sweeps over the family m -> family_poly(g, m)."""

import concurrent.futures
import hashlib
import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from magicfiber import (
    asymptotics,
    b_family,
    bracket_check,
    family_poly,
    ratio_table,
    roots,
    unique_root_gt1,
)
from magicfiber.asymptotics import _block_ok, _dyadic_pow_cmp, _side
from magicfiber.cli import main
from magicfiber.roots import DEFAULT_MAX_BITS, MAX_TASKS, PrecisionError

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
    """A single m is the block [m, m], decided by the block rule."""

    def test_known_sides(self):
        # lambda(2,10) = 1.12819... vs 10^(0.9/10) = 1.23027 and 10^(0.05/10)
        root = unique_root_gt1(family_poly(2, 10))
        assert _side(root, 10, Fraction(9, 10)) == -1
        assert _side(root, 10, Fraction(1, 20)) == 1
        assert _block_ok(root, root, 10, 10, Fraction(1, 20), Fraction(9, 10)) is True
        assert _block_ok(root, root, 10, 10, Fraction(9, 10), Fraction(2)) is False
        assert _block_ok(root, root, 10, 10, Fraction(1, 50), Fraction(1, 20)) is False

    def test_refines_through_coarse_bracket(self, monkeypatch):
        # a deliberately coarse bracket, (9/8, 5/4), holds 10^(3/50) = 1.148...
        # as well as lambda = 1.128..., which forces refinement, each step at
        # half the previous bracket's tol
        f = family_poly(2, 10)
        coarse = unique_root_gt1(f, Fraction(1, 4))
        assert coarse.lo**50 < 10**3 < coarse.hi**50
        assert _block_ok(coarse, coarse, 10, 10, Fraction(3, 5), Fraction(2)) is None
        tols = []

        def isolate(f, tol=Fraction(1, 4)):  # the sweep's first isolation is the coarse one
            tols.append(tol)
            return unique_root_gt1(f, tol)

        monkeypatch.setattr(asymptotics, "unique_root_gt1", isolate)
        assert bracket_check(2, Fraction(3, 5), 2, 10, 10).failures == (10,)
        assert len(tols) > 1
        assert tols == [Fraction(1, 2 ** (2 + i)) for i in range(len(tols))]


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

    def test_undecided_with_huge_powers_raises(self):
        # 2^(2a) = 4^a exactly: the float logs tie, and 4^a has more than
        # DEFAULT_MAX_BITS bits, so no power is built
        a = DEFAULT_MAX_BITS
        with pytest.raises(PrecisionError):
            _dyadic_pow_cmp(Fraction(2), 2 * a, 4, a)

    def test_undecided_below_the_cap_is_exact(self):
        a = DEFAULT_MAX_BITS // 3  # 4^a has 2a + 1 <= DEFAULT_MAX_BITS bits
        assert _dyadic_pow_cmp(Fraction(2), 2 * a, 4, a) == 0


class TestBracketCheck:
    def test_wide_bracket_holds(self):
        rep = bracket_check(2, "0.5", "2.0", 2, 120)
        assert rep.failures == ()
        assert rep.threshold == 2
        assert rep.holds_tail

    def test_narrow_bracket_fails_at_desk_scale(self):
        rep = bracket_check(2, "0.9", "1.1", 2, 120)
        assert rep.failures == tuple(range(2, 121))
        assert rep.threshold is None
        assert not rep.holds_tail

    def test_threshold_monotonicity(self):
        wide = bracket_check(2, "0.5", "2.0", 2, 60)
        narrow = bracket_check(2, "0.7", "1.5", 2, 60)
        wide_thr = wide.threshold if wide.threshold is not None else float("inf")
        narrow_thr = narrow.threshold if narrow.threshold is not None else float("inf")
        assert wide_thr <= narrow_thr

    def test_m_one_fails_upper(self):
        # 1^(c/1) = 1 lies below lambda_1 at every c
        root = unique_root_gt1(family_poly(2, 1))
        assert _side(root, 1, Fraction(2)) == 1
        assert _block_ok(root, root, 1, 1, Fraction(1, 2), Fraction(2)) is False
        rep = bracket_check(2, "0.5", "2.0", 1, 4)
        assert 1 in rep.failures

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            bracket_check(2, "1.1", "1.2", 2, 4)


# Failure lists of bracket_check(g, c1, c2, 2, 2000), frozen as
# (count, SHA-256 of the ;-joined list) so that any way of deciding the
# verdicts must reproduce them exactly.
FROZEN_FAILURES = {
    (g, "0.9", "1.1"): (1999, "93e06f78097acc75fbc46ecbebb168cf3a60a5192c6c391560aad847576aed97")
    for g in range(2, 7)
}
FROZEN_FAILURES.update({
    (2, "0.5", "2.0"): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, "0.5", "2.0"): (41, "98b9246b218fcc8e3f6c8ececed67b1e0e5b1808a5dfcd6b141be14c5d0cd137"),
    (4, "0.5", "2.0"): (112, "96fe88f59bf20226d834c30bc99d64e8ea47c652aa685bcc72a183e115699af9"),
    (5, "0.5", "2.0"): (219, "21724d69fabbcf19863570f1f68a31abe91007a09f358a26fc494b82d0def6a4"),
    (6, "0.5", "2.0"): (370, "b8903fb9cbfd1f73744540cd0c9394cda854d5ed0e99a007205155575fe4d243"),
})


@pytest.mark.parametrize("g, c1, c2", sorted(FROZEN_FAILURES))
def test_frozen_verdicts(g, c1, c2):
    failures = bracket_check(g, c1, c2, 2, 2000).failures
    text = ";".join(map(str, failures))
    got = (len(failures), hashlib.sha256(text.encode()).hexdigest())
    assert got == FROZEN_FAILURES[g, c1, c2]


# Isolations of bracket_check(g, "0.9", "1.1", 2, 2000): m = 2
# and the ends of the blocks that the halving visits, each isolated once.
BRACKET_ISOLATIONS = {2: 18, 3: 15, 4: 14, 5: 13, 6: 12}


@pytest.mark.parametrize("g", range(2, 7))
def test_bracket_work_is_pinned(g, kernel_calls, monkeypatch):
    # Each root certified by the two ends of its start cell at the start
    # precision, and every comparison settled by float logs: a faster
    # estimate must not be bought with refuted start cells.
    isolations = []
    isolate = asymptotics.unique_root_gt1

    def counted(*args, **kwargs):
        isolations.append(args)
        return isolate(*args, **kwargs)

    def refused(*args):
        raise AssertionError("a power comparison reached the certified sign")

    monkeypatch.setattr(asymptotics, "unique_root_gt1", counted)
    monkeypatch.setattr(asymptotics, "_certified_sign", refused)
    bracket_check(g, "0.9", "1.1", 2, 2000)
    assert len(isolations) == BRACKET_ISOLATIONS[g]
    assert len({f for f, in isolations}) == len(isolations)
    assert len(kernel_calls) == 2 * BRACKET_ISOLATIONS[g]
    off = [c for c in kernel_calls if c[2] != max(roots.DEFAULT_BITS, c[1] + 64)]
    assert off == []


def per_m_failures(fam, c1, c2, m_lo, m_hi):
    """The oracle: each m on its own, from two signs of f_m and no root.

    f_m has one root lambda_m above 1, with f_m < 0 on [1, lambda_m) and
    f_m > 0 above it, so for x >= 1, lambda_m > x exactly when f_m(x) < 0.
    The bracket holds at m iff f_m(m^(c1/m)) < 0 < f_m(m^(c2/m)).  mpmath
    takes both values at 60 digits; at these sizes (terms below 10^20) that
    errs by less than 10^-40, and each value must stand far clear of it.
    """
    mpmath = pytest.importorskip("mpmath")
    c1, c2 = Fraction(c1), Fraction(c2)
    failures = []
    with mpmath.workdps(60):
        for m in range(m_lo, m_hi + 1):
            terms = fam(m).terms
            lower, upper = (
                mpmath.fsum(k * x**e for e, k in terms)
                for x in (
                    mpmath.mpf(m) ** (mpmath.mpf(c.numerator) / (c.denominator * m))
                    for c in (c1, c2)
                )
            )
            assert min(abs(lower), abs(upper)) > mpmath.mpf(10) ** -20, m
            if not lower < 0 < upper:
                failures.append(m)
    return tuple(failures)


@st.composite
def sweeps(draw):
    m_lo = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 600)))
    m_hi = draw(st.integers(m_lo, 600))
    c1 = draw(st.fractions(0, 1, max_denominator=12).filter(lambda c: 0 < c < 1))
    c2 = draw(st.fractions(1, 3, max_denominator=12).filter(lambda c: c > 1))
    return draw(st.integers(0, 8)), c1, c2, m_lo, m_hi


@seed(27)
@settings(max_examples=50, deadline=None, database=None)
@given(sweeps())
def test_blocks_agree_with_the_per_m_test(sweep):
    g, c1, c2, m_lo, m_hi = sweep
    rep = bracket_check(g, c1, c2, m_lo, m_hi)
    assert rep.failures == per_m_failures(b_family(g), c1, c2, m_lo, m_hi)


def test_blocks_start_at_three(monkeypatch):
    # 2^(c1/2) < lambda_3 < 3^(c1/3): the lower side fails at m = 3, yet the
    # ends of [2, 3] would read every m as holding, since m^(c/m) rises
    # from 2 to 3.  So no block of two or more values may start below 3.
    fam, c1, c2 = b_family(2), Fraction(5, 8), Fraction(2)
    r2, r3 = (unique_root_gt1(fam(m)) for m in (2, 3))
    assert _side(r3, 2, c1) > 0 > _side(r3, 3, c1)
    assert _side(r2, 3, c2) < 0
    starts = []
    block_ok = asymptotics._block_ok

    def recorded(root_a, root_b, a, b, *args):
        if a < b:
            starts.append(a)
        return block_ok(root_a, root_b, a, b, *args)

    monkeypatch.setattr(asymptotics, "_block_ok", recorded)
    for m_hi in (3, 5, 6, 9, 12, 40):
        assert bracket_check(2, c1, c2, 1, m_hi).failures == per_m_failures(fam, c1, c2, 1, m_hi)
    assert starts and min(starts) == 3


def _around(x: float) -> roots.CertifiedRoot:
    """A made-up bracket of width 2**-39 around x, for the block rule alone."""
    eps = Fraction(1, 2**40)
    return roots.CertifiedRoot(Fraction(x) - eps, Fraction(x) + eps, Fraction(x), eps)


# (lambda_a, lambda_b, verdict) on the block [3, 9] at (c1, c2) = (1/2, 2):
# 3^(1/6) = 1.2009, 9^(1/18) = 1.1298, 3^(2/3) = 2.0801, 9^(2/9) = 1.6297.
BLOCK_CASES = [
    (1.10, 1.05, False),  # lambda_a below 9^(1/18): the lower side fails
    (1.50, 1.25, True),  # lambda_b above 3^(1/6), lambda_a below 9^(2/9)
    (2.50, 2.20, False),  # lambda_b above 3^(2/3): the upper side fails
    (1.15, 1.12, None),  # lambda_a above 9^(1/18), lambda_b below 3^(1/6)
    (1.50, 1.15, None),  # lambda_b above 9^(1/18) only
    (1.80, 1.30, None),  # lambda_a below 3^(2/3) only
    (2.00, 1.70, None),  # lambda_b above 9^(2/9) only
]


@pytest.mark.parametrize("lam_a, lam_b, verdict", BLOCK_CASES)
def test_block_rule_compares_across_the_block(lam_a, lam_b, verdict):
    c1, c2 = Fraction(1, 2), Fraction(2)
    assert _block_ok(_around(lam_a), _around(lam_b), 3, 9, c1, c2) is verdict


def test_block_comparison_that_raises_leaves_the_block_open(monkeypatch):
    def raising(*args):
        raise PrecisionError("too close to call")

    monkeypatch.setattr(asymptotics, "_dyadic_pow_cmp", raising)
    assert _block_ok(_around(1.1), _around(1.05), 3, 9, Fraction(1, 2), Fraction(2)) is None


def test_near_tie_inside_a_block_still_raises():
    # c1 agrees with 7 ln(lambda_7) / ln 7 to 12 digits: only m = 7 is a near
    # tie, and no block holding it can be settled, so the per-m test meets it
    lam = unique_root_gt1(family_poly(2, 7)).value
    c1 = Fraction(round(7 * math.log(lam) / math.log(7) * 10**12), 10**12)
    with pytest.raises(PrecisionError):
        bracket_check(2, c1, "2.0", 2, 100)
    assert bracket_check(2, c1, "2.0", 8, 100).failures == per_m_failures(
        b_family(2), c1, "2.0", 8, 100
    )


@pytest.mark.parametrize(
    "sweep, bad_points, text",
    [
        # m is the top of the range [2, m]
        (lambda g, m=10: bracket_check(g, "0.5", "2.0", 2, m), (1, 10.5, True), "int m_hi >= 2"),
        (lambda g, m=10: ratio_table(g, 2, 4, [10, m]), (-1, 10.5, True), "int m >= 0"),
    ],
    ids=["bracket_check", "ratio_table"],
)
def test_only_an_int_genus_is_taken(monkeypatch, sweep, bad_points, text):
    def refused(*args):
        raise AssertionError("the sweep began")

    monkeypatch.setattr(asymptotics, "unique_root_gt1", refused)
    for g in (-1, 2.0, "2", True):
        with pytest.raises(ValueError, match="genus"):
            sweep(g)
    for m in bad_points:
        with pytest.raises(ValueError, match=text):
            sweep(2, m)


def test_a_wrapped_family_poly_gives_the_same_failures(monkeypatch):
    # a profiler, a monkeypatch or the benchmark's tracer may wrap
    # family_poly; the sweep looks it up by name at each isolation
    expected = bracket_check(2, "0.9", "1.1", 2, 50).failures
    calls = []

    def wrapped(g, m):
        calls.append((g, m))
        return family_poly(g, m)

    monkeypatch.setattr(asymptotics, "family_poly", wrapped)
    assert bracket_check(2, "0.9", "1.1", 2, 50).failures == expected
    assert calls and {g for g, _ in calls} == {2}


def test_oversized_range_is_refused_before_any_work(monkeypatch):
    def refused(*args):
        raise AssertionError("the sweep began")

    monkeypatch.setattr(asymptotics, "unique_root_gt1", refused)
    with pytest.raises(PrecisionError, match="memory bound"):
        bracket_check(2, "0.9", "1.1", 2, MAX_TASKS + 2)
    with pytest.raises(AssertionError, match="the sweep began"):
        bracket_check(2, "0.9", "1.1", 2, MAX_TASKS + 1)

    def points():  # fails the test if read past its first MAX_TASKS + 1 values
        yield from range(2, MAX_TASKS + 3)
        raise AssertionError("the points were read past the bound")

    with pytest.raises(PrecisionError, match="memory bound"):
        ratio_table(2, 2, 4, points())
    with pytest.raises(AssertionError, match="the sweep began"):
        ratio_table(2, 2, 4, range(2, MAX_TASKS + 2))


@pytest.mark.parametrize(
    "argv",
    [
        ["asymp", "bracket", "-g", "6", "--c1", "0.5", "--c2", "2.0", "--m-range", "2..10000"],
        ["asymp", "ratio", "-g", "2", "--points", "10000,100000,300000,1000000"],
        ["verify", "asymp", "bounds"],
    ],
    ids=["bracket", "ratio", "verify"],
)
def test_long_sweep_runs_inline_at_any_jobs(monkeypatch, argv):
    # --jobs is accepted, but the sweep runs in this process: the same roots
    # isolated and the same bytes at --jobs 1 and 2, and no pool
    isolations = []
    isolate = asymptotics.unique_root_gt1

    def counted(*args, **kwargs):
        isolations.append(args)
        return isolate(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a pool was used")

    monkeypatch.setattr(asymptotics, "unique_root_gt1", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    outs, counts = {}, {}
    for jobs in (1, 2):
        isolations.clear()
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(argv + ["--jobs", str(jobs)]) == 0
        outs[jobs], counts[jobs] = buf.getvalue(), len(isolations)
    assert outs[1] == outs[2]
    assert counts[1] == counts[2] > 0


class TestRatioTable:
    def test_frozen_regression_cells(self):
        table = ratio_table(2, 2, 4, sorted(RATIO_CELLS))
        assert table.strictly_increasing
        assert not table.strictly_decreasing
        for row in table.rows:
            want = RATIO_CELLS[row.m]
            assert row.ratio_lo - 1e-9 <= want <= row.ratio_hi + 1e-9
            assert row.ratio_hi - row.ratio_lo < 1e-6

    def test_unit_slope_deviation_decreases(self):
        table = ratio_table(2, 1, 0, [2**k for k in range(4, 11)])
        devs = [abs((r.ratio_lo + r.ratio_hi) / 2 - 1.0) for r in table.rows]
        assert all(r.ratio_lo > 0 for r in table.rows)
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_error_bounds_inherit_bracket(self):
        coarse = ratio_table(2, 2, 4, [50], tol=Fraction(1, 10**4))
        fine = ratio_table(2, 2, 4, [50], tol=Fraction(1, 10**10))
        assert fine.rows[0].ratio_hi - fine.rows[0].ratio_lo < (
            coarse.rows[0].ratio_hi - coarse.rows[0].ratio_lo
        )

    def test_bounds_contain_the_mpmath_ratio_at_tight_tol(self):
        # At tol 1e-20 the bracket is far narrower than a float's rounding of
        # n*log(lambda)/log(n), so only the outward rounding keeps the ratio.
        mpmath = pytest.importorskip("mpmath")
        fam = b_family(2)
        table = ratio_table(2, 2, 4, [10**6, 10**6 + 3], tol=Fraction(1, 10**20))

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
            ratio_table(2, 0, 4, [10])
        with pytest.raises(ValueError):
            ratio_table(2, 1, 0, [1])  # q*m+v = 1
