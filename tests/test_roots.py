"""Tests for certified evaluation and root isolation."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from magicfiber import roots
from magicfiber.verify import sample_cone_classes
from magicfiber import (
    PrecisionError,
    bound_row,
    dilatation_poly,
    evaluate_certified,
    family_poly,
    make_poly,
    unique_root_gt1,
)

QUAD = make_poly([(2, 1), (1, -4), (0, 1)])  # roots 2 +- sqrt(3)


def assert_valid_bracket(f, root, tol):
    tol = Fraction(tol)
    assert root.lo > 1
    assert root.lo < root.hi
    assert root.hi - root.lo <= 2 * tol
    assert evaluate_certified(f, root.lo).sign == -1
    assert evaluate_certified(f, root.hi).sign == 1
    assert root.lo <= root.value <= root.hi


class TestEvaluateCertified:
    def test_exact_integer_point(self):
        enc = evaluate_certified(QUAD, 4)
        assert enc.sign == 1
        assert enc.lo == enc.hi == 1

    def test_exact_at_one(self):
        enc = evaluate_certified(dilatation_poly((3, 1, -2)), 1)
        assert enc.sign == -1
        assert enc.lo == enc.hi == -2

    def test_certified_despite_cancellation(self):
        f = family_poly(2, 500)
        enc = evaluate_certified(f, 1 + Fraction(1, 2**20), bits=64)
        assert enc.sign == -1
        exact = f(1 + Fraction(1, 2**20))
        assert enc.lo <= exact <= enc.hi

    def test_undetermined_then_certified_by_escalation(self):
        # dyadic within 2**-100 of 2+sqrt(3): 64 bits cannot separate,
        # escalated precision can
        root = unique_root_gt1(QUAD, Fraction(1, 2**100))
        assert evaluate_certified(QUAD, root.lo, bits=64).sign is None
        assert evaluate_certified(QUAD, root.lo, bits=256).sign == -1

    def test_zero_polynomial(self):
        enc = evaluate_certified(make_poly([]), 3)
        assert enc == roots.Enclosure(Fraction(0), Fraction(0))
        assert enc.sign == 0

    def test_nonpositive_point_rejected(self):
        with pytest.raises(ValueError):
            evaluate_certified(QUAD, 0)
        with pytest.raises(ValueError):
            evaluate_certified(QUAD, Fraction(1, 3))

    @given(
        st.lists(st.tuples(st.integers(0, 25), st.integers(-8, 8)), max_size=8),
        st.integers(1, 40),
        st.integers(0, 6),
        st.sampled_from([64, 128, 256]),
    )
    def test_enclosure_contains_exact_value(self, terms, num, k, bits):
        f = make_poly(terms)
        t = Fraction(num, 1 << k)
        enc = evaluate_certified(f, t, bits=bits)
        exact = f(t)
        assert enc.lo <= exact <= enc.hi


class TestUniqueRoot:
    def test_quartic_regression(self):
        f = make_poly([(4, 1), (3, -2), (1, -2), (0, 1)])
        r = unique_root_gt1(f, Fraction(1, 10**4))
        assert abs(r.value - Fraction("2.2966")) <= Fraction("5e-4")
        assert_valid_bracket(f, r, Fraction(1, 10**4))

    def test_quadratic_to_1e7(self):
        r = unique_root_gt1(QUAD, Fraction(1, 10**7))
        # 2 + sqrt(3) lies in the bracket: check by exact squaring
        assert (r.lo - 2) ** 2 < 3 < (r.hi - 2) ** 2
        assert_valid_bracket(QUAD, r, Fraction(1, 10**7))

    def test_family_g2_p0_bracket(self):
        f = family_poly(2, 0)
        r = unique_root_gt1(f)
        assert Fraction("1.70") < r.lo and r.hi < Fraction("1.75")
        assert_valid_bracket(f, r, Fraction(1, 10**12))

    def test_root_beyond_two(self):
        # the root 2+sqrt(3) > 2 exercises the doubling search
        r = unique_root_gt1(QUAD)
        assert r.lo > 3

    def test_monotone_refinement(self):
        f = family_poly(3, 7)
        tol = Fraction(1, 10**6)
        prev = unique_root_gt1(f, tol)
        for _ in range(6):
            tol /= 2
            nxt = unique_root_gt1(f, tol)
            assert prev.lo <= nxt.lo <= nxt.hi <= prev.hi
            prev = nxt

    def test_escalation_path_independence(self, monkeypatch):
        f = family_poly(2, 30)
        brackets = []
        for bits in (64, 4096):
            monkeypatch.setattr(roots, "DEFAULT_BITS", bits)
            r = unique_root_gt1(f)
            brackets.append((r.lo, r.hi))
        assert brackets[0] == brackets[1]

    def test_exact_dyadic_root(self):
        # t - 2 has the dyadic root 2, but its constant term is not 1: only
        # the dilatation shape is accepted, and its roots above 1 are irrational
        with pytest.raises(ValueError, match="coefficient signs"):
            unique_root_gt1(make_poly([(1, 1), (0, -2)]), Fraction(1, 10**6))

    @pytest.mark.parametrize(
        "terms",
        [
            [(3, 1), (2, 1), (1, -4), (0, 1)],  # f(1) < 0, positive interior term
            [(2, 1), (1, -4), (0, 2)],  # constant term 2
        ],
    )
    def test_other_sign_shapes_rejected(self, terms):
        with pytest.raises(ValueError, match="coefficient signs"):
            unique_root_gt1(make_poly(terms), Fraction(1, 10**6))

    def test_shape_violations_rejected(self):
        with pytest.raises(ValueError):
            unique_root_gt1(make_poly([(2, 2), (0, -3)]))  # lead != 1
        with pytest.raises(ValueError):
            unique_root_gt1(make_poly([(2, 1), (0, 1)]))  # f(1) > 0
        with pytest.raises(ValueError):
            unique_root_gt1(make_poly([(0, 1)]))  # constant

    def test_precision_ceiling_error(self):
        with pytest.raises(PrecisionError):
            unique_root_gt1(QUAD, Fraction(1, 2**300), max_bits=128)

    def test_oracle_agreement_with_sturm(self):
        from magicfiber import sturm_count

        for c in [(3, 1, -2), (2, 3, 1), (9, 8, -5), (11, 4, 2)]:
            f = dilatation_poly(c)
            r = unique_root_gt1(f)
            assert sturm_count(f, 1, r.lo) == 0
            assert sturm_count(f, 1, r.hi) == 1
            assert sturm_count(f, r.lo, r.hi) == 1


def F(text):
    return Fraction(text)


# Exact brackets of roots above 2, on the grid of width (b - 1)/2**j with
# b = 4 or 32: (f, tol, lo, hi).
GOLDEN = [
    (QUAD, Fraction(1, 10**7), F("62613421/16777216"), F("3913339/1048576")),
    (
        QUAD,
        Fraction(1, 10**30),
        F("4730936446296935564633176200967/1267650600228229401496703205376"),
        F("9461872892593871129266352401937/2535301200456458802993406410752"),
    ),
    (
        make_poly([(4, 1), (3, -2), (1, -2), (0, 1)]),  # the verify quartic
        Fraction(1, 10**6),
        F("2408191/1048576"),
        F("4816385/2097152"),
    ),
    (family_poly(0, 0), Fraction(1, 10**12), F("8206866516743/2199023255552"),
     F("4103433258373/1099511627776")),
    (
        make_poly([(2, 1), (1, -20), (0, 1)]),
        Fraction(1, 10**30),
        F("404631523535357414136867501740707/20282409603651670423947251286016"),
        F("202315761767678707068433750870369/10141204801825835211973625643008"),
    ),
]


@pytest.mark.parametrize("f,tol,lo,hi", GOLDEN)
def test_golden_brackets_above_two(f, tol, lo, hi):
    r = unique_root_gt1(f, tol)
    assert (r.lo, r.hi, r.value) == (lo, hi, (lo + hi) / 2)


GUESS_TOLS = [
    Fraction(1, 10),
    Fraction(1, 10**4),
    Fraction(1, 10**12),
    Fraction(1, 10**30),
    Fraction(1, 2**100),
]


def bracket(f, tol):
    r = unique_root_gt1(f, tol)
    return (r.lo, r.hi, r.value)


def reference_bracket(f, tol):
    """The bracket of bisection from (1, b), the path without an estimate.

    The ceiling admits f(2) at degree 2*10**6; brackets do not depend on it.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_estimate_root", lambda exps, coeffs: None)
        r = unique_root_gt1(f, tol, max_bits=1 << 22)
    return (r.lo, r.hi, r.value)


class TestGuessedStart:
    """The start cell the estimate predicts changes no bit of any bracket."""

    @pytest.mark.parametrize("g", range(8))
    def test_family_small_p(self, g):
        for p in list(range(61)) + [250, 10**4]:
            f = family_poly(g, p)
            for tol in GUESS_TOLS:
                assert bracket(f, tol) == reference_bracket(f, tol), (g, p, tol)

    @pytest.mark.parametrize(
        "g,tol",
        [
            # lambda - 1 < 2*tol: the start cell has index 0 and bisection
            # goes on past the tol level until the lower end exceeds 1
            (2, Fraction(1, 10**3)),
            (2, Fraction(1, 10**12)),
            (7, Fraction(1, 2**100)),
        ],
    )
    def test_family_p_1e6(self, g, tol):
        f = family_poly(g, 10**6)
        assert bracket(f, tol) == reference_bracket(f, tol)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.integers(-60, 59),
        st.sampled_from(GUESS_TOLS),
    )
    def test_random_cone_classes(self, x, y, z, tol):
        z = min(z, x - 1, y - 1)
        f = dilatation_poly((x, y, z))
        assert bracket(f, tol) == reference_bracket(f, tol)

    def test_grid_level_is_the_least_level_within_two_tol(self):
        for tol in GUESS_TOLS + [Fraction(1, 2), Fraction(3, 4), Fraction(5), Fraction(1, 3)]:
            j = roots._grid_level(tol)
            assert Fraction(1, 2**j) <= 2 * tol
            assert j == 0 or Fraction(1, 2 ** (j - 1)) > 2 * tol


class TestWrongGuess:
    """A start cell or estimate that is wrong cannot change the answer."""

    POLYS = [family_poly(2, 10), family_poly(3, 60), dilatation_poly((9, 8, -5))]

    @pytest.mark.parametrize("shift", [1, -1, 3, -3, 10**6, -(10**6), "coarser"])
    @pytest.mark.parametrize("tol", [Fraction(1, 10**12), Fraction(1, 10**30)])
    def test_shifted_start_cell(self, monkeypatch, shift, tol):
        start_cell = roots._start_cell
        shifted = []

        def wrong_cell(exps, coeffs, max_level):
            i, level = start_cell(exps, coeffs, max_level)
            if shift == "coarser":  # a cell on the bisection path, 5 levels up
                return i >> 5, level - 5
            assert 0 <= i + shift < 2**level - 1
            shifted.append(i + shift)
            return i + shift, level

        for f in self.POLYS:
            expected = reference_bracket(f, tol)
            with monkeypatch.context() as mp:
                mp.setattr(roots, "_start_cell", wrong_cell)
                assert bracket(f, tol) == expected
        assert shift == "coarser" or len(shifted) == len(self.POLYS)

    def test_estimate_beyond_two(self, monkeypatch):
        expected = [reference_bracket(f, Fraction(1, 10**12)) for f in self.POLYS]
        # the estimate claims lambda = 2.5 for roots below 2
        monkeypatch.setattr(roots, "_estimate_root", lambda exps, coeffs: (1.5, 1e-15))
        assert [bracket(f, Fraction(1, 10**12)) for f in self.POLYS] == expected

    @pytest.mark.parametrize("w", [math.nan, math.inf, -1.0, 0.0, 1e300])
    def test_newton_start_out_of_range(self, monkeypatch, w):
        # a start that is no finite u > 0, or lies far above the root, falls
        # back to the safeguard while the bracket has no end or no upper end
        want = [roots._estimate_root(f.exponents(), f.coefficients()) for f in self.POLYS]
        monkeypatch.setattr(roots, "_lambert_w", lambda z: w)
        for f, (x, err) in zip(self.POLYS, want):
            got = roots._estimate_root(f.exponents(), f.coefficients())
            assert got is not None and abs(got[0] - x) <= err + got[1]
        assert [bracket(f, Fraction(1, 10**30)) for f in self.POLYS] == [
            reference_bracket(f, Fraction(1, 10**30)) for f in self.POLYS
        ]

    def test_precision_ceiling_still_raises(self):
        with pytest.raises(PrecisionError):
            unique_root_gt1(family_poly(2, 10), Fraction(1, 2**300), max_bits=128)


def test_lambert_w_start_is_within_its_stated_error():
    mpmath = pytest.importorskip("mpmath")
    for k in range(-400, 801):
        z = 10 ** (k / 50)
        assert abs(roots._lambert_w(z) / float(mpmath.lambertw(z).real) - 1) < 1.2e-4, z


ESTIMATE_SAMPLE = {
    "family": [family_poly(g, m) for g in range(2, 7) for m in (2, 3, 10, 100, 1000, 2000)],
    "family_large_m": [family_poly(2, 10**4), family_poly(2, 10**6)],
    "cone_classes": [dilatation_poly(c) for c in sample_cone_classes(200, 100)],
    "lambda_at_least_2": [
        dilatation_poly(c) for c in [(1, 1, 0), (2, 1, 0), (1, 2, 0), (2, 2, 1), (3, 1, 0)]
    ],
    # lambda = 1.618, a root below 2 whose Lambert-W start lies past ln 2
    "near_2": [dilatation_poly((92, 1, -1))],
}


@pytest.mark.parametrize("sample", sorted(ESTIMATE_SAMPLE))
def test_estimate_contract(sample):
    # against a certified bracket at tol 2**-80, in exact Fractions: every
    # root below 2 has an estimate, every estimate puts lambda - 1 within err
    # of x, with err below 2**-40 * x, and no start cell is guessed exactly
    # when lambda >= 2
    bad = []
    for f in ESTIMATE_SAMPLE[sample]:
        root = unique_root_gt1(f, Fraction(1, 2**80))
        assert not root.lo < 2 < root.hi
        for tol in (Fraction(1, 10**12), Fraction(1, 10**30)):
            cell = roots._start_cell(f.exponents(), f.coefficients(), roots._grid_level(tol))
            if (root.lo > 2) != (cell is None):
                bad.append((str(f), tol, cell, float(root.lo)))
        est = roots._estimate_root(f.exponents(), f.coefficients())
        if est is None:
            if root.hi < 2:
                bad.append((str(f), est, float(root.lo)))
            continue
        x, err = map(Fraction, est)
        if not (x - err <= root.lo - 1 and root.hi - 1 <= x + err and err < x / 2**40):
            bad.append((str(f), est, float(root.lo)))
    assert bad == []


def test_no_far_point_evaluation(kernel_calls):
    # f(2) alone costs tens of milliseconds at this degree
    r = unique_root_gt1(family_poly(2, 10**6))
    points = [(tnum, tk) for tnum, tk, _ in kernel_calls]
    assert 1 < r.lo < r.hi < 2
    assert len(points) <= 3
    assert (2, 0) not in points


def _near_points_only(kernel_calls, deg, limit):
    """Refuse a point with deg*(t - 1) > limit, before the kernel runs."""

    def near(tnum, tk, prec):
        assert deg * (tnum - (1 << tk)) <= limit << tk, (tnum, tk)

    kernel_calls.guard = near


def test_deep_start_cell(kernel_calls):
    # lambda - 1 is about 6e-29, far below tol: the start cell lies below the
    # tol level, where t**deg stays small
    f = family_poly(2, 10**30)
    _near_points_only(kernel_calls, f.degree(), 1 << 10)
    r = unique_root_gt1(f)
    # the cell (1, j) at the first level j with 2**-j <= lambda - 1, certified
    # at its two ends at the start precision, and no bisection step
    assert r.hi - 1 == 2 * (r.lo - 1) < Fraction(1, 10**27)
    points = [(tnum, tk) for tnum, tk, _ in kernel_calls]
    assert len(set(points)) == len(points) == 2


@pytest.mark.parametrize(
    "isolate",
    [
        lambda: [bound_row(2, n, Fraction("1e-30")) for n in range(3, 101)],
        lambda: [unique_root_gt1(family_poly(2, m)) for m in range(2, 401)],
    ],
    ids=["bound_rows", "family_sweep"],
)
def test_no_sign_escalates(kernel_calls, isolate):
    # every certified sign settles at _certified_sign's start precision; a
    # point may repeat (bound_row isolates one p more than once), but never
    # at a higher precision
    isolate()
    assert kernel_calls
    assert [c for c in kernel_calls if c[2] != max(roots.DEFAULT_BITS, c[1] + 64)] == []


def test_size_guard_refuses_before_the_kernel(kernel_calls):
    # class (2**62, 1, 0): lambda is just above 2, so no start cell is
    # guessed, and the first point, t = 2, would need a 2**62-bit integer
    f = dilatation_poly((2**62, 1, 0))
    _near_points_only(kernel_calls, f.degree(), 0)
    with pytest.raises(PrecisionError, match="ceiling"):
        unique_root_gt1(f)
    assert kernel_calls == []


@pytest.mark.parametrize("bad", [-5, 0, 2.5, True, "64"])
def test_only_int_bit_counts_are_taken(bad, kernel_calls):
    # max_bits and bits follow the package's integer-argument rule, checked
    # before any kernel call: -5 is a usage error, not a precision refusal
    f = dilatation_poly((3, 1, -2))
    with pytest.raises(ValueError, match=re.escape(f"need an int max_bits >= 1, not {bad!r}")):
        unique_root_gt1(f, "1e-6", max_bits=bad)
    with pytest.raises(ValueError, match=re.escape(f"need an int bits >= 1, not {bad!r}")):
        evaluate_certified(f, 2, bits=bad)
    assert kernel_calls == []
