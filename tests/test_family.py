"""Tests for the (g, p) family, the coprimality condition, and bound tables."""

import math
from fractions import Fraction

import pytest

from magicfiber import family, roots
from magicfiber import (
    FiberedClass,
    NotPrimitiveError,
    condition_star,
    condition_star_brute,
    condition_star_star,
    family_class,
    family_dilatation,
    family_fiber_data,
    family_poly,
    fiber_data,
    filled_variants,
    in_fibered_cone,
    is_primitive,
    no_one_prong,
    unique_root_gt1,
    upper_bound_table,
)

# The primitive (g, p) whose fiber has a 1-pronged alpha or gamma component.
ONE_PRONGED = {(0, 0), (0, 1), (1, 0)}


class TestFamilyClass:
    def test_g2_p0(self):
        fc = family_class(2, 0)
        assert type(fc) is FiberedClass and tuple(fc) == (3, 1, -2)
        assert is_primitive(fc)

    def test_g2_p2_not_primitive(self):
        fc = family_class(2, 2)
        assert type(fc) is FiberedClass and tuple(fc) == (5, 5, 0)
        assert not is_primitive(fc)

    def test_always_in_cone(self):
        for g in range(0, 12):
            for p in range(0, 12):
                assert in_fibered_cone(family_class(g, p))

    def test_primitive_sequence(self):
        # p_i = (g+1) + (2g+1) i is primitive for every i
        for g in range(0, 15):
            for i in range(0, 15):
                p = (g + 1) + (2 * g + 1) * i
                assert is_primitive(family_class(g, p))

    def test_primitivity_matches_gcd_of_coords(self):
        # the closed form of the family module docstring
        for g in range(0, 25):
            for p in range(0, 25):
                assert is_primitive(family_class(g, p)) == (math.gcd(2 * g + 1, p + g + 1) == 1)


class TestClosedForm:
    def test_even_case(self):
        fd = family_fiber_data(2, 0)
        assert (fd.b_alpha, fd.b_beta, fd.b_gamma) == (1, 1, 2)
        assert (fd.prongs_alpha, fd.prongs_beta, fd.prongs_gamma) == (3, 1, 4)
        assert (fd.genus, fd.n_total) == (2, 4)

    def test_odd_case(self):
        fd = family_fiber_data(2, 1)
        assert (fd.b_alpha, fd.b_beta, fd.b_gamma) == (2, 3, 1)
        assert (fd.prongs_alpha, fd.prongs_beta, fd.prongs_gamma) == (2, 1, 9)
        assert (fd.genus, fd.n_total) == (2, 6)

    def test_matches_direct_computation(self):
        for g in range(0, 30):
            for p in range(0, 30):
                fc = family_class(g, p)
                if is_primitive(fc):
                    assert family_fiber_data(g, p) == fiber_data(fc)

    def test_not_primitive_rejected(self):
        with pytest.raises(NotPrimitiveError):
            family_fiber_data(2, 2)


class TestNoOnePromg:
    def test_exceptional_set(self):
        assert no_one_prong(2, 0)
        assert not no_one_prong(0, 1)
        assert no_one_prong(1, 2)  # primitive complement of the exceptional set
        assert not no_one_prong(0, 0)
        assert not no_one_prong(1, 0)
        # the module docstring's claim, with primitivity read off the gcd
        failing = {
            (g, p)
            for g in range(61)
            for p in range(61)
            if math.gcd(2 * g + 1, p + g + 1) == 1 and not no_one_prong(g, p)
        }
        assert failing == ONE_PRONGED

    def test_non_primitive_rejected(self):
        with pytest.raises(NotPrimitiveError):
            no_one_prong(1, 1)  # gcd(3, 3) = 3

    def test_matches_prong_data(self):
        # prongs from the general fiber computation, not the family closed form
        for g in range(0, 12):
            for p in range(0, 12):
                fc = family_class(g, p)
                if not is_primitive(fc):
                    continue
                fd = fiber_data(fc)
                expected = fd.prongs_alpha > 1 and fd.prongs_gamma > 1
                assert no_one_prong(g, p) == expected


class TestDilatation:
    def test_g2_p0_bracket(self):
        r = family_dilatation(2, 0)
        assert Fraction("1.70") < r.lo and r.hi < Fraction("1.75")

    def test_g0_p0_is_quadratic_root(self):
        r = family_dilatation(0, 0, Fraction(1, 10**9))
        assert (r.lo - 2) ** 2 < 3 < (r.hi - 2) ** 2

    def test_g2_p1_below_two(self):
        r = family_dilatation(2, 1)
        assert 1 < r.lo and r.hi < 2


class TestFilledVariants:
    def test_odd_case(self):
        assert filled_variants(2, 1) == [
            (6, ()),
            (4, ("alpha",)),
            (5, ("gamma",)),
            (3, ("alpha", "gamma")),
        ]

    def test_even_case(self):
        assert filled_variants(2, 0) == [
            (4, ()),
            (3, ("alpha",)),
            (2, ("gamma",)),
            (1, ("alpha", "gamma")),
        ]

    def test_covers_window(self):
        for g in range(2, 12):
            for p in range(0, 12):
                if not is_primitive(family_class(g, p)):
                    continue
                ns = sorted(n for n, _ in filled_variants(g, p))
                assert ns == [2 * p + 1, 2 * p + 2, 2 * p + 3, 2 * p + 4]

    def test_one_prong_obstruction(self):
        with pytest.raises(ValueError):
            filled_variants(0, 1)


class TestConditionStar:
    def test_g4_holds(self):
        assert condition_star(4) == (True, None)

    def test_g7_fails_at_5(self):
        assert condition_star(7) == (False, 5)

    def test_prime_2g_plus_1(self):
        for g in (2, 3, 5, 6, 8, 9, 11, 14, 15):
            assert 2 * g + 1 in (5, 7, 11, 13, 17, 19, 23, 29, 31)
            assert condition_star(g)[0]

    def test_matches_brute_force(self):
        for g in range(2, 400):
            assert condition_star(g) == condition_star_brute(g)

    def test_holds_iff_2g_plus_1_is_a_prime_power(self):
        for g in range(2, 5001):
            m = 2 * g + 1
            d = 3
            while m % d:  # the least prime factor of m
                d += 2
            while m % d == 0:
                m //= d
            assert condition_star(g)[0] == (m == 1), g

    def test_witness_lies_in_3_to_g_minus_2(self):
        for g in range(5, 5001):
            holds, s = condition_star(g)
            if not holds:
                assert 3 <= s <= g - 2, (g, s)

    def test_small_g_rejected(self):
        with pytest.raises(ValueError):
            condition_star(1)


class TestConditionStarStar:
    def test_g7(self):
        assert condition_star_star(7) is False

    def test_agrees_with_full_condition(self):
        for g in range(5, 400):
            assert condition_star_star(g) == condition_star(g)[0]

    def test_g_below_5_rejected(self):
        with pytest.raises(ValueError):
            condition_star_star(4)


class TestUpperBoundTable:
    def test_g2_n8_witness(self):
        rows = upper_bound_table(2, 8, 8)
        rec = rows[0]
        assert rec.witness_p == 3  # p=2 pruned: gcd(5, 5) != 1
        assert rows[0].pruned_p == (2,)
        assert math.gcd(5, 3 + 2 + 1) == 1

    def test_unfilled_rows_use_family_root(self):
        # n = 2 p_i + 4 for the always-primitive sequence: bound is the family root
        g = 2
        for i in range(3):
            p = (g + 1) + (2 * g + 1) * i
            n = 2 * p + 4
            rows = upper_bound_table(g, n, n)
            rec = rows[0]
            assert rec.witness_p is not None
            direct = family_dilatation(g, rec.witness_p)
            if rec.witness_p == p:
                assert rec.bound.lo == direct.lo and rec.bound.hi == direct.hi
            else:
                # the other candidate won: its bound must not exceed this one
                assert rec.bound.lo <= family_dilatation(g, p).hi

    def test_n_reconstruction(self):
        for rec in upper_bound_table(3, 3, 60):
            assert rec.witness_p is not None
            fd = family_fiber_data(3, rec.witness_p)
            n = fd.n_total
            for cusp in rec.filled:
                n -= fd.b_alpha if cusp == "alpha" else fd.b_gamma
            assert n == rec.n
            assert rec.n - 2 * rec.witness_p in (1, 2, 3, 4)
            assert rec.bound.lo > 1

    def test_g7_has_no_witness_rows(self):
        rows = upper_bound_table(7, 3, 40)
        missing = [row.n for row in rows if row.witness_p is None]
        assert all(row.filled is row.bound is None for row in rows if row.n in missing)
        assert 5 in missing and 6 in missing
        assert any(row.pruned_p for row in rows)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            upper_bound_table(1, 3, 10)
        with pytest.raises(ValueError):
            upper_bound_table(2, 0, 10)
        with pytest.raises(ValueError):
            upper_bound_table(2, 10, 3)

    def test_low_puncture_rows_allowed(self):
        rows = upper_bound_table(2, 1, 2)
        assert all(row.witness_p is not None for row in rows)

    def test_one_isolation_per_row_at_the_echoed_tol(self, monkeypatch):
        orig = family.family_dilatation
        calls = []

        def counted(g, p, tol, **kwargs):
            bound = orig(g, p, tol, **kwargs)
            calls.append((p, tol, bound))
            return bound

        monkeypatch.setattr(family, "family_dilatation", counted)
        tols = [Fraction(1, 10), Fraction(1, 10**3), Fraction(1, 10**12)]
        for g in range(0, 10):
            for n in range(0, 201):
                # of the candidates 2p+1 <= n <= 2p+4, the witness is the largest
                # qualifying one and the rest that do not qualify are pruned
                window = [p for p in range(n) if 2 * p + 1 <= n <= 2 * p + 4]
                qualifying = [
                    p for p in window
                    if math.gcd(2 * g + 1, p + g + 1) == 1 and (g, p) not in ONE_PRONGED
                ]
                witness = max(qualifying, default=None)
                pruned = tuple(p for p in window if p not in qualifying)
                for tol in tols:
                    calls.clear()
                    row = family.bound_row(g, n, tol)
                    assert (row.witness_p, row.pruned_p) == (witness, pruned), (g, n)
                    if witness is None:
                        assert calls == [] and row.filled is row.bound is None
                    else:
                        assert calls == [(witness, tol, row.bound)]

    def test_parallel_matches_sequential(self):
        seq = upper_bound_table(3, 3, 30, jobs=1)
        par = upper_bound_table(3, 3, 30, jobs=4)
        assert seq == par


@pytest.mark.parametrize(
    "g, calls", [(2, 25792), (3, 25728), (4, 25656), (5, 25600), (6, 25604)]
)
def test_bound_table_work_is_pinned(g, calls, kernel_calls):
    # The kernel calls of the benchmark's bound table, all at the start
    # precision: a start cell one level off, or a refuted one, shows here
    # as a changed count.
    upper_bound_table(g, 3, 500, Fraction("1e-30"))
    assert len(kernel_calls) == calls
    off = [c for c in kernel_calls if c[2] != max(roots.DEFAULT_BITS, c[1] + 64)]
    assert off == []


# Each entry point with its integer arguments; the bad value goes in at
# position i, the others stay valid.
ENTRY_POINTS = [
    pytest.param(family_class, (2, 3), id="family_class"),
    pytest.param(family_fiber_data, (2, 3), id="family_fiber_data"),
    pytest.param(no_one_prong, (2, 3), id="no_one_prong"),
    pytest.param(filled_variants, (2, 3), id="filled_variants"),
    pytest.param(family_dilatation, (2, 3), id="family_dilatation"),
    pytest.param(family_poly, (2, 3), id="family_poly"),
    pytest.param(condition_star, (7,), id="condition_star"),
    pytest.param(condition_star_brute, (7,), id="condition_star_brute"),
    pytest.param(condition_star_star, (7,), id="condition_star_star"),
    pytest.param(family.bound_row, (2, 7), id="bound_row"),
    pytest.param(upper_bound_table, (2, 3, 9), id="upper_bound_table"),
    pytest.param(
        lambda g, n_min, n_max, jobs: upper_bound_table(g, n_min, n_max, jobs=jobs),
        (2, 3, 9, 2),
        id="upper_bound_table_jobs",
    ),
    pytest.param(
        lambda g, p, max_bits: family_dilatation(g, p, max_bits=max_bits),
        (2, 3, 64),
        id="family_dilatation_max_bits",
    ),
]


@pytest.mark.parametrize("fn, args", ENTRY_POINTS)
def test_only_int_arguments_are_taken(fn, args, monkeypatch):
    def refused(*a, **kw):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(roots, "eval_enclosure", refused)
    for i, good in enumerate(args):
        for bad in (float(good), True, str(good), -1):
            with pytest.raises(ValueError, match=f"need an int .* not {bad!r}"):
                fn(*args[:i], bad, *args[i + 1:])


def test_family_messages_name_the_argument():
    with pytest.raises(ValueError, match=r"^need an int genus g >= 0, not -1$"):
        family_class(-1, 0)
    with pytest.raises(ValueError, match=r"^need an int p >= 0, not 3\.5$"):
        family_poly(2, 3.5)
    with pytest.raises(ValueError, match=r"^need an int genus g >= 2, not 7\.0$"):
        condition_star(7.0)
    with pytest.raises(ValueError, match=r"^need an int n >= 0, not 7\.0$"):
        family.bound_row(2, 7.0)
    with pytest.raises(ValueError, match=r"^bound tables are stated for g >= 2$"):
        upper_bound_table(1, 3, 5)
    # g = 0 is a valid genus with no witness at n = 3
    assert family.bound_row(0, 3).witness_p is None
