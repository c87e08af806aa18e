"""Tests for the exact Sturm-chain and shifted Descartes counts."""

import ast
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from magicfiber import dilatation_poly, family_poly, make_poly, sturm, sturm_count
from magicfiber.sturm import shifted_half_variations

QUAD = make_poly([(2, 1), (1, -4), (0, 1)])  # roots 2 +- sqrt(3)


class TestCounts:
    def test_one_root_above_one(self):
        assert sturm_count(QUAD, 1, 10**6) == 1

    def test_split_at_one(self):
        f = dilatation_poly((3, 1, -2))
        assert sturm_count(f, 0, 1) == 1
        assert sturm_count(f, 1, 10**6) == 1

    def test_no_real_roots(self):
        assert sturm_count(make_poly([(2, 1), (0, 1)]), -(10**6), 10**6) == 0

    def test_unbounded_intervals(self):
        assert sturm_count(QUAD, None, None) == 2
        assert sturm_count(QUAD, 0, None) == 2
        assert sturm_count(QUAD, 1, None) == 1
        assert sturm_count(QUAD, None, 0) == 0

    def test_half_open_includes_right_endpoint(self):
        f = make_poly([(1, 1), (0, -1)])  # t - 1
        assert sturm_count(f, 0, 1) == 1
        assert sturm_count(f, 1, 2) == 0

    def test_rational_endpoints(self):
        assert sturm_count(QUAD, Fraction(1, 4), Fraction(3, 10)) == 1  # 2-sqrt(3)

    def test_multiple_roots_counted_once(self):
        # (t-1)^2 * (t-3)
        f = make_poly([(3, 1), (2, -5), (1, 7), (0, -3)])
        assert sturm_count(f, 0, 10) == 2
        assert sturm_count(f, 2, 10) == 1

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            sturm_count(make_poly([(201, 1), (0, -1)]), 0, 2)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(make_poly([]), 0, 1)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(QUAD, 2, 2)

    def test_constant(self):
        assert sturm_count(make_poly([(0, 7)]), None, None) == 0


class TestAgainstNumpy:
    def test_random_cone_classes(self):
        import numpy as np

        from magicfiber.verify import sample_cone_classes

        for c in sample_cone_classes(25, max_norm=40, seed=7):
            f = dilatation_poly(c)
            roots = np.roots(f.dense_ascending()[::-1])
            n_pos = sum(1 for z in roots if abs(z.imag) < 1e-7 and z.real > 1e-9)
            assert sturm_count(f, 0, None) == n_pos == 2


@st.composite
def rooted_polys(draw):
    """f = prod (d t - n) over distinct rationals n/d, one repeated 30% of the
    time, with two bounds drawn from None, the roots and small rationals."""
    rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
    roots = draw(st.lists(rationals, min_size=1, max_size=6, unique=True))
    factors = list(roots)
    if draw(st.integers(0, 9)) < 3:
        factors.append(draw(st.sampled_from(roots)))
    dense = [1]
    for r in factors:  # times (d t - n), ascending coefficients
        n, d = r.numerator, r.denominator
        dense = [d * a - n * b for a, b in zip([0] + dense, dense + [0])]
    bound = st.one_of(st.none(), st.sampled_from(roots), rationals)
    return make_poly(enumerate(dense)), roots, draw(bound), draw(bound)


class TestExactCounts:
    @settings(max_examples=300, deadline=None)
    @given(rooted_polys())
    def test_counts_match_the_known_roots(self, case):
        f, roots, lower, upper = case
        if lower is not None and upper is not None:
            if lower == upper:
                with pytest.raises(ValueError):
                    sturm_count(f, lower, upper)
                return
            lower, upper = min(lower, upper), max(lower, upper)
        expected = sum(
            1 for r in roots
            if (lower is None or r > lower) and (upper is None or r <= upper)
        )
        assert sturm_count(f, lower, upper) == expected


@st.composite
def cone_classes(draw, bound=30):
    """Classes (x, y, z) of the open fibered cone, primitive or not."""
    x = draw(st.integers(1, bound))
    y = draw(st.integers(1, bound))
    z = draw(st.integers(min(x, y) - 1 - bound, min(x, y) - 1))
    return (x, y, z)


# hand-made palindromes with simple roots, the last one also at t = 1 and -1
PALINDROMES = [
    QUAD,
    dilatation_poly((3, 1, -2)),
    dilatation_poly((5, 7, -3)),  # degree 15: t + 1 is a factor
    make_poly([(3, 1), (2, -3), (1, -3), (0, 1)]),  # (t + 1) QUAD
    make_poly([(5, 1), (4, -5), (3, 4), (2, 4), (1, -5), (0, 1)]),  # (t - 1)^2 (t + 1) QUAD
]


def _assert_identity(f, points):
    """f(t) = t^(N/2) h(t + 1/t - 2), times t + 1 when N is odd: h is g(u + 2)."""
    h = sturm._shifted_half(f)
    n = f.degree()
    assert len(h) == n // 2 + 1
    for t in points:
        u = t + 1 / t - 2
        rhs = t ** (n // 2) * sum(c * u**j for j, c in enumerate(h))
        assert f(t) == (t + 1 if n % 2 else 1) * rhs


@st.composite
def palindromes(draw):
    """Palindromes of degree 0..30, both parities, small coefficients."""
    n = draw(st.integers(0, 30))
    half = draw(st.lists(st.integers(-9, 9), min_size=n // 2 + 1, max_size=n // 2 + 1))
    half[0] = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
    terms = [(i, c) for i, c in enumerate(half)]
    return make_poly(terms + [(n - i, c) for i, c in terms if 2 * i != n])


class TestPalindromicHalf:
    """h(u) = g(u + 2) by the binomial closed form, against exact evaluation
    and the full chain, which stays the reference."""

    @settings(max_examples=40, deadline=None)
    @given(cone_classes())
    def test_half_counts_match_the_full_chain(self, c):
        f = dilatation_poly(c)
        half = sturm_count(make_poly(enumerate(sturm._shifted_half(f))), 0, None)
        assert sturm_count(f, 1, None) == half
        assert sturm_count(f, 0, None) == 2 * half

    def test_identity_at_rational_points(self):
        for f in PALINDROMES:
            _assert_identity(f, [Fraction(3, 2), Fraction(-5, 4), Fraction(7), Fraction(-1)])

    @settings(max_examples=200, deadline=None)
    @given(palindromes(), st.fractions(min_value=-20, max_value=20, max_denominator=50))
    def test_identity_on_random_palindromes(self, f, t):
        _assert_identity(f, [t or Fraction(1, 3)])

    def test_even_degree(self):
        # t^2 - 4t + 1 = t (s - 4) with s = t + 1/t = u + 2
        assert sturm._shifted_half(QUAD) == [-2, 1]

    def test_odd_degree_palindrome(self):
        # (t + 1)(t^2 - 4t + 1) = t^3 - 3t^2 - 3t + 1 has the same half
        f = make_poly([(3, 1), (2, -3), (1, -3), (0, 1)])
        assert sturm._shifted_half(f) == [-2, 1]
        assert shifted_half_variations(f) == sturm_count(f, 1, None) == 1

    def test_roots_at_plus_and_minus_one(self):
        # (t - 1)^2 (t + 1)(t^2 - 4t + 1): t = -1 goes with the factor t + 1
        # and t = 1 maps to u = 0, which the count on (0, oo) excludes; so h
        # counts the roots strictly above 1, and the positive count is
        # twice that plus the root at 1.
        f = make_poly([(5, 1), (4, -5), (3, 4), (2, 4), (1, -5), (0, 1)])
        assert sturm._shifted_half(f) == [0, -2, 1]  # g = (s - 2)(s - 4)
        assert shifted_half_variations(f) == sturm_count(f, 1, None) == 1
        assert sturm_count(f, 0, None) == 2 * shifted_half_variations(f) + 1

    def test_constant(self):
        assert sturm._shifted_half(make_poly([(0, 3)])) == [3]

    @pytest.mark.parametrize(
        "terms",
        [
            [(6, 1), (5, -1), (3, -2), (1, -2), (0, 1)],  # dilatation shape, one term off
            [(1, 1), (0, -1)],  # t - 1 is anti-palindromic
            [(2, 1), (1, -4)],  # no constant term
            [],
        ],
    )
    def test_non_palindrome_rejected(self, terms):
        with pytest.raises(ValueError, match="not a palindrome"):
            shifted_half_variations(make_poly(terms))


class TestShiftedVariations:
    """Descartes' rule on h, against the Sturm chains, at any degree."""

    def test_shift_is_exact_at_rational_points(self):
        # family polynomials: even degree, middle term, colliding exponents at g = p
        points = [Fraction(1, 3), Fraction(-7, 2), Fraction(11)]
        for g in range(4):
            for p in range(6):
                _assert_identity(family_poly(g, p), points)

    @settings(max_examples=40, deadline=None)
    @given(cone_classes())
    def test_one_variation_is_one_root_above_one(self, c):
        f = dilatation_poly(c)
        if shifted_half_variations(f) == 1:
            assert sturm_count(f, 1, None) == 1

    @pytest.mark.parametrize("f", PALINDROMES, ids=str)
    def test_bounds_the_sturm_count_with_its_parity(self, f):
        count, exact = shifted_half_variations(f), sturm_count(f, 1, None)
        assert count >= exact
        assert (count - exact) % 2 == 0

    def test_any_degree(self):
        """Degrees 10^3 to 10^4, far above STURM_DEGREE_CAP, in a 10-s budget
        (about 0.05 s on a 2-core Xeon)."""
        classes = [(500, 501, -100), (1234, 987, -55), (2500, 2501, 0), (3000, 4001, -2999)]
        t0 = time.perf_counter()
        for c in classes:
            f = dilatation_poly(c)
            assert 10**3 <= f.degree() <= 10**4 and math.gcd(*c) == 1
            assert shifted_half_variations(f) == 1, c
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{elapsed:.2f}s over the 10-s budget"


def test_sturm_imports_neither_roots_nor_the_kernel():
    """The oracle must stay independent of the code it checks."""
    tree = ast.parse(Path(sturm.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    banned = {"roots", "_kernel"}
    hits = sorted(n for n in imported if banned & set(n.split(".")))
    assert not hits, f"sturm imports {hits}"
