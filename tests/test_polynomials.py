"""Tests for sparse polynomial construction and the dilatation polynomials."""

import pytest
from hypothesis import given, settings, strategies as st

from magicfiber import (
    NotInConeError,
    SparsePoly,
    dilatation_poly,
    family_poly,
    in_fibered_cone,
    make_poly,
    sign_variations,
    thurston_norm,
)
from magicfiber.homology import MAX_COORD
from magicfiber.sturm import STURM_DEGREE_CAP

terms_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-9, 9)), max_size=12
)


@st.composite
def cone_classes(draw, bound=10**6):
    """Classes of the open cone, z <= 0 and the collisions x = y, x = y - z included."""
    x, y = draw(st.integers(1, bound)), draw(st.integers(1, bound))
    z = draw(st.integers(-bound, bound))
    shape = draw(st.sampled_from(["any", "x = y", "x = y - z"]))
    if shape == "x = y":
        y = x
    elif shape == "x = y - z":
        z = min(z, (y - 1) // 2)
        x = y - z
    return (x, y, min(z, x - 1, y - 1))


class TestMakePoly:
    def test_already_canonical(self):
        f = make_poly([(2, 1), (1, -4), (0, 1)])
        assert f.terms == ((2, 1), (1, -4), (0, 1))

    def test_cancellation_to_zero(self):
        assert make_poly([(4, 1), (4, -1)]).is_zero

    def test_merge(self):
        f = make_poly([(6, 1), (3, -1), (5, -1), (3, -1), (1, -1), (0, 1)])
        assert f == dilatation_poly((3, 1, -2))
        assert f.terms == ((6, 1), (5, -1), (3, -2), (1, -1), (0, 1))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            make_poly([(-1, 3)])

    def test_non_canonical_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            SparsePoly(((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            SparsePoly(((1, 0),))

    @given(terms_strategy)
    def test_idempotent(self, terms):
        f = make_poly(terms)
        assert make_poly(f.terms) == f

    @given(terms_strategy, st.integers(-5, 5))
    def test_evaluation_matches_naive_sum(self, terms, t):
        f = make_poly(terms)
        assert f(t) == sum(c * t**e for e, c in terms)


class TestDilatationPoly:
    def test_collided_middle_exponents(self):
        assert dilatation_poly((1, 1, 0)) == make_poly([(2, 1), (1, -4), (0, 1)])

    def test_direct_substitution(self):
        assert dilatation_poly((2, 3, 1)) == make_poly(
            [(4, 1), (3, -1), (2, -2), (1, -1), (0, 1)]
        )

    def test_out_of_cone_rejected(self):
        with pytest.raises(NotInConeError):
            dilatation_poly((1, 0, 0))

    @settings(max_examples=200)
    @given(cone_classes())
    def test_direct_form_is_make_poly(self, c):
        x, y, z = c
        assert dilatation_poly(c) == make_poly(
            [(x + y - z, 1), (x, -1), (y, -1), (x - z, -1), (y - z, -1), (0, 1)]
        )

    @pytest.mark.parametrize(
        "c, error",
        [
            ((3, 1, 2.5), TypeError),
            ((MAX_COORD + 1, 1, 0), ValueError),  # in the cone but for its size
            ((True, 2, 0), TypeError),
        ],
    )
    def test_tuple_errors(self, c, error):
        with pytest.raises(error) as info:
            dilatation_poly(c)
        assert info.type is error

    def test_non_primitive_class_accepted(self):
        assert dilatation_poly((2, 4, 0)) == make_poly([(6, 1), (4, -2), (2, -2), (0, 1)])

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_family_identity(self, g, p):
        assert family_poly(g, p) == dilatation_poly((p + g + 1, 2 * p + 1, p - g))

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(-60, 0))
    def test_shape_on_cone(self, x, y, z):
        f = dilatation_poly((x, y, z))
        assert f.degree() == x + y - z
        assert f.terms[0][1] == 1
        assert f.constant_term() == 1
        assert f.at_one() == 2 - 4  # the four middle terms all evaluate to 1


    # Theory oracles that need no dense coefficients, so no degree cap.

    @settings(max_examples=200)
    @given(st.integers(1, 10**9), st.integers(1, 10**9), st.integers(-(10**9), 10**9))
    def test_palindrome(self, x, y, z):
        # norm - x = y - z and norm - y = x - z: the lambda <-> 1/lambda symmetry
        z = min(z, x - 1, y - 1)
        f = dilatation_poly((x, y, z))
        n = f.degree()
        assert sorted((n - e, c) for e, c in f.terms) == sorted(f.terms)

    @settings(max_examples=200)
    @given(
        st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-(10**6), 10**6),
        st.integers(2, 1000),
    )
    def test_scaling(self, x, y, z, k):
        # f_{k c}(t) = f_c(t^k), so lambda(k c)^k = lambda(c)
        z = min(z, x - 1, y - 1)
        f = dilatation_poly((x, y, z))
        assert dilatation_poly((k * x, k * y, k * z)) == make_poly(
            (k * e, c) for e, c in f.terms
        )


class TestFamilyPoly:
    def test_g2_p0(self):
        assert family_poly(2, 0) == make_poly(
            [(6, 1), (5, -1), (3, -2), (1, -1), (0, 1)]
        )

    def test_g2_p1(self):
        assert family_poly(2, 1) == make_poly(
            [(8, 1), (5, -1), (4, -2), (3, -1), (0, 1)]
        )
        assert family_poly(2, 1) == dilatation_poly((4, 3, -1))

    def test_degenerate_collision(self):
        assert family_poly(0, 0) == make_poly([(2, 1), (1, -4), (0, 1)])

    @settings(max_examples=200)
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_direct_form_is_make_poly(self, g, p):
        assert family_poly(g, p) == make_poly(
            [(2 * p + 2 * g + 2, 1), (2 * p + 1, -1), (p + g + 1, -2), (2 * g + 1, -1), (0, 1)]
        )

    @pytest.mark.parametrize("g", [0, 1, 2, 7, 10**9])
    def test_p_equals_g_merges_the_middle(self, g):
        assert family_poly(g, g).terms == ((4 * g + 2, 1), (2 * g + 1, -4), (0, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            family_poly(-1, 0)


class TestSignVariations:
    def test_three_variations(self):
        f = make_poly([(4, 1), (3, 1), (2, -2), (1, 1), (0, -1)])
        assert sign_variations(f) == 3

    def test_two_variations(self):
        f = make_poly([(4, 1), (3, 1), (2, -2), (1, 1), (0, 1)])
        assert sign_variations(f) == 2

    def test_constant(self):
        assert sign_variations(make_poly([(0, 1)])) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sign_variations(make_poly([]))

    @settings(max_examples=200)
    @given(cone_classes(10**9))
    def test_cone_classes_have_two(self, c):
        # proved in ``dilatation_poly``; ``verify rootcount`` counts it on
        # 500 classes of norm <= 100 only
        assert sign_variations(dilatation_poly(c)) == 2


class TestStr:
    def test_pretty(self):
        assert str(dilatation_poly((3, 1, -2))) == "t^6 - t^5 - 2*t^3 - t + 1"
        assert str(make_poly([])) == "0"
        assert str(make_poly([(1, -1), (0, 3)])) == "-t + 3"


def _swap(c):
    x, y, z = c
    return (y, x, z)


def _flip(c):
    x, y, z = c
    return (x - z, y - z, -z)


class TestFaceSymmetry:
    """(x, y, z) -> (y, x, z) and (x, y, z) -> (x-z, y-z, -z) fix the fibered face.

    Both are linear maps permuting the vertices of the norm ball, so they
    preserve the norm everywhere and the open cone as a set; on the cone
    they permute the middle exponents x, y, x-z, y-z and fix x+y-z, so the
    dilatation polynomial is the same.  Checked exactly at degrees far above
    the Sturm oracle's cap.
    """

    coords = st.integers(-(10**6), 10**6)

    @given(st.tuples(coords, coords, coords), st.sampled_from([_swap, _flip]))
    def test_cone_membership_and_norm(self, c, sym):
        assert in_fibered_cone(sym(c)) == in_fibered_cone(c)
        assert thurston_norm(sym(c)) == thurston_norm(c)

    @given(cone_classes(), st.sampled_from([_swap, _flip]))
    def test_dilatation_poly(self, c, sym):
        assert dilatation_poly(sym(c)) == dilatation_poly(c)

    def test_samples_reach_past_the_sturm_cap(self):
        c = (10**6, 10**6 - 1, -(10**6))
        assert dilatation_poly(c).degree() > 10**4 * STURM_DEGREE_CAP
        assert dilatation_poly(_flip(c)) == dilatation_poly(_swap(c)) == dilatation_poly(c)
