"""Tests for the integer homology computations."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from magicfiber import (
    FiberedClass,
    NotInConeError,
    NotPrimitiveError,
    boundary_counts,
    euler_poincare_check,
    fiber_data,
    in_fibered_cone,
    is_primitive,
    thurston_norm,
)
from magicfiber.homology import MAX_COORD, as_fibered_class


@st.composite
def primitive_cone_classes(draw, bound=10**6):
    """Primitive classes of the open cone, z <= 0 and the collisions x = y, x = y - z included."""
    x, y = draw(st.integers(1, bound)), draw(st.integers(1, bound))
    z = draw(st.integers(-bound, bound))
    shape = draw(st.sampled_from(["any", "x = y", "x = y - z"]))
    if shape == "x = y":
        y = x
    elif shape == "x = y - z":
        z = min(z, (y - 1) // 2)
        x = y - z
    z = min(z, x - 1, y - 1)
    d = math.gcd(x, y, z)
    return (x // d, y // d, z // d)


VERTICES = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
    (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1),
]


def gauge_oracle(c):
    """Exact norm via the gauge of the vertex polytope.

    The unit ball is the convex hull of the eight vertices, so the norm of c
    is the least sum of nonnegative coefficients expressing c over them.  In
    dimension 3 an optimal expression uses at most three vertices; enumerate
    all triples and solve the 3x3 systems exactly.
    """
    target = tuple(Fraction(v) for v in c)
    if target == (0, 0, 0):
        return Fraction(0)
    best = None
    for trio in combinations(VERTICES, 3):
        # solve sum_i t_i * trio[i] = target by Cramer's rule
        m = [[Fraction(trio[j][i]) for j in range(3)] for i in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det == 0:
            continue
        coeffs = []
        for j in range(3):
            mj = [row[:] for row in m]
            for i in range(3):
                mj[i][j] = target[i]
            dj = (
                mj[0][0] * (mj[1][1] * mj[2][2] - mj[1][2] * mj[2][1])
                - mj[0][1] * (mj[1][0] * mj[2][2] - mj[1][2] * mj[2][0])
                + mj[0][2] * (mj[1][0] * mj[2][1] - mj[1][1] * mj[2][0])
            )
            coeffs.append(dj / det)
        if all(t >= 0 for t in coeffs):
            total = sum(coeffs)
            if best is None or total < best:
                best = total
    assert best is not None, f"no vertex expression found for {c}"
    return best


class TestThurstonNorm:
    def test_vertex(self):
        assert thurston_norm((1, 0, 0)) == 1

    def test_origin(self):
        assert thurston_norm((0, 0, 0)) == 0

    def test_family_member(self):
        assert thurston_norm((3, 1, -2)) == 6

    @pytest.mark.parametrize("g,p", [(2, 0), (3, 4), (7, 1)])
    def test_family_closed_form(self, g, p):
        assert thurston_norm((p + g + 1, 2 * p + 1, p - g)) == 2 * p + 2 * g + 2

    def test_simple_cone_class(self):
        assert thurston_norm((1, 1, 0)) == 2

    def test_all_vertices_have_norm_one(self):
        for v in VERTICES:
            assert thurston_norm(v) == 1

    @pytest.mark.parametrize(
        "c", [(1, 1, 0), (3, 1, -2), (2, 3, 1), (5, 2, -7), (-4, 9, 3), (0, 2, 5)]
    )
    def test_matches_gauge_oracle(self, c):
        assert thurston_norm(c) == gauge_oracle(c)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_matches_gauge_oracle_random(self, x, y, z):
        assert thurston_norm((x, y, z)) == gauge_oracle((x, y, z))

    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.integers(-7, 7),
    )
    def test_ray_linearity(self, x, y, z, k):
        c = FiberedClass(x, y, z)
        assert thurston_norm(k * c) == abs(k) * thurston_norm(c)

    @given(st.integers(1, 500), st.integers(1, 500), st.integers(-500, 500))
    def test_cone_formula(self, x, y, z):
        if in_fibered_cone((x, y, z)):
            assert thurston_norm((x, y, z)) == x + y - z

    def test_range_guard(self):
        with pytest.raises(ValueError):
            FiberedClass(MAX_COORD + 1, 0, 0)
        with pytest.raises(TypeError):
            FiberedClass(1.5, 0, 0)


class TestConeAndPrimitivity:
    def test_cone_examples(self):
        assert in_fibered_cone((1, 1, 0))
        assert not in_fibered_cone((1, 0, 0))
        assert in_fibered_cone((3, 1, -2))

    def test_boundary_of_cone_excluded(self):
        assert not in_fibered_cone((1, 1, 1))  # x > z fails

    def test_primitive_examples(self):
        assert is_primitive((3, 1, -2))
        assert not is_primitive((2, 4, 6))
        assert not is_primitive((5, 5, 0))  # the (g,p) = (2,2) family class

    def test_zero_class_rejected(self):
        with pytest.raises(NotPrimitiveError):
            is_primitive((0, 0, 0))


class TestBoundaryCounts:
    def test_family_example(self):
        assert boundary_counts((3, 1, -2)) == (1, 1, 2)

    def test_gcd_zero_convention(self):
        assert boundary_counts((1, 1, 0)) == (1, 1, 2)

    def test_direct_gcds(self):
        assert boundary_counts((2, 3, 1)) == (2, 3, 1)

    def test_preconditions(self):
        with pytest.raises(NotInConeError):
            boundary_counts((1, 0, 0))
        with pytest.raises(NotPrimitiveError):
            boundary_counts((2, 4, 0))


class TestFiberData:
    def test_family_example(self):
        fd = fiber_data((3, 1, -2))
        assert (fd.norm, fd.genus, fd.n_total) == (6, 2, 4)
        assert (fd.b_alpha, fd.b_beta, fd.b_gamma) == (1, 1, 2)
        assert (fd.prongs_alpha, fd.prongs_beta, fd.prongs_gamma) == (3, 1, 4)

    def test_genus_zero_example(self):
        fd = fiber_data((1, 1, 0))
        assert (fd.norm, fd.genus) == (2, 0)
        assert (fd.b_alpha, fd.b_beta, fd.b_gamma) == (1, 1, 2)
        assert (fd.prongs_alpha, fd.prongs_beta, fd.prongs_gamma) == (1, 1, 1)

    def test_three_cusp_example(self):
        fd = fiber_data((2, 3, 1))
        assert (fd.norm, fd.genus) == (4, 0)
        assert (fd.b_alpha, fd.b_beta, fd.b_gamma) == (2, 3, 1)
        assert (fd.prongs_alpha, fd.prongs_beta, fd.prongs_gamma) == (1, 1, 3)

    def test_euler_poincare_balance(self):
        for c in [(3, 1, -2), (1, 1, 0), (2, 3, 1), (7, 5, -3)]:
            assert euler_poincare_check(fiber_data(c))

    def test_perturbed_balance_fails(self):
        fd = fiber_data((3, 1, -2))
        assert not euler_poincare_check(fd._replace(prongs_gamma=fd.prongs_gamma + 1))

    def test_determinism(self):
        assert fiber_data((9, 4, -1)) == fiber_data((9, 4, -1))


class TestIdentities:
    """The module docstring's identities, at sizes the norm <= 60 sweep of
    ``verify topology`` never reaches."""

    @settings(max_examples=200)
    @given(primitive_cone_classes(10**12))
    def test_identities_and_cusp_symmetry(self, c):
        x, y, z = c
        fd = fiber_data(c)
        assert fd.n_total == fd.b_alpha + fd.b_beta + fd.b_gamma
        assert 2 * fd.genus == 2 - fd.n_total + fd.norm
        assert euler_poincare_check(fd)
        assert fiber_data((y, x, z)) == fd._replace(
            b_alpha=fd.b_beta, b_beta=fd.b_alpha,
            prongs_alpha=fd.prongs_beta, prongs_beta=fd.prongs_alpha,
        )


class TestOneValidation:
    """Tuples and FiberedClass go through the same checks, in the same order."""

    @settings(max_examples=200)
    @given(primitive_cone_classes())
    def test_tuple_and_class_agree(self, c):
        assert fiber_data(c) == fiber_data(FiberedClass(*c))
        assert boundary_counts(c) == boundary_counts(FiberedClass(*c))

    @pytest.mark.parametrize("fn", [fiber_data, boundary_counts])
    @pytest.mark.parametrize(
        "c, error",
        [
            ((3, 1, 2.5), TypeError),
            ((MAX_COORD + 1, 1, 0), ValueError),  # in the cone and primitive but for its size
            ((1, 0, 0), NotInConeError),
            ((2, 4, 0), NotPrimitiveError),
            ((True, 2, 0), TypeError),  # would read as (1, 2, 0): in the cone, primitive
        ],
    )
    def test_tuple_errors(self, fn, c, error):
        with pytest.raises(error) as info:
            fn(c)
        assert info.type is error

    @pytest.mark.parametrize(
        "fn", [thurston_norm, in_fibered_cone, is_primitive, as_fibered_class]
    )
    @pytest.mark.parametrize("c", [(True, 2, 0), (1, 2.0, 0), (1, 2, False)])
    def test_every_reader_refuses_a_non_int_coordinate(self, fn, c):
        with pytest.raises(TypeError, match="coordinates must be integers"):
            fn(c)
