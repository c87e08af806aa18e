"""The evaluation kernel's enclosures are sound and its inputs are checked."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from magicfiber import _kernel


@given(
    st.integers(1, 4000),
    st.integers(0, 12),
    st.integers(0, 600),
    st.sampled_from([8, 64, 128]),
)
def test_pow_enclosure_contains_exact_power(tnum, tk, e, prec):
    lo, hi = _kernel.pow_enclosure(tnum, tk, e, prec)
    exact = Fraction(tnum, 1 << tk) ** e
    assert Fraction(lo, 1 << prec) <= exact <= Fraction(hi, 1 << prec)


@pytest.mark.parametrize("e", [-1, -2, -(10**6)])
def test_pow_enclosure_rejects_negative_exponent(e):
    with pytest.raises(ValueError, match="nonnegative"):
        _kernel.pow_enclosure(3, 1, e, 64)


@st.composite
def sparse_terms(draw):
    """Strictly decreasing exponents up to about 600, with coefficients.

    Half the draws mirror the gaps, as in a palindrome, so gaps repeat; the
    lowest exponent is 0 (a constant term) or not.
    """
    gaps = draw(st.lists(st.integers(1, 60), max_size=5))
    if draw(st.booleans()):
        gaps = gaps + gaps[-2::-1]
    exps = [draw(st.sampled_from([0, 0, 1, 7, 60]))]
    for gap in gaps:
        exps.append(exps[-1] + gap)
    exps.reverse()
    coeff = st.one_of(
        st.integers(-5, 5),
        st.builds(lambda m, a: -(m**a), st.integers(2, 10**6), st.integers(1, 30)),
        st.integers(-(2**200), 2**200),
    )
    return exps, draw(st.lists(coeff, min_size=len(exps), max_size=len(exps)))


@given(
    sparse_terms(),
    st.integers(0, 20).flatmap(
        # t = tnum / 2**tk, below 1, near 1 or above it
        lambda tk: st.tuples(
            st.one_of(
                st.integers(1, 1 << tk),
                st.integers((1 << tk) - 8, (1 << tk) + 8).filter(lambda n: n > 0),
                st.integers(1 << tk, 1 << (tk + 12)),
            ),
            st.just(tk),
        )
    ),
    st.sampled_from([1, 6, 16, 64, 130]),
)
def test_eval_enclosure_contains_exact_value(terms, point, prec):
    exps, coeffs = terms
    tnum, tk = point
    lo, hi = _kernel.eval_enclosure(exps, coeffs, tnum, tk, prec)
    t = Fraction(tnum, 1 << tk)
    exact = sum(c * t**e for e, c in zip(exps, coeffs))
    assert Fraction(lo, 1 << prec) <= exact <= Fraction(hi, 1 << prec)


def test_eval_enclosure_of_no_terms_is_zero():
    assert _kernel.eval_enclosure([], [], 3, 1, 64) == (0, 0)


@pytest.mark.parametrize(
    "exps, coeffs, tnum, tk, prec",
    [
        ([5, 2, 0], [1, -3, -(7**4)], 3, 0, 64),
        ([14, 9, 7, 5, 0], [1, -1, -2, -1, 1], 12, 2, 2),  # t = 3, prec = tk
        ([3, 0], [1, -8], 2, 0, 128),  # an exact zero: x**e - m**a at x = m
        ([600, 1], [-(10**9), 5], 1, 0, 7),
    ],
)
def test_eval_enclosure_is_exact_at_an_integer_point(exps, coeffs, tnum, tk, prec):
    # _certified_sign reads lo == hi as an exact value (a tie when it is 0)
    lo, hi = _kernel.eval_enclosure(exps, coeffs, tnum, tk, prec)
    t = Fraction(tnum, 1 << tk)
    assert lo == hi == sum(c * t**e for e, c in zip(exps, coeffs)) * (1 << prec)


@pytest.mark.parametrize(
    "exps, coeffs",
    [([-1], [1]), ([0, 5], [1, 1]), ([4, 4], [1, 1]), ([3, -1], [1, 1])],
    ids=["negative", "ascending", "repeated", "negative_last"],
)
def test_eval_enclosure_rejects_unordered_exponents(exps, coeffs):
    with pytest.raises(ValueError, match="strictly decreasing and nonnegative"):
        _kernel.eval_enclosure(exps, coeffs, 3, 1, 64)
