"""The evaluation kernel's enclosures are sound and its inputs are checked."""

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
    from fractions import Fraction

    lo, hi = _kernel.pow_enclosure(tnum, tk, e, prec)
    exact = Fraction(tnum, 1 << tk) ** e
    assert Fraction(lo, 1 << prec) <= exact <= Fraction(hi, 1 << prec)


@pytest.mark.parametrize("e", [-1, -2, -(10**6)])
def test_pow_enclosure_rejects_negative_exponent(e):
    with pytest.raises(ValueError, match="nonnegative"):
        _kernel.pow_enclosure(3, 1, e, 64)
