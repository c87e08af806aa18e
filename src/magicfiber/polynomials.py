"""Canonical sparse integer polynomials and the dilatation polynomials.

A polynomial is stored as a tuple of (exponent, coefficient) pairs with
strictly decreasing exponents and no zero coefficients; the zero polynomial
is the empty tuple.  The two constructors that matter:

* ``dilatation_poly(c)``: for a class (x, y, z) in the open fibered cone,
  the 6-term polynomial t^(x+y-z) - t^x - t^y - t^(x-z) - t^(y-z) + 1 whose
  unique root above 1 is the dilatation of the monodromy.
* ``family_poly(g, p)``: the two-parameter family
  t^(2p+2g+2) - t^(2p+1) - 2 t^(p+g+1) - t^(2g+1) + 1, which equals
  ``dilatation_poly((p+g+1, 2p+1, p-g))`` identically.

Exponent collisions for small parameters are legitimate and are resolved by
canonical merging (e.g. family_poly(0, 0) is t^2 - 4t + 1).

Every exponent and coefficient is an ``int`` (a ``bool`` is not taken) and
every exponent is nonnegative: ``_checked_term`` holds that rule, and both
``SparsePoly`` and ``make_poly`` run it on each term they are given.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .homology import _cone_coords, _int_arg

__all__ = [
    "SparsePoly",
    "make_poly",
    "dilatation_poly",
    "family_poly",
    "sign_variations",
]


def _checked_term(e, c) -> None:
    """The term rules: an int exponent >= 0 and an int coefficient."""
    if type(e) is not int or type(c) is not int:
        raise TypeError(f"exponents and coefficients must be integers, got {(e, c)!r}")
    if e < 0:
        raise ValueError(f"negative exponent {e}")


class _Terms(NamedTuple):
    terms: tuple[tuple[int, int], ...]


# A NamedTuple body cannot define __new__, so the check lives in a subclass.
class SparsePoly(_Terms):
    """Immutable sparse integer polynomial in one variable t.

    Construction (``_replace`` and unpickling included) checks each term
    (an int exponent >= 0 and an int coefficient, a bool taken for
    neither) and the canonical form: no zero coefficient, exponents
    strictly decreasing.
    """

    __slots__ = ()

    def __new__(cls, terms):
        last = None
        for e, c in terms:
            _checked_term(e, c)
            if c == 0:
                raise ValueError("zero coefficient in canonical form")
            if last is not None and e >= last:
                raise ValueError("exponents must be strictly decreasing")
            last = e
        return super().__new__(cls, terms)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return self.terms[0][0]

    def constant_term(self) -> int:
        if self.terms and self.terms[-1][0] == 0:
            return self.terms[-1][1]
        return 0

    def at_one(self) -> int:
        return sum(c for _, c in self.terms)

    def exponents(self) -> list[int]:
        return [e for e, _ in self.terms]

    def coefficients(self) -> list[int]:
        return [c for _, c in self.terms]

    def __call__(self, t):
        """Exact evaluation at an int or Fraction point."""
        if isinstance(t, float):
            t = Fraction(t)
        acc = Fraction(0) if isinstance(t, Fraction) else 0
        for e, c in self.terms:
            acc += c * t**e
        return acc

    def dense_ascending(self) -> list[int]:
        """Coefficient list indexed by exponent (inefficient for huge degree)."""
        if not self.terms:
            return []
        out = [0] * (self.degree() + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def make_poly(terms) -> SparsePoly:
    """Canonicalize an iterable of (exponent, coefficient) pairs.

    Like exponents are merged, zero coefficients dropped, exponents sorted
    descending.  Each term is checked before any merging, so a term that
    cancels is checked too.
    """
    acc: dict[int, int] = {}
    for e, c in terms:
        _checked_term(e, c)
        acc[e] = acc.get(e, 0) + c
    merged = tuple(
        (e, acc[e]) for e in sorted(acc, reverse=True) if acc[e] != 0
    )
    return SparsePoly(merged)


def dilatation_poly(c) -> SparsePoly:
    """The 6-term dilatation polynomial of a class in the open cone.

    The canonical form is built directly, without ``make_poly``.  The cone
    inequalities x > 0, y > 0, x > z, y > z put each middle exponent x, y,
    x-z, y-z strictly between 0 and x+y-z (x < x+y-z iff y > z, x-z > 0 iff
    x > z, and so on), so the form is (x+y-z, 1), then the middle exponents
    in descending order with -1 each, equal neighbours merged into one term
    (-2 to -4, never 0), then (0, 1).  ``SparsePoly`` still checks the result.
    The coefficient signs therefore read +, -, ..., -, +: every dilatation
    polynomial has exactly two sign variations.
    """
    x, y, z = _cone_coords(c)
    terms = [(x + y - z, 1)]
    for e in sorted((x, y, x - z, y - z), reverse=True):
        if terms[-1][0] == e:
            terms[-1] = (e, terms[-1][1] - 1)
        else:
            terms.append((e, -1))
    terms.append((0, 1))
    return SparsePoly(tuple(terms))


def family_poly(g: int, p: int) -> SparsePoly:
    """The (g, p) family polynomial, canonical for all int g, p >= 0.

    The canonical form is built directly, without ``make_poly``.  The middle
    exponents 2p+1, p+g+1 and 2g+1 lie strictly between 0 and 2p+2g+2, and
    p+g+1 lies between the other two, so they descend as 2h+1, p+g+1, 2k+1
    with h = max(p, g) and k = min(p, g); when p == g all three are 2g+1
    and merge into the one term (2g+1, -4).
    """
    _int_arg(g, "genus g")
    _int_arg(p, "p")
    if p == g:
        middle = ((2 * g + 1, -4),)
    else:
        h, k = max(p, g), min(p, g)
        middle = ((2 * h + 1, -1), (p + g + 1, -2), (2 * k + 1, -1))
    return SparsePoly(((2 * p + 2 * g + 2, 1), *middle, (0, 1)))


def sign_variations(f: SparsePoly) -> int:
    """Sign changes in the coefficient sequence, descending exponents."""
    if f.is_zero:
        raise ValueError("sign variations of the zero polynomial are undefined")
    count = 0
    prev = 0
    for _, c in f.terms:
        if prev != 0 and (c > 0) != (prev > 0):
            count += 1
        prev = c
    return count
