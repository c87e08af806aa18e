"""Exact root counting over the integers: Sturm chains and Descartes' rule.

This is the validation oracle for the Descartes/bisection route, so it stays
independent of the interval kernel: dense integer polynomials, pseudo
remainders with content removal (a primitive remainder sequence, which keeps
coefficient growth polynomial), and exact sign evaluation at rational points.
Multiplying a chain element by a positive constant never changes sign
variation counts, which is what makes the all-integer chain legitimate.

Counts are of distinct real roots in the half-open interval (a, b]; either
endpoint may be None for an unbounded side.  Non-square-free input is
reduced to its square-free part first.  Degrees are capped at oracle scale.

Every dilatation polynomial f is a palindrome, t^N f(1/t) = f(t): the
lambda <-> 1/lambda symmetry of a stretch factor.  ``palindromic_half``
writes it as f(t) = t^(N/2) g(t + 1/t) (after dividing out t + 1 when N is
odd), with deg g = N/2.  Since t -> t + 1/t maps (1, oo) one to one onto
(2, oo), the roots of f above 1 are the roots of g in (2, oo), at half the
degree; t -> 1/t gives the roots in (0, 1) for free.

Those roots have a cheaper certificate than a chain: ``shifted_variations``
takes one Taylor shift h(u) = g(u + 2) and counts the sign variations of h.
By Descartes' rule that count bounds the roots of g in (2, oo), counted with
multiplicity, and exceeds it by an even number; so a count of 1 proves
exactly one root there, and a simple one.  This is the test that
Vincent-Collins-Akritas isolation applies to each interval (Collins and
Akritas, SYMSAC 1976).  A count above 1 leaves the number open, and
``sturm_count`` stays the exact reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import SparsePoly

__all__ = ["STURM_DEGREE_CAP", "palindromic_half", "shifted_variations", "sturm_count"]

STURM_DEGREE_CAP = 200


def _deg(p: list[int]) -> int:
    return len(p) - 1


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: list[int]) -> list[int]:
    return _trim([i * p[i] for i in range(1, len(p))])


def _primitive(p: list[int]) -> list[int]:
    """Divide out the (positive) content, preserving signs."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
        if g == 1:
            return list(p)
    return [c // g for c in p]


def _pseudo_rem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """Pseudo remainder of f by g, with the number of lc(g) scalings applied.

    Returns (r, steps) with lc(g)**steps * f = q*g + r for some q.
    """
    lc = g[-1]
    dg = _deg(g)
    r = list(f)
    steps = 0
    while r and _deg(r) >= dg:
        steps += 1
        c = r[-1]
        k = _deg(r) - dg
        r = [lc * ri for ri in r]
        for i, gi in enumerate(g):
            r[k + i] -= c * gi
        _trim(r)
    return r, steps


def _sturm_chain(p: list[int]) -> list[list[int]]:
    chain = [list(p), _derivative(p)]
    if not chain[-1]:
        return chain[:1]
    while _deg(chain[-1]) > 0:
        r, steps = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        # The true next element is -r / lc**steps; only the sign of the
        # divisor matters after taking the primitive part.
        lc = chain[-1][-1]
        if lc > 0 or steps % 2 == 0:
            r = [-c for c in r]
        chain.append(_primitive(r))
    return chain


def _exact_div(f: list[int], g: list[int]) -> list[int]:
    """Exact polynomial division, asserting zero remainder."""
    r = list(f)
    q = [0] * (_deg(f) - _deg(g) + 1)
    lc = g[-1]
    while r and _deg(r) >= _deg(g):
        c, rem = divmod(r[-1], lc)
        if rem:
            raise ArithmeticError("division is not exact")
        k = _deg(r) - _deg(g)
        q[k] = c
        for i, gi in enumerate(g):
            r[k + i] -= c * gi
        _trim(r)
    if r:
        raise ArithmeticError("division is not exact")
    return q


def _taylor_shift(p: list[int], a: int) -> list[int]:
    """Ascending coefficients of p(u + a), in place, by O(d^2) exact
    synthetic division: pass i divides by u - a and keeps remainder i."""
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += a * p[j + 1]
    return p


def _sign_at(p: list[int], num: int, den: int) -> int:
    # sign of den^deg * p(num/den), by Horner from the top coefficient
    acc = 0
    dpow = 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return (acc > 0) - (acc < 0)


def _variations(signs) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain, bound, side: int) -> int:
    """Sign variations of the chain at bound; a None bound is side * oo."""
    if bound is None:
        return _variations(((q[-1] > 0) - (q[-1] < 0)) * side ** _deg(q) for q in chain)
    return _variations(_sign_at(q, bound.numerator, bound.denominator) for q in chain)


def _as_bound(x):
    if x is None:
        return None
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


def sturm_count(f: SparsePoly, lower=None, upper=None) -> int:
    """Distinct real roots of f in (lower, upper].

    ``lower=None`` / ``upper=None`` mean unbounded below / above.  Multiple
    roots are counted once (the square-free part is used).  Degrees above
    STURM_DEGREE_CAP are rejected: dense chains are an oracle-scale tool.
    """
    if f.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if f.degree() > STURM_DEGREE_CAP:
        raise ValueError(f"degree {f.degree()} exceeds the oracle cap {STURM_DEGREE_CAP}")
    lower = _as_bound(lower)
    upper = _as_bound(upper)
    if lower is not None and upper is not None and lower >= upper:
        raise ValueError("need lower < upper")
    if f.degree() == 0:
        return 0
    p = _primitive(f.dense_ascending())
    chain = _sturm_chain(p)
    if _deg(chain[-1]) > 0:
        # nontrivial gcd(f, f'): reduce to the square-free part
        p = _exact_div(p, _primitive(chain[-1]))
        if p[-1] < 0:
            p = [-c for c in p]
        chain = _sturm_chain(p)
    count = _variations_at(chain, lower, -1) - _variations_at(chain, upper, 1)
    if count < 0:
        raise ArithmeticError("Sturm variation count decreased; oracle bug")
    return count


def shifted_variations(f: SparsePoly, a: int = 2) -> int:
    """Sign variations of h(u) = f(u + a), an upper bound on f's roots above a.

    The count exceeds the number of roots of f in (a, oo), counted with
    multiplicity, by an even number (Descartes' rule of signs), so 0 and 1
    are exact.
    """
    return _variations((c > 0) - (c < 0) for c in _taylor_shift(f.dense_ascending(), a))


def palindromic_half(f: SparsePoly) -> SparsePoly:
    """The g with f(t) = t^(N/2) g(t + 1/t), for a palindrome f of degree N.

    If N is odd, f(-1) = -f(-1) = 0 and t + 1 is divided out first; the
    quotient is again a palindrome.  g is built from V_k(s) = t^k + t^(-k),
    V_0 = 2, V_1 = s, V_k = s V_(k-1) - V_(k-2).  Roots of f above 1 map one
    to one onto roots of g above 2, so ``sturm_count(g, 2, None)`` counts
    them and ``shifted_variations(g)`` bounds them; a root at t = 1 maps to
    s = 2, which both exclude.
    Raises ``ValueError`` if f is not a palindrome.
    """
    p = f.dense_ascending()
    if not p or p != p[::-1]:
        raise ValueError(f"{f} is not a palindrome")
    if _deg(p) % 2:
        p = _exact_div(p, [1, 1])
    n = _deg(p) // 2
    g = [p[n]] + [0] * n
    v_prev, v = [2], [0, 1]
    for k in range(1, n + 1):
        if p[n + k]:
            for i, c in enumerate(v):
                g[i] += p[n + k] * c
        v_prev, v = v, [a - b for a, b in zip([0] + v, v_prev + [0, 0])]
    return SparsePoly(tuple((e, g[e]) for e in range(n, -1, -1) if g[e]))
