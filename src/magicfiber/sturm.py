"""Exact root counting over the integers: Sturm chains and Descartes' rule.

This is the validation oracle for the Descartes/bisection route, so it stays
independent of the interval kernel: dense integer polynomials, pseudo
remainders with content removal (a primitive remainder sequence, which keeps
coefficient growth polynomial), and exact sign evaluation at rational points.
Multiplying a chain element by a positive constant never changes sign
variation counts, which is what makes the all-integer chain legitimate.

Counts are of distinct real roots in the half-open interval (a, b]; either
endpoint may be None for an unbounded side.  Non-square-free input is
reduced to its square-free part first.  Chain degrees are capped at oracle
scale; the shifted count below has no cap.

Every dilatation polynomial f is a palindrome, t^N f(1/t) = f(t): the
lambda <-> 1/lambda symmetry of a stretch factor.  So f(t) = t^(N/2) g(t + 1/t)
with deg g = N/2 (after dividing out t + 1 when N is odd).  Since
t -> t + 1/t maps (1, oo) one to one onto (2, oo), the roots of f above 1
are the roots of g in (2, oo), at half the degree; t -> 1/t gives the roots
in (0, 1) for free.

Those roots have a cheaper certificate than a chain: the sign variations of
h(u) = g(u + 2).  By Descartes' rule that count bounds the roots of g in
(2, oo), counted with multiplicity, and exceeds it by an even number; so a
count of 1 proves exactly one root there, and a simple one.  This is the
test that Vincent-Collins-Akritas isolation applies to each interval
(Collins and Akritas, SYMSAC 1976).  A count above 1 leaves the number
open, and ``sturm_count`` stays the exact reference.

``shifted_half_variations`` reads h straight off the sparse terms of f.  Put
s = t + 1/t = u + 2 and W_k(s) = (t^(k+1/2) + t^-(k+1/2)) / (t^(1/2) + t^-(1/2)).
For odd N = 2n + 1 each pair of terms is c_e (t^e + t^(N-e)) =
c_e (t + 1) t^n W_(n-e)(s), so g = sum over e <= n of c_e W_(n-e); for even
N, (t + 1) f is an odd palindrome with the same g.  And

    W_k(u + 2) = sum over j of C(k + j, 2j) u^j.

Proof: multiplying t^(k-1/2) + t^-(k-1/2) by s gives W_0 = 1, W_1 = s - 1,
W_k = s W_(k-1) - W_(k-2); the right side starts at 1 and u + 1 and obeys the
same recurrence, since Pascal's rule three times gives C(k + j, 2j) =
2 C(k + j - 1, 2j) - C(k + j - 2, 2j) + C(k + j - 2, 2j - 2).
So h_j = sum over e <= n of c_e C(n - e + j, 2j): one binomial row per term
of f, each stepped in j by one exact multiply and divide, at any degree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import SparsePoly

__all__ = ["STURM_DEGREE_CAP", "shifted_half_variations", "sturm_count"]

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


def _shifted_half(f: SparsePoly) -> list[int]:
    """Ascending coefficients of h(u) = g(u + 2), where f(t) = t^(N/2) g(t + 1/t)
    for a palindrome f of degree N (g the half of f / (t + 1) when N is odd)."""
    coef = dict(f.terms)
    if not coef or any(coef.get(f.degree() - e) != c for e, c in coef.items()):
        raise ValueError(f"{f} is not a palindrome")
    n = f.degree() // 2
    low = [(e, c) for e, c in f.terms if e <= n]
    if f.degree() % 2 == 0:  # (t + 1) f, of degree 2n + 1, has the same g
        low += [(e + 1, c) for e, c in low if e < n]
    h = [0] * (n + 1)
    for e, c in low:
        k, b = n - e, 1  # b = C(k + j, 2j)
        for j in range(k + 1):
            h[j] += c * b
            b = b * (k + j + 1) * (k - j) // ((2 * j + 1) * (2 * j + 2))
    return h


def shifted_half_variations(f: SparsePoly) -> int:
    """Sign variations of h(u) = g(u + 2) for a palindrome f(t) = t^(N/2) g(t + 1/t).

    The count bounds the roots of f above 1 and exceeds their number by an
    even number (Descartes' rule of signs), so 0 and 1 are exact; a root at
    t = 1 maps to u = 0, which it excludes.  Raises ``ValueError`` if f is
    not a palindrome.
    """
    return _variations((c > 0) - (c < 0) for c in _shifted_half(f))
