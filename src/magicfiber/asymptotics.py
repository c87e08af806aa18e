"""Desk-scale verification of the root-growth claims for the (g, p) family.

The family at genus g is m -> family_poly(g, m), the polynomial
P_m(t) = t^(2m+2g+2) - t^(2m+1) - 2 t^(m+g+1) - t^(2g+1) + 1 of the class
(m+g+1, 2m+1, m-g).  P_m has exactly one real root lambda_m above 1, and
that root is squeezed between m^(c1/m) and m^(c2/m) for any
0 < c1 < 1 < c2 once m is large.  The tools below verify such statements
over finite sweeps and report the empirical threshold; they never claim the
limit itself.  ``bracket_check`` takes the genus g and settles whole blocks
of m at once from the roots at their ends, since lambda_m and m^(c/m) both
decrease in m; a single m is the block [m, m].  ``ratio_table`` also takes
the genus g, and both refuse a bad genus before any work.

Comparisons against m^(c/m) are exact: for c = a/b the inequality
lambda > m^(c/m) is equivalent to lambda^(b*m) > m^a, which is decided at
the certified bracket endpoints (a single m refines its root bracket while
the threshold falls inside it): by float logs when they differ by
far more than their rounding error, else by the certified sign of the
two-term polynomial t^(b*m) - m^a at the endpoint, from the root finder's
own sign routine and under its precision ceiling.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .homology import _int_arg
from .polynomials import family_poly
from .roots import (
    DEFAULT_MAX_BITS,
    DEFAULT_TOL,
    MAX_TASKS,
    CertifiedRoot,
    PrecisionError,
    _as_fraction,
    _as_tol,
    _certified_sign,
    as_dyadic,
    check_tasks,
    unique_root_gt1,
)

__all__ = [
    "b_family",
    "BracketReport",
    "bracket_check",
    "RatioRow",
    "RatioTable",
    "ratio_table",
]

# Relative padding for the log-based ratio bounds.  Each float below is a
# correctly rounded exact value (lambda - 1, n - 1, n) or a log1p, product or
# quotient of such; together they err by a few ulps (~1e-15 relative), well
# inside the pad at every tol.
_RATIO_PAD = 1e-13

# Relative gap above which the float logs in _dyadic_pow_cmp decide, far
# above their few-ulp error.
_LOG_PAD = 1e-9


def b_family(g: int):
    """The family m -> family_poly(g, m), as a callable.

    An export only: no package code calls it.  ``bracket_check`` and
    ``ratio_table`` take the genus g and build the polynomials themselves.
    """
    return functools.partial(family_poly, g)


def _dyadic_pow_cmp(x: Fraction, e: int, m: int, a: int) -> int:
    """Exact comparison of x**e against m**a (x a dyadic, e, a >= 1, m >= 2).

    Floats decide first, by the sign of d = ln(e ln x) - ln(a ln m), taken as
    a sum of four logs so that no exponent overflows a float.  Each log errs
    by a few ulps of its own size, so |d| above _LOG_PAD times the logs'
    total size settles the sign.  A closer call takes the certified sign of
    x**e - m**a from the root finder's escalating interval kernel; an exact
    tie reads 0, since it needs an integer x, at which every product is
    exact.  A close call means e ln x is near a ln m, so both powers have
    about a log2(m) bits; past DEFAULT_MAX_BITS of them, or when that
    precision ceiling cannot separate them, it raises PrecisionError.
    """
    # the correctly rounded float(x - 1), without building the Fraction
    y = (x.numerator - x.denominator) / x.denominator
    if y >= sys.float_info.min:  # a subnormal or zero x - 1 has lost precision
        logs = (math.log(e), math.log(math.log1p(y)), -math.log(a), -math.log(math.log(m)))
        d = sum(logs)
        if abs(d) > _LOG_PAD * (1 + sum(map(abs, logs))):
            return 1 if d > 0 else -1
    if a * m.bit_length() > DEFAULT_MAX_BITS:
        raise PrecisionError(
            f"cannot tell x^{e} from {m}^{a} by float logs, and the powers "
            f"would exceed {DEFAULT_MAX_BITS} bits"
        )
    num, k = as_dyadic(x)
    return _certified_sign([e, 0], [1, -(m**a)], num, k, DEFAULT_MAX_BITS)


def _side(root: CertifiedRoot, m: int, c: Fraction) -> int:
    """Sign of lambda - m^(c/m) as the bracket ends show it; 0 if they cannot."""
    if m == 1:
        return 1  # the threshold is 1, below lambda
    a, e = c.numerator, c.denominator * m
    # lambda lies strictly inside (lo, hi), so a weak comparison at an
    # endpoint already decides strictly for lambda itself.
    if _dyadic_pow_cmp(root.lo, e, m, a) >= 0:
        return 1
    if _dyadic_pow_cmp(root.hi, e, m, a) <= 0:
        return -1
    return 0


class BracketReport(NamedTuple):
    """Outcome of checking m^(c_lower/m) < lambda_m < m^(c_upper/m) on a range."""

    c_lower: Fraction
    c_upper: Fraction
    m_lo: int
    m_hi: int
    failures: tuple[int, ...]

    @property
    def largest_failure(self) -> int | None:
        return self.failures[-1] if self.failures else None

    @property
    def threshold(self) -> int | None:
        """Least M with the bracket holding on [M, m_hi]; None if it fails at m_hi."""
        if not self.failures:
            return self.m_lo
        if self.failures[-1] == self.m_hi:
            return None
        return self.failures[-1] + 1

    @property
    def holds_tail(self) -> bool:
        return self.threshold is not None


def _block_ok(
    root_a: CertifiedRoot, root_b: CertifiedRoot, a: int, b: int, c1: Fraction, c2: Fraction
) -> bool | None:
    """The verdict of every m in [a, b], or None if the ends leave it open.

    A block of two or more values has 3 <= a; a single m is the block
    [m, m], with root_a = root_b.  Only the given brackets of lambda_a and
    lambda_b are compared, without refinement.  A comparison that they
    cannot settle leaves the block open, and so does one that raises
    PrecisionError, except at a single m, where the error propagates.
    """
    try:
        if _side(root_a, b, c1) < 0:  # lambda_m <= lambda_a < b^(c1/b) <= m^(c1/m)
            return False
        if _side(root_b, a, c1) > 0:  # lambda_m >= lambda_b > a^(c1/a) >= m^(c1/m)
            if _side(root_b, a, c2) > 0:
                return False
            if _side(root_a, b, c2) < 0:
                return True
    except PrecisionError:
        if a == b:
            raise
    return None


def _failures(g: int, m_lo: int, m_hi: int, c1: Fraction, c2: Fraction) -> list[int]:
    """The m in [m_lo, m_hi] where the bracket fails at genus g, block by block."""
    isolated: dict[int, CertifiedRoot] = {}

    def root(m: int) -> CertifiedRoot:
        if m not in isolated:
            isolated[m] = unique_root_gt1(family_poly(g, m))
        return isolated[m]

    failures = []
    nxt = m_lo  # the least m without a verdict
    # A stack of blocks [a, b], the leftmost on top.  Each m <= 2 is a block
    # of its own, since m^(c/m) rises from 1 to 3; one block holds m >= 3.
    blocks = [(max(m_lo, 3), m_hi)] if m_hi >= 3 else []
    blocks += [(m, m) for m in range(min(m_hi, 2), m_lo - 1, -1)]
    while blocks:
        a, b = blocks.pop()
        ok = _block_ok(root(a), root(b), a, b, c1, c2)
        if ok is None:
            if a < b:  # halves share the midpoint; [a, a + 1] splits into singletons
                mid = (a + b) // 2
                blocks += [(mid + (mid == a), b), (a, mid)]
            elif isolated[a].tol > DEFAULT_TOL / 2**64:
                # at most 64 halvings, each to the child cell on the same grid
                isolated[a] = unique_root_gt1(family_poly(g, a), isolated[a].tol / 2)
                blocks.append((a, a))
            else:
                raise PrecisionError(f"could not separate lambda_{a} from {a}^(c/{a})")
            continue
        if not ok:
            failures.extend(range(nxt, b + 1))
        nxt = b + 1
    return failures


def bracket_check(g: int, c_lower, c_upper, m_lo: int, m_hi: int) -> BracketReport:
    """Certified verdicts of the two-sided bracket over [m_lo, m_hi] at genus g.

    The verdicts are decided block by block, from two facts about the
    family m -> family_poly(g, m):

    1. lambda_m strictly decreases in m.  The class of m is a + m*b with
       a = (g+1, 1, -g) and b = (1, 2, 1), and the ray a + s*b, s >= 0,
       lies in the open fibered cone (the ``family`` module docstring).
       There phi(s) = 1/log(lambda(a + s*b)) is concave by Fried's theorem
       (restated in McMullen, Ann. Sci. ENS 2000), and positive, hence
       nondecreasing; equal values at two points would make it constant
       from the first on, against lambda_m -> 1.
    2. T(m) = m^(c/m) = exp(c ln m / m) strictly decreases for m >= 3 at
       every c > 0, since ln m / m decreases past e.  It rises from m = 1
       to 3.

    So every m of a block [a, b] with 3 <= a <= b has
    lambda_b <= lambda_m <= lambda_a and T(b) <= T(m) <= T(a), and four
    comparisons of the end roots, lower side first, can settle the whole
    block:

    - lambda_a < b^(c1/b): the lower side fails for every m;
    - lambda_b > a^(c1/a): the lower side holds for every m; then
      lambda_b > a^(c2/a) makes the upper side fail for every m, and
      lambda_a < b^(c2/b) makes it hold for every m.

    Each m <= 2 is a block [m, m] of its own, and one block holds the rest
    of the range.  A block comparison uses the end brackets as isolated,
    at DEFAULT_TOL, each root once.  One that they cannot settle, or that
    raises PrecisionError, leaves the block open, and an open block is
    halved, the halves sharing the midpoint, down to single values of m.
    At a single m, an open comparison halves the bracket of lambda_m, up
    to 64 times, and a PrecisionError propagates.  A near tie, lambda_m
    all but equal to m^(c/m), leaves every block that holds m open, so it
    reaches the block [m, m] and raises PrecisionError there.

    The sweep runs in this process.  A genus that is not an int >= 0, or
    a range that is not ints with 1 <= m_lo <= m_hi, raises ValueError,
    and a range of more than ``MAX_TASKS`` values of m raises
    PrecisionError, before any work.
    """
    _int_arg(g, "genus g")
    c1 = _as_fraction(c_lower)
    c2 = _as_fraction(c_upper)
    if not 0 < c1 < 1 < c2:
        raise ValueError("need 0 < c_lower < 1 < c_upper")
    _int_arg(m_lo, "m_lo", 1)
    _int_arg(m_hi, "m_hi", m_lo)
    check_tasks(m_hi - m_lo + 1)
    failures = tuple(_failures(g, m_lo, m_hi, c1, c2))
    return BracketReport(c_lower=c1, c_upper=c2, m_lo=m_lo, m_hi=m_hi, failures=failures)


class RatioRow(NamedTuple):
    m: int
    n: Fraction
    root: CertifiedRoot
    ratio_lo: float
    ratio_hi: float


class RatioTable(NamedTuple):
    """Rows of (q*m+v) * log(lambda_m) / log(q*m+v), with trend metadata.

    The trend flags are certified across successive rows (each ratio
    interval entirely below, resp. above, the previous one); no limit is
    claimed, only the computed values.  With fewer than two rows both flags
    are vacuously true.
    """

    q: Fraction
    v: Fraction
    rows: tuple[RatioRow, ...]
    strictly_decreasing: bool
    strictly_increasing: bool


def _ratio_bounds(n: Fraction, root: CertifiedRoot) -> tuple[float, float]:
    # log1p of the exact lambda - 1 keeps its relative precision; log of a
    # rounded lambda near 1 would not.  Both bounds are >= 0 since lo >= 1.
    nf = float(n)
    ln = math.log1p(float(n - 1))
    lo = nf * math.log1p(float(root.lo - 1)) / ln
    hi = nf * math.log1p(float(root.hi - 1)) / ln
    return lo * (1 - _RATIO_PAD), hi * (1 + _RATIO_PAD)


def _ratio_row(g: int, m: int, q: Fraction, v: Fraction, tol) -> RatioRow:
    root = unique_root_gt1(family_poly(g, m), tol)
    n = q * m + v
    lo, hi = _ratio_bounds(n, root)
    return RatioRow(m=m, n=n, root=root, ratio_lo=lo, ratio_hi=hi)


def ratio_table(g: int, q, v, m_list, tol=DEFAULT_TOL) -> RatioTable:
    """Normalized-entropy ratios at genus g over the given m values (order preserved).

    The rows are built in this process.  More than ``MAX_TASKS`` m values
    raise ``PrecisionError`` (``m_list`` is read no further), and a genus
    or an m that is not an int >= 0 (a bool or a float is not taken),
    q = 0, or a q*m+v not above 1 raises ValueError, before any root is
    isolated.  So does a q*m+v outside the float range, as PrecisionError:
    one above the largest double, or one whose q*m+v - 1 is below the
    smallest normal double, where float(n - 1) would lose its precision or
    the ratio would overflow.  Above that floor every ratio stays finite.
    """
    _int_arg(g, "genus g")
    q = _as_fraction(q)
    v = _as_fraction(v)
    if q == 0:
        raise ValueError("q must be nonzero")
    ms = list(islice(m_list, MAX_TASKS + 1))
    check_tasks(len(ms))
    for m in ms:
        _int_arg(m, "m")
        n = q * m + v
        if n <= 1:
            raise ValueError(f"q*m+v must exceed 1 (fails at m={m})")
        if n > sys.float_info.max:  # _ratio_bounds takes float(n)
            raise PrecisionError(f"q*m+v exceeds the float range (at m={m})")
        if n - 1 < sys.float_info.min:  # and log1p(float(n - 1)), which must be normal
            raise PrecisionError(f"q*m+v - 1 is below the normal float range (at m={m})")
    tol = _as_tol(tol)
    rows = [_ratio_row(g, m, q, v, tol) for m in ms]
    decreasing = all(
        rows[i + 1].ratio_hi < rows[i].ratio_lo for i in range(len(rows) - 1)
    )
    increasing = all(
        rows[i + 1].ratio_lo > rows[i].ratio_hi for i in range(len(rows) - 1)
    )
    return RatioTable(
        q=q,
        v=v,
        rows=tuple(rows),
        strictly_decreasing=decreasing,
        strictly_increasing=increasing,
    )
