"""Desk-scale verification of the root-growth claims for the (g, p) family.

The family at genus g is m -> family_poly(g, m), the polynomial
P_m(t) = t^(2m+2g+2) - t^(2m+1) - 2 t^(m+g+1) - t^(2g+1) + 1 of the class
(m+g+1, 2m+1, m-g).  P_m has exactly one real root lambda_m above 1, and
that root is squeezed between m^(c1/m) and m^(c2/m) for any
0 < c1 < 1 < c2 once m is large.  The tools below verify such statements
over finite sweeps and report the empirical threshold; they never claim the
limit itself.  ``bracket_check`` settles whole blocks of m at once from the
roots at their ends, since lambda_m and m^(c/m) both decrease in m.

Comparisons against m^(c/m) are exact: for c = a/b the inequality
lambda > m^(c/m) is equivalent to lambda^(b*m) > m^a, which is decided at
the certified bracket endpoints (the per-m test refines the root bracket
whenever the threshold falls inside it): by float logs when they differ by
far more than their rounding error, else by the certified sign of the
two-term polynomial t^(b*m) - m^a at the endpoint, from the root finder's
own sign routine and under its precision ceiling.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from ._pool import check_tasks, pmap
from .polynomials import SparsePoly, family_poly
from .roots import (
    DEFAULT_MAX_BITS,
    DEFAULT_TOL,
    CertifiedRoot,
    PrecisionError,
    _as_fraction,
    _as_tol,
    _certified_sign,
    as_dyadic,
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

# Values of m per bracket_check task.  A constant, so that neither the
# blocks nor the roots isolated depend on --jobs; the standard sweep
# m = 2..2000 is one task, run inline.
_CHUNK = 2048


Family = Callable[[int], SparsePoly]


def b_family(g: int) -> Family:
    """The family m -> family_poly(g, m)."""
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
    a, e = c.numerator, c.denominator * m
    # lambda lies strictly inside (lo, hi), so a weak comparison at an
    # endpoint already decides strictly for lambda itself.
    if _dyadic_pow_cmp(root.lo, e, m, a) >= 0:
        return 1
    if _dyadic_pow_cmp(root.hi, e, m, a) <= 0:
        return -1
    return 0


def _cmp_root_to_power(f: SparsePoly, root: CertifiedRoot, m: int, c: Fraction) -> int:
    """Sign of lambda - m^(c/m) for the root of f, refining as needed."""
    if m == 1:
        return 1  # threshold is 1 and the root exceeds 1
    for _ in range(64):
        side = _side(root, m, c)
        if side:
            return side
        root = unique_root_gt1(f, root.tol / 2)  # the child cell on the same grid
    raise PrecisionError(f"could not separate the root from m^({c}/{m})")


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


def _bracket_ok(f: SparsePoly, root: CertifiedRoot, m: int, c1: Fraction, c2: Fraction) -> bool:
    return _cmp_root_to_power(f, root, m, c1) > 0 and _cmp_root_to_power(f, root, m, c2) < 0


def _block_ok(
    root_a: CertifiedRoot, root_b: CertifiedRoot, a: int, b: int, c1: Fraction, c2: Fraction
) -> bool | None:
    """The verdict of every m in [a, b] (3 <= a < b), or None if the ends leave it open.

    Only the given brackets of lambda_a and lambda_b are compared, without
    refinement; a comparison they cannot settle, or one that raises
    PrecisionError, leaves the block open.
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
        pass
    return None


def _failures(fam: Family, m_lo: int, m_hi: int, c1: Fraction, c2: Fraction) -> list[int]:
    """The m in [m_lo, m_hi] where the bracket fails, by the blocks of bracket_check."""
    isolated: dict[int, tuple[SparsePoly, CertifiedRoot]] = {}

    def root(m: int) -> tuple[SparsePoly, CertifiedRoot]:
        if m not in isolated:
            f = fam(m)
            isolated[m] = f, unique_root_gt1(f)
        return isolated[m]

    failures = []
    nxt = m_lo  # the least m without a verdict
    # A stack of [a, b], the leftmost on top; halves share their midpoint.
    # Blocks start at 3, since m^(c/m) rises from 2 to 3.
    blocks = []
    if m_hi >= 3:
        blocks.append((max(m_lo, 3), m_hi))
    if m_lo <= 2:
        blocks.append((m_lo, min(m_hi, 2)))
    while blocks:
        a, b = blocks.pop()
        if b - a >= 3:
            ok = _block_ok(root(a)[1], root(b)[1], a, b, c1, c2)
            if ok is None:
                mid = (a + b) // 2
                blocks += [(mid, b), (a, mid)]
                continue
            if not ok:
                failures.extend(range(nxt, b + 1))
        else:
            failures.extend(m for m in range(nxt, b + 1) if not _bracket_ok(*root(m), m, c1, c2))
        nxt = b + 1
    return failures


def bracket_check(
    fam: Family, c_lower, c_upper, m_lo: int, m_hi: int, jobs: int = 1
) -> BracketReport:
    """Certified per-m verdicts of the two-sided bracket over [m_lo, m_hi].

    ``fam`` must be ``b_family(g)``; any other callable raises
    ``ValueError``.  The verdicts are decided block by block, from two
    facts about that family:

    1. lambda_m strictly decreases in m.  The class of m is a + m*b with
       a = (g+1, 1, -g) and b = (1, 2, 1), and the ray a + s*b, s >= 0,
       lies in the open fibered cone (the ``family`` module docstring).
       There phi(s) = 1/log(lambda(a + s*b)) is concave by Fried's theorem
       (restated in McMullen, Ann. Sci. ENS 2000), and positive, hence
       nondecreasing; equal values at two points would make it constant
       from the first on, against lambda_m -> 1.
    2. T(m) = m^(c/m) = exp(c ln m / m) strictly decreases for m >= 3 at
       every c > 0, since ln m / m decreases past e.  It rises from 2
       to 3.

    So every m of a block [a, b] with 3 <= a < b has
    lambda_b <= lambda_m <= lambda_a and T(b) <= T(m) <= T(a), and four
    comparisons of the end roots, taken lower side first as the per-m
    test takes them, can settle the whole block:

    - lambda_a < b^(c1/b): the lower side fails for every m;
    - lambda_b > a^(c1/a): the lower side holds for every m; then
      lambda_b > a^(c2/a) makes the upper side fail for every m, and
      lambda_a < b^(c2/b) makes it hold for every m.

    A block comparison uses the end brackets as isolated, at DEFAULT_TOL.
    One that they cannot settle, or that raises PrecisionError, leaves the
    block open, and an open block is halved, the halves sharing the
    midpoint.  m <= 2 and blocks of at most 3 values of m take the per-m
    test, which reuses any root already isolated and refines lambda_m only
    while a threshold lies inside its bracket.  A near tie, lambda_m all
    but equal to m^(c/m), leaves every block that holds m open, so it
    reaches the per-m test and raises PrecisionError there.

    Each root is isolated once per chunk of ``_CHUNK`` values of m, one
    ``pmap`` task each; the blocks, and the roots isolated, do not depend
    on ``jobs``.  A range of more than ``MAX_TASKS`` values of m raises
    PrecisionError before any work.
    """
    c1 = _as_fraction(c_lower)
    c2 = _as_fraction(c_upper)
    if not 0 < c1 < 1 < c2:
        raise ValueError("need 0 < c_lower < 1 < c_upper")
    if not 1 <= m_lo <= m_hi:
        raise ValueError("need 1 <= m_lo <= m_hi")
    if not (
        isinstance(fam, functools.partial)
        and fam.func is family_poly
        and len(fam.args) == 1
        and not fam.keywords
    ):
        raise ValueError("bracket_check takes only a family b_family(g)")
    check_tasks(m_hi - m_lo + 1)
    chunks = (
        (fam, lo, min(lo + _CHUNK - 1, m_hi), c1, c2)
        for lo in range(m_lo, m_hi + 1, _CHUNK)
    )
    failures = tuple(m for part in pmap(_failures, chunks, jobs) for m in part)
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


def _ratio_row(fam: Family, m: int, q: Fraction, v: Fraction, tol) -> RatioRow:
    root = unique_root_gt1(fam(m), tol)
    n = q * m + v
    lo, hi = _ratio_bounds(n, root)
    return RatioRow(m=m, n=n, root=root, ratio_lo=lo, ratio_hi=hi)


def ratio_table(
    fam: Family, q, v, m_list, tol=DEFAULT_TOL, jobs: int = 1
) -> RatioTable:
    """Normalized-entropy ratios over the given m values (order preserved)."""
    q = _as_fraction(q)
    v = _as_fraction(v)
    if q == 0:
        raise ValueError("q must be nonzero")
    ms = [int(m) for m in m_list]
    for m in ms:
        n = q * m + v
        if n <= 1:
            raise ValueError(f"q*m+v must exceed 1 (fails at m={m})")
        if n > sys.float_info.max:  # _ratio_bounds takes float(n)
            raise PrecisionError(f"q*m+v exceeds the float range (at m={m})")
    tol = _as_tol(tol)
    rows = pmap(_ratio_row, ((fam, m, q, v, tol) for m in ms), jobs)
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
