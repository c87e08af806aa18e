"""Desk-scale verification of the root-growth claims for the (g, p) family.

The family at genus g is m -> family_poly(g, m), the polynomial
P_m(t) = t^(2m+2g+2) - t^(2m+1) - 2 t^(m+g+1) - t^(2g+1) + 1 of the class
(m+g+1, 2m+1, m-g).  P_m has exactly one real root lambda_m above 1, and
that root is squeezed between m^(c1/m) and m^(c2/m) for any
0 < c1 < 1 < c2 once m is large.  The tools below verify such statements
over finite sweeps and report the empirical threshold; they never claim the
limit itself.

Comparisons against m^(c/m) are exact: for c = a/b the inequality
lambda > m^(c/m) is equivalent to lambda^(b*m) > m^a, which is decided at
the certified bracket endpoints (refining the root bracket whenever the
threshold falls inside it): by float logs when they differ by far more than
their rounding error, else by outward-rounded integer interval powers.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from ._kernel import pow_enclosure
from ._pool import pmap
from .polynomials import SparsePoly, family_poly
from .roots import (
    DEFAULT_MAX_BITS,
    DEFAULT_TOL,
    CertifiedRoot,
    PrecisionError,
    _as_fraction,
    _as_tol,
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


Family = Callable[[int], SparsePoly]


def b_family(g: int) -> Family:
    """The family m -> family_poly(g, m)."""
    return functools.partial(family_poly, g)


def _dyadic_pow_cmp(x: Fraction, e: int, m: int, a: int) -> int:
    """Exact comparison of x**e against m**a (x a dyadic, e, a >= 1, m >= 2).

    Floats decide first, by the sign of d = ln(e ln x) - ln(a ln m), taken as
    a sum of four logs so that no exponent overflows a float.  Each log errs
    by a few ulps of its own size, so |d| above _LOG_PAD times the logs'
    total size settles the sign.  Only a closer call builds m**a and the
    interval power of x, whose integers grow with e and a.  A close call
    means e ln x is near a ln m, so both powers have about a log2(m) bits;
    past DEFAULT_MAX_BITS of them it raises PrecisionError instead.
    """
    y = float(x - 1)
    if y >= sys.float_info.min:  # a subnormal or zero x - 1 has lost precision
        logs = (math.log(e), math.log(math.log1p(y)), -math.log(a), -math.log(math.log(m)))
        d = sum(logs)
        if abs(d) > _LOG_PAD * (1 + sum(map(abs, logs))):
            return 1 if d > 0 else -1
    if a * m.bit_length() > DEFAULT_MAX_BITS:
        raise PrecisionError(
            f"cannot tell x^{e} from {m}^{a} by float logs, and the exact powers "
            f"would exceed {DEFAULT_MAX_BITS} bits"
        )
    rhs = m**a
    num, k = as_dyadic(x)
    prec = 192
    for _ in range(3):
        lo, hi = pow_enclosure(num, k, e, max(prec, k))
        target = rhs << max(prec, k)
        if lo > target:
            return 1
        if hi < target:
            return -1
        prec *= 2
    lhs = num**e
    scaled = rhs << (k * e)
    return (lhs > scaled) - (lhs < scaled)


def _cmp_root_to_power(
    f: SparsePoly, root: CertifiedRoot, m: int, c: Fraction, tol: Fraction
) -> tuple[int, CertifiedRoot]:
    """Sign of lambda - m^(c/m) for the root of f, refining as needed."""
    if m == 1:
        return 1, root  # threshold is 1 and the root exceeds 1
    a, b = c.numerator, c.denominator
    e = b * m
    for _ in range(64):
        # lambda lies strictly inside (lo, hi), so a weak comparison at an
        # endpoint already decides strictly for lambda itself.
        if _dyadic_pow_cmp(root.lo, e, m, a) >= 0:
            return 1, root
        if _dyadic_pow_cmp(root.hi, e, m, a) <= 0:
            return -1, root
        tol = tol / 2
        root = unique_root_gt1(f, tol)
    raise PrecisionError(f"could not separate the root from m^({c}/{m})")


@dataclass(frozen=True)
class BracketReport:
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


def _bracket_ok(fam: Family, m: int, c1: Fraction, c2: Fraction, tol) -> bool:
    f = fam(m)
    root = unique_root_gt1(f, tol)
    s1, root = _cmp_root_to_power(f, root, m, c1, tol)
    if s1 <= 0:
        return False
    s2, _ = _cmp_root_to_power(f, root, m, c2, tol)
    return s2 < 0


def bracket_check(
    fam: Family,
    c_lower,
    c_upper,
    m_lo: int,
    m_hi: int,
    tol=DEFAULT_TOL,
    jobs: int = 1,
) -> BracketReport:
    """Certified per-m verdicts of the two-sided bracket over [m_lo, m_hi]."""
    c1 = _as_fraction(c_lower)
    c2 = _as_fraction(c_upper)
    if not 0 < c1 < 1 < c2:
        raise ValueError("need 0 < c_lower < 1 < c_upper")
    if not 1 <= m_lo <= m_hi:
        raise ValueError("need 1 <= m_lo <= m_hi")
    tol = _as_tol(tol)
    ms = range(m_lo, m_hi + 1)
    oks = pmap(_bracket_ok, [(fam, m, c1, c2, tol) for m in ms], jobs)
    failures = tuple(m for m, ok in zip(ms, oks) if not ok)
    return BracketReport(c_lower=c1, c_upper=c2, m_lo=m_lo, m_hi=m_hi, failures=failures)


@dataclass(frozen=True)
class RatioRow:
    m: int
    n: Fraction
    root: CertifiedRoot
    ratio_lo: float
    ratio_hi: float


@dataclass(frozen=True)
class RatioTable:
    """Rows of (q*m+v) * log(lambda_m) / log(q*m+v), with trend metadata.

    The trend flags are certified across successive rows (each ratio
    interval entirely below, resp. above, the previous one); no limit is
    claimed, only the computed values.
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
        if q * m + v <= 1:
            raise ValueError(f"q*m+v must exceed 1 (fails at m={m})")
    tol = _as_tol(tol)
    rows = pmap(_ratio_row, [(fam, m, q, v, tol) for m in ms], jobs)
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
