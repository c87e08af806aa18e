"""Certified sign evaluation and isolation of the unique root above 1.

Every in-scope polynomial is monic with constant term +1 and negative value
at t = 1, and has exactly one real root lambda above 1.  Its bracket is a
cell of the bisection grid: with b the least power of 2 where f(b) > 0, the
level-j cells are [1 + i*(b-1)/2**j, 1 + (i+1)*(b-1)/2**j].  Bisection from
(1, b) visits, level by level, the cell that holds lambda, and stops at the
first level whose width is at most 2*tol and whose lower end exceeds 1.  So
the bracket is fixed by lambda alone, and bisection from any certified cell
of that path ends at the same cell.

Most polynomials skip the upper part of the path ("guess, then certify",
after Sagraloff and Mehlhorn, J. Symbolic Comput. 2016).  When the
coefficient signs are +, -, ..., -, +1, Descartes' rule with f(0) = 1 > 0
and f(1) < 0 leaves exactly one root above 1, and it is irrational (a monic
integer polynomial with constant term 1 has no rational root above 1).  A
floating-point estimate of lambda then predicts the cell at the deepest
level, at most the stopping level for tol, that its error bound fits in.
If the certified signs f(lo) < 0 < f(hi) confirm the cell, bisection starts
there, and f(b) is never evaluated: hi <= 2 proves b = 2.  Any other
polynomial, an estimate that allows lambda >= 2, or a cell the signs refute
starts from the doubling search for b and the cell (1, b).  The estimate
only chooses the start; every accepted step is backed by a certified sign.

Signs come from fixed-point interval arithmetic on exact integers: the point
t is an exact dyadic rational, each term t**e is enclosed by binary powering
with outward rounding at ``bits`` of fractional precision, and a sign is
certified only when the resulting enclosure excludes zero.  When it does not
(cancellation near t = 1 grows with the degree), the precision is doubled up
to a ceiling, after which ``PrecisionError`` is raised.  Because every
decision depends only on true signs, brackets are bitwise reproducible and
independent of the precision-escalation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernel import eval_enclosure
from .polynomials import SparsePoly

__all__ = [
    "DEFAULT_BITS",
    "DEFAULT_MAX_BITS",
    "DEFAULT_TOL",
    "PrecisionError",
    "Enclosure",
    "CertifiedRoot",
    "evaluate_certified",
    "unique_root_gt1",
    "as_dyadic",
]

DEFAULT_BITS = 128
DEFAULT_MAX_BITS = 1 << 20
DEFAULT_TOL = Fraction(1, 10**12)


class PrecisionError(ArithmeticError):
    """Sign certification failed below the configured precision ceiling."""


def as_dyadic(t) -> tuple[int, int]:
    """Decompose an exact dyadic value as (num, k) with t = num / 2**k, k >= 0.

    Accepts int, float (floats are exact dyadics), and Fraction with a
    power-of-two denominator.
    """
    if isinstance(t, int):
        return (t, 0)
    if isinstance(t, float):
        t = Fraction(t)
    if isinstance(t, Fraction):
        den = t.denominator
        if den & (den - 1):
            raise ValueError(f"{t} is not a dyadic rational")
        return (t.numerator, den.bit_length() - 1)
    raise TypeError(f"expected a dyadic rational, got {type(t).__name__}")


def _dyadic_fraction(num: int, k: int) -> Fraction:
    return Fraction(num, 1 << k)


def _reduced(num: int, k: int) -> tuple[int, int]:
    while k > 0 and not (num & 1):
        num >>= 1
        k -= 1
    return (num, k)


def _midpoint(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    km = max(a[1], b[1])
    num = (a[0] << (km - a[1])) + (b[0] << (km - b[1]))
    return _reduced(num, km + 1)


@dataclass(frozen=True)
class Enclosure:
    """An interval certified to contain the exact value."""

    lo: Fraction
    hi: Fraction

    @property
    def sign(self):
        """+1, -1, 0 (exact zero), or None when the sign is undetermined."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 == self.hi:
            return 0
        return None


@dataclass(frozen=True)
class CertifiedRoot:
    """A bracket (lo, hi) around a root, with certified opposite signs.

    ``lo`` and ``hi`` are exact dyadic rationals with lo > 1 and
    hi - lo <= 2*tol; ``value`` is the bracket midpoint.  The sign
    certificates are recomputable via ``evaluate_certified``.
    """

    lo: Fraction
    hi: Fraction
    value: Fraction
    tol: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


def evaluate_certified(f: SparsePoly, t, bits: int = DEFAULT_BITS) -> Enclosure:
    """Enclose f(t) at an exact dyadic t > 0 with ``bits`` of precision.

    The sign of the result is certified whenever the enclosure excludes
    zero; otherwise callers escalate ``bits`` and retry.
    """
    num, k = as_dyadic(t)
    if num <= 0:
        raise ValueError("evaluation point must be positive")
    if bits < 1:
        raise ValueError("bits must be positive")
    if f.is_zero:
        return Enclosure(Fraction(0), Fraction(0))
    lo, hi = eval_enclosure(f.exponents(), f.coefficients(), num, k, bits)
    return Enclosure(_dyadic_fraction(lo, bits), _dyadic_fraction(hi, bits))


def _certified_sign(exps, coeffs, num, k, bits, max_bits) -> int:
    prec = min(max(bits, k + 64), max_bits)
    while True:
        lo, hi = eval_enclosure(exps, coeffs, num, k, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == 0 == hi:
            return 0
        if prec >= max_bits:
            raise PrecisionError(
                f"sign undetermined at the {max_bits}-bit precision ceiling"
            )
        prec = min(prec * 2, max_bits)


def _as_tol(tol) -> Fraction:
    if isinstance(tol, float):
        tol = Fraction(repr(tol))
    else:
        tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


def unique_root_gt1(
    f: SparsePoly,
    tol=DEFAULT_TOL,
    *,
    bits: int = DEFAULT_BITS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> CertifiedRoot:
    """Certified bracket of the unique real root of f above 1.

    Preconditions: f is monic with f(1) < 0 (the shape shared by all
    dilatation polynomials).  The bracket is the cell of the bisection grid
    that holds the root at the first level whose width is at most 2*tol and
    whose lower end exceeds 1 (see the module docstring).  Bisection starts
    from the grid cell that a floating-point estimate predicts, once its
    endpoint signs are certified, or else from (1, b) after doubling b from
    2 until f(b) > 0.  Both starts lie on the same bisection path, so the
    bracket is the same bits either way; every step is sign-certified.
    """
    tol = _as_tol(tol)
    if f.is_zero or f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if f.leading_coefficient() != 1:
        raise ValueError("leading coefficient must be +1")
    if f.at_one() >= 0:
        raise ValueError("f(1) must be negative")
    exps = f.exponents()
    coeffs = f.coefficients()

    def sign_at(point: tuple[int, int]) -> int:
        return _certified_sign(exps, coeffs, point[0], point[1], bits, max_bits)

    cell = None
    # Signs +, -, ..., -, +1: exactly one root above 1, and an irrational one.
    if coeffs[-1] == 1 and exps[-1] == 0 and all(c < 0 for c in coeffs[1:-1]):
        cell = _start_cell(exps, coeffs, _grid_level(tol))
    if cell is not None:
        i, level = cell
        lo = _reduced((1 << level) + i, level)
        hi = _reduced((1 << level) + i + 1, level)
        try:
            # The lower end 1 needs no evaluation: f(1) < 0 is checked above.
            if not ((i == 0 or sign_at(lo) < 0) and sign_at(hi) > 0):
                cell = None
        except PrecisionError:
            cell = None  # the path from (1, b) decides, raising if it must
    if cell is None:
        b = 2
        while True:
            s = sign_at((b, 0))
            if s > 0:
                break
            if s == 0:
                return _exact_hit(f, (b, 0), tol, bits, max_bits)
            b *= 2
        lo = (1, 0)
        hi = (b, 0)
    two_tol = 2 * tol
    while (
        _dyadic_fraction(*hi) - _dyadic_fraction(*lo) > two_tol
        or _dyadic_fraction(*lo) <= 1
    ):
        mid = _midpoint(lo, hi)
        s = sign_at(mid)
        if s == 0:
            return _exact_hit(f, mid, tol, bits, max_bits)
        if s < 0:
            lo = mid
        else:
            hi = mid
    flo = _dyadic_fraction(*lo)
    fhi = _dyadic_fraction(*hi)
    return CertifiedRoot(lo=flo, hi=fhi, value=(flo + fhi) / 2, tol=tol)


def _grid_level(tol: Fraction) -> int:
    """Least j >= 0 with 2**-j <= 2*tol, in integers."""
    num, den = 2 * tol.numerator, tol.denominator
    if num >= den:
        return 0
    j = den.bit_length() - num.bit_length()
    return j if num << j >= den else j + 1


def _start_cell(exps, coeffs, max_level: int):
    """The grid cell predicted to hold the root, as (i, level).

    The cell is [1 + i/2**level, 1 + (i+1)/2**level], at the deepest level
    <= max_level whose cell holds the estimate's whole error interval.
    None when the estimate allows a root >= 2.
    """
    est = _estimate_root(exps, coeffs)
    if est is None:
        return None
    x, err = est
    if x + err >= 1:
        return None
    level = min(max_level, -math.frexp(err)[1])  # no deeper than err < 2**-level
    lo = math.floor(math.ldexp(max(x - err, 0.0), level))
    hi = math.floor(math.ldexp(x + err, level))
    shift = (lo ^ hi).bit_length()  # levels to climb until both ends share a cell
    return lo >> shift, level - shift


def _estimate_root(exps, coeffs):
    """Uncertified (x, err) with |lambda - 1 - x| <= err, or None.

    For f with signs +, -, ..., -, +1 and f(1) < 0.  With u = ln t, the root
    is the zero of psi(u) = ln X(u) - ln Y(u), where f(t)/t**deg = X - Y,
    X(u) = 1 - exp(-d1*u) pairs the leading term with one unit of the
    first negative term, and Y holds the rest of the negative terms, the
    constant term merged into the last of them.  Both parts are positive for u > 0 and computed without
    cancellation, and psi is nearly concave and increasing, so Newton steps
    from u = 1/deg, kept inside a bracket by bisection, converge in a few
    steps.  None when the root is not below 2 (psi(ln 2) <= 0) or Newton
    does not settle.
    """
    deg = exps[0]
    d1 = deg - exps[1]
    rest = [(deg - e, -c) for e, c in zip(exps[2:-1], coeffs[2:-1])]
    if coeffs[1] < -1:
        rest.insert(0, (d1, -coeffs[1] - 1))
    d0 = rest[0][0]
    dm, am = rest[-1]

    def psi(u):
        # psi(u), psi'(u) and a bound on the summands' magnitudes; Y is
        # scaled by exp(d0*u) so that no term underflows.
        x = -math.expm1(-d1 * u)
        xp = d1 * math.exp(-d1 * u)
        y = yp = 0.0
        for d, a in rest[:-1]:
            term = a * math.exp(-(d - d0) * u)
            y += term
            yp -= (d - d0) * term
        # am*exp(-dm*u) - exp(-deg*u), kept positive: am - 1 - expm1(...)
        em = math.exp(-(dm - d0) * u)
        g = (am - 1) - math.expm1(-(deg - dm) * u)
        y += em * g
        yp += em * ((deg - dm) * math.exp(-(deg - dm) * u) - (dm - d0) * g)
        lx, ly = math.log(x), math.log(y)
        return lx + d0 * u - ly, xp / x + d0 - yp / y, abs(lx) + d0 * u + abs(ly)

    a, b = 0.0, math.log(2)
    if not psi(b)[0] > 0:
        return None
    u = 1.0 / deg
    for _ in range(100):
        h, hp, size = psi(u)
        if h < 0:
            a = u
        else:
            b = u
        if hp > 0:
            step = h / hp
            # the rounding error of psi, divided by the slope
            noise = (size + 4 * len(exps)) * 2.0**-52 / hp
            u -= step
            if abs(step) <= max(noise, 2.0**-50 * u):
                err_u = 4 * (noise + abs(step))
                x = math.expm1(u)
                return x, math.exp(u) * err_u + 2.0**-52 * x
        if not a < u < b:
            u = math.sqrt(a * b) if a > 0 else b / 16
    return None


def _exact_hit(f, point, tol, bits, max_bits):
    # The bisection landed exactly on the root (possible only for dyadic
    # roots, e.g. t - 2); return a valid bracket straddling it.
    exps = f.exponents()
    coeffs = f.coefficients()
    root = _dyadic_fraction(*point)
    k = 1
    while Fraction(1, 1 << k) > tol / 2 or root - Fraction(1, 1 << k) <= 1:
        k += 1
    num, pk = point
    scale = max(pk, k)
    base = num << (scale - pk)
    off = 1 << (scale - k)
    lo = (base - off, scale)
    hi = (base + off, scale)
    s_lo = _certified_sign(exps, coeffs, lo[0], lo[1], bits, max_bits)
    s_hi = _certified_sign(exps, coeffs, hi[0], hi[1], bits, max_bits)
    if s_lo >= 0 or s_hi <= 0:
        raise ValueError(f"root at {root} is not a simple upward crossing")
    flo = _dyadic_fraction(*lo)
    fhi = _dyadic_fraction(*hi)
    return CertifiedRoot(lo=flo, hi=fhi, value=root, tol=tol)
