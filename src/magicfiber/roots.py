"""Certified sign evaluation and isolation of the unique root above 1.

Root isolation takes one polynomial shape, the shape of every dilatation
polynomial: coefficient signs +1, -, ..., -, +1 (monic, constant term 1,
every other coefficient negative) and f(1) < 0.  By Descartes' rule, with
f(0) = 1 > 0 and f(1) < 0, such an f has exactly one real root lambda above
1, and that root is irrational (the only rational candidates are +-1).  So
no dyadic point is ever a root: every certified sign on the way is +1 or -1.

The bracket is a cell of the bisection grid.  With b the least power of 2
where f(b) > 0 and w = b - 1, the cell (i, j) is
[1 + i*w/2**j, 1 + (i+1)*w/2**j].  Bisection from (0, 0) visits, level by
level, the cell that holds lambda, and stops at the first level whose width
w/2**j is at most 2*tol and whose index i is at least 1 (lower end above 1).
So the bracket is fixed by lambda alone, and bisection from any certified
cell of that path ends at the same cell.

Most roots skip the upper part of the path ("guess, then certify", after
Sagraloff and Mehlhorn, J. Symbolic Comput. 2016).  A floating-point
estimate of lambda predicts the cell, on the grid with w = 1, at the
deepest level that its error bound fits in, at most the stopping level.
That level may lie below the tol level when lambda - 1 < 2*tol, since
bisection from (0, 0) goes on until its cell's lower end leaves 1.  If the
certified signs f(lo) < 0 < f(hi) confirm the cell, bisection starts
there, and f(b) is never evaluated: hi <= 2 proves b = 2.  No cell is
predicted when the estimate allows lambda >= 2; that, or a cell the signs
refute, starts from the doubling search for b and the cell (0, 0).  The
estimate only chooses the start; every accepted step is backed by a
certified sign.

Signs come from fixed-point interval arithmetic on exact integers: the point
t is an exact dyadic rational, f(t) is enclosed by one Horner pass whose
factors t**gap (gaps between neighbouring exponents) come from binary
powering, all with outward rounding at a fractional precision that starts at
max(``DEFAULT_BITS``, k + 64) for t = num/2**k, so t itself is exact in any
form (num, k), and a sign is certified only when the resulting enclosure
excludes zero.  When it does not (cancellation near t = 1 grows with the
degree), the precision is doubled up to a ceiling, after which
``PrecisionError`` is raised.  The same ceiling bounds the size of t**deg:
a point where deg*(t - 1)/ln 2, an upper bound on deg*log2(t), exceeds it
raises ``PrecisionError`` before the kernel builds any integer.  Because
every decision depends only on true signs, brackets are bitwise
reproducible and independent of the precision-escalation path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._kernel import eval_enclosure
from .homology import _int_arg
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


# A sweep holds every result until it returns.  A `bounds` row peaks at
# about 2.9 KB at tol 1e-30 and 4.4 KB at 1e-100 (json output, one worker),
# so a sweep of this many tasks stays under half a GiB.
MAX_TASKS = 100_000


def check_tasks(n: int) -> None:
    """Raise ``PrecisionError`` for a sweep of more than ``MAX_TASKS`` tasks."""
    if n > MAX_TASKS:
        raise PrecisionError(f"a sweep of more than {MAX_TASKS} tasks exceeds the memory bound")


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


class Enclosure(NamedTuple):
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


class CertifiedRoot(NamedTuple):
    """A bracket (lo, hi) around a root, with certified opposite signs.

    ``lo`` and ``hi`` are exact dyadic rationals with lo > 1 and
    hi - lo <= 2*tol; ``value`` is the bracket midpoint.  The sign
    certificates are recomputable via ``evaluate_certified``.
    """

    lo: Fraction
    hi: Fraction
    value: Fraction
    tol: Fraction


def evaluate_certified(f: SparsePoly, t, bits: int = DEFAULT_BITS) -> Enclosure:
    """Enclose f(t) at an exact dyadic t > 0 with ``bits`` of precision.

    The sign of the result is certified whenever the enclosure excludes
    zero; otherwise callers escalate ``bits`` and retry.
    """
    _int_arg(bits, "bits", 1)
    num, k = as_dyadic(t)
    if num <= 0:
        raise ValueError("evaluation point must be positive")
    lo, hi = eval_enclosure(f.exponents(), f.coefficients(), num, k, bits)
    return Enclosure(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def _certified_sign(exps, coeffs, num, k, max_bits) -> int:
    prec = min(max(DEFAULT_BITS, k + 64), max_bits)
    while True:
        lo, hi = eval_enclosure(exps, coeffs, num, k, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:
            # An exact zero.  Isolation's roots are irrational, so only a
            # power comparison x**e - m**a at an integer x gets here: with
            # prec >= k every kernel product is then exact.
            return 0
        if prec >= max_bits:
            raise PrecisionError(
                f"sign undetermined at the {max_bits}-bit precision ceiling"
            )
        prec = min(prec * 2, max_bits)


def _as_fraction(x) -> Fraction:
    """x as an exact Fraction; a float is read as its shortest repr."""
    try:
        return Fraction(repr(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot read {x!r} as an exact number") from exc


def _as_tol(tol) -> Fraction:
    tol = _as_fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


def unique_root_gt1(
    f: SparsePoly,
    tol=DEFAULT_TOL,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> CertifiedRoot:
    """Certified bracket of the unique real root of f above 1.

    Precondition, checked: f has coefficient signs +1, -, ..., -, +1 and
    f(1) < 0 (the shape of every dilatation polynomial); anything else
    raises ``ValueError``.  The bracket is the cell (i, j) of width
    (b-1)/2**j that holds the root at the first level j whose width is at
    most 2*tol and whose index i is at least 1 (see the module docstring).
    Bisection starts from the grid cell that a floating-point estimate
    predicts, once its endpoint signs are certified, or else from (0, 0)
    after doubling b from 2 until f(b) > 0.  Both starts lie on the same
    bisection path, so the bracket is the same bits either way; every step
    is sign-certified, and none can land on the irrational root.
    ``PrecisionError`` is raised when a sign needs more than ``max_bits`` of
    precision, or when a bound on the bits of t**deg at a point exceeds it.
    A ``max_bits`` that is not an int >= 1 raises ``ValueError`` first.
    """
    _int_arg(max_bits, "max_bits", 1)
    tol = _as_tol(tol)
    exps = f.exponents()
    coeffs = f.coefficients()
    if (
        f.at_one() >= 0
        or coeffs[0] != 1
        or f.constant_term() != 1
        or not all(c < 0 for c in coeffs[1:-1])
    ):
        raise ValueError("need coefficient signs +1, -, ..., -, +1 and f(1) < 0")

    deg = exps[0]

    def sign_at(num: int, k: int) -> int:
        # t**deg has about deg*log2(t) <= deg*(t - 1)/ln 2 bits, and
        # 1443/1000 > 1/ln 2: refuse before the kernel builds the integers.
        if deg * (num - (1 << k)) * 1443 > (max_bits * 1000) << k:
            raise PrecisionError(
                f"t^{deg} at t = {Fraction(num, 1 << k)} exceeds the {max_bits}-bit ceiling"
            )
        return _certified_sign(exps, coeffs, num, k, max_bits)

    w, stop = 1, _grid_level(tol)
    cell = _start_cell(exps, coeffs, stop)
    if cell is not None:
        i, j = cell
        try:
            # The lower end 1 needs no evaluation: f(1) < 0 is checked above.
            if not (
                (i == 0 or sign_at((1 << j) + i, j) < 0)
                and sign_at((1 << j) + i + 1, j) > 0
            ):
                cell = None
        except PrecisionError:
            cell = None  # the path from (0, 0) decides, raising if it must
    if cell is None:
        b = 2
        while sign_at(b, 0) < 0:
            b *= 2
        w, stop = b - 1, _grid_level(tol / (b - 1))
        cell = (0, 0)
    i, j = cell
    while j < stop or i == 0:
        # The midpoint 1 + (2i+1)*w/2**(j+1), as (num, j+1).
        j += 1
        i = 2 * i + (sign_at((1 << j) + (2 * i + 1) * w, j) < 0)
    lo = Fraction((1 << j) + i * w, 1 << j)
    hi = Fraction((1 << j) + (i + 1) * w, 1 << j)
    value = Fraction((2 << j) + (2 * i + 1) * w, 2 << j)
    return CertifiedRoot(lo=lo, hi=hi, value=value, tol=tol)


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
    whose cell holds the estimate's whole error interval, capped at
    max_level (the tol level) or, deeper, at the last level where the
    estimate still puts lambda - 1 below 2**-(level - 1): bisection from
    (0, 0) keeps index 0, and so goes on, down to that level.  So the start
    cell may lie below the tol level.  None when the estimate allows a
    root >= 2 (x + err >= 1), the one place where such a guess is refused,
    when there is no estimate, or when an exponent or coefficient is beyond
    the float range: the estimate is only a guess, and the path from (0, 0)
    needs none.
    """
    try:
        est = _estimate_root(exps, coeffs)
    except OverflowError:
        est = None
    if est is None:
        return None
    x, err = est
    if x + err >= 1:
        return None
    # no deeper than err < 2**-level, nor than x + err < 2**-(level - 1) allows
    level = min(max(max_level, 1 - math.frexp(x + err)[1]), -math.frexp(err)[1])
    lo = math.floor(math.ldexp(max(x - err, 0.0), level))
    hi = math.floor(math.ldexp(x + err, level))
    shift = (lo ^ hi).bit_length()  # levels to climb until both ends share a cell
    return lo >> shift, level - shift


def _lambert_w(z: float) -> float:
    """W(z) for z > 0, within 1.1e-4 relative on 1e-8 <= z <= 1e16:
    Winitzki's closed form (ICCSA 2003), then one Newton step on
    w + ln w = ln z, the log form of w*exp(w) = z (Corless et al., Adv.
    Comput. Math. 1996)."""
    v = math.log1p(z)
    w = v * (1 - math.log1p(v) / (2 + v))
    return w - (w + math.log(w) - math.log(z)) * w / (1 + w)


def _estimate_root(exps, coeffs):
    """Uncertified (x, err) with |lambda - 1 - x| <= err, or None.

    For f with signs +, -, ..., -, +1 and f(1) < 0.  With u = ln t, the root
    is the zero of psi(u) = ln X(u) - ln Y(u), where f(t)/t**deg = X - Y,
    X(u) = 1 - exp(-d1*u) pairs the leading term with one unit of the
    first negative term, and Y holds the rest of the negative terms, the
    constant term merged into the last of them.  Both parts are positive
    for u > 0 and computed without cancellation, and psi is nearly concave
    and increasing, so Newton steps kept inside a bracket by bisection
    converge in a few steps.  The bracket starts as (0, inf), so roots
    >= 2 are estimated too; ``_start_cell`` refuses them.  A step that
    leaves the bracket is replaced by its geometric midpoint, an open upper
    end counted as 256 times the lower one, so psi is evaluated only at
    finite u > 0.  With d0 the degree minus Y's highest exponent, the steps
    start at the Lambert-W point u0 = W(c*Y(0)/d1)/c, c = d0 - d1/2, which
    solves the small-u balance ln(d1*u) - d1*u/2 + d0*u = ln Y(0): ln X to
    second order, and Y, scaled by exp(d0*u), frozen at u = 0, where it is
    -f(1) > 0 since X(0) = 0.  Over the family for g = 2..6 and
    m = 2..2000 that takes 3.1 evaluations of psi on average and 5 at most;
    500 sampled cone classes take 4.9.  None when Newton does not settle.
    """
    deg = exps[0]
    d1 = deg - exps[1]
    rest = [(deg - e, -c) for e, c in zip(exps[2:-1], coeffs[2:-1])]
    if coeffs[1] < -1:
        rest.insert(0, (d1, -coeffs[1] - 1))
    d0 = rest[0][0]
    dm, am = rest[-1]
    inner = [(d - d0, a) for d, a in rest[:-1]]
    sm, sg = dm - d0, deg - dm

    def psi(u):
        # psi(u), psi'(u) and a bound on the summands' magnitudes; Y is
        # scaled by exp(d0*u) so that no term underflows.
        x = -math.expm1(-d1 * u)
        xp = d1 * math.exp(-d1 * u)
        y = yp = 0.0
        for s, a in inner:
            term = a * math.exp(-s * u)
            y += term
            yp -= s * term
        # am*exp(-dm*u) - exp(-deg*u), kept positive: am - 1 - expm1(...)
        em = math.exp(-sm * u)
        g = (am - 1) - math.expm1(-sg * u)
        y += em * g
        yp += em * (sg * math.exp(-sg * u) - sm * g)
        lx, ly = math.log(x), math.log(y)
        return lx + d0 * u - ly, xp / x + d0 - yp / y, abs(lx) + d0 * u + abs(ly)

    a, b = 0.0, math.inf
    c = d0 - d1 / 2
    u = _lambert_w(c * -sum(coeffs) / d1) / c
    for _ in range(100):
        if not a < u < b:
            u = math.sqrt(a * min(b, 256 * a)) if a > 0 else min(b, 1.0) / 16
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
    return None
