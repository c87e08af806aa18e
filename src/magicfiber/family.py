"""The two-parameter family of fibered classes and the bound tables.

For g, p >= 0 the class (p+g+1, 2p+1, p-g) lies in the open fibered cone;
when it is primitive (gcd(2g+1, p+g+1) = 1) its fiber is a genus-g surface
with 2p+4 boundary components, most of them (2p+1, each 1-pronged) on the
second cusp torus.  Capping the fiber boundaries on the other two cusps is
dilatation-preserving whenever none of them is 1-pronged, which fails only
for (g, p) in {(0,0), (0,1), (1,0)}; the four capping patterns realize every
puncture count in {2p+1, ..., 2p+4}.  A table row for (g, n) considers the
two p with n in that window, and its witness is the largest qualifying one,
or "no witness" when both are pruned.

The largest wins because lambda_p strictly decreases in p.  The classes are
a + p*b, a = (g+1, 1, -g), b = (1, 2, 1), and for real s >= 0 the class
a + s*b has x, y > 0, x - z = 2g+1 > 0 and y - z = g+1+s > 0: the ray lies
in the open cone.  By Fried's theorem phi(s) = 1/log(lambda(a + s*b)) is
concave there, and positive, hence nondecreasing on [0, oo); equal values at
two points would make it constant from the first on, against lambda_p -> 1.

For g >= 2 a row lacks a witness exactly when p+g+1 and p+g+2 both share a
factor with m = 2g+1, so a table has a no-witness row in every period 2m of
n exactly when the coprimality condition (*) fails: (*) asks for no s in
[0, g] with s and s+1 both sharing a factor with m, and the least such
s >= 0, if any, is at most g (below).

(*) holds iff m is a prime power.  Call s failing when both s and s+1 share
a factor with m.  A failing s has two distinct primes of m, p | s and
q | s+1, so s is at least the least CRT solution s_pq < pq of that pair.
The sum s_pq + s_qp is -1 mod p and mod q and less than 2pq - 1, so it is
pq - 1 <= 2g, and the least failing s over all s >= 0 is at most g.  No s
in {0, 1, 2, g-1, g} fails, since m is odd and prime to g and to g+1; so
every CRT solution is at least 3, and the least failing s lies in
[3, g-2].  ``condition_star`` takes the least CRT solution.  ``verify star``
checks it against two oracles with a sieve of their own: the prime-power
test above, and a scan of the defining range 0 <= s <= g that marks the
multiples of each prime of m.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .homology import FiberData, FiberedClass, NotPrimitiveError, _int_arg
from .polynomials import family_poly
from .roots import (
    DEFAULT_MAX_BITS,
    DEFAULT_TOL,
    CertifiedRoot,
    _as_tol,
    check_tasks,
    unique_root_gt1,
)

__all__ = [
    "FamilyClass",
    "BoundRecord",
    "BoundRow",
    "family_class",
    "family_fiber_data",
    "no_one_prong",
    "family_dilatation",
    "filled_variants",
    "condition_star",
    "condition_star_brute",
    "condition_star_star",
    "bound_row",
    "upper_bound_table",
]

ONE_PRONG_EXCEPTIONS = frozenset({(0, 0), (0, 1), (1, 0)})


class FamilyClass(NamedTuple):
    g: int
    p: int
    fibered_class: FiberedClass
    primitive: bool


class BoundRecord(NamedTuple):
    """A certified entry "delta_{g,n} <= bound" with its witness.

    ``filled`` names the cusps whose fiber boundaries are capped to bring
    the puncture count of the witness fiber from 2p+4 down to n.
    """

    g: int
    n: int
    witness_p: int
    filled: tuple[str, ...]
    bound: CertifiedRoot


class BoundRow(NamedTuple):
    """One table cell: a record, or None with the pruned candidates listed."""

    n: int
    record: BoundRecord | None
    pruned_p: tuple[int, ...]


def family_class(g: int, p: int) -> FamilyClass:
    """The class (p+g+1, 2p+1, p-g), always in the open cone."""
    _int_arg(g, "genus g")
    _int_arg(p, "p")
    cls = FiberedClass(p + g + 1, 2 * p + 1, p - g)
    return FamilyClass(
        g=g, p=p, fibered_class=cls, primitive=math.gcd(2 * g + 1, p + g + 1) == 1
    )


def _require_primitive(g: int, p: int) -> None:
    # family_class owns the primitivity of (g, p), so every path reads it there
    if not family_class(g, p).primitive:
        d = math.gcd(2 * g + 1, p + g + 1)
        raise NotPrimitiveError(f"(g, p) = ({g}, {p}): gcd(2g+1, p+g+1) = {d} != 1")


def family_fiber_data(g: int, p: int) -> FiberData:
    """Closed-form fiber topology of the primitive (g, p) class.

    Genus g with 2p+4 boundary components; the parity of p+g decides which
    of the two remaining cusps carries 1 versus 2 of them.
    """
    _require_primitive(g, p)
    if (p + g) % 2 == 1:
        ba, bg = 2, 1
        pa, pg = (p + g + 1) // 2, p + 3 * g + 2
    else:
        ba, bg = 1, 2
        pa, pg = p + g + 1, (p + 3 * g + 2) // 2
    return FiberData(
        norm=2 * p + 2 * g + 2,
        b_alpha=ba,
        b_beta=2 * p + 1,
        b_gamma=bg,
        n_total=2 * p + 4,
        genus=g,
        prongs_alpha=pa,
        prongs_beta=1,
        prongs_gamma=pg,
    )


def no_one_prong(g: int, p: int) -> bool:
    """True iff no capped boundary component is 1-pronged (filling-safe)."""
    _require_primitive(g, p)
    return (g, p) not in ONE_PRONG_EXCEPTIONS


def family_dilatation(
    g: int,
    p: int,
    tol=DEFAULT_TOL,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> CertifiedRoot:
    """Certified dilatation of the (g, p) class (defined for all g, p >= 0)."""
    return unique_root_gt1(family_poly(g, p), tol, max_bits=max_bits)


def filled_variants(g: int, p: int) -> list[tuple[int, tuple[str, ...]]]:
    """The four capping patterns and the puncture counts they produce."""
    if not no_one_prong(g, p):
        raise ValueError(
            f"(g, p) = ({g}, {p}) has a 1-pronged cusp boundary; capping it "
            "is not dilatation-preserving"
        )
    fd = family_fiber_data(g, p)
    base = 2 * p + 4
    return [
        (base, ()),
        (base - fd.b_alpha, ("alpha",)),
        (base - fd.b_gamma, ("gamma",)),
        (2 * p + 1, ("alpha", "gamma")),
    ]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _least_bad_s(m: int) -> list[int]:
    """For each ordered pair (p, q) of distinct primes of m, the least s >= 0
    with p | s and q | s+1; empty when m is a prime power."""
    primes = _prime_factors(m)
    return [p * (-pow(p, -1, q) % q) for p in primes for q in primes if p != q]


def condition_star(g: int) -> tuple[bool, int | None]:
    """Consecutive-coprimality condition on 2g+1 over 0 <= s <= g.

    Holds iff every s in [0, g] has gcd(2g+1, s) = 1 or gcd(2g+1, s+1) = 1.
    Returns (True, None) or (False, least failing s): the least CRT solution
    over the prime pairs of 2g+1, which is at most g (module docstring).
    """
    _int_arg(g, "genus g", 2)
    s = min(_least_bad_s(2 * g + 1), default=None)
    return s is None, s


def condition_star_brute(g: int) -> tuple[bool, int | None]:
    """Direct gcd scan of 0 <= s <= g, the definition of (*).

    No code in the package calls it; it is kept as an export, and tests
    compare it with ``condition_star`` and with the ``verify star`` oracles.
    """
    _int_arg(g, "genus g", 2)
    m = 2 * g + 1
    gcd = math.gcd
    prev = gcd(m, 0)
    for s in range(g + 1):
        nxt = gcd(m, s + 1)
        if prev != 1 and nxt != 1:
            return False, s
        prev = nxt
    return True, None


def condition_star_star(g: int) -> bool:
    """The restricted-range variant over 3 <= s <= g-2 (equivalent for g >= 5).

    Every CRT solution is at least 3, so only the upper end is tested.  It
    reads the CRT solutions of ``condition_star``, so it is no oracle for
    it; no code in the package calls it, and it is kept as an export.
    """
    _int_arg(g, "genus g", 5)
    return all(s > g - 2 for s in _least_bad_s(2 * g + 1))


def _candidate_ps(n: int) -> list[int]:
    return sorted({(n - i) // 2 for i in (1, 2, 3, 4) if n >= i and (n - i) % 2 == 0})


def bound_row(g: int, n: int, tol=DEFAULT_TOL) -> BoundRow:
    """Certified bound for (g, n) from its largest qualifying p (lambda_p
    decreases in p, module docstring), or a no-witness row.

    A g or an n that is not an int >= 0 raises ValueError before any work.
    """
    _int_arg(g, "genus g")
    _int_arg(n, "n")
    tol = _as_tol(tol)
    candidates = []
    pruned = []
    for p in _candidate_ps(n):
        if not family_class(g, p).primitive or not no_one_prong(g, p):
            pruned.append(p)
            continue
        candidates.append(p)
    record = None
    if candidates:
        p = candidates[-1]
        filled = dict(filled_variants(g, p))[n]
        record = BoundRecord(g, n, p, filled, family_dilatation(g, p, tol))
    return BoundRow(n=n, record=record, pruned_p=tuple(pruned))


def upper_bound_table(
    g: int, n_min: int, n_max: int, tol=DEFAULT_TOL, jobs: int = 1
) -> list[BoundRow]:
    """Bound rows for every n in [n_min, n_max] (absence is data, not error).

    A g that is not an int >= 2, an n_min or n_max that is not an int with
    1 <= n_min <= n_max, or a ``jobs`` that is not an int >= 1 raises
    ValueError, and more than ``MAX_TASKS`` rows raise ``PrecisionError``,
    before any row is computed.  The rows run on
    min(jobs, rows, os.cpu_count()) worker processes, in order; with one
    worker they run inline, in this process.
    """
    _int_arg(g, "genus g")
    if g < 2:
        raise ValueError("bound tables are stated for g >= 2")
    _int_arg(n_min, "n_min", 1)
    _int_arg(n_max, "n_max", n_min)
    _int_arg(jobs, "jobs", 1)
    tol = _as_tol(tol)
    ns = range(n_min, n_max + 1)
    check_tasks(len(ns))
    workers = min(jobs, len(ns), os.cpu_count() or 1)
    if workers <= 1:
        return [bound_row(g, n, tol) for n in ns]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(ns) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(bound_row, [g] * len(ns), ns, [tol] * len(ns), chunksize=chunk))
