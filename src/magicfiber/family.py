"""The two-parameter family of fibered classes and the bound tables.

For g, p >= 0 the class (p+g+1, 2p+1, p-g) lies in the open fibered cone;
when it is primitive (gcd(2g+1, p+g+1) = 1) its fiber is a genus-g surface
with 2p+4 boundary components, most of them (2p+1, each 1-pronged) on the
second cusp torus.  Capping the fiber boundaries on the other two cusps is
dilatation-preserving whenever none of them is 1-pronged, which fails only
for (g, p) in {(0,0), (0,1), (1,0)}; the four capping patterns realize every
puncture count in {2p+1, ..., 2p+4}.  A table row for (g, n) therefore
considers the two p with n in that window and records the smaller certified
dilatation bound among the qualifying candidates, or "no witness" when both
are pruned.

The coprimality condition on 2g+1 (no s in [0, g] with both s and s+1
sharing a factor with 2g+1) is what guarantees a witness for every n; it is
decided here in closed form via CRT over pairs of distinct prime factors,
with the O(g) gcd scan kept in ``condition_star_brute`` as an oracle.  Its
half-range scan is a prefix of the full-period one (the same ascending loop,
stopped at s = g), so one full-period scan gives both results: the half
range fails exactly when the least failing s of the full period is <= g.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._pool import pmap
from .homology import FiberData, FiberedClass, NotPrimitiveError
from .polynomials import family_poly
from .roots import (
    DEFAULT_MAX_BITS,
    DEFAULT_TOL,
    CertifiedRoot,
    _as_tol,
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
    if g < 0 or p < 0:
        raise ValueError("g and p must be nonnegative")
    cls = FiberedClass(p + g + 1, 2 * p + 1, p - g)
    return FamilyClass(
        g=g, p=p, fibered_class=cls, primitive=math.gcd(2 * g + 1, p + g + 1) == 1
    )


def _require_primitive(g: int, p: int) -> FamilyClass:
    fc = family_class(g, p)
    if not fc.primitive:
        raise NotPrimitiveError(
            f"(g, p) = ({g}, {p}): gcd(2g+1, p+g+1) = "
            f"{math.gcd(2 * g + 1, p + g + 1)} != 1"
        )
    return fc


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


def _least_bad_s(m: int) -> dict[tuple[int, int], int]:
    """For each ordered pair of distinct primes of m, the least s >= 0 with
    p | s and q | s+1 (so both s and s+1 share a factor with m)."""
    primes = _prime_factors(m)
    out = {}
    for p in primes:
        for q in primes:
            if p == q:
                continue
            t = (-pow(p, -1, q)) % q
            out[(p, q)] = p * t
    return out


def condition_star(g: int) -> tuple[bool, int | None]:
    """Consecutive-coprimality condition on 2g+1 over 0 <= s <= g.

    Holds iff every s in [0, g] has gcd(2g+1, s) = 1 or gcd(2g+1, s+1) = 1.
    Returns (True, None) or (False, least failing s).  A failing s needs two
    distinct prime factors of 2g+1 splitting between s and s+1, so the least
    witness is the minimum over prime pairs of a CRT solution.
    """
    if g < 2:
        raise ValueError("the condition is posed for g >= 2")
    best = None
    for s in _least_bad_s(2 * g + 1).values():
        if s <= g and (best is None or s < best):
            best = s
    return (best is None), best


def condition_star_brute(g: int, full_period: bool = False) -> tuple[bool, int | None]:
    """Direct gcd scan; the oracle for ``condition_star``.

    ``full_period=True`` scans 0 <= s <= 2g instead of the defining half
    range; by gcd symmetry the verdicts agree.
    """
    if g < 2:
        raise ValueError("the condition is posed for g >= 2")
    m = 2 * g + 1
    top = 2 * g if full_period else g
    gcd = math.gcd
    prev = gcd(m, 0)
    for s in range(top + 1):
        nxt = gcd(m, s + 1)
        if prev != 1 and nxt != 1:
            return False, s
        prev = nxt
    return True, None


def condition_star_star(g: int) -> bool:
    """The restricted-range variant over 3 <= s <= g-2 (equivalent for g >= 5)."""
    if g < 5:
        raise ValueError("the restricted condition is posed for g >= 5")
    m = 2 * g + 1
    for (p, q), s in _least_bad_s(m).items():
        if s < 3:
            step = p * q
            s += ((3 - s) + step - 1) // step * step
        if s <= g - 2:
            return False
    return True


def _candidate_ps(n: int) -> list[int]:
    ps = sorted({(n - i) // 2 for i in (1, 2, 3, 4) if n - i >= 0 and (n - i) % 2 == 0})
    return ps


def bound_row(g: int, n: int, tol=DEFAULT_TOL) -> BoundRow:
    """Best certified bound for (g, n), or a no-witness row."""
    tol = _as_tol(tol)
    candidates = []
    pruned = []
    for p in _candidate_ps(n):
        if not family_class(g, p).primitive or not no_one_prong(g, p):
            pruned.append(p)
            continue
        filled = dict(filled_variants(g, p))[n]
        candidates.append((p, filled, family_dilatation(g, p, tol)))
    if not candidates:
        return BoundRow(n=n, record=None, pruned_p=tuple(pruned))
    winner = candidates[0]
    if len(candidates) == 2:
        winner = _smaller_bound(g, candidates[0], candidates[1], tol)
    p, filled, root = winner
    return BoundRow(
        n=n,
        record=BoundRecord(g=g, n=n, witness_p=p, filled=filled, bound=root),
        pruned_p=tuple(pruned),
    )


def _smaller_bound(g, cand_a, cand_b, tol):
    # No monotonicity in p is assumed: compare certified brackets, refine
    # once on overlap, then prefer the smaller p deterministically.
    pa, fa, ra = cand_a
    pb, fb, rb = cand_b
    for attempt in range(2):
        if ra.hi < rb.lo:
            return (pa, fa, ra)
        if rb.hi < ra.lo:
            return (pb, fb, rb)
        if attempt == 0:
            ra = family_dilatation(g, pa, tol / 2)
            rb = family_dilatation(g, pb, tol / 2)
    return (pa, fa, ra) if pa < pb else (pb, fb, rb)


def upper_bound_table(
    g: int, n_min: int, n_max: int, tol=DEFAULT_TOL, jobs: int = 1
) -> list[BoundRow]:
    """Bound rows for every n in [n_min, n_max] (absence is data, not error)."""
    if g < 2:
        raise ValueError("bound tables are stated for g >= 2")
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    tol = _as_tol(tol)
    return pmap(bound_row, [(g, n, tol) for n in range(n_min, n_max + 1)], jobs)
