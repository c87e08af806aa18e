"""Self-verification suites: invariant sweeps runnable from the CLI.

Each suite checks one block of the package's contract (known-value root
regressions, the polynomial identity, the fiber topology with its cusp
symmetry and closed forms, the Descartes counts of f and of its shifted
palindromic half, the coprimality condition, bound tables, asymptotics) and
reports one pass/fail line.  They are the only checkers of these claims:
acceptance criteria 1-6 call suites 1-6 and assert their verdicts.  A claim
that the code's construction proves is checked once at run time, not in
every suite: the two sign variations of every dilatation polynomial are
proved in ``polynomials.dilatation_poly`` and counted by ``rootcount``
alone, and a class that the cusp symmetry maps onto a checked one is not
checked again.  The oracles are independent of the code they check: the
``star`` oracles factor 2g+1 with their own sieve, and ``bounds`` decides
the primitivity of a candidate p by its own gcd.  ``asymptotics`` is
imported by ``suite_asymp`` alone, so the other suites do not load it.
Suites report no timings, so their output is deterministic.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from . import family, homology, polynomials, roots, sturm

__all__ = [
    "SuiteResult",
    "SUITES",
    "run_suites",
    "iter_cone_classes",
    "sample_cone_classes",
]


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    counts: dict[str, int]  # sizes of the sweep, for the acceptance guards


def iter_cone_classes(max_norm: int) -> Iterator[tuple[int, int, int]]:
    """All primitive classes in the open cone with norm at most max_norm."""
    for x in range(1, max_norm):
        for y in range(1, max_norm):
            for z in range(x + y - max_norm, min(x, y)):
                if math.gcd(x, y, z) == 1:
                    yield (x, y, z)


def _sigma_representatives(max_norm: int) -> Iterator[tuple[int, int, int]]:
    """The members with x <= y of ``iter_cone_classes(max_norm)``."""
    for x in range(1, max_norm):
        for y in range(x, max_norm):
            for z in range(x + y - max_norm, x):
                if math.gcd(x, y, z) == 1:
                    yield (x, y, z)


def sample_cone_classes(
    count: int, max_norm: int, seed: int = 20240807
) -> list[tuple[int, int, int]]:
    """Deterministic sample of primitive cone classes with norm <= max_norm."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = rng.randint(1, max_norm - 1)
        y = rng.randint(1, max_norm - 1)
        zmin = x + y - max_norm
        zmax = min(x, y) - 1
        if zmin > zmax:
            continue
        z = rng.randint(zmin, zmax)
        if math.gcd(x, y, z) == 1:
            out.append((x, y, z))
    return out


def suite_roots() -> SuiteResult:
    """Point regressions for the certified root finder."""
    failures = []
    quartic = polynomials.make_poly([(4, 1), (3, -2), (1, -2), (0, 1)])
    r = roots.unique_root_gt1(quartic, Fraction(1, 10**6))
    if abs(r.value - Fraction("2.2966")) > Fraction("5e-4"):
        failures.append(f"quartic root {float(r.value)} not within 5e-4 of 2.2966")
    quad = polynomials.make_poly([(2, 1), (1, -4), (0, 1)])
    r = roots.unique_root_gt1(quad, Fraction(1, 10**10))
    lo_off = r.value - Fraction(2) - Fraction(1, 10**9)
    hi_off = r.value - Fraction(2) + Fraction(1, 10**9)
    # |value - (2+sqrt(3))| <= 1e-9  iff  sqrt(3) lies in [lo_off, hi_off]
    if not (lo_off > 0 and lo_off * lo_off < 3 < hi_off * hi_off):
        failures.append(f"quadratic root {float(r.value)} not within 1e-9 of 2+sqrt(3)")
    return _result("roots", failures, "2 regressions")


def suite_identity(max_g: int = 50, max_p: int = 50) -> SuiteResult:
    """family_poly(g,p) == dilatation_poly((p+g+1, 2p+1, p-g)) exactly."""
    failures = []
    checked = 0
    for g in range(max_g + 1):
        for p in range(max_p + 1):
            got = polynomials.family_poly(g, p)
            want = polynomials.dilatation_poly((p + g + 1, 2 * p + 1, p - g))
            checked += 1
            if got != want:
                failures.append(f"(g,p)=({g},{p}): {got} != {want}")
    return _result("identity", failures, f"{checked} pairs", pairs=checked)


def _fiber_data(c: tuple[int, int, int], failures: list[str]):
    """``homology.fiber_data(c)``, or None with a failure that names the class."""
    try:
        return homology.fiber_data(c)
    except Exception as exc:  # a defect of the code under check, not of the suite
        failures.append(f"{c}: fiber_data raised {type(exc).__name__}: {exc}")
        return None


def _check_fiber(c, fd, failures: list[str]) -> None:
    """The four fiber-data checks on one class: boundary sum through Euler-Poincare."""
    if fd.n_total != fd.b_alpha + fd.b_beta + fd.b_gamma:
        failures.append(f"{c}: boundary sum mismatch")
    if (fd.norm - fd.n_total) % 2 or fd.genus < 0:
        failures.append(f"{c}: genus integrality fails")
    if 2 * fd.genus != 2 - fd.n_total + fd.norm:
        failures.append(f"{c}: genus value fails")
    if not homology.euler_poincare_check(fd):
        failures.append(f"{c}: Euler-Poincare balance fails")


def _sigma(fd) -> tuple:
    """The fields of ``fd`` with the alpha and beta cusps exchanged."""
    norm, ba, bb, bg, n_total, genus, pa, pb, pg = fd
    return (norm, bb, ba, bg, n_total, genus, pb, pa, pg)


def suite_topology(max_norm: int = 60, max_gp: int = 60) -> SuiteResult:
    """Fiber-data invariants and the cusp symmetry on a full sweep, plus the
    closed-form cross-oracle.

    The sweep visits each sigma-pair {(x, y, z), (y, x, z)} of primitive
    cone classes of norm at most ``max_norm`` once, from its member with
    x <= y (the cone's z < min(x, y) is then z < x), and calls
    ``fiber_data`` once on each member.  The pair gets the cusp symmetry
    sigma (the ``homology`` module docstring proves it): the data of
    (y, x, z) is that of (x, y, z) with the alpha and beta fields
    exchanged.  On the diagonal x = y sigma says the data is its own
    exchange.  The member (x, y, z) gets the four fiber-data checks.  Each
    of them is symmetric under the alpha/beta exchange: the boundary sum and
    the Euler-Poincare balance add the alpha and beta terms, and the two
    genus checks read neither.  So where sigma holds, the checks on the
    mirror have the results of those on (x, y, z), and they run on the
    mirror only where sigma fails or a ``fiber_data`` call raised.  The
    dilatation polynomial's two sign variations are proved in
    ``dilatation_poly`` and checked by ``suite_rootcount``, so this sweep
    builds no polynomial.  An exception from ``fiber_data`` fails the class
    that it was raised on.
    """
    failures = []
    checked = 0
    for c in _sigma_representatives(max_norm):
        x, y, z = c
        fd = _fiber_data(c, failures)
        if fd is not None:
            _check_fiber(c, fd, failures)
        if x == y:
            checked += 1
            fm = fd
        else:
            checked += 2
            mirror = (y, x, z)
            fm = _fiber_data(mirror, failures)
        if fd is None or fm is None or tuple(fm) != _sigma(fd):
            if fm is not None and x < y:
                _check_fiber(mirror, fm, failures)
            if fd is not None and fm is not None:
                failures.append(f"{c}: cusp symmetry fails")
        if len(failures) > 5:
            break
    pairs = 0
    for g in range(max_gp + 1):
        for p in range(max_gp + 1):
            if math.gcd(2 * g + 1, p + g + 1) != 1:
                continue
            pairs += 1
            fd = _fiber_data(tuple(family.family_class(g, p)), failures)
            if fd is not None and family.family_fiber_data(g, p) != fd:
                failures.append(f"(g,p)=({g},{p}): closed form disagrees")
    return _result(
        "topology", failures, f"{checked} classes, {pairs} (g,p) pairs",
        classes=checked, pairs=pairs,
    )


def suite_rootcount(samples: int = 500) -> SuiteResult:
    """Descartes count 2 and exactly one root above t=1 (2 positive) on samples.

    Every dilatation polynomial f is a palindrome, since norm - x = y - z and
    norm - y = x - z, so t -> 1/t maps its roots in (0, 1) onto those in
    (1, oo).  With f(t) = t^(N/2) g(t + 1/t) and t -> t + 1/t mapping (1, oo)
    one to one onto (2, oo), the roots of f above 1 are those of g above 2.
    One sign variation of h(u) = g(u + 2), read off the terms of f by a
    binomial closed form (``sturm.shifted_half_variations``), proves by
    Descartes' rule exactly one simple root there, at any degree, and
    f(1) != 0 then proves exactly two positive roots.  Any other count fails
    the class.
    """
    failures = []
    checked = 0
    for c in sample_cone_classes(samples, max_norm=100):
        checked += 1
        f = polynomials.dilatation_poly(c)
        if polynomials.sign_variations(f) != 2:
            failures.append(f"{c}: sign variations != 2")
        try:
            v = sturm.shifted_half_variations(f)
        except ValueError:
            failures.append(f"{c}: not a palindrome")
        else:
            if f.at_one() == 0:
                failures.append(f"{c}: root at t=1")
            elif v != 1:
                failures.append(f"{c}: g(u + 2) has {v} sign variations, not 1")
        if len(failures) > 5:
            break
    return _result("rootcount", failures, f"{samples} sampled classes", samples=checked)


def _smallest_prime_factors(n: int) -> array:
    """The smallest prime factor of each k in [2, n], by Eratosthenes' sieve.

    Entry k is k itself for a prime k (and for k < 2).  The primes up to
    sqrt(n) mark their multiples from p^2 on, the largest first, so the
    smallest prime's mark is the one that stays.
    """
    spf = array("l", range(n + 1))
    small = [
        p for p in range(2, math.isqrt(n) + 1)
        if all(p % d for d in range(2, math.isqrt(p) + 1))
    ]
    for p in reversed(small):
        spf[p * p :: p] = array("l", [p]) * len(range(p * p, n + 1, p))
    return spf


def _distinct_primes(m: int, spf: array) -> list[int]:
    """The distinct primes of m >= 1, read off the sieve ``spf``."""
    out = []
    while m > 1:
        p = spf[m]
        out.append(p)
        while m % p == 0:
            m //= p
    return out


def _least_failing_s(g: int, primes: list[int]) -> tuple[bool, int | None]:
    """Condition (*) on its defining range 0 <= s <= g, for the primes of 2g+1.

    Byte s of the mask is 1 iff s shares a prime with 2g+1, for s up to g+1;
    the least failing s is the first of two adjacent marks.
    """
    shared = bytearray(g + 2)
    for p in primes:
        shared[::p] = b"\x01" * len(range(0, g + 2, p))
    s = shared.find(b"\x01\x01")
    return (True, None) if s < 0 else (False, s)


def suite_star(equiv_max: int = 10_000, brute_max: int = 2_000) -> SuiteResult:
    """Anchors, the prime-power oracle, and the defining-range oracle.

    One pass over g calls ``condition_star`` (the least CRT solution over
    the prime pairs of 2g+1) once per g and compares it with two oracles
    that factor 2g+1 on one Eratosthenes sieve of their own.  The
    prime-power oracle checks the verdict for 5 <= g <= ``equiv_max``:
    (*) holds iff 2g+1 has exactly one distinct prime (the lemma in the
    ``family`` module docstring).  The defining-range oracle checks the
    verdict and the least failing s for 2 <= g <= ``brute_max``: it marks
    the multiples of each prime of 2g+1 in 0..g+1 and finds the first two
    adjacent marks.  Neither reads the CRT code's factorisation, and the
    second needs no lemma.
    """
    failures = []
    anchors = {
        4: ((True, None), "g=4 should satisfy the condition"),
        7: ((False, 5), "g=7 should fail with witness s=5"),
    }
    top = max(equiv_max, brute_max, *anchors)
    spf = _smallest_prime_factors(2 * top + 1)
    equiv = brute = 0
    equiv_fail = brute_fail = None
    for g in range(2, top + 1):
        star = family.condition_star(g)
        if g in anchors and star != anchors[g][0]:
            failures.append(anchors[g][1])
        primes = _distinct_primes(2 * g + 1, spf)
        if 5 <= g <= equiv_max and equiv_fail is None:
            equiv += 1
            if star[0] != (len(primes) == 1):
                equiv_fail = f"g={g}: prime-power oracle disagrees"
        if g <= brute_max and brute_fail is None:
            brute += 1
            if star != _least_failing_s(g, primes):
                brute_fail = f"g={g}: brute-force oracle disagrees"
    failures += [f for f in (equiv_fail, brute_fail) if f]
    return _result("star", failures, f"g <= {equiv_max}", equiv=equiv, brute=brute)


def suite_bounds(
    gs: tuple[int, ...] = tuple(range(2, 10)),
    n_max: int = 500,
) -> SuiteResult:
    """The two theorems behind the bound tables (``family`` module docstring).

    The tables run over n = 3..n_max.  Witnesses and gaps: every row of
    ``upper_bound_table`` has the largest primitive candidate p (with
    2p+1 <= n <= 2p+4) as its witness, and the table has a no-witness row
    iff condition (*) fails.  The suite decides primitivity itself, by
    gcd(2g+1, p+g+1) = 1, so a wrong class or primitivity test in
    ``family`` shows as a wrong witness.  Monotonicity: the certified
    brackets of the table's distinct witnesses are strictly ordered,
    lambda_q < lambda_p for witnesses p < q; a pair the brackets cannot
    separate fails.  Every
    primitive p >= 1 up to (n_max - 1) // 2 is a witness, so the pairs
    cover both candidates of each row where both qualify, but for p = 0 at
    n = 3, 4.  The range 3..500 holds a full period 2(2g+1) of n for every
    g <= 9.
    """
    failures = []
    pairs = rows = 0
    for g in gs:
        table = family.upper_bound_table(g, 3, n_max)
        rows += len(table)
        for row in table:
            top = (row.n - 1) // 2
            want = next(
                (p for p in (top, top - 1) if p >= 0 and math.gcd(2 * g + 1, p + g + 1) == 1),
                None,
            )
            if row.witness_p != want:
                failures.append(
                    f"g={g}, n={row.n}: witness p={row.witness_p}, largest qualifying p={want}"
                )
                break
        brackets = {row.witness_p: row.bound for row in table if row.witness_p is not None}
        ps = sorted(brackets)
        for p, q in zip(ps, ps[1:]):
            pairs += 1
            if not brackets[q].hi < brackets[p].lo:
                failures.append(f"g={g}: brackets of p={p} and p={q} are not ordered")
                break
        gaps = [row.n for row in table if row.witness_p is None]
        holds = family.condition_star(g)[0]
        if gaps and holds:
            failures.append(f"g={g}: no witness for n in {gaps[:5]}, yet (*) holds")
        if not gaps and not holds:
            failures.append(f"g={g}: (*) fails, yet every n has a witness")
    return _result(
        "bounds", failures, f"g in {gs}, {pairs} ordered witness pairs, {rows} rows",
        pairs=pairs, rows=rows,
    )


def suite_asymp() -> SuiteResult:
    """Certified asymptotic trends for the g=2 family.

    The normalized ratios for (q, v) = (2, 4) climb toward their limit 2
    from below; the deviation from 1 for (q, v) = (1, 0) shrinks; and the
    wide (0.5, 2.0) bracket holds over the whole sweep while the narrow
    (0.9, 1.1) one cannot have a smaller threshold (monotonicity).
    """
    from . import asymptotics

    failures = []
    table = asymptotics.ratio_table(2, 2, 4, [10, 100, 1000, 10000])
    if not table.strictly_increasing:
        failures.append("(2,4)-ratios are not certified strictly increasing")
    if not all(r.ratio_hi < 2.0 for r in table.rows):
        failures.append("(2,4)-ratios are not all below the limit 2")
    unit = asymptotics.ratio_table(2, 1, 0, [2**k for k in range(4, 15)])
    devs = [abs((r.ratio_lo + r.ratio_hi) / 2 - 1.0) for r in unit.rows]
    if not all(r.ratio_lo > 0 for r in unit.rows):
        failures.append("(1,0)-ratios are not all positive")
    if not all(b < a for a, b in zip(devs, devs[1:])):
        failures.append("(1,0)-ratio deviation from 1 is not decreasing")
    wide = asymptotics.bracket_check(2, "0.5", "2.0", 2, 2000)
    if not (wide.holds_tail and wide.threshold == 2):
        failures.append(f"wide bracket fails: threshold {wide.threshold}")
    narrow = asymptotics.bracket_check(2, "0.9", "1.1", 2, 200)
    narrow_thr = narrow.threshold if narrow.threshold is not None else float("inf")
    if not wide.threshold <= narrow_thr:
        failures.append("bracket threshold monotonicity violated")
    return _result("asymp", failures, "certified trends and bracket thresholds")


def _result(name, failures, scope, **counts) -> SuiteResult:
    return SuiteResult(name, not failures, "; ".join(failures[:6]) or scope, counts)


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "roots": suite_roots,
    "identity": suite_identity,
    "topology": suite_topology,
    "rootcount": suite_rootcount,
    "star": suite_star,
    "bounds": suite_bounds,
    "asymp": suite_asymp,
}


def run_suites(names) -> list[SuiteResult]:
    """Run the named suites, in the order given.

    ``names`` is one suite name or a sequence of them; "all" alone runs every
    suite, in registry order.
    """
    names = [names] if isinstance(names, str) else list(names)
    if names == ["all"]:
        names = list(SUITES)
    elif "all" in names:
        raise ValueError("'all' takes no other suite names")
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; choose from {list(SUITES)}")
    # Looked up at call time, so a wrapper installed in SUITES is the one run.
    return [SUITES[name]() for name in names]
