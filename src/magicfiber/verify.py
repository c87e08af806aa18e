"""Self-verification suites: invariant sweeps runnable from the CLI.

Each suite checks one block of the package's contract (known-value root
regressions, the polynomial identity, the topology closed forms, Descartes
and Sturm counts, the coprimality condition, bound tables, asymptotics) and
reports one pass/fail line.  They are the only checkers of these claims:
acceptance criteria 1-6 call suites 1-6 and assert their verdicts.  Suites
report no timings, so their output is deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import asymptotics, family, homology, polynomials, roots, sturm

__all__ = [
    "SuiteResult",
    "SUITES",
    "run_suites",
    "iter_cone_classes",
    "sample_cone_classes",
]


@dataclass(frozen=True)
class SuiteResult:
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


def suite_topology(max_norm: int = 60, max_gp: int = 60) -> SuiteResult:
    """Fiber-data invariants on a full sweep, plus the closed-form cross-oracle."""
    failures = []
    checked = 0
    for c in iter_cone_classes(max_norm):
        fd = homology.fiber_data(c)
        checked += 1
        if fd.n_total != fd.b_alpha + fd.b_beta + fd.b_gamma:
            failures.append(f"{c}: boundary sum mismatch")
        if (fd.norm - fd.n_total) % 2 or fd.genus < 0:
            failures.append(f"{c}: genus integrality fails")
        if 2 * fd.genus != 2 - fd.n_total + fd.norm:
            failures.append(f"{c}: genus value fails")
        if not homology.euler_poincare_check(fd):
            failures.append(f"{c}: Euler-Poincare balance fails")
        if polynomials.sign_variations(polynomials.dilatation_poly(c)) != 2:
            failures.append(f"{c}: sign variations != 2")
        if len(failures) > 5:
            break
    pairs = 0
    for g in range(max_gp + 1):
        for p in range(max_gp + 1):
            fc = family.family_class(g, p)
            if not fc.primitive:
                continue
            pairs += 1
            if family.family_fiber_data(g, p) != homology.fiber_data(fc.fibered_class):
                failures.append(f"(g,p)=({g},{p}): closed form disagrees")
    return _result(
        "topology", failures, f"{checked} classes, {pairs} (g,p) pairs",
        classes=checked, pairs=pairs,
    )


def suite_rootcount(samples: int = 500, seed: int = 20240807) -> SuiteResult:
    """Descartes count 2 and Sturm counts (2 positive, 1 above t=1) on samples."""
    failures = []
    for c in sample_cone_classes(samples, max_norm=100, seed=seed):
        f = polynomials.dilatation_poly(c)
        if f.degree() > sturm.STURM_DEGREE_CAP:
            failures.append(f"{c}: degree {f.degree()} exceeds the Sturm cap")
            break
        if polynomials.sign_variations(f) != 2:
            failures.append(f"{c}: sign variations != 2")
        if sturm.sturm_count(f, 0, None) != 2:
            failures.append(f"{c}: positive root count != 2")
        if sturm.sturm_count(f, 1, None) != 1:
            failures.append(f"{c}: root count above 1 != 1")
        if len(failures) > 5:
            break
    return _result("rootcount", failures, f"{samples} sampled classes")


def suite_star(equiv_max: int = 10_000, brute_max: int = 2_000) -> SuiteResult:
    """Anchors, reduced-range equivalence, and brute-force oracle agreement."""
    failures = []
    if family.condition_star(4) != (True, None):
        failures.append("g=4 should satisfy the condition")
    if family.condition_star(7) != (False, 5):
        failures.append("g=7 should fail with witness s=5")
    for g in range(5, equiv_max + 1):
        if family.condition_star(g)[0] != family.condition_star_star(g):
            failures.append(f"g={g}: restricted range disagrees")
            break
    for g in range(2, brute_max + 1):
        want = family.condition_star_brute(g)
        if family.condition_star(g) != want:
            failures.append(f"g={g}: brute half-range oracle disagrees")
            break
        if family.condition_star_brute(g, full_period=True)[0] != want[0]:
            failures.append(f"g={g}: full-period verdict disagrees")
            break
    return _result("star", failures, f"g <= {equiv_max}")


def suite_bounds(
    gs: tuple[int, ...] = (2, 3, 4, 5, 6, 8, 9),
    n_min: int = 3,
    n_max: int = 500,
    jobs: int = 1,
) -> SuiteResult:
    """Every n gets a witness for the listed g; g=7 shows primitivity pruning."""
    failures = []
    for g in gs:
        rows = family.upper_bound_table(g, n_min, n_max, jobs=jobs)
        missing = [row.n for row in rows if row.record is None]
        if missing:
            failures.append(f"g={g}: no witness for n in {missing[:5]}")
    rows7 = family.upper_bound_table(7, n_min, n_max, jobs=jobs)
    if not any(row.pruned_p for row in rows7):
        failures.append("g=7: expected primitivity-pruned candidates")
    return _result("bounds", failures, f"g in {gs} and 7, n <= {n_max}")


def suite_asymp(jobs: int = 1) -> SuiteResult:
    """Certified asymptotic trends for the g=2 family.

    The normalized ratios for (q, v) = (2, 4) climb toward their limit 2
    from below; the deviation from 1 for (q, v) = (1, 0) shrinks; and the
    wide (0.5, 2.0) bracket holds over the whole sweep while the narrow
    (0.9, 1.1) one cannot have a smaller threshold (monotonicity).
    """
    failures = []
    fam = asymptotics.b_family(2)
    table = asymptotics.ratio_table(fam, 2, 4, [10, 100, 1000, 10000], jobs=jobs)
    if not table.strictly_increasing:
        failures.append("(2,4)-ratios are not certified strictly increasing")
    if not all(r.ratio_hi < 2.0 for r in table.rows):
        failures.append("(2,4)-ratios are not all below the limit 2")
    unit = asymptotics.ratio_table(fam, 1, 0, [2**k for k in range(4, 15)], jobs=jobs)
    devs = [abs((r.ratio_lo + r.ratio_hi) / 2 - 1.0) for r in unit.rows]
    if not all(r.ratio_lo > 0 for r in unit.rows):
        failures.append("(1,0)-ratios are not all positive")
    if not all(b < a for a, b in zip(devs, devs[1:])):
        failures.append("(1,0)-ratio deviation from 1 is not decreasing")
    wide = asymptotics.bracket_check(fam, "0.5", "2.0", 2, 2000, jobs=jobs)
    if not (wide.holds_tail and wide.threshold == 2):
        failures.append(f"wide bracket fails: threshold {wide.threshold}")
    narrow = asymptotics.bracket_check(fam, "0.9", "1.1", 2, 200, jobs=jobs)
    narrow_thr = narrow.threshold if narrow.threshold is not None else float("inf")
    if not wide.threshold <= narrow_thr:
        failures.append("bracket threshold monotonicity violated")
    return _result("asymp", failures, "certified trends and bracket thresholds")


def _result(name, failures, scope, **counts) -> SuiteResult:
    return SuiteResult(name, not failures, "; ".join(failures[:6]) or scope, counts)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "roots": suite_roots,
    "identity": suite_identity,
    "topology": suite_topology,
    "rootcount": suite_rootcount,
    "star": suite_star,
    "bounds": suite_bounds,
    "asymp": suite_asymp,
}


def run_suites(names, jobs: int = 1) -> list[SuiteResult]:
    """Run the named suites ("all" for every one) in registry order."""
    selected = list(SUITES) if names in (["all"], ("all",), "all") else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; choose from {list(SUITES)}")
    # Looked up at call time, so a wrapper installed in SUITES is the one run.
    return [
        SUITES[name](jobs=jobs) if name in ("bounds", "asymp") else SUITES[name]()
        for name in selected
    ]
