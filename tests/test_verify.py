"""The verify suites must fail when the code they check is wrong.

Acceptance criteria 1-6 only assert the verdicts of the suites, so a suite
that passed vacuously would pass them too.  Each suite runs here at small
parameters, once as it is and once with one defect injected into the code
it checks.
"""

import math
from fractions import Fraction

import pytest

from magicfiber import family, homology, polynomials, roots, sturm, verify


def _wrong_genus(orig):
    return lambda *args: orig(*args)._replace(genus=orig(*args).genus + 1)


def _shifted_root(orig):
    shift = Fraction(1, 1024)

    def shifted(f, tol, **kwargs):
        r = orig(f, tol, **kwargs)
        return r._replace(lo=r.lo + shift, hi=r.hi + shift, value=r.value + shift)

    return shifted


def _no_witness(orig):
    def table(*args, **kwargs):
        return [row._replace(witness_p=None, filled=None, bound=None) for row in orig(*args, **kwargs)]

    return table


def _smaller_p_witness(orig):
    # the smaller qualifying candidate, which has the larger dilatation
    def row(g, n, tol):
        r = orig(g, n, tol)
        p = (n - 1) // 2 - 1
        if r.witness_p is None or p < 0 or not homology.is_primitive(family.family_class(g, p)):
            return r
        return r._replace(witness_p=p)

    return row


def _calls_7_4_primitive(orig):
    # family_class(7, 4) = (12, 9, -3) has gcd(2g+1, p+g+1) = gcd(15, 12) = 3,
    # yet it reads as primitive, so p = 4 wins the rows n = 9 and 10 of g = 7
    return lambda c: tuple(c) == (12, 9, -3) or orig(c)


def _not_decreasing(orig):
    # odd p get the bracket of p + 1, so the witnesses 3 and 4 of g = 2 tie
    return lambda g, p, tol=roots.DEFAULT_TOL, **kw: orig(g, p + p % 2, tol, **kw)


def _spurious_gap(orig):
    # 2g + 1 = 5 is prime, so no row of g = 2 lacks a witness
    def table(g, *args, **kwargs):
        rows = orig(g, *args, **kwargs)
        if g == 2:
            rows[-1] = rows[-1]._replace(witness_p=None, filled=None, bound=None)
        return rows

    return table


def _with_counts(counts):
    # fiber_data with its boundary counts from counts(x, y, z), the rest as
    # homology computes it
    def fiber_data(c):
        x, y, z = c
        ba, bb, bg = counts(x, y, z)
        n_total, norm = ba + bb + bg, x + y - z
        if (norm - n_total) % 2 or norm + 2 < n_total:
            raise RuntimeError(f"genus formula failed for {(x, y, z)}")
        return homology.FiberData(
            norm, ba, bb, bg, n_total, (2 - n_total + norm) // 2,
            x // ba, y // bb, (x + y - 2 * z) // bg,
        )

    return lambda orig: fiber_data


def _with_fields(fields):
    # fiber_data with the fields that fields(x, y, z, data) names replaced
    def defect(orig):
        def fiber_data(c):
            fd = orig(c)
            return fd._replace(**fields(*c, fd))

        return fiber_data

    return defect


def _unswapped_mirror(orig):
    # (y, x, z) gets the data of (x, y, z) when x > y: consistent in itself,
    # so only the cusp symmetry sees it
    return lambda c: orig((c[1], c[0], c[2])) if c[0] > c[1] else orig(c)


def _third_sign_change(orig):
    # t*f - 1 has the coefficient signs +, -, ..., -, +, -
    return lambda c: polynomials.make_poly(
        [(e + 1, k) for e, k in orig(c).terms] + [(0, -1)]
    )


def _drop_largest_prime(orig):
    # past the anchors 2g + 1 = 9 and 15 a composite loses its largest prime,
    # so 21 = 3 * 7 reads as a prime power
    return lambda n: orig(n)[:-1] if n > 15 and orig(n) != [n] else orig(n)


def _crt_sign_slip(orig):
    # past the anchors, s = +1 (mod q) in place of -1: for 21 the least
    # solution is 7 (3 | 15, 7 | 7), not 6; the verdict stays right
    def least_bad_s(m):
        if m <= 15:
            return orig(m)
        primes = family._prime_factors(m)
        return [p * (pow(p, -1, q) % q) for p in primes for q in primes if p != q]

    return least_bad_s


def _mirror_witness(orig):
    # 2g + 1 = 21 fails at s = 6 and at its mirror 2g - s = 14
    return lambda g: (False, 14) if g == 10 else orig(g)


# Each suite at small parameters.
RUNS = {
    "topology": lambda: verify.suite_topology(max_norm=8, max_gp=8),
    "rootcount": lambda: verify.suite_rootcount(samples=5),
    "identity": lambda: verify.suite_identity(max_g=3, max_p=3),
    "star": lambda: verify.suite_star(equiv_max=50, brute_max=20),
    "roots": verify.suite_roots,
    # 2g + 1 = 15 at g = 7: no witness at n = 5 and 6
    "bounds": lambda: verify.suite_bounds(gs=(2, 7), n_max=12),
}

# (suite, module, attribute, defect built from the original attribute,
#  words the failure detail must contain)
CASES = [
    pytest.param(
        "topology", family, "family_fiber_data", _wrong_genus, "closed form disagrees",
        id="topology",
    ),
    pytest.param(
        "topology", homology, "fiber_data", _wrong_genus, "genus value fails",
        id="topology-genus",
    ),
    pytest.param(
        # gcd(0, 0) = 0 at (1, 1, 0): a ZeroDivisionError on that class
        "topology", homology, "fiber_data",
        _with_counts(lambda x, y, z: (math.gcd(x, y + z), math.gcd(y, z + x), math.gcd(z, x - y))),
        "(1, 1, 0): fiber_data raised ZeroDivisionError", id="topology-gamma-count-raises",
    ),
    pytest.param(
        # norm - n_total is odd at (2, 1, -5): the genus formula raises
        "topology", homology, "fiber_data",
        _with_counts(lambda x, y, z: (math.gcd(x, y), math.gcd(y, z + x), math.gcd(z, x + y))),
        "(2, 1, -5): fiber_data raised RuntimeError", id="topology-alpha-count-raises",
    ),
    pytest.param(
        "topology", homology, "fiber_data", _unswapped_mirror,
        "(1, 2, -5): cusp symmetry fails", id="topology-sigma",
    ),
    pytest.param(
        # b_alpha = b_beta on the diagonal, so Euler-Poincare still balances
        "topology", homology, "fiber_data",
        _with_fields(
            lambda x, y, z, fd: {
                "prongs_alpha": fd.prongs_alpha + 1, "prongs_beta": fd.prongs_beta - 1
            } if x == y else {}
        ),
        "(1, 1, -6): cusp symmetry fails", id="topology-sigma-diagonal",
    ),
    pytest.param(
        # sigma fails, so the mirror's own checks run and name it
        "topology", homology, "fiber_data",
        _with_fields(lambda x, y, z, fd: {"genus": fd.genus + 1} if x > y else {}),
        "(2, 1, -5): genus value fails; (1, 2, -5): cusp symmetry fails",
        id="topology-mirror-genus",
    ),
    pytest.param(
        "topology", homology, "fiber_data",
        _with_fields(lambda x, y, z, fd: {"prongs_gamma": (x + y - z) // fd.b_gamma}),
        "(1, 1, -6): Euler-Poincare balance fails", id="topology-gamma-prongs",
    ),
    pytest.param(
        # sigma still holds, so only Euler-Poincare sees the counts and the
        # prongs disagree
        "topology", homology, "fiber_data",
        _with_fields(lambda x, y, z, fd: {"b_alpha": fd.b_beta, "b_beta": fd.b_alpha}),
        "(1, 4, -3): Euler-Poincare balance fails", id="topology-swapped-counts",
    ),
    pytest.param(
        "topology", homology, "fiber_data",
        _with_fields(
            lambda x, y, z, fd: {"prongs_alpha": fd.prongs_beta, "prongs_beta": fd.prongs_alpha}
        ),
        "(1, 4, -3): Euler-Poincare balance fails", id="topology-swapped-prongs",
    ),
    pytest.param(
        "rootcount", polynomials, "dilatation_poly", _third_sign_change,
        "sign variations != 2", id="rootcount-sign-variations",
    ),
    pytest.param(
        "rootcount", sturm, "shifted_half_variations", lambda orig: lambda f: 3,
        "3 sign variations", id="rootcount",
    ),
    pytest.param(
        "identity", polynomials, "family_poly", lambda orig: lambda g, p: orig(g, p + 1),
        "(g,p)=(0,0):", id="identity",
    ),
    pytest.param(
        "star", family, "_prime_factors", _drop_largest_prime,
        "g=10: prime-power oracle disagrees", id="star",
    ),
    pytest.param(
        # g = 3 lies below the equivalence sweep and is no anchor
        "star", family, "condition_star", lambda orig: lambda g: (False, 0) if g == 3 else orig(g),
        "g=3: brute-force oracle disagrees", id="star-half-range",
    ),
    pytest.param(
        "star", family, "_least_bad_s", _crt_sign_slip,
        "g=10: brute-force oracle disagrees", id="star-brute",
    ),
    pytest.param(
        # the verdict is right, so only the brute check sees the witness
        "star", family, "condition_star", _mirror_witness,
        "g=10: brute-force oracle disagrees", id="star-mirror-witness",
    ),
    pytest.param(
        "roots", roots, "unique_root_gt1", _shifted_root, "quartic root", id="roots",
    ),
    pytest.param(
        "bounds", family, "upper_bound_table", _no_witness, "g=2: no witness", id="bounds",
    ),
    pytest.param(
        "bounds", family, "bound_row", _smaller_p_witness,
        "g=2, n=3: witness p=0, largest qualifying p=1", id="bounds-smaller-p",
    ),
    pytest.param(
        "bounds", family, "family_dilatation", _not_decreasing,
        "g=2: brackets of p=3 and p=4 are not ordered", id="bounds-monotonicity",
    ),
    pytest.param(
        "bounds", family, "upper_bound_table", _spurious_gap,
        "g=2: no witness for n in [12], yet (*) holds", id="bounds-spurious-gap",
    ),
    pytest.param(
        "bounds", family, "is_primitive", _calls_7_4_primitive,
        "g=7, n=9: witness p=4, largest qualifying p=3", id="bounds-primitivity",
    ),
]


@pytest.mark.parametrize("suite", RUNS)
def test_suite_passes_on_the_package(suite):
    result = RUNS[suite]()
    assert result.passed, result.detail


@pytest.mark.parametrize("suite, module, name, defect, detail", CASES)
def test_suite_fails_on_an_injected_defect(suite, module, name, defect, detail, monkeypatch):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    result = RUNS[suite]()
    assert not result.passed, f"suite passed with a wrong {module.__name__}.{name}"
    assert detail in result.detail


def test_star_scans_each_genus_once(monkeypatch):
    calls = {"condition_star": [], "condition_star_brute": [], "condition_star_star": []}
    for name, log in calls.items():
        orig = getattr(family, name)
        monkeypatch.setattr(family, name, lambda g, orig=orig, log=log: log.append(g) or orig(g))
    result = verify.suite_star(equiv_max=50, brute_max=40)
    assert result.passed, result.detail
    assert calls == {
        "condition_star": list(range(2, 51)), "condition_star_brute": [], "condition_star_star": []
    }
    assert result.counts == {"equiv": 46, "brute": 39}


def test_sieve_oracles_match_the_definition():
    spf = verify._smallest_prime_factors(10_001)
    assert all(
        spf[k] == next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)
        for k in range(2, 10_002)
    )
    for g in range(2, 5001):
        primes = verify._distinct_primes(2 * g + 1, spf)
        scan = family.condition_star_brute(g)
        assert verify._least_failing_s(g, primes) == scan, g
        assert (len(primes) == 1) == scan[0], g


def test_topology_builds_each_fiber_once_and_no_polynomial(monkeypatch):
    calls, polys = [], []
    orig_fd, orig_poly = homology.fiber_data, polynomials.dilatation_poly

    def counted_fd(c):
        calls.append(c)
        return orig_fd(c)

    def counted_poly(c):
        polys.append(c)
        return orig_poly(c)

    monkeypatch.setattr(homology, "fiber_data", counted_fd)
    monkeypatch.setattr(polynomials, "dilatation_poly", counted_poly)
    result = verify.suite_topology(max_norm=12, max_gp=12)
    assert result.passed, result.detail
    assert result.counts == {"classes": 437, "pairs": 137}
    assert sorted(calls[:437]) == sorted(verify.iter_cone_classes(12))
    assert len(calls) == 437 + 137
    assert polys == []


def test_run_suites_takes_one_name_or_several_in_the_order_given():
    assert [r.name for r in verify.run_suites("roots")] == ["roots"]
    assert [r.name for r in verify.run_suites(("identity", "roots"))] == ["identity", "roots"]


@pytest.mark.parametrize("count", [0, 3])
def test_rootcount_failure_names_the_variation_count(count, monkeypatch):
    monkeypatch.setattr(sturm, "shifted_half_variations", lambda f: count)
    result = verify.suite_rootcount(samples=5)
    assert not result.passed
    assert f"{count} sign variations" in result.detail


def _not_a_palindrome(orig):
    # an extra -t keeps the signs +1, -, ..., -, +1 but breaks the symmetry
    return lambda c: polynomials.make_poly(orig(c).terms + ((1, -1),))


def test_rootcount_reports_a_polynomial_that_is_not_a_palindrome(monkeypatch):
    monkeypatch.setattr(
        polynomials, "dilatation_poly", _not_a_palindrome(polynomials.dilatation_poly)
    )
    result = verify.suite_rootcount(samples=5)
    assert not result.passed
    assert "palindrome" in result.detail
