"""The verify suites must fail when the code they check is wrong.

Acceptance criteria 1-6 only assert the verdicts of the suites, so a suite
that passed vacuously would pass them too.  Each suite runs here at small
parameters, once as it is and once with one defect injected into the code
it checks.
"""

from fractions import Fraction

import pytest

from magicfiber import family, polynomials, roots, sturm, verify


def _wrong_genus(orig):
    return lambda g, p: orig(g, p)._replace(genus=orig(g, p).genus + 1)


def _shifted_root(orig):
    shift = Fraction(1, 1024)

    def shifted(f, tol, **kwargs):
        r = orig(f, tol, **kwargs)
        return r._replace(lo=r.lo + shift, hi=r.hi + shift, value=r.value + shift)

    return shifted


def _no_witness(orig):
    def table(*args, **kwargs):
        return [row._replace(record=None) for row in orig(*args, **kwargs)]

    return table


# (suite run, module, attribute, defect built from the original attribute)
CASES = [
    pytest.param(
        lambda: verify.suite_topology(max_norm=8, max_gp=8),
        family, "family_fiber_data", _wrong_genus, id="topology",
    ),
    pytest.param(
        lambda: verify.suite_rootcount(samples=5),
        sturm, "shifted_half_variations", lambda orig: lambda f: 3, id="rootcount",
    ),
    pytest.param(
        lambda: verify.suite_identity(max_g=3, max_p=3),
        polynomials, "family_poly", lambda orig: lambda g, p: orig(g, p + 1), id="identity",
    ),
    pytest.param(
        lambda: verify.suite_star(equiv_max=50, brute_max=20),
        family, "condition_star_star", lambda orig: lambda g: not orig(g), id="star",
    ),
    pytest.param(verify.suite_roots, roots, "unique_root_gt1", _shifted_root, id="roots"),
    pytest.param(
        lambda: verify.suite_bounds(gs=(2,), n_max=12),
        family, "upper_bound_table", _no_witness, id="bounds",
    ),
]


@pytest.mark.parametrize("run, module, name, defect", CASES)
def test_suite_passes_on_the_package(run, module, name, defect):
    result = run()
    assert result.passed, result.detail


@pytest.mark.parametrize("run, module, name, defect", CASES)
def test_suite_fails_on_an_injected_defect(run, module, name, defect, monkeypatch):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    result = run()
    assert not result.passed, f"suite passed with a wrong {module.__name__}.{name}"


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
