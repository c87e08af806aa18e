"""The verify suites must fail when the code they check is wrong.

Acceptance criteria 1-6 only assert the verdicts of the suites, so a suite
that passed vacuously would pass them too.  Each suite runs here at small
parameters, once as it is and once with one defect injected into the code
it checks.
"""

import dataclasses
from fractions import Fraction

import pytest

from magicfiber import family, polynomials, roots, sturm, verify


def _wrong_genus(orig):
    return lambda g, p: dataclasses.replace(orig(g, p), genus=orig(g, p).genus + 1)


def _shifted_root(orig):
    shift = Fraction(1, 1024)

    def shifted(f, tol, **kwargs):
        r = orig(f, tol, **kwargs)
        return dataclasses.replace(r, lo=r.lo + shift, hi=r.hi + shift, value=r.value + shift)

    return shifted


def _no_witness(orig):
    def table(*args, **kwargs):
        return [dataclasses.replace(row, record=None) for row in orig(*args, **kwargs)]

    return table


# (suite run, module, attribute, defect built from the original attribute)
CASES = [
    pytest.param(
        lambda: verify.suite_topology(max_norm=8, max_gp=8),
        family, "family_fiber_data", _wrong_genus, id="topology",
    ),
    pytest.param(
        lambda: verify.suite_rootcount(samples=5),
        sturm, "sturm_count", lambda orig: lambda *args: 3, id="rootcount",
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


def test_rootcount_reports_a_degree_over_the_sturm_cap(monkeypatch):
    monkeypatch.setattr(sturm, "STURM_DEGREE_CAP", 3)
    result = verify.suite_rootcount(samples=5)
    assert not result.passed
    assert "exceeds the Sturm cap" in result.detail

