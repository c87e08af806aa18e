"""Fiber topology and certified dilatations on the magic manifold's fibered cone.

Exact integer computations identify the fibered classes of the magic
3-manifold (the 3-chain link exterior) on one fibered face, compute the
topology of their fibers, and certify their pseudo-Anosov dilatations as
bracketed roots of explicit sparse integer polynomials.  The two-parameter
class family (p+g+1, 2p+1, p-g) turns those roots into rigorous upper-bound
tables for minimal dilatations of genus-g, n-punctured surfaces, and the
asymptotics module verifies the expected root growth over finite sweeps.
"""

import importlib

__version__ = "0.1.0"

# The kernel is pure Python only; the name stays because run records report it.
KERNEL_BACKEND = "python"

# Public name -> the module that defines it.  A name is imported on first
# access (PEP 562), so ``import magicfiber`` loads none of the modules and
# the CLI pays only for the subcommand it runs.
_EXPORTS = {
    "FiberedClass": "homology",
    "FiberData": "homology",
    "NotInConeError": "homology",
    "NotPrimitiveError": "homology",
    "thurston_norm": "homology",
    "in_fibered_cone": "homology",
    "is_primitive": "homology",
    "boundary_counts": "homology",
    "fiber_data": "homology",
    "euler_poincare_check": "homology",
    "SparsePoly": "polynomials",
    "make_poly": "polynomials",
    "dilatation_poly": "polynomials",
    "family_poly": "polynomials",
    "sign_variations": "polynomials",
    "DEFAULT_BITS": "roots",
    "DEFAULT_MAX_BITS": "roots",
    "DEFAULT_TOL": "roots",
    "PrecisionError": "roots",
    "Enclosure": "roots",
    "CertifiedRoot": "roots",
    "evaluate_certified": "roots",
    "unique_root_gt1": "roots",
    "STURM_DEGREE_CAP": "sturm",
    "sturm_count": "sturm",
    "BoundRow": "family",
    "family_class": "family",
    "family_fiber_data": "family",
    "no_one_prong": "family",
    "family_dilatation": "family",
    "filled_variants": "family",
    "condition_star": "family",
    "condition_star_brute": "family",
    "condition_star_star": "family",
    "bound_row": "family",
    "upper_bound_table": "family",
    "b_family": "asymptotics",
    "BracketReport": "asymptotics",
    "bracket_check": "asymptotics",
    "RatioRow": "asymptotics",
    "RatioTable": "asymptotics",
    "ratio_table": "asymptotics",
}

__all__ = ["__version__", "KERNEL_BACKEND", *_EXPORTS]


def __getattr__(name):
    # Not cached here: a wrapper patched into the home module stays the one
    # returned, and restoring the module restores this name too.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
