"""Fiber topology and certified dilatations on the magic manifold's fibered cone.

Exact integer computations identify the fibered classes of the magic
3-manifold (the 3-chain link exterior) on one fibered face, compute the
topology of their fibers, and certify their pseudo-Anosov dilatations as
bracketed roots of explicit sparse integer polynomials.  The two-parameter
class family (p+g+1, 2p+1, p-g) turns those roots into rigorous upper-bound
tables for minimal dilatations of genus-g, n-punctured surfaces, and the
asymptotics module verifies the expected root growth over finite sweeps.
"""

from .asymptotics import (
    BracketReport,
    RatioRow,
    RatioTable,
    b_family,
    bracket_check,
    ratio_table,
)
from .family import (
    BoundRecord,
    BoundRow,
    FamilyClass,
    bound_row,
    condition_star,
    condition_star_brute,
    condition_star_star,
    family_class,
    family_dilatation,
    family_fiber_data,
    filled_variants,
    no_one_prong,
    upper_bound_table,
)
from .homology import (
    FiberData,
    FiberedClass,
    NotInConeError,
    NotPrimitiveError,
    boundary_counts,
    euler_poincare_check,
    fiber_data,
    in_fibered_cone,
    is_primitive,
    thurston_norm,
)
from .polynomials import (
    SparsePoly,
    dilatation_poly,
    family_poly,
    make_poly,
    sign_variations,
)
from .roots import (
    DEFAULT_BITS,
    DEFAULT_MAX_BITS,
    DEFAULT_TOL,
    CertifiedRoot,
    Enclosure,
    PrecisionError,
    evaluate_certified,
    unique_root_gt1,
)
from .sturm import STURM_DEGREE_CAP, sturm_count

__version__ = "0.1.0"

# The kernel is pure Python only; the name stays because run records report it.
KERNEL_BACKEND = "python"

__all__ = [
    "__version__",
    "KERNEL_BACKEND",
    "FiberedClass",
    "FiberData",
    "NotInConeError",
    "NotPrimitiveError",
    "thurston_norm",
    "in_fibered_cone",
    "is_primitive",
    "boundary_counts",
    "fiber_data",
    "euler_poincare_check",
    "SparsePoly",
    "make_poly",
    "dilatation_poly",
    "family_poly",
    "sign_variations",
    "DEFAULT_BITS",
    "DEFAULT_MAX_BITS",
    "DEFAULT_TOL",
    "PrecisionError",
    "Enclosure",
    "CertifiedRoot",
    "evaluate_certified",
    "unique_root_gt1",
    "STURM_DEGREE_CAP",
    "sturm_count",
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
    "b_family",
    "BracketReport",
    "bracket_check",
    "RatioRow",
    "RatioTable",
    "ratio_table",
]
