"""Exact integer topology of fibered classes of the magic manifold.

Classes in the second relative homology of the magic manifold N (the exterior
of the 3-chain link) are written as integer coordinate triples (x, y, z) in
the standard basis of oriented 2-holed disks, one per link component.  The
Thurston norm ball of N is the parallelepiped with vertices at the eight
points +-(1,0,0), +-(0,1,0), +-(0,0,1), +-(1,1,1); the fibered face used
throughout this package is the one whose open cone is cut out by

    x > 0,  y > 0,  x > z,  y > z,

on which the norm is exactly x + y - z.  For a primitive class in that open
cone this module computes the full topology of the fiber: the number of fiber
boundary components on each cusp torus (a gcd formula), the genus, and the
number of prongs of the stable foliation at each boundary component.

One routine, ``_checked``, holds the coordinate rules (each an ``int``, at
most 2**62 in absolute value); ``FiberedClass`` runs it at construction and
the tuple path of ``_cone_coords`` runs it on the unpacked triple, so a
class is checked once, as plain ints, whichever form it comes in.  The
checks run in one order: type, range, cone, primitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MAX_COORD",
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
]

# Coordinates beyond this are rejected rather than risking silent misuse in
# downstream formulas tuned for desk-scale sweeps.
MAX_COORD = 1 << 62


class NotInConeError(ValueError):
    """Class lies outside the open fibered cone."""


class NotPrimitiveError(ValueError):
    """Class is zero or a proper multiple of an integral class."""


def _checked(x, y, z) -> None:
    """The coordinate rules: each an int, of absolute value at most MAX_COORD."""
    for v in (x, y, z):
        if not isinstance(v, int):
            raise TypeError(f"coordinates must be integers, got {v!r}")
        if abs(v) > MAX_COORD:
            raise ValueError(f"coordinate {v} exceeds the supported range 2**62")


@dataclass(frozen=True)
class FiberedClass:
    """An integral class (x, y, z) in the basis of the three disk classes."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        _checked(self.x, self.y, self.z)

    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __mul__(self, k: int) -> "FiberedClass":
        return FiberedClass(k * self.x, k * self.y, k * self.z)

    __rmul__ = __mul__


@dataclass(frozen=True)
class FiberData:
    """Topology of the minimal representative of a primitive fibered class.

    ``b_alpha``, ``b_beta``, ``b_gamma`` count fiber boundary components on
    the three cusp tori; ``prongs_*`` is the number of stable-foliation
    prongs at each such component (constant per torus, since the monodromy
    permutes the components on a torus cyclically).  The foliation has no
    interior singularities, so all singularity data lives in these counts.
    """

    norm: int
    b_alpha: int
    b_beta: int
    b_gamma: int
    n_total: int
    genus: int
    prongs_alpha: int
    prongs_beta: int
    prongs_gamma: int


def as_fibered_class(c) -> FiberedClass:
    """Coerce a FiberedClass or an (x, y, z) triple."""
    if isinstance(c, FiberedClass):
        return c
    x, y, z = c
    return FiberedClass(x, y, z)


def thurston_norm(c) -> int:
    """Thurston norm of an arbitrary integral class.

    The three facet functionals of the norm ball are x+y-z, x-y+z, -x+y+z;
    the norm is the max of their absolute values.  On the fibered cone this
    reduces to x+y-z.
    """
    x, y, z = as_fibered_class(c).coords()
    return max(abs(x + y - z), abs(x - y + z), abs(-x + y + z))


def in_fibered_cone(c) -> bool:
    """True iff the class lies in the open cone over the fibered face."""
    return _in_cone(*as_fibered_class(c).coords())


def _in_cone(x: int, y: int, z: int) -> bool:
    return x > 0 and y > 0 and x > z and y > z


def is_primitive(c) -> bool:
    """True iff gcd(|x|, |y|, |z|) = 1.  The zero class is rejected."""
    x, y, z = as_fibered_class(c).coords()
    if x == 0 and y == 0 and z == 0:
        raise NotPrimitiveError("the zero class has no primitivity")
    return math.gcd(x, y, z) == 1


def _cone_coords(c) -> tuple[int, int, int]:
    """The checked coordinates of a FiberedClass or triple in the open cone."""
    if isinstance(c, FiberedClass):
        x, y, z = c.x, c.y, c.z  # checked at construction
    else:
        x, y, z = c
        _checked(x, y, z)
    if not _in_cone(x, y, z):
        raise NotInConeError(f"{(x, y, z)} is not in the open fibered cone")
    return x, y, z


def _require_fiber(c) -> tuple[int, int, int]:
    """The coordinates of a primitive class in the open cone."""
    x, y, z = _cone_coords(c)
    if math.gcd(x, y, z) != 1:
        raise NotPrimitiveError(f"{(x, y, z)} is not primitive")
    return x, y, z


def boundary_counts(c) -> tuple[int, int, int]:
    """Boundary components of the fiber on each cusp torus.

    (gcd(x, y+z), gcd(y, z+x), gcd(z, x+y)), with gcd(0, w) = |w|.
    Requires a primitive class in the open cone.
    """
    x, y, z = _require_fiber(c)
    return (math.gcd(x, y + z), math.gcd(y, z + x), math.gcd(z, x + y))


def fiber_data(c) -> FiberData:
    """Full fiber topology of a primitive class in the open cone."""
    x, y, z = _require_fiber(c)
    norm = x + y - z
    ba, bb, bg = (math.gcd(x, y + z), math.gcd(y, z + x), math.gcd(z, x + y))
    n_total = ba + bb + bg
    if (norm - n_total) % 2 != 0 or norm + 2 < n_total:
        raise RuntimeError(
            f"genus formula failed for {(x, y, z)}: norm={norm}, boundary={n_total}"
        )
    genus = (2 - n_total + norm) // 2
    # gcd(x, y+z) divides x, and gcd(z, x+y) divides x+y-2z, so these are exact.
    return FiberData(
        norm=norm,
        b_alpha=ba,
        b_beta=bb,
        b_gamma=bg,
        n_total=n_total,
        genus=genus,
        prongs_alpha=x // ba,
        prongs_beta=y // bb,
        prongs_gamma=(x + y - 2 * z) // bg,
    )


def euler_poincare_check(d: FiberData) -> bool:
    """Singularity bookkeeping balance for the stable foliation.

    With no interior singularities, the boundary prong data must satisfy
    sum over boundary components of (2 - prongs) = 2 * (n_total - norm).
    """
    lhs = (
        d.b_alpha * (2 - d.prongs_alpha)
        + d.b_beta * (2 - d.prongs_beta)
        + d.b_gamma * (2 - d.prongs_gamma)
    )
    return lhs == 2 * (d.n_total - d.norm)
