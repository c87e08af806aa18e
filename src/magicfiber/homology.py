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

The fiber data obeys two identities, which ``verify topology`` checks on a
sweep.

Parity: norm = n_total (mod 2), so the genus (2 - n_total + norm) / 2 is an
integer.  gcd(a, b) is odd iff a or b is odd: two even numbers share the
factor 2, and a divisor of an odd number is odd.  Both n_total =
gcd(x, y+z) + gcd(y, z+x) + gcd(z, x+y) and norm = x+y-z = x+y+z (mod 2)
are symmetric in x, y, z mod 2, so the seven parity classes of a primitive
class reduce to three.  With one odd coordinate every gcd has an odd
argument, so n_total = 1 = norm.  With two, the two gcds of the odd
coordinates are odd and gcd(even, odd + odd) is even, so n_total = 0 =
norm.  With three, all three gcds are odd, so n_total = 1 = norm.

Cusp symmetry sigma: (x, y, z) -> (y, x, z) fixes the open cone, the norm
and primitivity, and fiber_data(y, x, z) is fiber_data(x, y, z) with the
alpha and beta fields exchanged.  b_alpha(y, x, z) = gcd(y, x+z) =
b_beta(x, y, z), b_beta(y, x, z) = gcd(x, z+y) = b_alpha(x, y, z), and
b_gamma = gcd(z, x+y) is symmetric in x and y; so n_total and the genus are
unchanged.  The prongs follow: prongs_alpha(y, x, z) = y / b_beta(x, y, z)
= prongs_beta(x, y, z), likewise for beta, and prongs_gamma =
(x+y-2z) / b_gamma is symmetric.  The other face symmetry, (x, y, z) ->
(x-z, y-z, -z), fixes the dilatation polynomial but not the fiber topology.

One routine, ``_checked``, holds the coordinate rules: each an ``int``
(a ``bool`` is not taken), at most 2**62 in absolute value.
``FiberedClass.__new__`` runs it at every construction, ``_replace`` and
unpickling included, and every function here that computes from a class
reads it through one reader, ``_coords``, which unpacks a triple or a
``FiberedClass`` alike and runs ``_checked`` on the result.  The checks
run in one order: type, range, cone, primitivity.  ``_int_arg`` holds the
rule for the package's integer arguments (a genus g, a family index p, a
puncture count n, an index m): an ``int``, not a ``bool``, and at least a
stated least value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
        if type(v) is not int:
            raise TypeError(f"coordinates must be integers, got {v!r}")
        if abs(v) > MAX_COORD:
            raise ValueError(f"coordinate {v} exceeds the supported range 2**62")


def _coords(c) -> tuple[int, int, int]:
    """The checked coordinates of a FiberedClass or an (x, y, z) triple."""
    x, y, z = c
    _checked(x, y, z)
    return x, y, z


def _int_arg(v, name: str, least: int = 0) -> None:
    """The integer-argument rule: an int, not a bool, of at least ``least``."""
    if type(v) is not int or v < least:
        raise ValueError(f"need an int {name} >= {least}, not {v!r}")


class _Coords(NamedTuple):
    x: int
    y: int
    z: int


# A NamedTuple body cannot define __new__, so the checks live in a subclass.
class FiberedClass(_Coords):
    """An integral class (x, y, z) in the basis of the three disk classes."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        _checked(x, y, z)
        return super().__new__(cls, x, y, z)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __mul__(self, k: int) -> "FiberedClass":
        return FiberedClass(k * self.x, k * self.y, k * self.z)

    __rmul__ = __mul__


class FiberData(NamedTuple):
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
    return c if isinstance(c, FiberedClass) else FiberedClass(*c)


def thurston_norm(c) -> int:
    """Thurston norm of an arbitrary integral class.

    The three facet functionals of the norm ball are x+y-z, x-y+z, -x+y+z;
    the norm is the max of their absolute values.  On the fibered cone this
    reduces to x+y-z.
    """
    x, y, z = _coords(c)
    return max(abs(x + y - z), abs(x - y + z), abs(-x + y + z))


def in_fibered_cone(c) -> bool:
    """True iff the class lies in the open cone over the fibered face."""
    return _in_cone(*_coords(c))


def _in_cone(x: int, y: int, z: int) -> bool:
    return x > 0 and y > 0 and x > z and y > z


def is_primitive(c) -> bool:
    """True iff gcd(|x|, |y|, |z|) = 1.  The zero class is rejected."""
    x, y, z = _coords(c)
    if x == 0 and y == 0 and z == 0:
        raise NotPrimitiveError("the zero class has no primitivity")
    return math.gcd(x, y, z) == 1


def _cone_coords(c) -> tuple[int, int, int]:
    """The checked coordinates of a FiberedClass or triple in the open cone."""
    x, y, z = _coords(c)
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

    The three counts of ``fiber_data(c)``: (gcd(x, y+z), gcd(y, z+x),
    gcd(z, x+y)), with gcd(0, w) = |w|.  Requires a primitive class in the
    open cone.
    """
    d = fiber_data(c)
    return d.b_alpha, d.b_beta, d.b_gamma


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
    # Positional, in field order: norm, b_alpha..b_gamma, n_total, genus, prongs_*.
    return FiberData(
        norm, ba, bb, bg, n_total, genus, x // ba, y // bb, (x + y - 2 * z) // bg
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
