"""Arithmetic of the first Heisenberg group.

Points (x, y, t) compose by the noncommutative law

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + 2(x'y - xy')),

with identity e = (0, 0, 0) and inverse (-x, -y, -t).  The anisotropic
dilations delta_lam(x, y, t) = (lam*x, lam*y, lam^2*t) are group
homomorphisms.  Horizontal vectors v = (a, b) exponentiate onto the plane
t = 0; left translating gives the horizontal plane of a point, the set it
can reach in one horizontal step.  On top of that this module provides
the Koranyi and Euclidean norms, the shared numeric tolerances and the
number kits FLOATS and ARRAYS, from which one formula takes sqrt, sin, cos
and the rest for a point and for coordinate arrays alike, with the same
rounding.  No state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class Point3(NamedTuple):
    """A group point (x, y, t); x, y horizontal, t vertical."""

    x: float
    y: float
    t: float


class HVec(NamedTuple):
    """A horizontal vector, coefficients of the two horizontal fields."""

    a: float
    b: float


ORIGIN = Point3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Tolerances:
    """Numeric slack shared by every check.

    eps_eq is equality-of-reals slack, eps_geom is membership/boundary
    slack, max_iter caps bisection loops.  Invariant: eps_geom >= eps_eq >
    0, and eps_geom and its square are finite (membership tests compare
    squared distances with eps_geom^2).
    Frozen: oracles capture eps_geom when they are built, so a shared
    instance such as DEFAULT_TOL must never change afterwards.
    """

    eps_geom: float = 1e-7
    eps_eq: float = 1e-9
    max_iter: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.eps_geom * self.eps_geom) and self.eps_geom >= self.eps_eq > 0.0):
            raise ValueError(
                "tolerances must be finite, with eps_geom^2 finite, and satisfy eps_geom >= eps_eq > 0, got "
                f"eps_geom={self.eps_geom}, eps_eq={self.eps_eq}"
            )
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


DEFAULT_TOL = Tolerances()


class Kit(NamedTuple):
    """The functions a formula takes beyond arithmetic, comparisons and abs."""

    sqrt: Callable
    sin: Callable
    cos: Callable
    copysign: Callable
    max: Callable
    min: Callable


FLOATS = Kit(math.sqrt, math.sin, math.cos, math.copysign, max, min)
ARRAYS = Kit(np.sqrt, np.sin, np.cos, np.copysign, np.maximum, np.minimum)


def group_mul(p: Point3, q: Point3) -> Point3:
    """Group product p o q, on floats, arrays that broadcast, or Fractions."""
    return Point3(p.x + q.x, p.y + q.y, p.t + q.t + 2 * (q.x * p.y - p.x * q.y))


def scale(lam, x, y, t, scaling: str = "heisenberg"):
    """(lam*x, lam*y, lam*lam*t), or (lam*x, lam*y, lam*t) for "euclidean":
    the one dilation formula, in plain arithmetic on floats, arrays that
    broadcast, or Fractions (which stay exact).  Other scalings raise ValueError."""
    if scaling == "heisenberg":
        return lam * x, lam * y, lam * lam * t
    if scaling == "euclidean":
        return lam * x, lam * y, lam * t
    raise ValueError(f"unknown scaling {scaling!r}")


def dilate(lam: float, p: Point3) -> Point3:
    """Anisotropic dilation (lam*x, lam*y, lam^2*t).

    Args:
        lam: scale factor, must be >= 0.
        p: point to scale.

    Raises:
        ValueError: on negative lam.
    """
    if lam < 0.0:
        raise ValueError(f"dilation factor must be nonnegative, got {lam}")
    return Point3(*scale(lam, p.x, p.y, p.t))


def exp_h(v: HVec) -> Point3:
    """Exponential of a horizontal vector, (a, b) -> (a, b, 0), on floats, arrays that broadcast, or Fractions."""
    return Point3(v.a, v.b, 0)


def norm(p: Point3, kind: str = "koranyi", k: Kit = FLOATS) -> float:
    """A norm of p: "koranyi" or "euclidean".

    koranyi: ((x^2+y^2)^2 + t^2)^(1/4), homogeneous of degree one under
    dilations, as two square roots; euclidean: |(x,y,t)|_E.  With k=ARRAYS,
    p holds coordinate arrays.
    """
    if kind == "koranyi":
        rho2 = p.x * p.x + p.y * p.y
        return k.sqrt(k.sqrt(rho2 * rho2 + p.t * p.t))
    if kind == "euclidean":
        return k.sqrt(p.x * p.x + p.y * p.y + p.t * p.t)
    raise ValueError(f"unknown norm kind {kind!r}")
