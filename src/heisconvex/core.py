"""Arithmetic of the first Heisenberg group.

Points (x, y, t) compose by the noncommutative law

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + 2(x'y - xy')),

with identity e = (0, 0, 0) and inverse (-x, -y, -t).  The anisotropic
dilations delta_lam(x, y, t) = (lam*x, lam*y, lam^2*t) are group
homomorphisms.  Horizontal vectors v = (a, b) exponentiate onto the plane
t = 0; left translating gives the horizontal plane of a point, the set it
can reach in one horizontal step.  On top of that this module provides the
homogeneous norms, the Euclidean projection pair onto a horizontal line
through the origin, and membership in the intrinsic open cones built from
that pair.

Everything here is pure scalar arithmetic on small tuples; no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional


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
    slack, max_iter caps bisection loops.  Invariant: eps_geom >= eps_eq > 0.
    Frozen: oracles capture eps_geom when they are built, so a shared
    instance such as DEFAULT_TOL must never change afterwards.
    """

    eps_geom: float = 1e-7
    eps_eq: float = 1e-9
    max_iter: int = 60

    def __post_init__(self):
        if not (self.eps_geom >= self.eps_eq > 0.0):
            raise ValueError(
                "tolerances must satisfy eps_geom >= eps_eq > 0, got "
                f"eps_geom={self.eps_geom}, eps_eq={self.eps_eq}"
            )
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


DEFAULT_TOL = Tolerances()


@dataclass
class HorizontalLine:
    """A horizontal line: base point plus a unit horizontal direction.

    The direction is normalized on construction; a zero direction is
    rejected.
    """

    direction: HVec
    base: Point3 = ORIGIN

    def __post_init__(self):
        a, b = self.direction
        n = math.hypot(a, b)
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("horizontal line needs a nonzero finite direction")
        self.direction = HVec(a / n, b / n)

    def through_origin(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """Whether the line passes through the group identity.

        The line {base o exp_h(s * direction)} hits e iff the base's
        planar part is parallel to the direction and its t part vanishes.
        """
        bx, by, bt = self.base
        wa, wb = self.direction
        scale = 1.0 + abs(bx) + abs(by)
        return abs(bx * wb - by * wa) <= tol.eps_eq * scale and abs(bt) <= tol.eps_eq


def x_axis() -> HorizontalLine:
    return HorizontalLine(HVec(1.0, 0.0))


def group_mul(p: Point3, q: Point3) -> Point3:
    """Group product p o q."""
    return Point3(p.x + q.x, p.y + q.y, p.t + q.t + 2.0 * (q.x * p.y - p.x * q.y))


def group_inv(p: Point3) -> Point3:
    """Group inverse (-x, -y, -t)."""
    return Point3(-p.x, -p.y, -p.t)


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
    return Point3(lam * p.x, lam * p.y, lam * lam * p.t)


def exp_h(v: HVec) -> Point3:
    """Exponential of a horizontal vector: (a, b) -> (a, b, 0)."""
    return Point3(v.a, v.b, 0.0)


def horizontal_plane_t(p: Point3, x: float, y: float) -> float:
    """Height of the horizontal plane of p above planar point (x, y)."""
    return p.t + 2.0 * (p.y * x - p.x * y)


def horizontal_reach(p: Point3, q: Point3, tol: Tolerances = DEFAULT_TOL) -> Optional[HVec]:
    """The horizontal step from p to q, if one exists.

    q is reachable iff it lies on the horizontal plane of p, tested with
    absolute tolerance eps_geom scaled by (1 + |p|_E + |q|_E) so the test
    stays meaningful far from the origin.

    Returns:
        v with q = p o exp_h(v), namely (q.x - p.x, q.y - p.y), or None
        when q is off the plane.
    """
    scale = 1.0 + norm(p, "euclidean") + norm(q, "euclidean")
    if abs(q.t - horizontal_plane_t(p, q.x, q.y)) > tol.eps_geom * scale:
        return None
    return HVec(q.x - p.x, q.y - p.y)


def norm(p: Point3, kind: str = "koranyi") -> float:
    """A norm of p: "koranyi", "quasi", or "euclidean".

    koranyi: ((x^2+y^2)^2 + t^2)^(1/4); quasi: max(|(x,y)|_E, |t|^(1/2));
    euclidean: |(x,y,t)|_E.  The first two are homogeneous of degree one
    under dilations.
    """
    if kind == "koranyi":
        rho2 = p.x * p.x + p.y * p.y
        return (rho2 * rho2 + p.t * p.t) ** 0.25
    if kind == "quasi":
        return max(math.hypot(p.x, p.y), math.sqrt(abs(p.t)))
    if kind == "euclidean":
        return math.sqrt(p.x * p.x + p.y * p.y + p.t * p.t)
    raise ValueError(f"unknown norm kind {kind!r}")


def proj_pair(r: HorizontalLine, p: Point3, tol: Tolerances = DEFAULT_TOL) -> tuple[Point3, Point3]:
    """Split p across a horizontal line through the origin.

    Args:
        r: line through e (validated).
        p: point to split.

    Returns:
        (proj, perp) where proj is the Euclidean orthogonal projection of
        p onto the line and perp is the unique group element with
        p = perp o proj.
    """
    if not r.through_origin(tol):
        raise ValueError("projection pair requires a line through the origin")
    wa, wb = r.direction
    s = p.x * wa + p.y * wb
    proj = Point3(s * wa, s * wb, 0.0)
    perp = group_mul(p, group_inv(proj))
    return proj, perp


def cone_contains(
    vertex: Point3,
    r: HorizontalLine,
    alpha: float,
    h: float,
    p: Point3,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Membership in the open cone with the given vertex, axis, aperture, height.

    For vertex e the cone is the set of points whose quasi-norm split
    against the axis satisfies |perp|_q < alpha * |proj|_q < alpha * h;
    a general vertex left-translates p back first.  Inequalities are
    strict minus eps_eq, so boundary points never flicker in.
    """
    if alpha <= 0.0 or h <= 0.0:
        raise ValueError("cone aperture and height must be positive")
    q = group_mul(group_inv(vertex), p)
    proj, perp = proj_pair(r, q, tol)
    a_proj = alpha * norm(proj, "quasi")
    return (
        norm(perp, "quasi") < a_proj - tol.eps_eq
        and a_proj < alpha * h - tol.eps_eq
    )
