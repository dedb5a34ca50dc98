"""Compact candidate sets as membership oracles.

A set is a predicate on points plus a finite bounding box and some
metadata; radial sets additionally carry their profile in the (r, t)
half-plane.  The module ships a small gallery of reference sets, checks
the three standing assumptions on a candidate set by seeded sampling

    a. compact with the identity interior,
    b. star-shaped under dilations: dilate(tau, K) inside K for tau in (0,1),
    c. horizontally convex: horizontal segments with endpoints in K stay in K,

and provides the sampling utilities (rejection sampling, boundary points
and dilation levels, exact from a set's level formula or bisected, escape
tests, the chunked horizontal line and probe streams) shared by the
falsifiers in the other modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    ARRAYS,
    DEFAULT_TOL,
    FLOATS,
    HVec,
    Kit,
    ORIGIN,
    Point3,
    Tolerances,
    dilate,
    exp_h,
    group_mul,
    norm,
    scale,
)

Bbox = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
Kernel = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
Formula = Callable[[Point3, Kit], bool]


@dataclass
class RadialProfile:
    """A rotation-invariant set described in the (r, t) half-plane.

    inside(r, t, k) is its one membership formula over the kit k, so
    contains2d_many is contains2d on arrays of one shape, element for
    element: radial_to_oracle turns it into the oracle's array kernel, and
    chcheck.radial_necessary scans and bisects all its heights through it.
    A polygon profile's inside is one such function over its edge tables:
    the crossing parity of every point, then the near test only on the
    (edge, point) pairs beside an edge whose point the parity leaves
    outside; edge by edge on floats and large arrays, one all-edge
    broadcast on small ones.
    """

    inside: Callable[[float, float, Kit], bool]
    r_max: float
    t_range: tuple[float, float]

    def contains2d(self, r: float, t: float) -> bool:
        return self.inside(r, t, FLOATS)

    def contains2d_many(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.inside(r, t, ARRAYS)


@dataclass
class SetOracle:
    """A candidate set: membership predicate, bounding box, metadata.

    The bounding box is the compactness proxy: for compact oracles the
    predicate is false outside it.  Non-compact sets (the slab) keep a
    truncated box for sampling and are flagged is_compact=False.  A set is
    radial exactly when it carries a profile.

    level(p, k), where known, is the dilation level of the set without
    slack, one formula in arithmetic and the kit's functions (importante's
    runs a fixed number of Newton steps): FLOATS and ARRAYS agree.

    contains_many(x, y, t) is the vectorized predicate: it takes coordinate
    arrays of one shape and returns a bool array of that shape, equal to
    contains element for element.  Every oracle this module builds has an
    array kernel for it; an oracle built from a bare scalar predicate
    (kernel=None) falls back to a row loop over contains.  The batch
    falsifier (chcheck.falsify_ch) tests all its points this way, in
    streams where pair i depends only on (seed, i).
    """

    contains: Callable[[Point3], bool]
    bbox: Bbox
    label: str
    is_compact: bool = True
    profile: Optional[RadialProfile] = None
    level: Optional[Callable[[Point3, Kit], float]] = None
    kernel: Optional[Kernel] = None

    def contains_many(self, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
        if self.kernel is not None:
            return self.kernel(x, y, t)
        x, y, t = np.broadcast_arrays(x, y, t)
        rows = zip(x.ravel().tolist(), y.ravel().tolist(), t.ravel().tolist())
        return np.array([self.contains(Point3(*row)) for row in rows], dtype=bool).reshape(x.shape)


@dataclass
class SegmentEscape:
    """A horizontal segment leaving K.

    escape_point = base o exp_h(theta v) escapes K; margin is how far
    outside, in dilation-level units (inf when the level bisection diverges).
    """

    base: Point3
    v: HVec
    theta: float
    escape_point: Point3
    margin: float


@dataclass
class DilationEscape:
    """A point of K whose dilate by tau in (0, 1) is not in K."""

    point: Point3
    tau: float


@dataclass
class AxiomReport:
    """Outcome of the a/b/c assumption checks on one set."""

    a_holds: bool
    b_holds: bool
    hconvex_witness: Optional[SegmentEscape]
    samples_used: int
    seed: int
    b_witness: Optional[DilationEscape] = None

    @property
    def c_holds(self) -> bool:
        return self.hconvex_witness is None


def bbox_diameter(bbox: Bbox) -> float:
    dx = bbox[0][1] - bbox[0][0]
    dy = bbox[1][1] - bbox[1][0]
    dt = bbox[2][1] - bbox[2][0]
    return norm(Point3(dx, dy, dt), "euclidean")


def bbox_scale(bbox: Bbox) -> float:
    return max(abs(v) for pair in bbox for v in pair)


def _formula_oracle(
    inside: Formula, bbox: Bbox, label: str, radial: Optional[tuple[float, tuple[float, float]]] = None, **meta
) -> SetOracle:
    """An oracle whose membership is one formula inside(p, k=FLOATS).

    The formula uses only arithmetic, comparisons, & and abs, plus what it
    takes from the kit k, so the same function tests a Point3 of floats
    (contains) and, with k=ARRAYS, a Point3 of arrays (contains_many) with
    identical rounding.  A radial set passes (r_max, t_range) as radial and
    gets the formula at y = 0 as its profile.
    """
    kernel = lambda x, y, t: inside(Point3(x, y, t), ARRAYS)
    if radial is not None:
        meta["profile"] = RadialProfile(lambda r, t, k: inside(Point3(r, 0.0, t), k), *radial)
    return SetOracle(inside, bbox, label, kernel=kernel, **meta)


def box_oracle(bbox: Bbox, label: str = "box") -> SetOracle:
    """Axis-aligned box as an oracle; handy as a sampling domain."""
    (xlo, xhi), (ylo, yhi), (tlo, thi) = bbox

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        return (xlo <= p.x) & (p.x <= xhi) & (ylo <= p.y) & (p.y <= yhi) & (tlo <= p.t) & (p.t <= thi)

    return _formula_oracle(inside, bbox, label)


# ---------------------------------------------------------------------------
# gallery


def _pad(b: float) -> float:
    return b + 1e-5 * (1.0 + abs(b))


def _sym_bbox(hx: float, hy: float, ht: float) -> Bbox:
    return ((-_pad(hx), _pad(hx)), (-_pad(hy), _pad(hy)), (-_pad(ht), _pad(ht)))


def _koranyi_ball(tol: Tolerances, r: float = 1.0) -> SetOracle:
    eps = tol.eps_geom
    bound = (r + eps) ** 4

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        # |p|_K <= r + eps, both sides raised to the fourth power
        rho2 = p.x * p.x + p.y * p.y
        return rho2 * rho2 + p.t * p.t <= bound

    return _formula_oracle(
        inside,
        _sym_bbox(r, r, r * r),
        f"koranyi_ball(r={r:g})",
        radial=(r, (-r * r, r * r)),
        level=lambda p, k=FLOATS: norm(p, "koranyi", k) / r,
    )


def _euclidean_level(p: Point3, radius: float, k: Kit = FLOATS) -> float:
    # smallest tau with dilate(1/tau, p) in the Euclidean ball of this radius
    rho2 = p.x * p.x + p.y * p.y
    inner = k.sqrt(rho2 * rho2 + 4.0 * radius * radius * p.t * p.t)
    return k.sqrt((rho2 + inner) / (2.0 * radius * radius))


def _euclidean_ball(tol: Tolerances, r: float = 1.0) -> SetOracle:
    eps = tol.eps_geom
    bound = (r + eps) ** 2

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        return p.x * p.x + p.y * p.y + p.t * p.t <= bound

    return _formula_oracle(
        inside,
        _sym_bbox(r, r, r),
        f"euclidean_ball(r={r:g})",
        radial=(r, (-r, r)),
        level=lambda p, k=FLOATS: _euclidean_level(p, r, k),
    )


def _cylinder(tol: Tolerances) -> SetOracle:
    eps = tol.eps_geom
    bound = (1.0 + eps) ** 2
    height = 1.0 + eps

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        return (p.x * p.x + p.y * p.y <= bound) & (abs(p.t) <= height)

    level = lambda p, k=FLOATS: k.max(k.sqrt(p.x * p.x + p.y * p.y), k.sqrt(abs(p.t)))
    return _formula_oracle(inside, _sym_bbox(1.0, 1.0, 1.0), "cylinder", radial=(1.0, (-1.0, 1.0)), level=level)


def _cylinder_hat(tol: Tolerances) -> SetOracle:
    # Unit-radius cylinder capped by the Koranyi ball of radius 2; this is
    # exactly the level-1 set of max(|(x,y)|_E, |.|_G / 2).
    eps = tol.eps_geom
    radial_bound = (1.0 + eps) ** 2
    gauge_bound = (2.0 * (1.0 + eps)) ** 4

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        # level <= 1 + eps, each branch of the max squared out
        rho2 = p.x * p.x + p.y * p.y
        return (rho2 <= radial_bound) & (rho2 * rho2 + p.t * p.t <= gauge_bound)

    return _formula_oracle(
        inside,
        _sym_bbox(1.0, 1.0, 4.0),
        "cylinder_hat",
        radial=(1.0, (-4.0, 4.0)),
        level=lambda p, k=FLOATS: k.max(k.sqrt(p.x * p.x + p.y * p.y), 0.5 * norm(p, "koranyi", k)),
    )


# constants of the capped-sine radial set, computed once at import: its
# sine branch at level 1 is rho^4 + sin(t) / 2 = _SINE_C, whose level the
# square roots of _SINE_C - 1/2, _SINE_C and _SINE_C + 1/2 bound
_SINE_C = (1.0 + 2.0 ** 0.25) ** 4 - 2.0
_SINE_ROOTS = tuple(math.sqrt(_SINE_C + d) for d in (-0.5, 0.0, 0.5))
_NEWTON_STEPS = 4
IMPORTANTE_R_FLAT = _SINE_C ** 0.25
IMPORTANTE_R_MAX = ((1.0 + 2.0 ** 0.25) ** 4 - 1.5) ** 0.25
IMPORTANTE_ANCHOR = Point3(IMPORTANTE_R_MAX, 0.0, 1.5 * math.pi)
IMPORTANTE_ANCHOR_NORM = norm(IMPORTANTE_ANCHOR, "koranyi")


def _importante_level(p: Point3, k: Kit = FLOATS) -> float:
    """importante's dilation level max(|p|_K / N, 1 / sqrt(s)), N = IMPORTANTE_ANCHOR_NORM.

    p dilated by 1 / level has rho^4 s^2 and t s for rho^4 and t, s =
    1 / level^2, so the sine branch binds where g(s) = a s^2 + sin(t s) / 2
    = c, a = rho^4.  On the bracket [sqrt((c - 1/2) / a), min(sqrt((c +
    1/2) / a), s_g)], s_g = N^2 / sqrt(a + t^2), a s^2 >= c - 1/2 and |t| s
    <= N^2, so s g'(s) >= 2 c - 1 - N^2 / 2 > 0: the root is unique, or s
    = s_g when the gauge branch binds first (the bracket is empty).
    _NEWTON_STEPS Newton steps from sqrt(c / a), each clamped to the
    bracket, reach it to an ulp.  They run on v = 1 / s, whose bracket
    [max(rho^2 / sqrt(c + 1/2), (|p|_K / N)^2), rho^2 / sqrt(c - 1/2)]
    divides by no coordinate, and the level is sqrt(v), at least |p|_K / N.
    v is 0 only where rho^2 and t^2 are (at e), and there any positive
    divisor gives a s^2 = t s = 0.
    """
    rho2 = p.x * p.x + p.y * p.y
    gauge = norm(p, "koranyi", k) / IMPORTANTE_ANCHOR_NORM
    root_lo, root_c, root_hi = _SINE_ROOTS
    lo, hi = k.max(rho2 / root_hi, gauge * gauge), rho2 / root_lo
    v = k.max(k.min(rho2 / root_c, hi), lo)
    for _ in range(_NEWTON_STEPS):
        d = k.max(v, 2.0 ** -1074)
        z, w = rho2 / d, p.t / d  # sqrt(a) s and t s
        quartic = z * z
        g = quartic + 0.5 * k.sin(w) - _SINE_C
        # s g'(s), floored at 1 where the bracket is empty and v = lo anyway
        slope = k.max(quartic + quartic + 0.5 * w * k.cos(w), 1.0)
        v = k.max(k.min(v / (1.0 - g / slope), hi), lo)
    return k.sqrt(v)


def _importante(tol: Tolerances) -> SetOracle:
    # The level-1 set of max(f1, |p|_K / IMPORTANTE_ANCHOR_NORM), with the
    # sine-perturbed quartic gauge f1 = (rho^4 + 2 + sin(t) / 2)^(1/4) - 2^(1/4),
    # which is horizontally convex but not homogeneous.  The set is compact,
    # radial and horizontally convex, and its widest horizontal slice sits
    # away from t = 0: the standard counterexample for the radial necessary
    # conditions.  Its level, without slack, is _importante_level.
    eps = tol.eps_geom
    sine_bound = (1.0 + eps + 2.0 ** 0.25) ** 4
    gauge_bound = ((1.0 + eps) * IMPORTANTE_ANCHOR_NORM) ** 4

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        # max(f1, |p|_K / IMPORTANTE_ANCHOR_NORM) <= 1 + eps, each branch
        # raised to the fourth power
        rho2 = p.x * p.x + p.y * p.y
        quartic = rho2 * rho2
        return (quartic + 2.0 + 0.5 * k.sin(p.t) <= sine_bound) & (quartic + p.t * p.t <= gauge_bound)

    half_t = IMPORTANTE_ANCHOR_NORM * IMPORTANTE_ANCHOR_NORM
    bbox = _sym_bbox(IMPORTANTE_ANCHOR_NORM, IMPORTANTE_ANCHOR_NORM, half_t)
    return _formula_oracle(
        inside, bbox, "importante", radial=(IMPORTANTE_R_MAX, (-half_t, half_t)), level=_importante_level
    )


def _slab_x(tol: Tolerances) -> SetOracle:
    half_width = 1.0 + tol.eps_geom

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        return abs(p.x) <= half_width

    return _formula_oracle(inside, _sym_bbox(1.0, 4.0, 4.0), "slab_x", is_compact=False)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# A polygon profile tests all edges against all points of an array in one
# broadcast up to _POLYGON_POINTS points, and one edge at a time over all
# points above that.  The edge loop pays a fixed cost of numpy calls per edge
# and the broadcast about three times the edge loop's cost per (edge, point)
# pair, so the two break even near 1000 points whatever the edge count (8 to
# 1026 edges, measured); the broadcast's temporaries hold E * 1024 values.
_POLYGON_POINTS = 1024


def _edge_near(edge, r, t, k: Kit, eps2: float):
    """Whether (r, t) is within eps of the edge (ax, ay, vx, vy, vv) from
    (ax, ay) along (vx, vy).

    vv is vx^2 + vy^2, inf for a zero-length edge (s = 0 at finite points).
    The edge is floats and (r, t) a point, or the edge values and r and t
    are arrays of one shape, one (edge, point) pair per element.
    """
    ax, ay, vx, vy, vv = edge
    wx, wy = r - ax, t - ay
    s = k.max(0.0, k.min(1.0, (wx * vx + wy * vy) / vv))
    dx, dy = wx - s * vx, wy - s * vy
    return dx * dx + dy * dy <= eps2


def _edge_crosses(edge, r, t):
    """Whether the rightward ray from (r, t) crosses the non-horizontal edge
    (ax, ay, by, vx, vy) from (ax, ay) along (vx, vy), which ends at height
    by.  The edge is floats and (r, t) a point or arrays of points, or the
    edge values are (E, 1) columns, one row per edge, and r and t are (m,)
    arrays."""
    ax, ay, by, vx, vy = edge
    return ((ay > t) != (by > t)) & (ax + (t - ay) * vx / vy > r)


def _gate_margin(eps2: float) -> float:
    """The margin m that widens each side of an edge's gate (polygon_profile).

    m bounds |wx - p| on every pair _edge_near holds on, where p = fl(s vx)
    and dx = fl(wx - p); likewise |wy - fl(s vy)|.  There no value is NaN,
    and fl(dx^2) <= eps2, since the sum adds fl(dy^2) >= 0 and rounding is
    monotone.  So dx^2 <= eps2 (1 + 2u) + 2^-1074, with u = 2^-53 (the
    relative error of a normal square, or half an ulp, 2^-1075, of a
    subnormal one), and |dx| <= sqrt(eps2) (1 + u) + 2^-537.  A difference
    is exact when subnormal, so |wx - p| <= |dx| (1 + 2u), which is below
    1.5 sqrt(eps2) (1 - 4u) + 2^-500 (1 - u), and m, rounded, is at least
    that.  The 2^-500 covers eps2 that underflow (eps_geom below about
    1e-154); Tolerances keeps eps2 finite.
    """
    return 1.5 * math.sqrt(eps2) + 2.0 ** -500


def polygon_profile(vertices: Sequence[Sequence[float]], tol: Tolerances = DEFAULT_TOL) -> RadialProfile:
    """Closed polygon in the (r, t) half-plane, even-odd membership.

    Points within eps_geom of an edge count as inside (closed set); the
    rest are inside when the rightward ray crosses an odd number of the
    non-horizontal edges.  The edge arithmetic is written once, in
    _edge_near and _edge_crosses, and each element gets the operations of
    tests/radial_reference.py's edge loop, so every boolean is that loop's.

    The crossing parity comes first, over every non-horizontal edge.  The
    near test then runs only on the (edge, point) pairs whose point the
    parity leaves outside and whose wx = r - ax, wy = t - ay the edge's
    gate admits: wx in [fl(min(0, vx) - m), fl(max(0, vx) + m)] and wy in
    [fl(min(0, vy) - m), fl(max(0, vy) + m)], with m from _gate_margin.
    The gate loses no pair the near test holds on.  In _edge_near, s is
    NaN or in [0, 1]: the clamp puts every number there (FLOATS' min also
    turns a NaN quotient into 1.0; ARRAYS' keeps it NaN).  For s in [0, 1],
    |s vx| <= |vx|, so p = fl(s vx), rounded monotonely, is NaN (0 * inf)
    or lies in [min(0, vx), max(0, vx)]; and a NaN s or p makes dx NaN and
    the test false.  This holds for every edge, also where vv = inf (a
    zero-length edge, or one whose squared length underflows or
    overflows).  A near pair has |wx - p| < m (_gate_margin), so wx lies
    in that interval widened by m, and, being a float, between the bounds
    rounded; the same goes for wy.  Infinite and NaN points: eps2 is
    finite, so a near pair has a finite dx, and then wx and p are finite
    (inf - p is infinite, inf - inf NaN) and the bound above applies.

    Floats run the parity edge by edge and then the near test on the gated
    edges until one holds.  Arrays of at most _POLYGON_POINTS points (after
    broadcasting r against t) take the parity and the gate as broadcasts of
    (E, 1) edge columns against the points the parity leaves outside;
    larger arrays run both one edge at a time.  Either way the near test
    runs once, on the gathered (edge, point) pairs, and its hits are
    scattered into the parity.

    Raises:
        ValueError: vertices not a list of [r, t] pairs of finite numbers,
            fewer than 3 of them, or one with r < 0.
    """
    if not isinstance(vertices, (list, tuple)) or not all(
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite_number, v)) for v in vertices
    ):
        raise ValueError(f"polygon profile vertices must be [r, t] pairs of finite numbers, got {vertices!r}")
    verts = [(float(r), float(t)) for r, t in vertices]
    if len(verts) < 3:
        raise ValueError("polygon profile needs at least 3 vertices")
    if any(r < 0.0 for r, _ in verts):
        raise ValueError("polygon profile vertices must have r >= 0")
    r_max = max(r for r, _ in verts)
    t_lo = min(t for _, t in verts)
    t_hi = max(t for _, t in verts)
    eps2 = tol.eps_geom * tol.eps_geom
    m = _gate_margin(eps2)
    near_edges, gates, cross_edges = [], [], []
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        vx, vy = bx - ax, by - ay
        near_edges.append((ax, ay, vx, vy, vx * vx + vy * vy or math.inf))
        gates.append((ax, ay, min(0.0, vx) - m, max(0.0, vx) + m, min(0.0, vy) - m, max(0.0, vy) + m))
        if ay != by:
            cross_edges.append((ax, ay, by, vx, vy))
    # the near table as one flat array per edge value, gathered per pair; the
    # gate and crossing tables as (E, 1) columns, one per value
    near_values = tuple(np.array(near_edges).T.copy())
    gate_columns = tuple(np.array(gates).T.copy()[:, :, None])
    cross_columns = tuple(np.array(cross_edges).reshape(-1, 5).T.copy()[:, :, None])

    def member(r, t, k: Kit):
        if k is not ARRAYS:
            inside = False
            for e in cross_edges:
                inside = inside ^ _edge_crosses(e, r, t)
            return inside or any(
                _edge_near(e, r, t, k, eps2)
                for e, (ax, ay, x0, x1, y0, y1) in zip(near_edges, gates)
                if x0 <= r - ax <= x1 and y0 <= t - ay <= y1
            )
        r, t = np.asarray(r), np.asarray(t)
        if r.shape != t.shape:
            r, t = np.broadcast_arrays(r, t)
        shape = r.shape
        r, t = r.reshape(-1), t.reshape(-1)
        if r.size <= _POLYGON_POINTS:
            inside = np.logical_xor.reduce(_edge_crosses(cross_columns, r, t), axis=0)
            out = (~inside).nonzero()[0]
            ax, ay, x0, x1, y0, y1 = gate_columns
            wx, wy = r[out] - ax, t[out] - ay
            edge, point = ((wx >= x0) & (wx <= x1) & (wy >= y0) & (wy <= y1)).nonzero()
        else:
            inside = np.zeros(r.size, bool)
            for e in cross_edges:
                inside ^= _edge_crosses(e, r, t)
            out = (~inside).nonzero()[0]
            ro, to = r[out], t[out]
            gated = [np.empty((2, 0), np.intp)]
            for i, (ax, ay, x0, x1, y0, y1) in enumerate(gates):
                wx = ro - ax
                j = ((wx >= x0) & (wx <= x1)).nonzero()[0]
                if j.size:
                    wy = to[j] - ay
                    j = j[(wy >= y0) & (wy <= y1)]
                    gated.append((np.full(j.size, i), j))
            edge, point = np.concatenate(gated, axis=1)
        if point.size:
            at = out[point]
            near = _edge_near(tuple(v[edge] for v in near_values), r[at], t[at], k, eps2)
            inside[at[near]] = True
        return inside.reshape(shape)

    return RadialProfile(member, r_max, (t_lo, t_hi))


def radial_to_oracle(P: RadialProfile, label: str = "radial") -> SetOracle:
    """Rotate a profile around the t-axis into a full membership oracle:
    the profile's formula at r = |(x, y)|_E."""

    def inside(p: Point3, k: Kit = FLOATS) -> bool:
        return P.inside(k.sqrt(p.x * p.x + p.y * p.y), p.t, k)

    ht = max(abs(P.t_range[0]), abs(P.t_range[1]))
    return _formula_oracle(inside, _sym_bbox(P.r_max, P.r_max, ht), label, profile=P)


def _radial_custom(tol: Tolerances, vertices: Optional[Sequence[Sequence[float]]] = None) -> SetOracle:
    if vertices is None:
        raise ValueError("radial_custom requires params['vertices']")
    return radial_to_oracle(polygon_profile(vertices, tol), "radial_custom")


class Verdicts(NamedTuple):
    """What the gallery command expects of a set at its default params.

    radial is None for a set without a profile; cone_prefix None skips the
    cone build.
    """

    axioms: tuple[bool, bool, bool]
    ch_witness: bool
    radial: Optional[tuple[bool, bool]]
    cone_prefix: Optional[str]


class GalleryEntry(NamedTuple):
    """One reference set: build(tol, **params), the params it accepts, and
    the verdicts the gallery command checks (None: not in the suite)."""

    build: Callable[..., SetOracle]
    params: tuple[str, ...]
    expect: Optional[Verdicts]


_ALL_HOLD = (True, True, True)

GALLERY: dict[str, GalleryEntry] = {
    "koranyi_ball": GalleryEntry(_koranyi_ball, ("r",), Verdicts(_ALL_HOLD, False, (True, True), "candidate")),
    "euclidean_ball": GalleryEntry(_euclidean_ball, ("r",), Verdicts(_ALL_HOLD, True, (False, True), None)),
    "cylinder": GalleryEntry(_cylinder, (), Verdicts(_ALL_HOLD, True, (True, True), None)),
    "cylinder_hat": GalleryEntry(_cylinder_hat, (), Verdicts(_ALL_HOLD, False, (True, True), "candidate")),
    "importante": GalleryEntry(_importante, (), Verdicts(_ALL_HOLD, True, (False, False), None)),
    "slab_x": GalleryEntry(_slab_x, (), Verdicts((False, True, True), False, None, None)),
    "radial_custom": GalleryEntry(_radial_custom, ("vertices",), None),
}
GALLERY_NAMES = tuple(GALLERY)


def gallery(name: str, params: Optional[dict] = None, tol: Tolerances = DEFAULT_TOL) -> SetOracle:
    """Build one of the named reference sets.

    Args:
        name: a key of GALLERY.
        params: the set's params, see GALLERY[name].params; koranyi_ball
            and euclidean_ball accept {"r": radius}, finite and > 0,
            radial_custom requires {"vertices": [[r, t], ...]}.

    Raises:
        ValueError: unknown name, unknown param keys, missing/invalid params,
            params that, with tol.eps_geom, overflow its bounds, or eps_geom >= its bbox_scale.
    """
    entry = GALLERY.get(name)
    if entry is None:
        raise ValueError(f"unknown gallery set {name!r}; known: {', '.join(GALLERY)}")
    params = dict(params or {})
    unknown = sorted(set(params) - set(entry.params))
    if unknown:
        accepted = ", ".join(entry.params) or "none"
        raise ValueError(f"{name} does not accept params {unknown}; accepted: {accepted}")
    try:
        if "r" in params:
            r = params["r"]
            if not (_finite_number(r) and r > 0.0):
                raise ValueError(f"{name} needs a finite r > 0, got {r!r}")
            params["r"] = float(r)
        K = entry.build(tol, **params)
        if not math.isfinite(bbox_diameter(K.bbox)):
            raise OverflowError("bounding box diameter is not finite")
        # radial_necessary raises the outer radius to the fourth power;
        # this raises the OverflowError here instead, from about r_max = 1.3e77
        K.profile is None or K.profile.r_max ** 4
    except OverflowError as exc:
        bounds = f"params {params}, eps_geom={tol.eps_geom!r}: {exc}"
        raise ValueError(f"{name} params overflow its floating-point bounds ({bounds})") from None
    # a slack as large as the set puts every probe near it, so no check could fail
    if tol.eps_geom >= bbox_scale(K.bbox):
        raise ValueError(f"eps_geom={tol.eps_geom!r} is not below the bounding-box scale {bbox_scale(K.bbox)!r} of {name}")
    return K


# ---------------------------------------------------------------------------
# sampling and bisection utilities


def uniform_points(K: SetOracle, need: int, rng: np.random.Generator) -> np.ndarray:
    """The first need bbox-uniform draws that land in K, as a (need, 3) array.

    The one rejection sampler: rounds draw m x, y and t values in turn and
    test them with K.contains_many.  The first has m = max(64, 4 * need);
    later ones are sized from the acceptance seen so far,
    m = max(64, ceil(1.25 * missing * tries / max(got, 1))).

    Raises:
        RuntimeError: fewer than need points after 1000 + 400 need draws.
    """
    (xlo, xhi), (ylo, yhi), (tlo, thi) = K.bbox
    max_tries = 1000 + 400 * need
    kept = [np.empty((0, 3))]
    got = tries = 0
    m = max(64, 4 * need)
    while got < need:
        if tries >= max_tries:
            raise RuntimeError(
                f"rejection sampling stalled on {K.label}: {got}/{need} after {tries} tries"
            )
        m = min(m, max_tries - tries)
        x = rng.uniform(xlo, xhi, m)
        y = rng.uniform(ylo, yhi, m)
        t = rng.uniform(tlo, thi, m)
        tries += m
        inside = K.contains_many(x, y, t)
        kept.append(np.stack([x[inside], y[inside], t[inside]], axis=1))
        got += len(kept[-1])
        m = max(64, math.ceil(1.25 * (need - got) * tries / max(got, 1)))
    return np.concatenate(kept)[:need]


def sample_in_set(K: SetOracle, n: int, rng: np.random.Generator) -> list[Point3]:
    """n points of K by rejection from the bounding box: uniform_points as Point3s."""
    return list(map(Point3, *uniform_points(K, n, rng).T.tolist()))


def _non_finite_message(K: SetOracle, q: Point3) -> str:
    return f"dilation level of a non-finite point {tuple(q)} on {K.label}"


def _runaway_message(K: SetOracle) -> str:
    return (
        f"dilation bracketing ran away on {K.label}: the identity is "
        "not interior or the set violates assumption b "
        "(star-shapedness under dilations)"
    )


def _vertex_level(tol: Tolerances) -> float:
    # Levels below this snap to 0 (the vertex).  The 2**-500 floor keeps the
    # downward bracket above tau = 2**-502 whatever eps_geom is, so lam * lam
    # stays finite (at most 2**1004) and e tests inside its own set.
    return max(tol.eps_geom, 2.0 ** -500)


def _bracket(moves, cols: tuple, near, far, rows: np.ndarray, factor: float, stop: float) -> np.ndarray:
    """Move the brackets of rows, in place, while moves(*cols, near) holds.

    Each step sets far = near and scales near by factor (2 or 0.5) on the
    rows that still move, as a one-row loop would; a row whose near passes
    stop in that direction stops there.  Returns the mask of those rows.
    """
    stopped = np.zeros(near.size, dtype=bool)
    while rows.size:
        rows = rows[moves(*(c[rows] for c in cols), near[rows])]
        far[rows] = near[rows]
        near[rows] *= factor
        out = near[rows] > stop if factor > 1.0 else near[rows] < stop
        stopped[rows[out]] = True
        rows = rows[~out]
    return stopped


def bisect_many(upper, cols: tuple, lo, hi, tol: Tolerances, relative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bisect the bracket [lo, hi] of every row at once, in place; returns (lo, hi).

    The one bisection behind dilation levels, boundary rays and profile
    radii.  upper(*cols, mid) says row by row whether mid is at or above
    the row's level: there mid becomes the new hi, elsewhere the new lo.
    A row stops on its own test, hi - lo <= eps_geom (times max(1, lo)
    when relative), or after max_iter steps, so it takes exactly the steps
    of its own scalar loop with mid = 0.5 * (lo + hi); a NaN bracket never
    bisects.  A row that stops has its bracket written back and leaves,
    with its cols, at once, so every step is unmasked: upper sees exactly
    the rows still bisecting, and a batch with none makes no call.
    """
    rows = np.arange(lo.size)
    a, b = lo, hi
    for _ in range(tol.max_iter):
        go = b - a > (tol.eps_geom * np.maximum(1.0, a) if relative else tol.eps_geom)
        if not go.all():
            done = rows[~go]
            lo[done], hi[done] = a[~go], b[~go]
            rows, a, b, cols = rows[go], a[go], b[go], tuple(c[go] for c in cols)
        if not rows.size:
            break
        mid = 0.5 * (a + b)
        up = upper(*cols, mid)
        a, b = np.where(up, a, mid), np.where(up, mid, b)
    lo[rows], hi[rows] = a, b
    return lo, hi


def dilation_level_many(
    K: SetOracle,
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
    scaling: str = "heisenberg",
    strict: bool = True,
) -> np.ndarray:
    """dilation_level of every point (x, y, t) at once, as a flat array.

    A set with a level formula gets, under the Heisenberg scaling, its
    exact levels, and every other set or scaling its bisected ones
    (_bisected_levels); either way each level is bit for bit the scalar
    dilation_level of its point, and levels below max(eps_geom, 2**-500)
    read 0.

    Args:
        strict: when False, a point whose bracket runs away gets level NaN
            in place of the RuntimeError.

    Raises:
        ValueError: a non-finite point (the first one is named), or unknown
            scaling.
        RuntimeError: strict, and the bracket of some point runs away.
    """
    x, y, t = (np.asarray(a, dtype=float).ravel() for a in np.broadcast_arrays(x, y, t))
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(t)))
    if bad.size:
        i = bad[0]
        raise ValueError(_non_finite_message(K, Point3(float(x[i]), float(y[i]), float(t[i]))))
    if K.level is None or scaling != "heisenberg":
        return _bisected_levels(K, x, y, t, tol, scaling, strict)
    # K.level of each point dilated by lam = 2**e, which brings s into
    # [0.5, 1) (|e| <= 500), over lam: exact steps, and the formula's
    # squares stay in range, so (0, 0, 1e-200) has level 1e-100
    s = np.maximum(np.maximum(abs(x), abs(y)), np.sqrt(abs(t)))
    lam = np.ldexp(1.0, np.minimum(np.maximum(-np.frexp(s)[1], -500), 500))
    level = K.level(Point3(*scale(lam, x, y, t)), ARRAYS) / lam
    return np.where(level < _vertex_level(tol), 0.0, level)


def _bisected_levels(K: SetOracle, x, y, t, tol: Tolerances, scaling: str, strict: bool) -> np.ndarray:
    """dilation_level_many by bisection on finite flat arrays: all points
    halved or doubled (_bracket) and bisected (bisect_many) at once, each
    in the steps and arithmetic of dilation_level's loop, bit for bit."""
    # membership at level tau, with one point's scalar-loop arithmetic
    def upper(x, y, t, tau):
        return K.contains_many(*scale(1.0 / tau, x, y, t, scaling))

    cols = (x, y, t)
    vertex = _vertex_level(tol)
    inside = upper(*cols, np.ones(x.size))
    # inside at tau = 1: halve lo = 0.5, 0.25, ... while still inside; a
    # point inside whose lo is below vertex / 4 (even unmoved, when eps_geom
    # > 2) is at the vertex, level 0, so it gets the empty bracket [0, 0]
    lo = np.where(inside, 0.5, 1.0)
    hi = np.where(inside, 1.0, 2.0)
    _bracket(upper, cols, lo, hi, np.flatnonzero(inside), 0.5, 0.25 * vertex)
    at_vertex = inside & (lo < 0.25 * vertex)
    lo[at_vertex] = hi[at_vertex] = 0.0
    # outside at tau = 1: double hi = 2, 4, ... until inside
    limit = max(1.0, bbox_scale(K.bbox)) * 2.0 ** 32
    ran_away = _bracket(lambda *a: ~upper(*a), cols, hi, lo, np.flatnonzero(~inside), 2.0, limit)
    if strict and ran_away.any():
        raise RuntimeError(_runaway_message(K))
    lo[ran_away] = hi[ran_away] = np.nan  # no bracket, never bisected
    lo, hi = bisect_many(upper, cols, lo, hi, tol, relative=True)
    level = 0.5 * (lo + hi)
    level[level < vertex] = 0.0
    return level


def dilation_level(
    K: SetOracle,
    q: Point3,
    tol: Tolerances = DEFAULT_TOL,
    scaling: str = "heisenberg",
) -> float:
    """Smallest level tau with q inside the tau-scaled copy of K.

    A set with a level formula (every gallery set but slab_x and the
    polygons of radial_custom; importante's solves its sine branch by
    Newton steps) gets its exact level under the Heisenberg scaling, from
    dilation_level_many.  Otherwise exponential bracketing
    from tau=1 and bisection, assuming the single-flip monotonicity of
    assumption b.  That loop is the reference _bisected_levels matches bit
    for bit, and stays scalar: one point costs some 12 times as much
    through the array bisection.  Levels below max(eps_geom, 2**-500)
    snap to 0 (the vertex).

    Args:
        scaling: "heisenberg" or "euclidean", the dilations of core.scale.

    Raises:
        ValueError: q has a non-finite coordinate, or unknown scaling.
        RuntimeError: bracketing runs away (identity not interior, or the
            set is not star-shaped under dilations: assumption b fails).
    """
    if not (math.isfinite(q.x) and math.isfinite(q.y) and math.isfinite(q.t)):
        raise ValueError(_non_finite_message(K, q))
    if K.level is not None and scaling == "heisenberg":
        return float(dilation_level_many(K, q.x, q.y, q.t, tol)[0])
    def member(tau: float) -> bool:
        return K.contains(Point3(*scale(1.0 / tau, q.x, q.y, q.t, scaling)))

    limit = max(1.0, bbox_scale(K.bbox)) * 2.0 ** 32
    vertex = _vertex_level(tol)
    if member(1.0):
        hi = 1.0
        lo = 0.5
        while member(lo):
            hi = lo
            lo *= 0.5
            if lo < 0.25 * vertex:
                return 0.0
    else:
        lo = 1.0
        hi = 2.0
        while not member(hi):
            lo = hi
            hi *= 2.0
            if hi > limit:
                raise RuntimeError(_runaway_message(K))
    for _ in range(tol.max_iter):
        if hi - lo <= tol.eps_geom * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    return 0.0 if level < vertex else level


def _pullback(tol: Tolerances) -> float:
    return 1.0 / (1.0 + 10.0 * tol.eps_geom)


def escapes(K: SetOracle, p: Point3, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Robustly outside K: p and its slight pullback toward e both fail.

    The pullback uses the dilation by 1/(1+eta), eta = 10*eps_geom, which
    is an erosion for sets star-shaped under dilations; points merely
    within membership slack of the boundary do not count as escaped.
    """
    if K.contains(p):
        return False
    return not K.contains(dilate(_pullback(tol), p))


def escapes_many(K: SetOracle, x: np.ndarray, y: np.ndarray, t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """escapes on coordinate arrays of one shape, element for element."""
    out = ~K.contains_many(x, y, t)
    if not out.any():
        return out
    idx = out.nonzero()
    out[idx] = ~K.contains_many(*scale(_pullback(tol), x[idx], y[idx], t[idx]))
    return out


def escape_margin(K: SetOracle, p: Point3, tol: Tolerances = DEFAULT_TOL) -> float:
    """How far outside K the point sits, in dilation-level units.

    Positive for escaped points: the dilation level L of p minus one, exact
    on a set with a level formula and bisected otherwise; inf, an
    unreliable margin, when the bisection's bracket runs away (the identity
    is not interior) or when dilate(1/tau, p) is in K at some level
    tau = L 2**(-k/4) below L, k = 1..32 (K is not star-shaped under
    dilations, so L is one of several flips of membership).
    """
    try:
        level = dilation_level(K, p, tol)
    except RuntimeError:
        # the level bisection diverges, but the escape itself still stands
        return math.inf
    lam = 1.0 / (level * 2.0 ** (-np.arange(1, 33) / 4))
    if K.contains_many(*scale(lam, *p)).any():
        return math.inf
    return level - 1.0


def boundary_sample(
    K: SetOracle,
    n: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
    group: int = 0,
) -> np.ndarray:
    """n boundary points of K, as an (n, 3) array, one on each of n dilation rays from e.

    Point k depends only on (seed, group, k): ray k takes the k-th
    accepted direction u of default_rng([seed, 0xB0, group]), so the first
    points do not depend on n.  On a set with a level formula the point is
    dilate(1 / level(u), u), on the boundary of K without slack; the
    points that round outside K (at eps_geom below about 1e-16), found in
    one contains_many call, and every point of a set without a level are
    bisected (_bisected_rays) instead, so every point tests inside K.

    Requires a compact set with the identity interior (assumption a); the
    ray parameter is the dilation scale, which is exact for sets that are
    star-shaped under dilations (assumption b).

    Raises:
        ValueError: non-compact input (rays never exit the box).
        RuntimeError: a ray stays inside K past scale max(1, bbox_scale)
            * 2**32, or the identity is not interior.
    """
    if not K.is_compact:
        raise ValueError(f"{K.label} is not compact: boundary rays never exit the box")
    if not K.contains(ORIGIN):
        raise RuntimeError(f"identity not inside {K.label}; cannot shoot rays from e")
    rng = np.random.default_rng([seed, 0xB0, group])
    dirs = np.empty((0, 3))
    while len(dirs) < n:
        # normal(size=(k, 3)) draws the same values as k draws of size 3
        d = rng.normal(size=(n - len(dirs), 3))
        length = norm(Point3(*d.T), "euclidean", ARRAYS)
        keep = length >= 1e-12
        dirs = np.concatenate([dirs, d[keep] / length[keep, None]])
    ux, uy, ut = dirs.T
    pts, rows = np.empty((n, 3)), np.arange(n)
    if K.level is not None:
        pts = np.stack(scale(1.0 / K.level(Point3(ux, uy, ut), ARRAYS), ux, uy, ut), axis=1)
        rows = np.flatnonzero(~K.contains_many(*pts.T))
    if rows.size:
        pts[rows] = _bisected_rays(K, ux[rows], uy[rows], ut[rows], tol)
    return pts


def _bisected_rays(K: SetOracle, ux, uy, ut, tol: Tolerances) -> np.ndarray:
    """The inner bracket ends of the dilation rays along (ux, uy, ut), all
    doubled (_bracket) and bisected (bisect_many) at once, each bit for bit
    the one-ray-at-a-time loop with K.contains."""
    def upper(ux, uy, ut, s):
        return ~K.contains_many(*scale(s, ux, uy, ut))

    lo, hi = np.zeros(ux.size), np.ones(ux.size)
    # a unit ray leaves the bbox by scale sqrt(3) max(1, bbox_scale), far below
    # the cap, which is _bisected_levels'
    limit = max(1.0, bbox_scale(K.bbox)) * 2.0 ** 32
    if _bracket(lambda *a: ~upper(*a), (ux, uy, ut), hi, lo, np.arange(ux.size), 2.0, limit).any():
        raise RuntimeError(f"ray from e never exits {K.label}: non-compact input?")
    lo, hi = bisect_many(upper, (ux, uy, ut), lo, hi, tol, relative=False)
    # inner bracket end: guaranteed member, still within eps of the boundary
    return np.stack(scale(lo, ux, uy, ut), axis=1)


def interior_thetas(m: int) -> np.ndarray:
    """The interior points j / (m - 1), 0 < j < m - 1, of m uniform samples
    of [0, 1], with 1/2 inserted when they miss it, as an ascending array."""
    if m < 2:
        raise ValueError("need at least 2 segment samples")
    grid = [j / (m - 1) for j in range(1, m - 1)]
    if 0.5 not in grid:
        grid.append(0.5)
        grid.sort()
    return np.array(grid)


# candidate probes drawn per chunk of the function falsifiers' probe stream
PROBE_CHUNK = 256
# lines per chunk of the horizontal line stream
LINE_CHUNK = 256
# uniform samples of each horizontal line in the assumption-c check
SEGMENT_GRID = 9


def segment_chunks(K: SetOracle, n: int, thetas: np.ndarray, seed: int):
    """Yield the first n probes of the function falsifiers' horizontal probe
    stream of K in chunks, as (p, v, q, seg).

    A probe is a point p of K and a horizontal step v with q = p o exp_h(v)
    in K.  Chunk c is drawn whole from default_rng([seed, 0xF, c]):
    PROBE_CHUNK candidate points p from uniform_points, then as many
    directions uniform in [0, 2 pi) and log-magnitudes uniform between
    log(1e-3) and the log of the bbox diameter; candidates whose q leaves K
    are dropped.  So probe i depends only on (seed, i).  The stream gives
    up after 1000 + 400 n candidates and raises, so no scan passes probes
    it never tested.  seg is a Point3 of (k, len(thetas)) arrays, seg[r, j]
    = p o exp_h(theta_j v) of probe r; q and seg are group_mul's on arrays.

    Raises:
        RuntimeError: a chunk's rejection sampling stalls, or the stream
            runs short of n probes (too thin); earlier chunks are yielded.
    """
    log_lo = math.log(1e-3)
    log_hi = math.log(max(bbox_diameter(K.bbox), 2e-3))
    max_tries = 1000 + 400 * n
    produced = 0
    for start in range(0, max_tries, PROBE_CHUNK):
        if produced == n:
            return
        rng = np.random.default_rng([seed, 0xF, start // PROBE_CHUNK])
        p = uniform_points(K, PROBE_CHUNK, rng)
        phi = rng.uniform(0.0, 2.0 * math.pi, PROBE_CHUNK)
        mag = np.exp(rng.uniform(log_lo, log_hi, PROBE_CHUNK))
        v = np.stack([mag * np.cos(phi), mag * np.sin(phi)], axis=1)
        q = np.stack(group_mul(Point3(*p.T), exp_h(HVec(*v.T))), axis=1)
        keep = np.flatnonzero(K.contains_many(*q[: max_tries - start].T))[: n - produced]
        if keep.size:
            p, v, q = p[keep], v[keep], q[keep]
            produced += len(keep)
            yield p, v, q, group_mul(Point3(*p.T[:, :, None]), exp_h(HVec(thetas * v[:, :1], thetas * v[:, 1:])))
    if produced < n:
        raise RuntimeError(f"domain {K.label} too thin: {produced}/{n} probes found")


def chunk_batches(chunks, sizes):
    """The chunks in lists, each as long as the next entry of sizes, in order.

    The last list is short when the chunks run out.  A RuntimeError the
    chunks raise (a stall, or a stream run short) comes after a last list
    of the chunks drawn before it, where a chunk by chunk loop would meet it.
    """
    batch, sizes = [], iter(sizes)
    size = next(sizes)
    try:
        for chunk in chunks:
            batch.append(chunk)
            if len(batch) == size:
                yield batch
                batch, size = [], next(sizes)
    except RuntimeError:
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def _line_witness(K: SetOracle, p: np.ndarray, u: np.ndarray, thetas: np.ndarray, need: int, tol: Tolerances):
    """(the first escape or None, the lines counted, at most need): see scan_horizontal_segments."""
    # t is linear in s on p o exp_h(s u), so the line is clipped exactly to
    # the bbox; axes run first, as numpy reduces over a short last axis slowly
    d = np.stack([u[:, 0], u[:, 1], 2.0 * (u[:, 0] * p[:, 1] - p[:, 0] * u[:, 1])])
    box = np.array(K.bbox)
    with np.errstate(divide="ignore", invalid="ignore"):
        # an axis the line runs parallel to gives -inf and inf: no bound
        to_lo, to_hi = (box[:, :1] - p.T) / d, (box[:, 1:] - p.T) / d
    s_lo, s_hi = np.minimum(to_lo, to_hi).max(axis=0), np.maximum(to_lo, to_hi).min(axis=0)
    s = s_lo[:, None] + (s_hi - s_lo)[:, None] * thetas
    x, y, t = group_mul(Point3(*p.T[:, :, None]), exp_h(HVec(s * u[:, :1], s * u[:, 1:])))
    inside = K.contains_many(x, y, t)
    step = (len(thetas) + 1) // (SEGMENT_GRID - 1)
    counted = inside[:, step - 1 :: step].sum(axis=1) >= 2
    counted &= np.cumsum(counted) <= need
    # outside samples with inside ones on both sides get the pullback test,
    # looked for only on the lines whose inside samples leave a gap
    first, last = inside.argmax(axis=1), len(thetas) - 1 - inside[:, ::-1].argmax(axis=1)
    rows = np.flatnonzero(counted & (last - first + 1 > inside.sum(axis=1)))
    cols = np.arange(len(thetas))
    r, j = np.nonzero(~inside[rows] & (first[rows, None] < cols) & (cols < last[rows, None]))
    gap = rows[r], j
    escaped = ~K.contains_many(*scale(_pullback(tol), x[gap], y[gap], t[gap]))
    for r, j in zip(gap[0][escaped], gap[1][escaped]):
        a, b = np.flatnonzero(inside[r, :j])[-1], j + 1 + np.flatnonzero(inside[r, j + 1 :])[0]
        # base o exp_h(theta v) is curve_point at tau = 1, so the escape replays
        base, width = Point3(float(x[r, a]), float(y[r, a]), float(t[r, a])), float(s[r, b] - s[r, a])
        v, theta = HVec(width * float(u[r, 0]), width * float(u[r, 1])), float(s[r, j] - s[r, a]) / width
        pt = group_mul(base, exp_h(HVec(theta * v.a, theta * v.b)))
        if K.contains(group_mul(base, exp_h(v))) and escapes(K, pt, tol):
            return SegmentEscape(base, v, theta, pt, escape_margin(K, pt, tol)), int(counted[: r + 1].sum())
    return None, int(counted.sum())


def scan_horizontal_segments(
    K: SetOracle,
    n: int,
    grid: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[Optional[SegmentEscape], int]:
    """Hunt for a horizontal line meeting K in more than one interval (assumption c fails).

    Line i of the stream is s -> p o exp_h(s u) for row i % LINE_CHUNK of
    chunk i // LINE_CHUNK: LINE_CHUNK points p of K (uniform_points), then
    their directions u, from default_rng([seed, 0xC, chunk]), so it depends
    only on (seed, i).  Lines are clipped to the bbox and sampled at
    interior_thetas(grid), grid = 8 k + 1, which include SEGMENT_GRID's.  A
    line counts toward n when two of those 9 test inside K, so every grid
    scans the same lines and the tau = 1 search's 33 escape no later than
    the axiom check's 9.  The escape is the first robustly outside sample
    (escapes) with inside samples on both sides, in (line, theta) order,
    as a step from the inside sample before it to the one after it, kept
    only if its points, recomputed from that base, test out and in again.
    Chunks are drawn and scanned one at a time.

    Returns (the escape or None, the lines counted up to the escape's, or n).

    Raises:
        ValueError: grid is not 8 k + 1 >= 9.
        RuntimeError: rejection sampling stalls (after the lines drawn
            before it are scanned), or fewer than n of the first
            1000 + 400 n lines count (too thin).
    """
    if grid < SEGMENT_GRID or (grid - 1) % (SEGMENT_GRID - 1):
        raise ValueError("need grid = 8 k + 1 >= 9 line samples")
    thetas = interior_thetas(grid)
    max_lines = 1000 + 400 * n
    used = 0
    for start in range(0, max_lines, LINE_CHUNK):
        if used == n:
            break
        rng = np.random.default_rng([seed, 0xC, start // LINE_CHUNK])
        p, phi = uniform_points(K, LINE_CHUNK, rng), rng.uniform(0.0, 2.0 * math.pi, LINE_CHUNK)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        found, counted = _line_witness(K, p[: max_lines - start], u[: max_lines - start], thetas, n - used, tol)
        if found is not None:
            return found, used + counted
        used += counted
    if used < n:
        raise RuntimeError(f"domain {K.label} too thin: {used}/{n} lines found")
    return None, used


def check_axioms_ab(K: SetOracle, n: int, seed: int) -> tuple[bool, bool, Optional[DilationEscape]]:
    """Check assumptions a and b on K by seeded sampling.

    a probes a small quasi-ball around the identity (plus the compactness
    flag); b dilates n sampled points by factors in (0,1).  Returns
    (a_holds, b_holds, b_witness).
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng([seed, 0xA])

    (xlo, xhi), (ylo, yhi), (tlo, thi) = K.bbox
    half = min((xhi - xlo) / 2.0, (yhi - ylo) / 2.0, math.sqrt(max(thi - tlo, 0.0) / 2.0))
    rho = 1e-3 * min(1.0, half) if half > 0.0 else 1e-3
    # the 7 fixed probes, then 8 random ones drawn as (phi, s, u) in turn
    phi, s, u = rng.uniform((0.0, 0.0, -1.0), (2.0 * math.pi, rho, 1.0), size=(8, 3)).T
    x = np.concatenate([[0.0, rho, -rho, 0.0, 0.0, 0.0, 0.0], s * np.cos(phi)])
    y = np.concatenate([[0.0, 0.0, 0.0, rho, -rho, 0.0, 0.0], s * np.sin(phi)])
    t = np.concatenate([[0.0, 0.0, 0.0, 0.0, 0.0, rho * rho, -rho * rho], u * rho * rho])
    a_holds = K.is_compact and bool(K.contains_many(x, y, t).all())

    if not (a_holds or K.contains(ORIGIN)):
        return a_holds, False, None
    # n points of K, then one factor each, in the order of n scalar draws
    pts = uniform_points(K, n, rng)
    taus = rng.uniform(0.0, 1.0, n)
    # dilate(tau, p) of every point, the first failure wins
    bad = np.flatnonzero(~K.contains_many(*scale(taus, *pts.T)))
    if bad.size:
        k = int(bad[0])
        return a_holds, False, DilationEscape(Point3(*pts[k].tolist()), float(taus[k]))
    return a_holds, True, None


def check_axioms(
    K: SetOracle,
    n: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
) -> AxiomReport:
    """Check assumptions a, b, c on K by seeded sampling.

    a and b as in check_axioms_ab; c scans n horizontal lines at
    SEGMENT_GRID samples each (scan_horizontal_segments, which raises when
    its line stream stalls or runs short).
    """
    a_holds, b_holds, b_witness = check_axioms_ab(K, n, seed)
    found, used = scan_horizontal_segments(K, n, SEGMENT_GRID, seed, tol)
    return AxiomReport(a_holds, b_holds, found, used, seed, b_witness)
