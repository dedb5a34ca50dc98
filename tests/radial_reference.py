"""The radial scans checked one height, one cap and one edge at a time.

The reference that chcheck.radial_necessary must reproduce: the outer
radius at each height by a scan down a 513-radius grid and a bisection,
one contains2d call per radius, then the theorem-i caps tested one by one
with uniforms drawn one call at a time, stopping at the first failure.
And the reference that polygon_profile's membership must reproduce on
floats and on arrays: the loop over the polygon's edges.
"""

import math

import numpy as np

from heisconvex import DEFAULT_TOL, Point3, Tolerances, gallery
from heisconvex.core import Kit
from heisconvex.chcheck import RadialNecessityReport
from heisconvex.sets import GALLERY, RadialProfile

from ch_reference import dilate_oracle

# README's plus-shaped radial profile
PLUS_VERTICES = [[0, 2], [0.2, 2], [0.2, 0.2], [2, 0.2], [2, -0.2], [0.2, -0.2], [0.2, -2], [0, -2]]


def radial_sets():
    """Every radial gallery set, the plus shape and a dilated Koranyi ball."""
    sets = [gallery(name) for name, entry in GALLERY.items() if entry.expect and entry.expect.radial]
    return sets + [gallery("radial_custom", {"vertices": PLUS_VERTICES}), dilate_oracle(gallery("koranyi_ball"), 1.7)]


def reference_polygon_member(vertices, tol: Tolerances = DEFAULT_TOL):
    """polygon_profile's membership formula member(r, t, k), one edge at a time."""
    verts = [(float(r), float(t)) for r, t in vertices]
    eps2 = tol.eps_geom * tol.eps_geom
    edges = [(ax, ay, bx, by) for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]

    def member(r, t, k: Kit):
        # within eps of an edge, or inside by the even-odd crossing rule
        near = inside = False
        for ax, ay, bx, by in edges:
            vx, vy = bx - ax, by - ay
            wx, wy = r - ax, t - ay
            vv = vx * vx + vy * vy
            s = 0.0 if vv == 0.0 else k.max(0.0, k.min(1.0, (wx * vx + wy * vy) / vv))
            dx, dy = wx - s * vx, wy - s * vy
            near = near | (dx * dx + dy * dy <= eps2)
            if ay != by:
                crosses = (ay > t) != (by > t)
                inside = inside ^ (crosses & (ax + (t - ay) * vx / vy > r))
        return near | inside

    return member


def reference_outer_radius(P: RadialProfile, t: float, tol: Tolerances, grid: int = 512) -> float:
    """Outermost radius of the profile at height t, by scan plus bisection."""
    r_hi = P.r_max * 1.01 + 10.0 * tol.eps_geom
    last_true = None
    for j in range(grid, -1, -1):
        r = r_hi * j / grid
        if P.contains2d(r, t):
            last_true = r
            break
    if last_true is None:
        return 0.0
    lo = last_true
    hi = min(last_true + r_hi / grid, r_hi)
    for _ in range(tol.max_iter):
        if hi - lo <= tol.eps_geom:
            break
        mid = 0.5 * (lo + hi)
        if P.contains2d(mid, t):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_radial_necessary(
    P: RadialProfile,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> RadialNecessityReport:
    """The two necessary conditions for a radial set's dilation family.

    i: with r* the outer radius of the t = 0 slice, the gauge ball of
    radius r* lies inside the set (probed on n points of its slightly
    shrunk profile region, boundary arc plus seeded interior);
    ii: the widest radius over all heights does not exceed r* (+slack),
    i.e. the planar projection of the set stays in the t = 0 slice.
    Witness points replay against the oracle via the profile.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng([seed, 0x8A])
    r_flat = reference_outer_radius(P, 0.0, tol)
    shrink = 1.0 - max(1e-6, 10.0 * tol.eps_geom)

    thm_i_ok = True
    thm_i_witness = None
    caps_checked = 0
    if r_flat > 0.0:
        half = n // 2
        for k in range(half):
            r = r_flat * math.sqrt(k / max(1, half - 1)) if half > 1 else 0.0
            t_abs = math.sqrt(max((r_flat * r_flat) * (r_flat * r_flat) - (r * r) * (r * r), 0.0))
            for t in (t_abs, -t_abs):
                caps_checked += 1
                if not P.contains2d(r * shrink, t * shrink * shrink):
                    thm_i_ok = False
                    thm_i_witness = Point3(r * shrink, 0.0, t * shrink * shrink)
                    break
            if not thm_i_ok:
                break
        if thm_i_ok:
            for _ in range(n - 2 * (n // 2) + n // 2):
                r = r_flat * math.sqrt(math.sqrt(rng.uniform(0.0, 1.0)))
                t_cap = math.sqrt(max((r_flat * r_flat) * (r_flat * r_flat) - (r * r) * (r * r), 0.0))
                t = rng.uniform(-t_cap, t_cap)
                caps_checked += 1
                if not P.contains2d(r * shrink, t * shrink * shrink):
                    thm_i_ok = False
                    thm_i_witness = Point3(r * shrink, 0.0, t * shrink * shrink)
                    break

    t_lo, t_hi = P.t_range
    r_sup = r_flat
    t_at = 0.0
    grid = max(64, n // 8)
    for j in range(grid + 1):
        t = t_lo + (t_hi - t_lo) * j / grid
        r_t = reference_outer_radius(P, t, tol)
        if r_t > r_sup:
            r_sup = r_t
            t_at = t
    slack = max(10.0 * tol.eps_geom, tol.eps_geom * (1.0 + r_flat))
    thm_ii_ok = r_sup <= r_flat + slack
    thm_ii_witness = None if thm_ii_ok else Point3(r_sup, 0.0, 0.0)
    if not thm_ii_ok:
        # refine around the best height so the witness radius is sharp
        span = (t_hi - t_lo) / grid
        for t in np.linspace(max(t_lo, t_at - span), min(t_hi, t_at + span), 65):
            r_t = reference_outer_radius(P, float(t), tol)
            if r_t > r_sup:
                r_sup = r_t
        thm_ii_witness = Point3(r_sup, 0.0, 0.0)

    return RadialNecessityReport(
        thm_i_ok,
        thm_ii_ok,
        thm_i_witness,
        thm_ii_witness,
        caps_checked,
        solids_checked=1 if r_flat > 0.0 else 0,
        r_flat=r_flat,
        r_sup=r_sup,
    )
