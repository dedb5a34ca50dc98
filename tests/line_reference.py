"""The horizontal line stream and its scan, one line at a time.

The reference that sets.scan_horizontal_segments must reproduce bit for
bit: chunk c of the stream comes from default_rng([seed, 0xC, c]) as
LINE_CHUNK points of K (uniform_points), then their angles, and is drawn
when its first line is needed; each line is then clipped to the bbox,
sampled, stepped with the scalar group law and tested with K.contains.
"""

import itertools
import math

import numpy as np

from heisconvex import HVec, Point3, SegmentEscape, Tolerances, escape_margin, escapes, exp_h, group_mul
from heisconvex.sets import LINE_CHUNK, SEGMENT_GRID, interior_thetas, uniform_points


def reference_lines(K, seed):
    """Yield the lines (p, u) of the stream, p a point of K and u a unit (cos, sin)."""
    for chunk in itertools.count():
        rng = np.random.default_rng([seed, 0xC, chunk])
        points = uniform_points(K, LINE_CHUNK, rng).tolist()
        phi = rng.uniform(0.0, 2.0 * math.pi, LINE_CHUNK)
        yield from zip(points, zip(np.cos(phi).tolist(), np.sin(phi).tolist()))


def chord(K, p, u):
    """The s range [s_lo, s_hi] in which p o exp_h(s u) stays in K's bbox."""
    slope = (u[0], u[1], 2.0 * (u[0] * p[1] - p[0] * u[1]))
    s_lo, s_hi = -math.inf, math.inf
    for (lo, hi), c, d in zip(K.bbox, p, slope):
        if d != 0.0:
            a, b = sorted(((lo - c) / d, (hi - c) / d))
            s_lo, s_hi = max(s_lo, a), min(s_hi, b)
    return s_lo, s_hi


def reference_scan(K, n, grid, seed, tol=Tolerances()):
    """(escape or None, lines counted), or (RuntimeError, message) for the
    error the scan stops on: a stall, or "too thin" when fewer than n of
    the first 1000 + 400 n lines count."""
    thetas = interior_thetas(grid).tolist()
    step = (grid - 1) // (SEGMENT_GRID - 1)
    lines = reference_lines(K, seed)
    used = 0
    try:
        for _ in range(1000 + 400 * n):
            if used == n:
                break
            p, u = next(lines)
            s_lo, s_hi = chord(K, p, u)
            s = [s_lo + (s_hi - s_lo) * th for th in thetas]
            pts = [group_mul(Point3(*p), exp_h(HVec(sj * u[0], sj * u[1]))) for sj in s]
            inside = [K.contains(q) for q in pts]
            # the line counts when two of its SEGMENT_GRID samples are inside
            if sum(inside[step - 1 :: step]) < 2:
                continue
            used += 1
            for j, q in enumerate(pts):
                if not (any(inside[:j]) and any(inside[j + 1 :]) and escapes(K, q, tol)):
                    continue
                a = max(k for k in range(j) if inside[k])
                b = min(k for k in range(j + 1, len(pts)) if inside[k])
                width = s[b] - s[a]
                base, v = pts[a], HVec(width * u[0], width * u[1])
                theta = (s[j] - s[a]) / width
                pt = group_mul(base, exp_h(HVec(theta * v.a, theta * v.b)))
                if K.contains(group_mul(base, exp_h(v))) and escapes(K, pt, tol):
                    return SegmentEscape(base, v, theta, pt, escape_margin(K, pt, tol)), used
    except RuntimeError as exc:
        return RuntimeError, str(exc)
    if used < n:
        return RuntimeError, f"domain {K.label} too thin: {used}/{n} lines found"
    return None, used
