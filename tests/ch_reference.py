"""Reference constructions for the interpolation condition C_H.

The program's checks are compared against these: the piecewise closed
forms of the interpolation curve (ch_curve must agree with them point by
point), the C_H search one chunk at a time (ch_escapes must yield its
escapes bit for bit), the dilated copy of a set, a witness carried along
the dilation to that copy (it must replay against it), and a convexity
witness of the cone function carried back to a C_H witness of its set.
"""

import math
from typing import Iterator, Optional

import numpy as np

from heisconvex import DEFAULT_TOL, ORIGIN, ConvexityWitness, FnOracle, HVec, Point3, Tolerances, dilate, exp_h, group_mul
from heisconvex.chcheck import (
    CURVE_SAMPLES,
    PAIR_CHUNK,
    POOL_GROUP,
    ChWitness,
    _check_curve_inputs,
    curve_point,
    solve_tau_many,
)
from heisconvex.core import FLOATS
from heisconvex.sets import RadialProfile, SetOracle, boundary_sample, escapes_many, interior_thetas, uniform_points


def _case_of(xi0: Point3, alpha: float, beta: float, tau: float, tol: Tolerances) -> str:
    scale = 1.0 + abs(xi0.x) + abs(xi0.y) + abs(alpha) + abs(beta) + abs(tau)
    if abs(xi0.x * (tau - 1.0) - alpha) > tol.eps_eq * scale:
        return "i"
    if abs(xi0.y * (tau - 1.0) - beta) > tol.eps_eq * scale:
        return "ii"
    return "iii"


def ch_curve_cases(
    xi0: Point3,
    alpha: float,
    beta: float,
    tau: float,
    m: int,
    tol: Tolerances = DEFAULT_TOL,
    case: Optional[str] = None,
) -> list[Point3]:
    """The same curve as ch_curve, from the piecewise closed forms.

    Case i applies when x0 (tau - 1) != alpha, case ii when that is an
    equality but y0 (tau - 1) != beta, case iii when both are equalities.
    The closed forms are evaluated at the parameter values matching the
    uniform theta grid, so the output is pointwise comparable to ch_curve.

    Raises:
        ValueError: a non-finite input, tau <= 0, m < 2, or an explicitly
            requested case that does not match the inputs.
    """
    _check_curve_inputs(xi0, (alpha, beta), tau, m)
    x0, y0, t0 = xi0
    actual = _case_of(xi0, alpha, beta, tau, tol)
    if case is not None and case != actual:
        raise ValueError(f"inputs select case {actual}, not case {case}")
    A = x0 * beta - y0 * alpha
    pts = []
    for j in range(m):
        th = j / (m - 1)
        tau_th = (1.0 - th) + th * tau
        if actual == "i":
            s = (x0 + th * alpha) / tau_th
            den = (tau - 1.0) * x0 - alpha
            w = (tau - 1.0) * s - alpha
            y = ((y0 * (tau - 1.0) - beta) * s + A) / den
            t = (t0 * w * w - 2.0 * A * (x0 - s) * w) / (den * den)
            pts.append(Point3(s, y, t))
        elif actual == "ii":
            s = (y0 + th * beta) / tau_th
            den = (tau - 1.0) * y0 - beta
            w = (tau - 1.0) * s - beta
            a2 = x0 * (beta - (tau - 1.0) * y0)
            t = (t0 * w * w - 2.0 * a2 * (y0 - s) * w) / (den * den)
            pts.append(Point3(x0, s, t))
        else:
            s = th
            den = 1.0 + s * (tau - 1.0)
            pts.append(Point3(x0, y0, t0 / (den * den)))
    return pts


def reference_ch_escapes(K: SetOracle, budget: int, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> Iterator[ChWitness]:
    """The escapes of falsify_ch's search, drawn, solved and screened one chunk at a time.

    Chunk c draws from default_rng([seed, 0xC4, c]).  With the boundary
    pool of its group of POOL_GROUP chunks, built when the group is
    reached, pair k is (pool[i], pool[j]) for row k of the stream's
    (PAIR_CHUNK, 2) integers; without one, the stream's uniform points 2k
    and 2k + 1; only a set that is not compact or leaves e outside has
    none.  A draw that raises does so after the escapes of every chunk
    before it.
    """
    thetas = interior_thetas(CURVE_SAMPLES)
    for chunk, start in enumerate(range(0, budget, PAIR_CHUNK)):
        if chunk % POOL_GROUP == 0:
            pool = None
            if K.is_compact and K.contains(ORIGIN):
                pool = boundary_sample(K, PAIR_CHUNK, seed, tol, chunk // POOL_GROUP)
        rng = np.random.default_rng([seed, 0xC4, chunk])
        if pool is None:
            pts = uniform_points(K, 2 * PAIR_CHUNK, rng).reshape(PAIR_CHUNK, 2, 3)
            xi0, xi1 = pts[:, 0], pts[:, 1]
        else:
            pick = rng.integers(0, len(pool), size=(PAIR_CHUNK, 2))
            xi0, xi1 = pool[pick[:, 0]], pool[pick[:, 1]]
        xi0, xi1 = xi0[: budget - start], xi1[: budget - start]
        taus = solve_tau_many(xi0.T, xi1.T, tol)[0]
        p, root = np.nonzero(~np.isnan(taus))
        tau = taus[p, root]
        a = tau * xi1[p, 0] - xi0[p, 0]
        b = tau * xi1[p, 1] - xi0[p, 1]
        x0, y0, t0 = xi0[p].T[:, :, None]
        px, py, pt = curve_point(x0, y0, t0, a[:, None], b[:, None], tau[:, None], thetas)
        for hit in np.flatnonzero(escapes_many(K, px, py, pt, tol)).tolist():
            r, j = divmod(hit, len(thetas))
            yield ChWitness(
                Point3(*xi0[p[r]].tolist()),
                Point3(*xi1[p[r]].tolist()),
                float(tau[r]),
                HVec(float(a[r]), float(b[r])),
                float(thetas[j]),
                Point3(float(px[r, j]), float(py[r, j]), float(pt[r, j])),
                math.nan,
                pair_index=start + int(p[r]),
            )


def transport_witness(w: ChWitness, alpha: float) -> ChWitness:
    """Carry a witness along the dilation by alpha.

    Both endpoints and the escape point dilate, the step scales linearly,
    tau and theta are invariant; the result witnesses the dilated set.
    """
    if alpha <= 0.0:
        raise ValueError("dilation factor must be positive")
    return ChWitness(
        dilate(alpha, w.xi0),
        dilate(alpha, w.xi1),
        w.tau,
        HVec(alpha * w.v.a, alpha * w.v.b),
        w.theta_star,
        dilate(alpha, w.escape_point),
        w.margin,
        w.pair_index,
    )


def dilate_oracle(K: SetOracle, alpha: float) -> SetOracle:
    """The dilated set: membership of p tested as dilate(1/alpha, p) in K."""
    if alpha <= 0.0:
        raise ValueError("dilation factor must be positive")
    (xlo, xhi), (ylo, yhi), (tlo, thi) = K.bbox
    a2 = alpha * alpha
    lam = 1.0 / alpha
    contains = lambda p: K.contains(dilate(lam, p))
    kernel = lambda x, y, t: K.contains_many(lam * x, lam * y, lam * lam * t)
    profile = None
    if K.profile is not None:
        inner = K.profile
        profile = RadialProfile(
            lambda r, t, k: inner.inside(lam * r, lam * lam * t, k),
            inner.r_max * alpha,
            (inner.t_range[0] * a2, inner.t_range[1] * a2),
        )
    level = None
    if K.level is not None:
        inner_level = K.level
        level = lambda p, k=FLOATS: inner_level(p, k) / alpha
    return SetOracle(
        contains=contains,
        bbox=((alpha * xlo, alpha * xhi), (alpha * ylo, alpha * yhi), (a2 * tlo, a2 * thi)),
        label=f"dilate({alpha:g}, {K.label})",
        is_compact=K.is_compact,
        profile=profile,
        level=level,
        kernel=kernel,
    )


def ch_witness_of_cone(f: FnOracle, w: ConvexityWitness) -> ChWitness:
    """A convexity witness (p, v, theta) of the level function f, as a C_H witness.

    With a = f(p) and b = f(p o exp_h(v)), the endpoints dilate(1/a, p) and
    dilate(1/b, q) lie on the boundary, joined at level b/a by the step
    v/a, and the curve point at theta has level f(p o exp_h(theta v)) over
    (1 - theta) a + theta b, above 1.  a and b both grow by 1 + 1e-6,
    which keeps the level and the joining exact and pulls the endpoints
    inside K, since a bisected level is a bracket midpoint.
    """
    p, theta = w.base, w.theta
    q = group_mul(p, exp_h(w.v))
    pull = 1.0 + 1e-6
    a, b = pull * f.eval(p), pull * f.eval(q)
    xi0, v = dilate(1.0 / a, p), HVec(w.v.a / a, w.v.b / a)
    escape = Point3(*curve_point(*xi0, *v, b / a, theta))
    return ChWitness(xi0, dilate(1.0 / b, q), b / a, v, theta, escape, math.nan)
