"""Reference constructions for the interpolation condition C_H.

The program's checks are compared against these: the piecewise closed
forms of the interpolation curve (ch_curve must agree with them point by
point), the dilated copy of a set, a witness carried along the dilation
to that copy (it must replay against it), and a convexity witness of the
cone function carried back to a C_H witness of its set.
"""

import math
from typing import Optional

from heisconvex import DEFAULT_TOL, ConvexityWitness, FnOracle, HVec, Point3, Tolerances, dilate, exp_h, group_mul
from heisconvex.chcheck import ChWitness, _check_curve_inputs, curve_point
from heisconvex.core import FLOATS
from heisconvex.sets import RadialProfile, SetOracle


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
    cone = None
    if K.closed_form_cone is not None:
        inner_cone = K.closed_form_cone
        cone = lambda p, k=FLOATS: inner_cone(p, k) / alpha
    return SetOracle(
        contains=contains,
        bbox=((alpha * xlo, alpha * xhi), (alpha * ylo, alpha * yhi), (a2 * tlo, a2 * thi)),
        label=f"dilate({alpha:g}, {K.label})",
        is_compact=K.is_compact,
        profile=profile,
        closed_form_cone=cone,
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
