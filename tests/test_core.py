import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisconvex
from heisconvex import (
    HVec,
    Point3,
    Tolerances,
    dilate,
    exp_h,
    group_mul,
    norm,
)
from heisconvex.chcheck import curve_point
from heisconvex.core import DEFAULT_TOL, ORIGIN, scale
from heisconvex.sets import dilation_level_many


def horizontal_plane_t(p: Point3, x: float, y: float) -> float:
    """Height of the horizontal plane of p above planar point (x, y)."""
    return p.t + 2.0 * (p.y * x - p.x * y)


def horizontal_reach(p: Point3, q: Point3, tol: Tolerances = DEFAULT_TOL):
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

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.builds(Point3, coord, coord, coord)
scales = st.floats(min_value=0.01, max_value=50.0)


@given(points, points)
def test_group_law(p, q):
    r = group_mul(p, q)
    assert r.x == p.x + q.x
    assert r.y == p.y + q.y
    assert r.t == pytest.approx(p.t + q.t + 2.0 * (q.x * p.y - p.x * q.y), abs=1e-9)


@given(points, points, points)
def test_associativity(p, q, r):
    a = group_mul(group_mul(p, q), r)
    b = group_mul(p, group_mul(q, r))
    scale = 1.0 + norm(a, "euclidean")
    assert abs(a.x - b.x) <= 1e-9 * scale
    assert abs(a.y - b.y) <= 1e-9 * scale
    assert abs(a.t - b.t) <= 1e-7 * scale


@given(points)
def test_identity_and_inverse(p):
    assert group_mul(p, ORIGIN) == p
    assert group_mul(ORIGIN, p) == p
    w = group_mul(p, Point3(-p.x, -p.y, -p.t))
    assert w.x == 0.0 and w.y == 0.0
    assert abs(w.t) <= 1e-9 * (1.0 + abs(p.t))


def test_noncommutative():
    p = Point3(1.0, 0.0, 0.0)
    q = Point3(0.0, 1.0, 0.0)
    assert group_mul(p, q).t == -2.0
    assert group_mul(q, p).t == 2.0


@given(scales, points, points)
def test_dilation_homomorphism(lam, p, q):
    a = dilate(lam, group_mul(p, q))
    b = group_mul(dilate(lam, p), dilate(lam, q))
    scale = 1.0 + norm(a, "euclidean")
    assert abs(a.x - b.x) <= 1e-9 * scale
    assert abs(a.y - b.y) <= 1e-9 * scale
    assert abs(a.t - b.t) <= 1e-7 * scale


@given(scales, scales, points)
def test_dilation_composition(lam, mu, p):
    a = dilate(lam, dilate(mu, p))
    b = dilate(lam * mu, p)
    assert a.x == pytest.approx(b.x, rel=1e-12, abs=1e-12)
    assert a.t == pytest.approx(b.t, rel=1e-9, abs=1e-12)


def test_dilate_rejects_negative():
    with pytest.raises(ValueError):
        dilate(-0.5, Point3(1.0, 0.0, 0.0))


def test_scale_dilate_and_curve_point_are_exact_on_fractions():
    x, y, t = Fraction(0.3), Fraction(-7, 3), Fraction(1.1)
    lam = Fraction(5, 7)
    for scaling, t_factor in (("heisenberg", lam * lam), ("euclidean", lam)):
        got = scale(lam, x, y, t, scaling)
        assert all(isinstance(c, Fraction) for c in got)
        assert got == (lam * x, lam * y, t_factor * t)
    p = dilate(lam, Point3(x, y, t))
    assert all(isinstance(c, Fraction) for c in p)
    assert p == Point3(lam * x, lam * y, lam * lam * t)
    a, b, tau, theta = Fraction(0.7), Fraction(-1.3), Fraction(5, 2), Fraction(1, 3)
    mu = 1 / ((1 - theta) + theta * tau)
    sa, sb = theta * a, theta * b
    curve = curve_point(x, y, t, a, b, tau, theta)
    assert all(isinstance(c, Fraction) for c in curve)
    assert curve == (mu * (x + sa), mu * (y + sb), mu * mu * (t + 2 * (sa * y - x * sb)))


def test_scale_rejects_unknown_scaling():
    with pytest.raises(ValueError) as scaled:
        scale(2.0, 1.0, 0.0, 0.0, "spherical")
    with pytest.raises(ValueError) as levels:
        dilation_level_many(heisconvex.gallery("koranyi_ball"), [0.5], [0.0], [0.0], scaling="spherical")
    assert str(scaled.value) == str(levels.value) == "unknown scaling 'spherical'"


@given(scales, points)
def test_norm_homogeneity(lam, p):
    assert norm(dilate(lam, p), "koranyi") == pytest.approx(lam * norm(p, "koranyi"), rel=1e-9, abs=1e-12)


def test_norm_values():
    p = Point3(3.0, 4.0, 0.0)
    assert norm(p, "koranyi") == pytest.approx(5.0)
    assert norm(p, "euclidean") == pytest.approx(5.0)
    q = Point3(0.0, 0.0, 9.0)
    assert norm(q, "koranyi") == pytest.approx(3.0)
    # gauge-sphere point that leaves the euclidean unit ball
    s = Point3(2.0 ** -0.5, 0.0, math.sqrt(3.0) / 2.0)
    assert norm(s, "koranyi") == pytest.approx(1.0, abs=1e-15)
    assert norm(s, "euclidean") > 1.1


def test_norm_unknown_kind():
    for kind in ("taxicab", "quasi"):
        with pytest.raises(ValueError):
            norm(Point3(0.0, 0.0, 0.0), kind)


@given(points, st.builds(HVec, coord, coord))
def test_horizontal_reach_roundtrip(p, v):
    q = group_mul(p, exp_h(v))
    got = horizontal_reach(p, q)
    assert got is not None
    assert got.a == pytest.approx(v.a, abs=1e-12)
    assert got.b == pytest.approx(v.b, abs=1e-12)


def test_horizontal_reach_off_plane():
    p = Point3(0.2, -0.3, 0.5)
    q = Point3(1.0, 1.0, horizontal_plane_t(p, 1.0, 1.0) + 0.1)
    assert horizontal_reach(p, q) is None


def test_tolerances_invariant():
    with pytest.raises(ValueError):
        Tolerances(eps_geom=1e-9, eps_eq=1e-7)
    with pytest.raises(ValueError):
        Tolerances(eps_geom=1e-7, eps_eq=0.0)
    with pytest.raises(ValueError):
        Tolerances(max_iter=0)
    assert Tolerances(eps_geom=1e154, eps_eq=1e-9).eps_geom == 1e154
    # non-finite slack is no tolerance: inf alone, or with eps_eq = inf, NaN,
    # and a slack whose square, the bound of every squared distance, is inf
    for eps_geom, eps_eq in ((math.inf, 1e-9), (math.inf, math.inf), (math.nan, 1e-9), (1e-7, math.nan), (1e155, 1e-9)):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(eps_geom=eps_geom, eps_eq=eps_eq)
    # oracles capture eps_geom when built, so the shared default must not change
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TOL.eps_geom = 1e-3


def test_all_exports_resolve():
    # a stale name in __all__ breaks "from heisconvex import *"
    missing = [name for name in heisconvex.__all__ if not hasattr(heisconvex, name)]
    assert missing == []
    assert len(set(heisconvex.__all__)) == len(heisconvex.__all__)
