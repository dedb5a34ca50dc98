"""Falsifiers for horizontal convexity properties of functions.

A function is horizontally convex when its restriction to every horizontal
segment is convex; quasiconvex when those restrictions never exceed the
endpoint maximum; homogeneous when it commutes with dilations to first
order.  All checks here are seeded semidecisions: a returned witness is a
genuine, replayable violation, while "no witness" only reports the budget
survived.  The horizontal subdifferential at a point is probed the same
way, by sampling the defining inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    HVec,
    Point3,
    Tolerances,
    dilate,
    exp_h,
    group_mul,
)
from .sets import SetOracle, horizontal_probes, theta_grid


@dataclass
class FnOracle:
    """A real-valued function on the group, as an evaluation handle."""

    eval: Callable[[Point3], float]
    label: str = "fn"


@dataclass
class ConvexityWitness:
    """A violated segment inequality: lhs > rhs + eps on the theta point."""

    base: Point3
    v: HVec
    theta: float
    lhs: float
    rhs: float
    kind: str = "convex"


@dataclass
class HomogeneityReport:
    ok: bool
    max_dev: float
    worst: Optional[tuple[float, Point3]] = None
    samples: int = 0


@dataclass
class SubdiffReport:
    precondition_failed: bool
    homogeneous: bool
    radial: bool = False
    pairs_tested: int = 0
    persistence_ok: bool = True
    rotation_ok: bool = True
    persistence_failures: list = field(default_factory=list)
    rotation_failures: list = field(default_factory=list)


def _segment_scan(
    f: FnOracle,
    domain: SetOracle,
    n: int,
    grid: int,
    seed: int,
    tol: Tolerances,
    quasi: bool,
) -> Optional[ConvexityWitness]:
    # One shared probe stream for both inequality kinds, so passing the
    # convex check at a seed implies passing the quasiconvex check there.
    if n < 1 or grid < 1:
        raise ValueError("need n >= 1 samples and grid >= 1")
    thetas = [th for th in theta_grid(max(grid, 2)) if 0.0 < th < 1.0]
    produced = 0
    for p, v, q in horizontal_probes(domain, n, seed, 0xF):
        produced += 1
        f0 = f.eval(p)
        f1 = f.eval(q)
        for th in thetas:
            lhs = f.eval(group_mul(p, exp_h(HVec(th * v.a, th * v.b))))
            rhs = max(f0, f1) if quasi else (1.0 - th) * f0 + th * f1
            if lhs > rhs + tol.eps_eq:
                return ConvexityWitness(p, v, th, lhs, rhs, "quasi" if quasi else "convex")
    if produced < n:
        raise RuntimeError(f"domain {domain.label} too thin: {produced}/{n} probes found")
    return None


def check_hconvex_fn(
    f: FnOracle,
    domain: SetOracle,
    n: int,
    grid: int = 9,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> Optional[ConvexityWitness]:
    """Hunt for a horizontal segment on which f fails the convexity inequality.

    Samples n pairs (p in domain, v) with p o exp_h(v) in domain and tests
    f(p o exp_h(theta v)) <= (1-theta) f(p) + theta f(p o exp_h(v)) + eps
    on a theta grid containing 1/2.

    Returns:
        The first violation in seeded order, or None after the budget.
    """
    return _segment_scan(f, domain, n, grid, seed, tol, quasi=False)


def check_hquasiconvex_fn(
    f: FnOracle,
    domain: SetOracle,
    n: int,
    grid: int = 9,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> Optional[ConvexityWitness]:
    """Same scan as check_hconvex_fn with max(f(p), f(q)) on the right side."""
    return _segment_scan(f, domain, n, grid, seed, tol, quasi=True)


def replay_witness(f: FnOracle, w: ConvexityWitness, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Re-evaluate a stored witness; true when the violation reproduces."""
    p = w.base
    q = group_mul(p, exp_h(w.v))
    lhs = f.eval(group_mul(p, exp_h(HVec(w.theta * w.v.a, w.theta * w.v.b))))
    f0, f1 = f.eval(p), f.eval(q)
    rhs = max(f0, f1) if w.kind == "quasi" else (1.0 - w.theta) * f0 + w.theta * f1
    return lhs > rhs + tol.eps_eq


def check_homogeneous(
    f: FnOracle,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    box: tuple = ((-2.0, 2.0), (-2.0, 2.0), (-4.0, 4.0)),
) -> HomogeneityReport:
    """Probe |f(dilate(lam, p)) - lam f(p)| <= eps * (1 + |f(p)|) * lam.

    lam is sampled log-uniformly in [1/4, 4]; max_dev is the largest
    normalized deviation seen.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng([seed, 0x40])
    max_dev = 0.0
    worst = None
    for _ in range(n):
        p = Point3(
            rng.uniform(*box[0]),
            rng.uniform(*box[1]),
            rng.uniform(*box[2]),
        )
        lam = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        fp = f.eval(p)
        dev = abs(f.eval(dilate(lam, p)) - lam * fp) / ((1.0 + abs(fp)) * lam)
        if dev > max_dev:
            max_dev = dev
            worst = (lam, p)
    return HomogeneityReport(ok=max_dev <= tol.eps_eq, max_dev=max_dev, worst=worst, samples=n)


def subdiff_contains(
    f: FnOracle,
    xi: Point3,
    p: HVec,
    n: int,
    radius: float,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Whether p survives as a horizontal subgradient of f at xi.

    Samples horizontal steps v with |v|_E <= radius and requires
    f(xi o exp_h(v)) >= f(xi) + <p, v> - eps on each.  True means no
    violation was found within the budget (a semidecision).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng([seed, 0x5D])
    f0 = f.eval(xi)

    def violated(v: HVec) -> bool:
        lhs = f.eval(group_mul(xi, exp_h(v)))
        return lhs < f0 + p.a * v.a + p.b * v.b - tol.eps_eq

    for k in range(16):
        phi = 2.0 * math.pi * k / 16.0
        if violated(HVec(radius * math.cos(phi), radius * math.sin(phi))):
            return False
    for _ in range(n):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mag = radius * math.sqrt(rng.uniform(0.0, 1.0))
        if violated(HVec(mag * math.cos(phi), mag * math.sin(phi))):
            return False
    return True


def horizontal_gradient(f: FnOracle, xi: Point3, h: float = 1e-5) -> HVec:
    """Central-difference gradient of f along the two horizontal fields."""

    def step(a: float, b: float) -> float:
        return f.eval(group_mul(xi, exp_h(HVec(a, b))))

    ga = (step(h, 0.0) - step(-h, 0.0)) / (2.0 * h)
    gb = (step(0.0, h) - step(0.0, -h)) / (2.0 * h)
    return HVec(ga, gb)


def _looks_radial(f: FnOracle, rng: np.random.Generator, tol: Tolerances) -> bool:
    for _ in range(64):
        p = Point3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-4, 4))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(ang), math.sin(ang)
        q = Point3(c * p.x - s * p.y, s * p.x + c * p.y, p.t)
        if abs(f.eval(p) - f.eval(q)) > tol.eps_eq * (1.0 + abs(f.eval(p))):
            return False
    return True


def subdiff_properties(
    f: FnOracle,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> SubdiffReport:
    """Persistence of subgradients under dilations, and under rotations
    when f is radial.

    Requires f homogeneous (checked first; failure is reported, not
    raised).  Pairs (xi, p) are found by estimating the horizontal
    gradient and keeping those that verify as subgradients.
    """
    hom = check_homogeneous(f, max(200, n // 10), seed, tol)
    if not hom.ok:
        return SubdiffReport(precondition_failed=True, homogeneous=False)
    rng = np.random.default_rng([seed, 0x5E])
    radial = _looks_radial(f, rng, tol)
    # finite-difference subgradient candidates carry O(h^2) error, so the
    # verification slack must sit above it
    slack = max(tol.eps_eq, 1e-7)
    loose = Tolerances(eps_geom=max(tol.eps_geom, slack), eps_eq=slack, max_iter=tol.max_iter)
    report = SubdiffReport(precondition_failed=False, homogeneous=True, radial=radial)
    attempts = 0
    while report.pairs_tested < n and attempts < 20 * n:
        attempts += 1
        xi = Point3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-4, 4))
        if f.eval(xi) == 0.0:
            continue
        p = horizontal_gradient(f, xi)
        sub_seed = int(rng.integers(0, 2 ** 31))
        if not subdiff_contains(f, xi, p, 64, 1.0, sub_seed, loose):
            continue
        report.pairs_tested += 1
        lam = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        if not subdiff_contains(f, dilate(lam, xi), p, 64, 1.0, sub_seed + 1, loose):
            report.persistence_ok = False
            report.persistence_failures.append((xi, p, lam))
        if radial:
            ang = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(ang), math.sin(ang)
            oxi = Point3(c * xi.x - s * xi.y, s * xi.x + c * xi.y, xi.t)
            op = HVec(c * p.a - s * p.b, s * p.a + c * p.b)
            if not subdiff_contains(f, oxi, op, 64, 1.0, sub_seed + 2, loose):
                report.rotation_ok = False
                report.rotation_failures.append((xi, p, ang))
    return report
