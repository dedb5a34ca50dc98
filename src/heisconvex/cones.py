"""Candidate cone functions built from a set by its dilation levels.

For a compact set K, star-shaped under dilations with the identity
interior, the nested family {dilate(tau, K)} determines the function
f(p) = min{tau >= 0 : p in dilate(tau, K)}; this module evaluates it by
a level formula or bisection, checks the three level-family axioms (coverage,
nesting, closedness from above) by sampling, and validates the built
function's homogeneity by sampling.  Its horizontal convexity is, by the
paper's equivalence, condition C_H of the family: the verdict comes from
the C_H search of the set (chcheck.ch_escapes), each escape carried over
to a segment witness of f.  A Euclidean variant scales all three
coordinates by the same factor, giving the classical cone baseline
f(p) = min{tau : p in tau K}; it has no C_H counterpart, so its
convexity is hunted on f itself (check_hconvex_fn).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from .chcheck import ch_escapes
from .core import ARRAYS, DEFAULT_TOL, HVec, Point3, Tolerances, dilate, exp_h, group_mul, scale
from .convexity import (
    ConvexityWitness,
    FnOracle,
    HomogeneityReport,
    check_hconvex_fn,
    check_homogeneous,
)
from .sets import (
    SetOracle,
    box_oracle,
    check_axioms_ab,
    _bisected_levels,
    dilation_level,
    dilation_level_many,
    uniform_points,
)

KINDS = ("heisenberg", "euclidean")


@dataclass
class ConeFunction:
    """An evaluation handle for the dilation-level function of a set.

    Build through make_cone, which enforces the set assumptions the
    bisection relies on.
    """

    source: SetOracle
    kind: str = "heisenberg"
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")


@dataclass
class NestingWitness:
    """A point of the tau1-copy of the set outside its tau2-copy, tau1 < tau2."""

    tau1: float
    tau2: float
    point: Point3


@dataclass
class FamilyReport:
    """Sampled outcomes of the level-family axioms for one cone."""

    axiom_i_ok: bool
    axiom_ii_ok: bool
    axiom_iii_ok: bool
    nesting_witness: Optional[NestingWitness]
    samples: int
    seed: int
    coverage_failure: Optional[Point3] = None
    closedness_failure: Optional[tuple[Point3, float]] = None

    @property
    def all_ok(self) -> bool:
        return self.axiom_i_ok and self.axiom_ii_ok and self.axiom_iii_ok


@dataclass
class ConeValidation:
    family: FamilyReport
    homogeneity: Optional[HomogeneityReport]
    convexity_witness: Optional[ConvexityWitness]
    verdict: str


def make_cone(
    K: SetOracle,
    kind: str = "heisenberg",
    tol: Tolerances = DEFAULT_TOL,
    n: int = 1000,
    seed: int = 0,
) -> ConeFunction:
    """Build the cone handle, checking assumptions a and b first.

    The bisection in cone_eval is only monotone for compact sets with the
    identity interior that are star-shaped under dilations, so oracles
    failing check_axioms_ab on n samples are refused (assumption c is not
    needed).  ConeFunction(K, kind) builds the handle unchecked.
    """
    a_holds, b_holds, _ = check_axioms_ab(K, n, seed)
    if not a_holds:
        raise ValueError(
            f"{K.label} fails assumption a (compact with identity interior); "
            "refusing to build a cone function"
        )
    if not b_holds:
        raise ValueError(
            f"{K.label} fails assumption b (star-shaped under dilations); "
            "the dilation family is not nested, refusing to build"
        )
    return ConeFunction(K, kind, tol)


def cone_eval(C: ConeFunction, xi: Point3) -> float:
    """The dilation level of xi (sets.dilation_level): the set's level
    formula, or the midpoint of a bisected bracket; levels below eps_geom
    snap to 0, so cone_eval(e) = 0 exactly.
    """
    return dilation_level(C.source, xi, C.tol, scaling=C.kind)


def cone_fn_oracle(C: ConeFunction) -> FnOracle:
    """The cone function as an FnOracle; eval_many evaluates by dilation_level_many."""
    return FnOracle(
        lambda p: cone_eval(C, p),
        f"cone[{C.source.label}]",
        kernel=lambda x, y, t: dilation_level_many(C.source, x, y, t, C.tol, C.kind),
    )


def _scaled_box(C: ConeFunction, factor: float) -> SetOracle:
    """C's source box under the dilation of C's kind by factor."""
    lo, hi = (scale(factor, *corner, C.kind) for corner in zip(*C.source.bbox))
    return box_oracle(tuple(zip(lo, hi)), label=f"box({factor:g} x {C.source.label})")


def family_axioms_check(C: ConeFunction, n: int, seed: int = 0) -> FamilyReport:
    """Sample the three level-family axioms for the dilation family of C.

    I (coverage): points of an enlarged box all get a finite level;
    II (nesting): a point of the tau1-copy lies in every larger copy;
    III (closedness from above): membership holds at the computed level
    plus shrinking upward probes.

    One stream gives, in order, m = max(1, n // 3) box points, II's m set
    points and their m scale pairs.  I and III share the box points, bisected
    in one batch; II tests its set points in one contains_many call.  Each
    axiom reports its first failure in sample order.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng([seed, 0xFA])
    K, tol = C.source, C.tol
    m = max(1, n // 3)
    draws = rng.uniform(*zip(*_scaled_box(C, 2.0).bbox), size=(m, 3))
    try:
        pts, axiom_ii_ok = uniform_points(K, m, rng), True
    except RuntimeError:
        pts, axiom_ii_ok = np.empty((0, 3)), False
    taus = np.exp(rng.uniform(np.log(0.125), np.log(8.0), (len(pts), 2)))
    levels = dilation_level_many(K, *draws.T, tol, C.kind, strict=False)

    # I: the first point whose bracket runs away
    ran_away = np.flatnonzero(np.isnan(levels))
    coverage_failure = Point3(*draws[ran_away[0]].tolist()) if ran_away.size else None

    # II: the first set point whose (tau1 / tau2)-copy leaves K
    tau1, tau2 = taus.min(axis=1), taus.max(axis=1)
    tau2 = np.where(tau2 - tau1 < 1e-3, tau1 * 1.5, tau2)
    escaped = np.flatnonzero(~K.contains_many(*scale(tau1 / tau2, *pts.T, C.kind)))
    nesting_witness = None
    if escaped.size:
        k = int(escaped[0])
        tau1, tau2 = float(tau1[k]), float(tau2[k])
        nesting_witness = NestingWitness(tau1, tau2, Point3(*scale(tau1, *pts[k].tolist(), C.kind)))

    # III: points whose bracket runs away (NaN) or that sit at the vertex are skipped
    keep = np.flatnonzero(levels > 0.0)
    steps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    tau = levels[keep, None] * (1.0 + steps) + tol.eps_geom
    inside = K.contains_many(*scale(1.0 / tau, *(draws[keep, i, None] for i in range(3)), C.kind))
    # the first failure in (point, step) order
    failed = np.flatnonzero(~inside)
    closedness_failure = None
    if failed.size:
        r, j = divmod(int(failed[0]), len(steps))
        closedness_failure = (Point3(*draws[keep[r]].tolist()), float(tau[r, j]))

    return FamilyReport(
        coverage_failure is None,
        axiom_ii_ok and nesting_witness is None,
        closedness_failure is None,
        nesting_witness,
        samples=n,
        seed=seed,
        coverage_failure=coverage_failure,
        closedness_failure=closedness_failure,
    )


def cone_validate(C: ConeFunction, n: int, seed: int = 0) -> ConeValidation:
    """Validate the built function: family axioms, homogeneity, convexity.

    The Heisenberg kind's convexity witness comes from the C_H search of
    the source set (_ch_convexity_witness); the Euclidean kind scans f on
    n horizontal segments of a 1.5x box.  Bisection output carries
    eps_geom-level noise, so a witness must clear slack an order above it;
    genuine violations (the flat cylinder's arcs overshoot by ~1e-2) sit
    far above that.  Violations small and rare on the boundary can slip
    past the search where a scan of f would catch them: a 66-vertex
    polygon inscribed in the Koranyi profile (gaps about 1e-5) reads
    candidate at 20 of seeds 0-63 at n = 2000, the scan alone at none.
    """
    family = family_axioms_check(C, min(n, 600), seed)
    if not family.all_ok:
        return ConeValidation(family, None, None, "family axioms failed")
    tol = C.tol
    slack = max(100.0 * tol.eps_geom, tol.eps_eq)
    loose = Tolerances(
        eps_geom=max(tol.eps_geom, slack),
        eps_eq=slack,
        max_iter=tol.max_iter,
    )
    f = cone_fn_oracle(C)
    hom = check_homogeneous(f, max(50, n // 20), seed, loose, box=C.source.bbox)
    # the Euclidean kind has no C_H search, so f itself is always scanned
    witness, scan = _ch_convexity_witness(C, f, n, seed, loose) if C.kind == "heisenberg" else (None, True)
    if scan:
        witness = check_hconvex_fn(f, _scaled_box(C, 1.5), n, grid=5, seed=seed, tol=loose)
    if not hom.ok:
        verdict = "homogeneity deviation above tolerance"
    elif witness is not None:
        verdict = "horizontal convexity witness found"
    else:
        verdict = "candidate cone function (not falsified)"
    return ConeValidation(family, hom, witness, verdict)


def _ch_convexity_witness(
    C: ConeFunction, f: FnOracle, n: int, seed: int, loose: Tolerances
) -> tuple[Optional[ConvexityWitness], bool]:
    """(witness, scan): the first escape of the C_H search on C's source
    (n pairs) that is a witness of f, and whether f must still be scanned
    for one, which is when the search escaped but gave no witness.

    An escape (xi0, xi1, tau, v, theta) puts f(xi0 o exp_h(theta v)) above
    (1 - theta) + theta tau, which bounds (1 - theta) f(xi0) + theta
    f(xi0 o exp_h(v)).  It is first dilated by 1/max(1, tau), which keeps
    it a violation (f is homogeneous) and its levels near or below 1, where
    f, bisected or exact, is accurate to about eps_geom.  The sides are taken as
    replay_witness takes them, the points of each (pair, tau) row in one
    eval_many call, which equals eval bit for bit, so the witness replays;
    an escape whose gap does not clear loose.eps_eq is passed over.
    Escapes that all fall below it (margins about 1e-6 on a fine polygon)
    still show that f is not horizontally convex, so cone_validate then
    scans f (check_hconvex_fn) for a witness that clears it.
    """
    escaped = False
    for _, row in groupby(ch_escapes(C.source, n, seed=seed, tol=C.tol), lambda w: (w.pair_index, w.tau)):
        row = list(row)
        escaped, w, thetas = True, row[0], [r.theta_star for r in row]
        lam = 1.0 / max(1.0, w.tau)
        base, v = dilate(lam, w.xi0), HVec(lam * w.v.a, lam * w.v.b)
        pts = [base, group_mul(base, exp_h(v))] + [group_mul(base, exp_h(HVec(t * v.a, t * v.b))) for t in thetas]
        f0, f1, *lhs = f.eval_many(*np.array(pts).T).tolist()
        for theta, value in zip(thetas, lhs):
            rhs = (1.0 - theta) * f0 + theta * f1
            if value > rhs + loose.eps_eq:
                return ConvexityWitness(base, v, theta, value, rhs), False
    return None, escaped


def compare_closed_form(C: ConeFunction, n: int, seed: int = 0) -> float:
    """Max |bisected level - level formula| over n sampled points of a 1.5x
    box, the formula evaluated on all of them at once with ARRAYS; the
    levels are bisected (sets._bisected_levels), since cone_eval takes the
    formula itself.  Every gallery set but slab_x and radial_custom has a
    formula, importante's sine branch solved by Newton steps.

    Raises:
        ValueError: C is not of the Heisenberg kind (the level formulas
            are Heisenberg dilation levels), or the source set has no
            level formula (a polygon, for one).
    """
    if C.kind != "heisenberg":
        raise ValueError(f"closed forms are heisenberg cone functions; {C.source.label} has none for the {C.kind} kind")
    if C.source.level is None:
        raise ValueError(f"{C.source.label} has no closed-form cone function")
    rng = np.random.default_rng([seed, 0xCF])
    (xlo, xhi), (ylo, yhi), (tlo, thi) = _scaled_box(C, 1.5).bbox
    draws = rng.uniform((xlo, ylo, tlo), (xhi, yhi, thi), size=(n, 3))
    closed = C.source.level(Point3(*draws.T), ARRAYS)
    level = _bisected_levels(C.source, *draws.T, C.tol, C.kind, strict=True)
    return float(np.abs(level - closed).max(initial=0.0))
