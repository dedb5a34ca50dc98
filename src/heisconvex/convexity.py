"""Falsifiers for horizontal convexity properties of functions.

A function is horizontally convex when its restriction to every horizontal
segment is convex; quasiconvex when those restrictions never exceed the
endpoint maximum; homogeneous when it commutes with dilations to first
order.  All checks here are seeded semidecisions: a returned witness is a
genuine, replayable violation, while "no witness" only reports the budget
survived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    HVec,
    Point3,
    Tolerances,
    exp_h,
    group_mul,
    scale,
)
from .sets import SetOracle, chunk_batches, interior_thetas, segment_chunks


# The least homogeneity tolerance: the gallery's exact levels deviate by
# rounding, at most 2.42e-16 (koranyi_ball) on their bounding boxes at
# seeds 0-63, with 50 and 2000 samples.
_HOMOGENEITY_FLOOR = 4.0 * 2.0 ** -52


@dataclass
class FnOracle:
    """A real-valued function on the group, as an evaluation handle.

    eval_many(x, y, t) evaluates flat coordinate arrays and returns a float
    array, equal to eval element for element: a function that supplies
    kernel (cone_fn_oracle does, from dilation_level_many) must keep that
    contract bit for bit, and without one it is a row loop over eval.
    The falsifiers below evaluate through it.
    """

    eval: Callable[[Point3], float]
    label: str = "fn"
    kernel: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    def eval_many(self, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
        if self.kernel is not None:
            return self.kernel(x, y, t)
        rows = zip(np.ravel(x).tolist(), np.ravel(y).tolist(), np.ravel(t).tolist())
        return np.array([self.eval(Point3(*row)) for row in rows], dtype=float)


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


def _eval_in_order(f: FnOracle, x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """(values, error): f on the points, and the error that stopped it or None.

    When the batch raises, the points are evaluated one by one in order;
    values after the first failing point are NaN and its error is returned,
    so a caller can still honour whatever came before it.
    """
    try:
        return f.eval_many(x, y, t), None
    except Exception:
        values = np.full(x.size, np.nan)
        for i, row in enumerate(zip(x.tolist(), y.tolist(), t.tolist())):
            try:
                values[i] = f.eval(Point3(*row))
            except Exception as exc:
                return values, exc
        return values, None


def _chunk_witness(
    f: FnOracle,
    group: list,
    thetas: np.ndarray,
    tol: Tolerances,
    quasi: bool,
) -> Optional[ConvexityWitness]:
    """The first violation in a list of segment_chunks chunks, in (probe, theta) order.

    The chunks are evaluated in one batch, laid out as a serial scan meets
    them: per probe p, q, then p o exp_h(theta v) for each theta.  An
    evaluation error is raised only when no violation comes before it.
    """
    p, v, q, seg = zip(*group)
    # each seg is a Point3 of (k, len(thetas)) arrays: join them along k
    p, v, q, seg = np.concatenate(p), np.concatenate(v), np.concatenate(q), np.concatenate(seg, axis=1)
    x, y, t = (np.concatenate([p[:, i : i + 1], q[:, i : i + 1], seg[i]], axis=1) for i in range(3))
    values, error = _eval_in_order(f, x.ravel(), y.ravel(), t.ravel())
    values = values.reshape(x.shape)
    f0, f1, lhs = values[:, :1], values[:, 1:2], values[:, 2:]
    # np.where(f1 > f0, f1, f0) is max(f0, f1), NaN included
    if quasi:
        rhs = np.broadcast_to(np.where(f1 > f0, f1, f0), lhs.shape)
    else:
        rhs = (1.0 - thetas) * f0 + thetas * f1
    hits = np.flatnonzero(lhs > rhs + tol.eps_eq)
    if hits.size:
        r, j = divmod(int(hits[0]), len(thetas))
        base, step = Point3(*p[r].tolist()), HVec(*v[r].tolist())
        kind = "quasi" if quasi else "convex"
        return ConvexityWitness(base, step, float(thetas[j]), float(lhs[r, j]), float(rhs[r, j]), kind)
    if error is not None:
        raise error
    return None


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
    # Its chunks are tested in batches of 1, 2, 4, 8, then 16 (chunk_batches).
    if n < 1 or grid < 1:
        raise ValueError("need n >= 1 samples and grid >= 1")
    thetas = interior_thetas(max(grid, 2))
    for group in chunk_batches(segment_chunks(domain, n, thetas, seed), chain((1, 2, 4, 8), repeat(16))):
        witness = _chunk_witness(f, group, thetas, tol, quasi)
        if witness is not None:
            return witness
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
    """Probe |f(dilate(lam, p)) - lam f(p)| <= eps * (1 + |f(p)|) * lam,
    with eps = max(eps_eq, _HOMOGENEITY_FLOOR).

    lam is sampled log-uniformly in [1/4, 4]; max_dev is the largest
    normalized deviation seen.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng([seed, 0x40])
    # row k holds the k-th sample's four draws, in the order drawn one at a time
    (xlo, xhi), (ylo, yhi), (tlo, thi) = box
    draws = rng.uniform([xlo, ylo, tlo, math.log(0.25)], [xhi, yhi, thi, math.log(4.0)], size=(n, 4))
    x, y, t = draws[:, 0], draws[:, 1], draws[:, 2]
    lam = np.array([math.exp(u) for u in draws[:, 3].tolist()])
    values = f.eval_many(*map(np.concatenate, zip((x, y, t), scale(lam, x, y, t))))
    fp, fd = values[:n], values[n:]
    dev = np.abs(fd - lam * fp) / ((1.0 + np.abs(fp)) * lam)
    # the first largest positive deviation; NaN counts as none
    dev = np.where(dev > 0.0, dev, 0.0)
    k = int(np.argmax(dev))
    max_dev = float(dev[k])
    worst = (float(lam[k]), Point3(*draws[k, :3].tolist())) if max_dev > 0.0 else None
    return HomogeneityReport(ok=max_dev <= max(tol.eps_eq, _HOMOGENEITY_FLOOR), max_dev=max_dev, worst=worst, samples=n)
