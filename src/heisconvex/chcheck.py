"""Falsifier and necessary conditions for dilation-family convexity.

A compact set K generates the nested family {dilate(tau, K)}.  The family
interpolates convexly (condition C_H) exactly when, for every pair of
points xi0 in K and dilate(tau, xi1) reachable from xi0 by one horizontal
step v, the reparametrized curve

    theta -> dilate(1/tau_theta, xi0 o exp_h(theta v)),
    tau_theta = (1 - theta) + theta tau,

stays inside K.  The admissible tau come from a quadratic (the vertical
component of xi0^{-1} o dilate(tau, xi1) must vanish), the curves have
piecewise closed forms used as cross-checks, and for rotation-invariant
sets two necessary conditions and two explicit envelopes (a revolution
solid and a gauge-sphere cap) must hold.  Everything is a seeded
semidecision producing replayable witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle
from typing import Iterator, Optional, Sequence

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
    exp_h,
    group_mul,
    norm,
    scale,
)
from .sets import (
    RadialProfile,
    SetOracle,
    bisect_many,
    boundary_sample,
    chunk_batches,
    dilation_level_many,
    escape_margin,
    escapes,
    escapes_many,
    interior_thetas,
    scan_horizontal_segments,
    uniform_points,
)

DEGENERATE_TAU_GRID = (0.25, 0.5, 2.0, 4.0)
# falsify_ch draws pairs in chunks of this many, each from its own stream;
# it is also the size of the boundary pool
PAIR_CHUNK = 256
# uniform theta samples of [0, 1] per curve, and per tau = 1 line; 8 k + 1,
# so a line's samples include the axiom check's SEGMENT_GRID = 9
CURVE_SAMPLES = 33
# ch_escapes draws and solves a group's pairs in batches of these many
# chunks (chunk 0, chunk 1, chunks 2-7) and screens curves chunk by chunk
PAIR_BATCHES = (1, 1, 6)
# chunks that pick from one boundary pool: 2048 of its 65536 ordered pairs
POOL_GROUP = sum(PAIR_BATCHES)
# the outer-radius scan tests the radii r_hi * j / RADIUS_GRID, j = 0..RADIUS_GRID,
# per height, RADIUS_BLOCK of them at once
RADIUS_GRID = 512
RADIUS_BLOCK = 64


@dataclass
class TauSolution:
    """A level tau connecting two points horizontally.

    v is the horizontal step with xi0 o exp_h(v) = dilate(tau, xi1);
    degenerate marks the all-tau-admissible case, where tau comes from a
    fixed probe grid rather than the quadratic.
    """

    tau: float
    v: HVec
    discriminant: float
    degenerate: bool = False


@dataclass
class ChWitness:
    """A certified violation of the interpolation condition."""

    xi0: Point3
    xi1: Point3
    tau: float
    v: HVec
    theta_star: float
    escape_point: Point3
    margin: float
    pair_index: int = -1


@dataclass
class RadialNecessityReport:
    """Outcomes of the two radial necessary conditions."""

    thm_i_ok: bool
    thm_ii_ok: bool
    thm_i_witness: Optional[Point3]
    thm_ii_witness: Optional[Point3]
    caps_checked: int
    solids_checked: int
    r_flat: float
    r_sup: float


@dataclass
class EnvelopeReport:
    """Membership margins of the revolution-solid and cap envelopes.

    Margins are 1 minus the dilation level of the probed point: positive
    strictly inside, about zero on the boundary, negative outside.
    """

    solid_min_margin: float
    cap_min_margin: float
    solid_checked: int
    cap_checked: int
    solid_failure: Optional[Point3]
    cap_failure: Optional[Point3]
    phi_endpoint_residual: float
    cap_identity_residual: float

    def ok(self) -> bool:
        """No margin fell below the floor envelope_check applies."""
        return self.solid_failure is None and self.cap_failure is None


def solve_tau_many(xi0, xi1, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_tau for n pairs at once; xi0 and xi1 are (x, y, t) arrays of length n.

    Returns (tau, discriminant, degenerate): tau is (n, 4), each row the
    admissible levels of that pair in ascending order, padded with NaN;
    discriminant and degenerate are per pair.  Every branch of solve_tau
    runs as a mask with the same arithmetic, so row i equals
    solve_tau(xi0[i], xi1[i]) bit for bit.  The tolerances do not change
    under dilations: with size = |t0| + |t1| + |cross|, a discriminant
    above -eps_eq size^2 clamps to 0; a root must replay within eps_eq
    times the coefficients' scale |t0| + |t1| + 2 (|x0 y1| + |x1 y0|);
    and a second root within eps_eq max(1, tau) of the first merges.
    """
    x0, y0, t0 = (np.asarray(c, dtype=float) for c in xi0)
    x1, y1, t1 = (np.asarray(c, dtype=float) for c in xi1)
    cross = x0 * y1 - x1 * y0
    size = abs(t0) + abs(t1) + abs(cross)
    res_bound = tol.eps_eq * (abs(t0) + abs(t1) + 2.0 * (abs(x0 * y1) + abs(x1 * y0)))

    def verified(tau):
        # every returned root must replay the quadratic; this rejects the
        # Vieta complement when clamping or cancellation corrupted it
        ok = np.isfinite(tau) & (tau > tol.eps_eq)
        return ok & (abs(tau_residual(Point3(x0, y0, t0), Point3(x1, y1, t1), tau)) <= res_bound)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        linear = t1 == 0.0
        disc = cross * cross + t0 * t1
        disc = np.where((disc < 0.0) & (disc >= -tol.eps_eq * size * size), 0.0, disc)
        root = np.sqrt(disc)
        # stable quadratic: avoid cancellation between -cross and the root
        q = np.where(cross >= 0.0, -(cross + root), -(cross - root))
        first = np.where(q != 0.0, q / t1, root / t1)
        second = np.where(q != 0.0, -t0 / q, np.nan)
        first = np.where(linear, t0 / (2.0 * cross), first)
        second = np.where(linear, np.nan, second)
        disc = np.where(linear, cross * cross, disc)
        ok1 = verified(first)
        ok2 = verified(second) & ~(ok1 & (abs(second - first) <= tol.eps_eq * np.maximum(1.0, abs(first))))
    first = np.where(ok1, first, np.nan)
    second = np.where(ok2, second, np.nan)
    tau = np.full((len(x0), len(DEGENERATE_TAU_GRID)), np.nan)
    tau[:, 0] = np.fmin(first, second)
    tau[:, 1] = np.where(ok1 & ok2, np.maximum(first, second), np.nan)
    degenerate = linear & (cross == 0.0) & (t0 == 0.0)
    tau[degenerate] = DEGENERATE_TAU_GRID
    disc[degenerate] = math.inf
    return tau, disc, degenerate


def solve_tau(
    xi0: Point3,
    xi1: Point3,
    tol: Tolerances = DEFAULT_TOL,
) -> list[TauSolution]:
    """All tau > 0 with dilate(tau, xi1) on the horizontal plane of xi0.

    Solves t1 tau^2 + 2 (x0 y1 - x1 y0) tau - t0 = 0 (stable form), the
    condition that xi0^{-1} o dilate(tau, xi1) has no vertical component.
    The linear (t1 = 0) and the all-tau-admissible (both points planar
    through e, zero cross term) degenerations are handled; the latter
    returns the fixed probe grid flagged degenerate.  This is the one-row
    case of solve_tau_many.
    """
    taus, disc, degenerate = solve_tau_many([[c] for c in xi0], [[c] for c in xi1], tol)
    return [
        TauSolution(tau, HVec(tau * xi1[0] - xi0[0], tau * xi1[1] - xi0[1]), float(disc[0]), bool(degenerate[0]))
        for tau in taus[0].tolist()
        if not math.isnan(tau)
    ]


def tau_residual(xi0: Point3, xi1: Point3, tau: float) -> float:
    """Residual of the connecting quadratic at tau; floats or arrays."""
    cross = xi0.x * xi1.y - xi1.x * xi0.y
    return xi1.t * tau * tau + 2.0 * cross * tau - xi0.t


def curve_point(x0, y0, t0, a, b, tau, theta):
    """The interpolation curve of (xi0, v, tau) at theta, as (x, y, t).

    dilate(1/tau_theta, xi0 o exp_h(theta v)) with tau_theta = (1 - theta)
    + theta tau, in plain arithmetic: the arguments may be floats or
    arrays that broadcast, with the same rounding either way, or
    Fractions, which stay exact.
    """
    return scale(1 / ((1 - theta) + theta * tau), *group_mul(Point3(x0, y0, t0), exp_h(HVec(theta * a, theta * b))))


def _check_curve_inputs(xi0: Point3, v, tau: float, m: int) -> None:
    if not all(map(math.isfinite, (*xi0, *v, tau))):
        raise ValueError("curve needs finite xi0, v and tau")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if m < 2:
        raise ValueError("need m >= 2 samples")


def ch_curve(
    xi0: Point3,
    v: HVec,
    tau: float,
    m: int,
    tol: Tolerances = DEFAULT_TOL,
) -> list[Point3]:
    """The interpolation curve at m uniform theta samples of [0, 1].

    Endpoints are xi0 and dilate(1/tau, xi0 o exp_h(v)).

    Raises:
        ValueError: a non-finite input, tau <= 0 or m < 2.
    """
    _check_curve_inputs(xi0, v, tau, m)
    # tau_theta runs between 1 and tau, reaching tau at theta = 1
    if tau <= tol.eps_eq:
        raise RuntimeError("interpolated level crossed zero")
    # one array call, with the rounding of m scalar ones
    return [Point3(*p) for p in np.stack(curve_point(*xi0, *v, tau, np.arange(m) / (m - 1)), axis=1).tolist()]


def falsify_ch(
    K: SetOracle,
    budget: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    tau_one: bool = False,
) -> Optional[ChWitness]:
    """Hunt for a pair of points whose interpolation curve leaves K.

    Samples pairs of boundary points, which lose nothing on a set
    star-shaped under dilations (every escape has a boundary pair that
    escapes at least as far), solves for every admissible tau, and tests
    the CURVE_SAMPLES-sample curve with the robust escape predicate.  With
    tau_one=True the search restricts to horizontally reachable pairs at
    tau = 1, which is the horizontal convexity check of the set module
    (scan_horizontal_segments) at CURVE_SAMPLES samples per line: the same
    budget of lines and errors on equal seeds, and a witness no later than
    the check's, sometimes where the check finds none.  Its pair_index is
    then the index of the witness's line among the lines the budget counts.

    Pairs come in chunks of PAIR_CHUNK = 256; chunk c is drawn whole from
    default_rng([seed, 0xC4, c]), and each group of POOL_GROUP = 8 chunks
    picks from its own 256-point boundary_sample pool, built when the
    group is first reached (uniform_points without a pool).  So pair i
    depends only on (seed, i): a larger budget extends the search and
    never reshuffles it.  A batch of chunks (sets.chunk_batches over
    PAIR_BATCHES: a group's chunk 0, chunk 1, then chunks 2-7) is drawn
    only when the batches before it hold no witness, and solved in one
    solve_tau_many call; the curve points of each chunk's admissible
    (pair, tau) rows go through one curve_point and escapes_many call.
    That search is ch_escapes; the witness is its first escape.

    A witness stands on any K: replay_ch_witness checks that its escape
    point lies on the curve and outside K.  Without assumption a there is
    no boundary pool, and a margin that is no level reads inf (escape_margin).

    Returns:
        The first witness in (pair, tau, theta) order, or None after
        budget pairs.
    """
    if budget < 1:
        raise ValueError("need budget >= 1")
    if tau_one:
        found, used = scan_horizontal_segments(K, budget, CURVE_SAMPLES, seed, tol)
        if found is None:
            return None
        p, v = found.base, found.v
        return ChWitness(p, group_mul(p, exp_h(v)), 1.0, v, found.theta, found.escape_point, found.margin, used - 1)

    w = next(ch_escapes(K, budget, seed, tol), None)
    if w is not None:
        w.margin = escape_margin(K, w.escape_point, tol)
    return w


def ch_escapes(K: SetOracle, budget: int, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> Iterator[ChWitness]:
    """Every escape of falsify_ch's search, lazily, in (pair, tau, theta) order.

    Each is a ChWitness whose margin is NaN (escape_margin gives it).  A
    batch of _pair_chunks (chunk_batches over PAIR_BATCHES), of any size,
    is drawn, concatenated and solved only when the batches before it are
    used up; its curves are then screened one chunk at a time.  A stall
    comes after the escapes of the chunks drawn before it.
    """
    thetas = interior_thetas(CURVE_SAMPLES)
    for batch in chunk_batches(_pair_chunks(K, budget, seed, tol), cycle(PAIR_BATCHES)):
        xi0, xi1 = np.concatenate([pairs for _, pairs in batch], axis=1)
        taus = solve_tau_many(xi0.T, xi1.T, tol)[0]
        # row-major order: pairs in sample order, each pair's taus ascending
        p, root = np.nonzero(~np.isnan(taus))
        tau = taus[p, root]
        a = tau * xi1[p, 0] - xi0[p, 0]
        b = tau * xi1[p, 1] - xi0[p, 1]
        base = xi0[p]
        # the rows of chunk k are cuts[k]:cuts[k + 1]
        cuts = [0, *np.searchsorted(p, range(PAIR_CHUNK, len(xi0), PAIR_CHUNK)).tolist(), len(p)]
        for lo, hi in zip(cuts, cuts[1:]):
            x0, y0, t0 = base[lo:hi].T[:, :, None]
            px, py, pt = curve_point(x0, y0, t0, a[lo:hi, None], b[lo:hi, None], tau[lo:hi, None], thetas)
            for hit in np.flatnonzero(escapes_many(K, px, py, pt, tol)).tolist():
                q, j = divmod(hit, len(thetas))
                r = lo + q
                yield ChWitness(
                    Point3(*base[r].tolist()),
                    Point3(*xi1[p[r]].tolist()),
                    float(tau[r]),
                    HVec(float(a[r]), float(b[r])),
                    float(thetas[j]),
                    Point3(float(px[q, j]), float(py[q, j]), float(pt[q, j])),
                    math.nan,
                    pair_index=batch[0][0] + int(p[r]),
                )


def _pair_chunks(K: SetOracle, budget: int, seed: int, tol: Tolerances) -> Iterator[tuple[int, np.ndarray]]:
    """falsify_ch's pairs, cut at budget, as (first pair index, pairs) per chunk.

    pairs is a (2, n, 3) array (xi0, xi1).  Chunk c's pair k is (pool[i],
    pool[j]) for row k of default_rng([seed, 0xC4, c])'s (PAIR_CHUNK, 2)
    integers, or without a pool that stream's uniform points 2k and 2k + 1.
    Only a set without assumption a (not compact, or e outside) has no
    pool; on any other set an error of boundary_sample stands.
    """
    pooled = K.is_compact and K.contains(ORIGIN)
    for chunk, start in enumerate(range(0, budget, PAIR_CHUNK)):
        if chunk % POOL_GROUP == 0:
            pool = boundary_sample(K, PAIR_CHUNK, seed, tol, chunk // POOL_GROUP) if pooled else None
        rng = np.random.default_rng([seed, 0xC4, chunk])
        if pool is not None:
            pairs = pool[rng.integers(0, len(pool), size=(PAIR_CHUNK, 2)).T]
        else:
            pairs = uniform_points(K, 2 * PAIR_CHUNK, rng).reshape(PAIR_CHUNK, 2, 3).swapaxes(0, 1)
        yield start, pairs[:, : budget - start]


def replay_ch_witness(K: SetOracle, w: ChWitness, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Re-verify a witness from its stored fields alone."""
    if not (K.contains(w.xi0) and K.contains(w.xi1)):
        return False
    tscale = abs(w.xi0.t) + abs(w.xi1.t) + abs(w.xi0.x * w.xi1.y) + abs(w.xi1.x * w.xi0.y)
    if abs(tau_residual(w.xi0, w.xi1, w.tau)) > 1e-9 * tscale * (1.0 + abs(w.tau)) ** 2:
        return False
    expect_v = HVec(w.tau * w.xi1.x - w.xi0.x, w.tau * w.xi1.y - w.xi0.y)
    vscale = 1.0 + abs(expect_v.a) + abs(expect_v.b)
    if abs(expect_v.a - w.v.a) > tol.eps_eq * vscale or abs(expect_v.b - w.v.b) > tol.eps_eq * vscale:
        return False
    pt = Point3(*curve_point(*w.xi0, *w.v, w.tau, w.theta_star))
    pscale = 1.0 + norm(pt, "euclidean")
    if max(abs(pt.x - w.escape_point.x), abs(pt.y - w.escape_point.y), abs(pt.t - w.escape_point.t)) > tol.eps_geom * pscale:
        return False
    return escapes(K, w.escape_point, tol)


# ---------------------------------------------------------------------------
# radial necessary conditions


def _outer_radii(P: RadialProfile, ts: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Outermost radius of the profile at each height of ts (0 where none).

    Scans the radii r_hi * j / RADIUS_GRID down from j = RADIUS_GRID, in blocks
    of RADIUS_BLOCK and only for the heights not yet resolved, to the first
    inside radius; then bisects all heights at once with bisect_many
    through contains2d_many, a height stopping once its bracket is within
    eps_geom or after max_iter steps.  Each radius is bit for bit what
    scanning and bisecting that height alone gives.
    """
    r_hi = P.r_max * 1.01 + 10.0 * tol.eps_geom
    radii = r_hi * np.arange(RADIUS_GRID, -1, -1) / RADIUS_GRID
    last = np.full(len(ts), np.nan)
    todo = np.arange(len(ts))
    for s in range(0, RADIUS_GRID + 1, RADIUS_BLOCK):
        r = radii[s : s + RADIUS_BLOCK]
        hit = P.contains2d_many(*np.broadcast_arrays(r, ts[todo, None]))
        found = hit.any(axis=1)
        last[todo[found]] = r[hit[found].argmax(axis=1)]
        todo = todo[~found]
        if not len(todo):
            break
    # heights with no inside radius keep a NaN bracket and read 0
    hi = np.minimum(last + r_hi / RADIUS_GRID, r_hi)
    lo, hi = bisect_many(lambda t, r: ~P.contains2d_many(r, t), (ts,), last, hi, tol, relative=False)
    return np.where(np.isnan(lo), 0.0, 0.5 * (lo + hi))


def radial_necessary(
    P: RadialProfile,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> RadialNecessityReport:
    """The two necessary conditions for a radial set's dilation family.

    i: with r* the outer radius of the t = 0 slice, the gauge ball of
    radius r* lies inside the set (probed on n points of its slightly
    shrunk profile region, boundary arc plus seeded interior, all tested
    with one contains2d_many call; the first failing point is the witness
    and caps_checked counts up to it);
    ii: the widest radius over all heights does not exceed r* (+slack),
    i.e. the planar projection of the set stays in the t = 0 slice.
    Witness points replay against the oracle via the profile.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng([seed, 0x8A])
    t_lo, t_hi = P.t_range
    grid = max(64, n // 8)
    heights = np.concatenate([[0.0], t_lo + (t_hi - t_lo) * np.arange(grid + 1) / grid])
    radii = _outer_radii(P, heights, tol)
    r_flat = float(radii[0])
    shrink = 1.0 - max(1e-6, 10.0 * tol.eps_geom)

    thm_i_ok = True
    thm_i_witness = None
    caps_checked = 0
    if r_flat > 0.0:
        # the gauge sphere through (r_flat, 0) is envelope_psi at t0 = 0
        half = n // 2
        r_arc = r_flat * np.sqrt(np.arange(half) / max(1, half - 1))
        t_arc = envelope_psi(r_arc, r_flat, 0.0, ARRAYS)
        # the boundary arc at t and -t, then n - half seeded caps from pairs
        # of doubles d: uniform(lo, hi) is lo + (hi - lo) * d on the same d
        d = rng.random(2 * (n - half))
        r_cap = r_flat * np.sqrt(np.sqrt(d[0::2]))
        t_cap = envelope_psi(r_cap, r_flat, 0.0, ARRAYS)
        r = np.concatenate([np.repeat(r_arc, 2), r_cap])
        t = np.concatenate([np.stack([t_arc, -t_arc], axis=1).ravel(), -t_cap + (t_cap + t_cap) * d[1::2]])
        x, t = r * shrink, t * shrink * shrink
        failed = np.flatnonzero(~P.contains2d_many(x, t))
        caps_checked = len(x)
        if len(failed):
            thm_i_ok = False
            thm_i_witness = Point3(float(x[failed[0]]), 0.0, float(t[failed[0]]))
            caps_checked = int(failed[0]) + 1

    # the first widest height, as a height-by-height scan keeps it
    best = 1 + int(np.argmax(radii[1:]))
    r_sup, t_at = r_flat, 0.0
    if radii[best] > r_flat:
        r_sup, t_at = float(radii[best]), float(heights[best])
    slack = max(10.0 * tol.eps_geom, tol.eps_geom * (1.0 + r_flat))
    thm_ii_ok = r_sup <= r_flat + slack
    thm_ii_witness = None
    if not thm_ii_ok:
        # refine around the best height so the witness radius is sharp
        span = (t_hi - t_lo) / grid
        fine = np.linspace(max(t_lo, t_at - span), min(t_hi, t_at + span), 65)
        r_sup = max(r_sup, float(_outer_radii(P, fine, tol).max()))
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


# ---------------------------------------------------------------------------
# envelopes


def envelope_phi(r: float, r0: float, t0: float, k: Kit = FLOATS) -> float:
    """Height profile of the revolution solid anchored at (r0, t0); r may
    be an array with k=ARRAYS."""
    mag = 0.5 * (abs(t0) + k.sqrt(t0 * t0 + 4.0 * r0 * r0 * r * r - 4.0 * ((r * r) * (r * r))))
    return k.copysign(mag, t0)


def envelope_psi(r: float, r0: float, t0: float, k: Kit = FLOATS) -> float:
    """Gauge-sphere cap profile through (r0, t0): r^4 + psi^2 is constant."""
    return k.sqrt(k.max((r0 * r0) * (r0 * r0) + t0 * t0 - (r * r) * (r * r), 0.0))


def _envelope_grids(xi0: Point3, n: int) -> tuple[tuple, tuple, float, float]:
    """The n solid points and 2n cap points of the anchor xi0, as (x, y, t)
    arrays, and the residuals of the phi endpoint and the cap identity."""
    r0 = math.hypot(xi0.x, xi0.y)
    t0 = xi0.t
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = np.arange(n)
    r = r0 / math.sqrt(2.0) + (r0 - r0 / math.sqrt(2.0)) * k / (n - 1)
    rho = r * ((k % 3) + 1) / 3.0
    solid = (rho * np.cos(k * golden), rho * np.sin(k * golden), envelope_phi(r, r0, t0, ARRAYS))
    phi_res = abs(envelope_phi(r0, r0, t0) - t0)

    sgn = math.copysign(1.0, t0)
    r = r0 * k / (n - 1)
    psi = envelope_psi(r, r0, t0, ARRAYS)
    cap_res = float(np.abs((r * r) * (r * r) + psi * psi - ((r0 * r0) * (r0 * r0) + t0 * t0)).max())
    # two cap points per radius: at height sgn psi, then halfway to t0
    ang = k * golden + 1.0
    heights = np.stack([sgn * psi, 0.5 * (t0 + sgn * psi)], axis=1).ravel()
    cap = (np.repeat(r * np.cos(ang), 2), np.repeat(r * np.sin(ang), 2), heights)
    return solid, cap, phi_res, cap_res


def envelope_check(
    K: SetOracle,
    anchors: Sequence[Point3],
    n: int,
    tol: Tolerances = DEFAULT_TOL,
) -> list[EnvelopeReport]:
    """Probe the two envelopes every interpolating family must contain,
    one report per anchor xi0 = (r0, t0).

    The revolution solid stacks disks of radius r at height phi(r) for r
    in [r0/sqrt(2), r0]; the cap is the gauge-ball sector beyond t0.  Both
    are necessary once the set's dilation family interpolates convexly, so
    a negative margin beyond slack is a genuine obstruction.  Grids are
    deterministic; margins come from dilation levels (exact or bisected).
    Every anchor is validated before any level is taken, and then the 3n
    points of all anchors go through one dilation_level_many call.

    Raises:
        ValueError: n < 2, or an anchor outside K, or with t0 = 0 or r0 = 0.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    for xi0 in anchors:
        if not K.contains(xi0):
            raise ValueError("anchor point must lie in the set")
        if abs(xi0.t) <= tol.eps_eq or math.hypot(xi0.x, xi0.y) <= tol.eps_eq:
            raise ValueError("anchor needs nonzero vertical part and nonzero radius")
    if not anchors:
        return []

    grids = [_envelope_grids(xi0, n) for xi0 in anchors]
    # every margin in one batch: per anchor, n solid points, then 2n cap points
    fine = Tolerances(eps_geom=tol.eps_eq, eps_eq=tol.eps_eq, max_iter=tol.max_iter)
    coords = (np.concatenate([c for solid, cap, _, _ in grids for c in (solid[i], cap[i])]) for i in range(3))
    margins = (1.0 - dilation_level_many(K, *coords, fine)).reshape(len(grids), 3 * n)
    floor = -max(1e-6, 10.0 * tol.eps_geom)

    def lowest(pts: tuple, mg: np.ndarray) -> tuple[float, Optional[Point3]]:
        # the first smallest margin, and its point when that is below the floor
        i = int(np.argmin(mg))
        return float(mg[i]), Point3(*(float(c[i]) for c in pts)) if mg[i] < floor else None

    reports = []
    for (solid, cap, phi_res, cap_res), mg in zip(grids, margins):
        (solid_min, solid_failure), (cap_min, cap_failure) = lowest(solid, mg[:n]), lowest(cap, mg[n:])
        reports.append(EnvelopeReport(solid_min, cap_min, n, 2 * n, solid_failure, cap_failure, phi_res, cap_res))
    return reports
