import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heisconvex import (
    HVec,
    Point3,
    Tolerances,
    ch_curve,
    EnvelopeReport,
    dilate,
    dilation_level,
    envelope_check,
    envelope_phi,
    envelope_psi,
    escape_margin,
    escapes,
    falsify_ch,
    gallery,
    group_mul,
    exp_h,
    norm,
    radial_necessary,
    replay_ch_witness,
    solve_tau,
    tau_residual,
)
from heisconvex import chcheck
from heisconvex.cli import _anchor_points
from heisconvex.chcheck import DEGENERATE_TAU_GRID, PAIR_CHUNK, ChWitness, TauSolution, ch_escapes, curve_point, solve_tau_many
from heisconvex.core import DEFAULT_TOL
from heisconvex.sets import IMPORTANTE_R_MAX, SetOracle, boundary_sample, check_axioms, polygon_profile, radial_to_oracle
from ch_reference import ch_curve_cases, dilate_oracle, reference_ch_escapes, transport_witness
from radial_reference import PLUS_VERTICES, radial_sets, reference_outer_radius, reference_radial_necessary

coord = st.floats(min_value=-3.0, max_value=3.0)
heights = st.floats(min_value=-5.0, max_value=5.0)


def horizontal_reach(p, q, tol=DEFAULT_TOL):
    """The step v with q = p o exp_h(v), or None when q is off the
    horizontal plane of p (slack eps_geom * (1 + |p|_E + |q|_E))."""
    scale = 1.0 + norm(p, "euclidean") + norm(q, "euclidean")
    if abs(q.t - (p.t + 2.0 * (p.y * q.x - p.x * q.y))) > tol.eps_geom * scale:
        return None
    return HVec(q.x - p.x, q.y - p.y)


@given(coord, coord, heights, coord, coord, heights)
@settings(max_examples=200)
def test_solve_tau_residual_and_reach(x0, y0, t0, x1, y1, t1):
    xi0 = Point3(x0, y0, t0)
    xi1 = Point3(x1, y1, t1)
    for sol in solve_tau(xi0, xi1):
        assume(not sol.degenerate)
        # within eps_eq of the scale of the quadratic's coefficients
        assert abs(tau_residual(xi0, xi1, sol.tau)) <= 1e-9 * (abs(t0) + abs(t1) + 2.0 * (abs(x0 * y1) + abs(x1 * y0)))
        v = horizontal_reach(xi0, dilate(sol.tau, xi1))
        assert v == sol.v


def _reference_solve_tau(xi0, xi1, tol=DEFAULT_TOL):
    """The scalar solve_tau loop that solve_tau_many must reproduce bit for bit."""
    x0, y0, t0 = xi0
    x1, y1, t1 = xi1
    cross = x0 * y1 - x1 * y0
    scale = abs(t0) + abs(t1) + abs(cross)
    res_bound = tol.eps_eq * (abs(t0) + abs(t1) + 2.0 * (abs(x0 * y1) + abs(x1 * y0)))

    def make(tau, disc, degenerate=False):
        return TauSolution(tau, HVec(tau * x1 - x0, tau * y1 - y0), disc, degenerate)

    def verified(tau):
        if not (math.isfinite(tau) and tau > tol.eps_eq):
            return False
        return abs(t1 * tau * tau + 2.0 * cross * tau - t0) <= res_bound

    if t1 == 0.0:
        if cross == 0.0:
            if t0 == 0.0:
                return [make(tau, math.inf, degenerate=True) for tau in DEGENERATE_TAU_GRID]
            return []
        tau = t0 / (2.0 * cross)
        return [make(tau, cross * cross)] if verified(tau) else []

    disc = cross * cross + t0 * t1
    if disc < 0.0:
        if disc >= -tol.eps_eq * scale * scale:
            disc = 0.0
        else:
            return []
    root = math.sqrt(disc)
    q = -(cross + root) if cross >= 0.0 else -(cross - root)
    candidates = [q / t1, -t0 / q] if q != 0.0 else [root / t1]
    out = []
    for tau in candidates:
        if verified(tau) and all(abs(tau - s.tau) > tol.eps_eq * max(1.0, abs(s.tau)) for s in out):
            out.append(make(tau, disc))
    out.sort(key=lambda s: s.tau)
    return out


# pairs that reach every branch: t1 = 0 (linear), cross = 0, the all-zero
# degenerate grid, a discriminant just below 0 (clamped, double root
# merged) and one too negative to clamp, two positive roots, NaN input,
# and the same pairs near t = 0 and dilated
SOLVE_TAU_CASES = [
    (Point3(1.0, 0.0, 1.0), Point3(0.0, 1.0, 0.0)),
    (Point3(1.0, 0.0, 1.0), Point3(2.0, 0.0, 0.0)),
    (Point3(1.0, 0.0, 0.5), Point3(2.0, 0.0, 1.0)),
    (Point3(1.0, 0.0, 0.0), Point3(0.5, 0.0, 0.0)),
    (Point3(0.0, 0.0, 0.0), Point3(0.0, 0.0, 0.0)),
    (Point3(1.0, 0.0, 1.0), Point3(0.0, 1.0, -(1.0 + 1e-12))),
    (Point3(1.0, 0.0, 1.0), Point3(0.0, 1.0, -1.5)),
    (Point3(1.0, 0.0, -1.0), Point3(2.0, 0.0, 1.0)),
    (Point3(0.0, 0.5, -0.1), Point3(1.0, 0.0, 1.0)),
    (Point3(0.0, 0.0, 1.0), Point3(0.0, 0.0, 1.0)),
    (Point3(0.3, 0.0, 0.0), Point3(0.0, 0.2, 0.0)),
    (Point3(float("nan"), 0.0, 1.0), Point3(0.0, 1.0, 1.0)),
    # t1 all but 0: the Vieta complement of the root 0.5 is about 1.4e33,
    # positive and finite, but does not replay the quadratic
    (Point3(0.0, 1.0, 1.0), Point3(-1.0, 0.0, -1.4693795734434819e-33)),
    # near the t = 0 plane: roots about 5e-5 and 2e4, at unit size and
    # dilated by 1e-3 (tau does not change under dilations)
    (Point3(1.0, 0.0, 1e-4), Point3(0.0, 1.0, -1e-4)),
    (Point3(1e-3, 0.0, 1e-10), Point3(0.0, 1e-3, -1e-10)),
    # the clamped double root of case 5 dilated by 0.01
    (Point3(0.01, 0.0, 1e-4), Point3(0.0, 0.01, -(1.0 + 1e-12) * 1e-4)),
]


def _assert_batch_matches_reference(pairs):
    xi0 = np.array([p for p, _ in pairs]).T
    xi1 = np.array([q for _, q in pairs]).T
    taus, disc, degenerate = solve_tau_many(xi0, xi1)
    for i, (p, q) in enumerate(pairs):
        want = _reference_solve_tau(p, q)
        assert solve_tau(p, q) == want
        row = taus[i]
        assert row[: len(want)].tolist() == [s.tau for s in want]
        assert np.isnan(row[len(want):]).all()
        if want:
            assert disc[i] == want[0].discriminant
            assert degenerate[i] == want[0].degenerate


def test_solve_tau_many_branches_match_reference():
    _assert_batch_matches_reference(SOLVE_TAU_CASES)
    # the clamped case lands on one merged root; the unclampable one on none
    assert len(solve_tau(*SOLVE_TAU_CASES[5])) == 1
    assert solve_tau(*SOLVE_TAU_CASES[5])[0].discriminant == 0.0
    assert solve_tau(*SOLVE_TAU_CASES[6]) == []
    # only the root that replays is returned
    assert [s.tau for s in solve_tau(*SOLVE_TAU_CASES[12])] == [0.5]
    # both roots come back near t = 0, at any scale, and the dilated
    # double root still merges
    for case in SOLVE_TAU_CASES[13:15]:
        assert [s.tau for s in solve_tau(*case)] == pytest.approx([5e-5, 2e4], rel=1e-6)
    assert len(solve_tau(*SOLVE_TAU_CASES[15])) == 1
    assert solve_tau(*SOLVE_TAU_CASES[15])[0].discriminant == 0.0


special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
mixed = st.one_of(special, st.floats(min_value=-3.0, max_value=3.0))
mixed_points = st.builds(Point3, mixed, mixed, mixed)


@given(st.lists(st.tuples(mixed_points, mixed_points), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_solve_tau_many_matches_reference(pairs):
    _assert_batch_matches_reference(pairs)


def test_solve_tau_branches():
    # planar pair with zero twist: every tau works, grid is returned
    sols = solve_tau(Point3(1.0, 0.0, 0.0), Point3(0.5, 0.0, 0.0))
    assert [s.tau for s in sols] == [0.25, 0.5, 2.0, 4.0]
    assert all(s.degenerate for s in sols)

    # t1 = 0 degrades to the linear equation 2*cross*tau = t0
    sols = solve_tau(Point3(1.0, 0.0, 1.0), Point3(0.0, 1.0, 0.0))
    assert len(sols) == 1 and not sols[0].degenerate
    assert sols[0].tau == pytest.approx(0.5)

    # negative discriminant: no admissible tau
    assert solve_tau(Point3(1.0, 0.0, -1.0), Point3(2.0, 0.0, 1.0)) == []

    # both quadratic roots positive
    sols = solve_tau(Point3(0.0, 0.5, -0.1), Point3(1.0, 0.0, 1.0))
    taus = sorted(s.tau for s in sols)
    assert taus[0] == pytest.approx(0.5 - math.sqrt(0.15))
    assert taus[1] == pytest.approx(0.5 + math.sqrt(0.15))


def test_solve_tau_vertex_instance():
    # rotated pair on the cylinder shell: tau from the one-turn quadratic
    theta = 0.2
    xi0 = Point3(0.8, 0.0, 0.6)
    xi1 = Point3(0.8 * math.cos(theta), 0.8 * math.sin(theta), 0.6)
    cross = xi0.x * xi1.y
    expect = (math.sqrt(cross * cross + 0.36) - cross) / 0.6
    taus = [s.tau for s in solve_tau(xi0, xi1)]
    assert any(abs(tau - expect) <= 1e-12 for tau in taus)


def test_ch_curve_endpoints_and_validation():
    xi0 = Point3(0.5, 0.0, 1.0)
    v = HVec(0.0, -0.5)
    tau = math.sqrt(1.5)
    pts = ch_curve(xi0, v, tau, 11)
    assert len(pts) == 11
    assert pts[0] == xi0
    end = dilate(1.0 / tau, group_mul(xi0, exp_h(v)))
    assert pts[-1].x == pytest.approx(end.x, abs=1e-12)
    assert pts[-1].t == pytest.approx(end.t, abs=1e-12)
    with pytest.raises(ValueError):
        ch_curve(xi0, v, 0.0, 5)
    with pytest.raises(ValueError):
        ch_curve(xi0, v, tau, 1)


def test_ch_curve_matches_scalar_curve_point_bitwise():
    # one array call rounds as m scalar calls of curve_point do, bit for bit
    rng = np.random.default_rng(1919)
    for m in (2, 3, 11, 101):
        for _ in range(50):
            x0, y0, t0, a, b = rng.uniform(-2.0, 2.0, 5).tolist()
            tau = float(rng.uniform(0.2, 4.0))
            got = ch_curve(Point3(x0, y0, t0), HVec(a, b), tau, m)
            want = [curve_point(x0, y0, t0, a, b, tau, j / (m - 1)) for j in range(m)]
            assert all(type(c) is float for p in got for c in p)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64)), m


def test_cylinder_hand_instance_escapes():
    # vertical overshoot of the dilation-interpolating arc on the cylinder
    xi0 = Point3(0.5, 0.0, 1.0)
    tau = math.sqrt(1.5)
    pts = ch_curve(xi0, HVec(0.0, -0.5), tau, 101)
    peak = max(p.t for p in pts)
    assert peak > 1.0 + 1e-6
    assert peak == pytest.approx((tau + 1.0) ** 2 / (4.0 * tau), abs=1e-4)
    K = gallery("cylinder")
    assert any(escapes(K, p) for p in pts)


@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=100)
def test_case_iii_closed_form(x0, y0, t0, tau):
    assume(abs(tau - 1.0) > 1e-3)
    xi0 = Point3(x0, y0, t0)
    alpha, beta = x0 * (tau - 1.0), y0 * (tau - 1.0)
    pts = ch_curve_cases(xi0, alpha, beta, tau, 9, case="iii")
    direct = ch_curve(xi0, HVec(alpha, beta), tau, 9)
    for j, (p, q) in enumerate(zip(pts, direct)):
        s = j / 8.0
        want_t = t0 / (1.0 + s * (tau - 1.0)) ** 2
        assert p.t == pytest.approx(want_t, rel=1e-9, abs=1e-9)
        assert p.t == pytest.approx(q.t, rel=1e-9, abs=1e-9)


def test_case_agreement_frozen():
    # one deterministic config per branch, compared against the group form
    configs = [
        (Point3(0.4, -0.8, 1.2), 0.9, 0.3, 1.7),          # case i
        (Point3(0.5, 0.6, -0.7), 0.5 * 0.8, -0.4, 1.8),   # case ii: alpha = x0 (tau-1)
        (Point3(0.5, 0.3, 0.8), 0.35, 0.21, 1.7),         # case iii
    ]
    for xi0, alpha, beta, tau in configs:
        a = ch_curve(xi0, HVec(alpha, beta), tau, 33)
        b = ch_curve_cases(xi0, alpha, beta, tau, 33)
        dev = max(
            max(abs(p.x - q.x), abs(p.y - q.y), abs(p.t - q.t)) for p, q in zip(a, b)
        )
        assert dev <= 1e-10


def test_case_request_mismatch():
    xi0 = Point3(0.4, -0.8, 1.2)
    with pytest.raises(ValueError):
        ch_curve_cases(xi0, 0.9, 0.3, 1.7, 9, case="iii")


def test_falsify_cylinder_frozen():
    K = gallery("cylinder")
    w = falsify_ch(K, 2000, seed=0)
    assert w is not None
    assert w.pair_index == 7
    # pair 7 of the exact boundary pool, whose points sit at level 1
    assert w.tau == pytest.approx(1.6290874102357769, abs=1e-9)
    assert w.theta_star == 0.03125
    assert w.margin == pytest.approx(1.6461313e-03, rel=1e-3)
    assert replay_ch_witness(K, w)


def test_falsify_euclidean_ball_frozen():
    K = gallery("euclidean_ball")
    w = falsify_ch(K, 2000, seed=0)
    assert w is not None
    assert w.pair_index == 5
    assert w.tau == pytest.approx(9.051875113438033, abs=1e-9)
    assert replay_ch_witness(K, w)


# importante's first witness pair at seeds 0-63 (budget 2000), the same
# whether its boundary pool is bisected or exact
IMPORTANTE_PAIRS = [
    76, 368, 286, 57, 341, 160, 159, 459, 4, 85, 54, 685, 1016, 38, 404, 323, 261, 89,
    406, 260, 175, 235, 432, 314, 24, 893, 278, 113, 352, 450, 383, 123, 345, 239, 190,
    428, 159, 1243, 30, 351, 44, 302, 57, 356, 421, 85, 32, 481, 399, 1277, 21, 46, 117,
    88, 15, 318, 981, 213, 415, 441, 63, 40, 931, 40
]


def test_falsify_importante_pairs_frozen():
    K = gallery("importante")
    assert [falsify_ch(K, 2000, seed).pair_index for seed in range(64)] == IMPORTANTE_PAIRS


def test_a_failed_pool_stops_the_search():
    # a set flagged compact with e inside draws its pairs from a boundary
    # pool; when its rays never exit, the error stands, and no search over
    # interior pairs takes the pool's place
    everything = SetOracle(lambda p: True, ((-1.0, 1.0),) * 3, "all", kernel=lambda x, y, t: np.ones(np.shape(x), bool))
    with pytest.raises(RuntimeError, match="never exits"):
        falsify_ch(everything, 10)


@pytest.mark.parametrize("name", ["cylinder", "euclidean_ball", "importante"])
def test_falsify_prefix_stable(name):
    # pair i depends on (seed, i) alone: raising the budget extends the
    # search and never reshuffles it
    K = gallery(name)
    w = falsify_ch(K, 100000, seed=0)
    assert w is not None
    for budget in (w.pair_index + 1, 2000):
        assert falsify_ch(K, budget, seed=0) == w
    assert falsify_ch(K, w.pair_index, seed=0) is None
    # the stored escape point is the scalar curve formula, bit for bit
    assert Point3(*curve_point(*w.xi0, *w.v, w.tau, w.theta_star)) == w.escape_point


def test_falsify_pairs_shared_across_chunk_boundary(monkeypatch):
    # across a chunk boundary (pair 256) and a pool-group boundary (pair
    # 2048, where the second boundary pool is built) the stream stays
    # prefix stable
    seen, pools = [], []

    def spy(xi0, xi1, tol):
        seen.append(np.concatenate([xi0, xi1]).T.copy())
        return solve_tau_many(xi0, xi1, tol)

    def pool_spy(K, n, seed, tol, group):
        pools.append(group)
        return boundary_sample(K, n, seed, tol, group)

    monkeypatch.setattr(chcheck, "solve_tau_many", spy)
    monkeypatch.setattr(chcheck, "boundary_sample", pool_spy)
    K = gallery("koranyi_ball")
    for budgets in ((256, 257, 600), (2048, 2049, 4200)):
        runs = {}
        for budget in budgets:
            seen.clear()
            pools.clear()
            assert falsify_ch(K, budget, seed=4) is None
            runs[budget] = np.concatenate(seen)
            assert len(runs[budget]) == budget
            # one pool per group of 8 chunks, built when the group is reached
            assert pools == list(range(math.ceil(budget / 2048)))
        short, mid, long = budgets
        assert (runs[mid][:short] == runs[short]).all()
        assert (runs[long][:mid] == runs[mid]).all()
    # the second group's pairs join points of its own pool
    second = runs[4200][2048:4096]
    assert np.isin(second, boundary_sample(K, 256, 4, group=1)).all()
    assert not np.isin(second, boundary_sample(K, 256, 4)).any()


def test_falsify_clean_sets():
    for name in ("koranyi_ball", "cylinder_hat", "slab_x"):
        assert falsify_ch(gallery(name), 1500, seed=0) is None
    # every seed of the benchmark's clean jobs
    for name in ("koranyi_ball", "cylinder_hat"):
        K = gallery(name)
        assert [s for s in range(64) if falsify_ch(K, 2000, seed=s) is not None] == []


def test_falsify_ring_witness_has_unreliable_margin():
    # the identity is not interior, so there is no boundary pool and the
    # level bracket of the escape point runs away: the witness still
    # stands, with margin inf
    ring = radial_to_oracle(polygon_profile([(0.5, -0.5), (1.0, -0.5), (1.0, 0.5), (0.5, 0.5)]), "ring")
    w = falsify_ch(ring, 2000, seed=0)
    assert w is not None and w.margin == math.inf
    assert replay_ch_witness(ring, w)
    assert escape_margin(ring, w.escape_point) == math.inf


def test_tau_one_mode_matches_set_checker():
    plus = radial_to_oracle(
        polygon_profile(
            [(0.0, 2.0), (0.2, 2.0), (0.2, 0.2), (2.0, 0.2),
             (2.0, -0.2), (0.2, -0.2), (0.2, -2.0), (0.0, -2.0)]
        ),
        "plus",
    )
    w = falsify_ch(plus, 800, seed=0, tau_one=True)
    assert w is not None
    assert w.tau == 1.0
    assert replay_ch_witness(plus, w)
    # the H-convex gallery members stay clean in the restricted mode too
    for name in ("koranyi_ball", "euclidean_ball", "cylinder"):
        assert falsify_ch(gallery(name), 800, seed=0, tau_one=True) is None


def test_tau_one_finds_every_axiom_c_witness_no_later():
    # both scans count the same lines, and the 33 samples per line of the
    # tau = 1 search include the axiom check's 9: a check that fails is met
    # by a witness on its line or earlier, but a clean check need not be
    plus = gallery("radial_custom", {"vertices": PLUS_VERTICES})
    tau_one_only = []
    for seed in range(64):
        rep = check_axioms(plus, 20, seed)
        w = falsify_ch(plus, 20, seed, tau_one=True)
        if not rep.c_holds:
            assert w is not None and w.pair_index + 1 <= rep.samples_used, seed
        elif w is not None:
            tau_one_only.append((seed, w.pair_index + 1, w.theta_star))
    # at seed 21 assumption c holds over 20 lines, and the tau = 1 search
    # escapes on line 1: two of its samples between two of the check's test
    # outside, while the check's own inside samples leave no gap
    assert (21, 1, 0.33333333333333326) in tau_one_only


# the plus shape's tau = 1 witnesses at seeds 0-15: seed -> (pair_index,
# theta_star, escape_point), as `ch --tau-one --budget 100000` reports them
PLUS_TAU_ONE_WITNESSES = {
    0: (4, 0.1428571428571427, (-0.8750131250000002, -0.16907280774482625, -0.2082703045126129)),
    1: (7, 0.12499999999999986, (-8.326672684688674e-17, -0.22036811515105514, 0.5310757692710442)),
    2: (0, 0.33333333333333304, (0.3683716115952402, 0.25000374999999997, 0.22520293113316736)),
    3: (7, 0.5, (0.12500187500000015, 0.2626615834722285, -0.23065078998461086)),
    4: (2, 0.16666666666666652, (-0.6925269916012324, -0.42765405439081716, 0.22193764756637682)),
    5: (2, 0.1666666666666668, (0.06447894052699804, 0.7500112499999998, 0.201617578221685)),
    6: (2, 0.2500000000000001, (-0.5000074999999999, 0.26515522645749917, 0.21334905994750025)),
    7: (3, 0.1666666666666666, (0.7500112500000004, -0.09323030991350378, -0.21940617303241983)),
    8: (0, 0.11111111111111105, (-0.5772858352617939, 0.875013125, -0.2142736723489731)),
    9: (6, 0.25000000000000017, (-0.02520617240355065, -0.2500037500000004, -0.2936087972502885)),
    10: (2, 0.09090909090909094, (1.3750206249999999, 0.03661973887032122, 0.20190668420909624)),
    11: (2, 0.125, (-0.10923947944946201, -1.0000149999999999, 0.20456999811764262)),
    12: (13, 0.12500000000000003, (-0.3530640081400544, -1.0000149999999999, 0.20597870395304546)),
    13: (0, 0.1, (-1.2500187500000002, 0.31422171717120495, -0.22446712015713963)),
    14: (2, 0.3333333333333337, (0.0568601267028911, -0.25000374999999975, -0.2302570165726235)),
    15: (3, 0.1666666666666666, (-0.04990471639066561, 0.7500112500000002, 0.20911607984434094)),
}


def test_plus_tau_one_witnesses_are_pinned():
    # the stream of lines and the polygon membership it escapes from both
    # decide these, so a change to either that moves a witness shows here
    plus = gallery("radial_custom", {"vertices": PLUS_VERTICES})
    for seed, (pair_index, theta_star, escape_point) in PLUS_TAU_ONE_WITNESSES.items():
        w = falsify_ch(plus, 100000, seed, tau_one=True)
        assert (w.pair_index, w.theta_star, tuple(w.escape_point)) == (pair_index, theta_star, escape_point), seed


# profiles that fail horizontal convexity: the plus shape, a dumbbell
# with a thin neck and a ring around the t-axis, whose identity is outside
NOT_HCONVEX = {
    "plus": PLUS_VERTICES,
    "dumbbell": [(0, -2), (1, -2), (1, -1), (0.1, -1), (0.1, 1), (1, 1), (1, 2), (0, 2)],
    "ring": [(0.5, -0.5), (1.0, -0.5), (1.0, 0.5), (0.5, 0.5)],
}


@given(st.sampled_from(sorted(NOT_HCONVEX)), st.integers(0, 2**32 - 1), st.sampled_from([1e-7, 1e-4]))
@settings(max_examples=40, deadline=None)
def test_tau_one_line_witnesses_replay(name, seed, eps_geom):
    tol = Tolerances(eps_geom=eps_geom)
    K = gallery("radial_custom", {"vertices": NOT_HCONVEX[name]}, tol)
    w = falsify_ch(K, 300, seed, tol, tau_one=True)
    # the dumbbell's neck is met by fewer lines: see the test below
    assert w is not None or name == "dumbbell"
    if w is not None:
        assert w.tau == 1.0 and replay_ch_witness(K, w, tol)


def test_tau_one_lines_find_every_not_hconvex_witness():
    # at budget 2000, seeds 0-63, the line scan meets the dumbbell's neck
    # and the ring's hole on every seed (the tag-0xC probe stream it
    # replaced found the dumbbell's on 6 seeds and the ring's on all 64)
    for name in ("dumbbell", "ring"):
        K = gallery("radial_custom", {"vertices": NOT_HCONVEX[name]})
        for seed in range(64):
            w = falsify_ch(K, 2000, seed, tau_one=True)
            assert w is not None and replay_ch_witness(K, w), (name, seed)


def _escape_rows(escapes):
    """Every escape as a row of its fields, and the error that ends the stream (or None)."""
    rows, error = [], None
    try:
        for w in escapes:
            assert math.isnan(w.margin)
            rows.append([*w.xi0, *w.xi1, w.tau, *w.v, w.theta_star, *w.escape_point, w.pair_index])
    except RuntimeError as exc:
        error = str(exc)
    return np.array(rows).reshape(-1, 14), error


def _assert_reference_escapes(K, budget, seed):
    got, error = _escape_rows(ch_escapes(K, budget, seed))
    want, want_error = _escape_rows(reference_ch_escapes(K, budget, seed))
    assert (got.tobytes(), error) == (want.tobytes(), want_error), (K.label, budget, seed)
    return got, error


@pytest.mark.parametrize("name", ["koranyi_ball", "cylinder", "euclidean_ball", "importante", "plus", "ring"])
def test_ch_escapes_match_chunk_by_chunk_reference(name):
    # the pairs of a batch of chunks are drawn and solved together, and the
    # escapes still come bit for bit as a chunk by chunk loop gives them,
    # across chunk, batch and pool-group cuts; the ring has no pool
    K = gallery("radial_custom", {"vertices": NOT_HCONVEX[name]}) if name in NOT_HCONVEX else gallery(name)
    for budget in (1, 255, 256, 257, 512, 513, 2000, 2048, 2049, 4200):
        rows, error = _assert_reference_escapes(K, budget, seed=3)
        assert error is None
    assert (len(rows) > 0) == (name != "koranyi_ball")


def test_ch_escapes_stall_comes_after_the_chunks_drawn_before_it():
    # a ring in a box 232 high keeps about 0.25 % of the uniform draws: at
    # seed 4, chunks 0-5 find their 512 points and chunk 6, in the batch of
    # chunks 2-7, stalls; the escapes of chunks 2-5 still come first
    ring = radial_to_oracle(polygon_profile(NOT_HCONVEX["ring"]), "ring")
    tall = SetOracle(ring.contains, ((-1.0, 1.0), (-1.0, 1.0), (-116.0, 116.0)), "tall ring", kernel=ring.kernel)
    rows, error = _assert_reference_escapes(tall, 2000, seed=4)
    assert error == "rejection sampling stalled on tall ring: 473/512 after 205800 tries"
    assert sorted(set(rows[:, -1].astype(int) // PAIR_CHUNK)) == list(range(6))


def test_transport_witness_replays():
    K = gallery("cylinder")
    w = falsify_ch(K, 2000, seed=0)
    for alpha in (0.5, 2.0):
        tw = transport_witness(w, alpha)
        assert tw.tau == w.tau
        assert tw.theta_star == w.theta_star
        assert replay_ch_witness(dilate_oracle(K, alpha), tw)


@given(st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_transport_witness_random_alpha(alpha):
    K = gallery("euclidean_ball")
    w = falsify_ch(K, 2000, seed=0)
    assert replay_ch_witness(dilate_oracle(K, alpha), transport_witness(w, alpha))


def test_replay_rejects_fabricated_witness():
    K = gallery("koranyi_ball")
    w = ChWitness(
        xi0=Point3(0.5, 0.0, 0.0),
        xi1=Point3(0.0, 0.5, 0.0),
        tau=2.0,
        v=HVec(-0.5, 1.0),
        theta_star=0.5,
        escape_point=Point3(3.0, 0.0, 0.0),
        margin=1.0,
    )
    assert not replay_ch_witness(K, w)


def test_replay_rejects_tau_off_the_quadratic():
    # the frozen cylinder witness with tau moved by one part in a million,
    # its step and escape point recomputed from the moved tau: the curve
    # still escapes, but xi1 no longer lies on it
    K = gallery("cylinder")
    w = falsify_ch(K, 2000, seed=0)
    tau = w.tau * (1.0 + 1e-6)
    v = HVec(tau * w.xi1.x - w.xi0.x, tau * w.xi1.y - w.xi0.y)
    moved = dataclasses.replace(w, tau=tau, v=v, escape_point=Point3(*curve_point(*w.xi0, *v, tau, w.theta_star)))
    assert escapes(K, moved.escape_point)
    assert abs(tau_residual(w.xi0, w.xi1, tau)) > 100 * 1e-9 * (1.0 + abs(w.xi0.t) + abs(w.xi1.t)) * (1.0 + tau) ** 2
    assert not replay_ch_witness(K, moved)


def test_replay_rejects_escape_within_pullback_slack():
    # the frozen cylinder witness moved back along its curve to the first
    # theta (to the last bit) whose point is outside K: that point is within
    # membership slack of the boundary, so it is no escape
    K = gallery("cylinder")
    w = falsify_ch(K, 2000, seed=0)

    def at(theta):
        return Point3(*curve_point(*w.xi0, *w.v, w.tau, theta))

    lo, hi = 0.0, w.theta_star
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if K.contains(at(mid)) else (lo, mid)
    assert not K.contains(at(hi)) and not escapes(K, at(hi))
    assert not replay_ch_witness(K, dataclasses.replace(w, theta_star=hi, escape_point=at(hi)))


@pytest.mark.parametrize("r", [1e-4, 1e-5, 1e-6])
def test_small_koranyi_balls_stay_clean(r):
    # every Koranyi ball is a dilate of the unit ball, which has no witness;
    # its pairs are about 1e-8 in t and cross, so solve_tau's tolerances
    # must scale with the pair for no negative discriminant to clamp to 0
    K = gallery("koranyi_ball", {"r": r})
    assert [falsify_ch(K, 2000, seed) for seed in range(8)] == [None] * 8


def test_replay_rejects_the_small_ball_false_witness():
    # the witness ch once reported on the Koranyi ball of radius 1e-4 at
    # seed 0 (pair 132): its pair has no real tau (discriminant -5.5e-18)
    xi0 = Point3(5.78000549157987e-05, 8.151411898771818e-05, 8.124343026767678e-10)
    xi1 = Point3(3.554079423491975e-05, 6.822924721300163e-05, -8.07785223143607e-09)
    w = ChWitness(
        xi0,
        xi1,
        0.12956138285359345,
        HVec(-5.319534046700747e-05, -7.2674243367742e-05),
        0.75,
        Point3(5.156982481321809e-05, 7.779576512024847e-05, 5.053112884338045e-09),
        0.0025445520877838135,
        pair_index=132,
    )
    cross = xi0.x * xi1.y - xi1.x * xi0.y
    assert cross * cross + xi0.t * xi1.t == pytest.approx(-5.5e-18, rel=0.01)
    assert solve_tau(xi0, xi1) == []
    assert not replay_ch_witness(gallery("koranyi_ball", {"r": 1e-4}), w)


@pytest.mark.parametrize("s", [1.0, 0.1, 0.01, 0.003])
def test_dilated_cylinder_profiles_keep_their_witness_pairs(s):
    # the unit cylinder's profile dilated by s (r by s, t by s^2): the C_H
    # search is invariant under dilations, so every seed's witness comes
    # at the pair it comes at on the unit profile
    K = gallery("radial_custom", {"vertices": [[0, -s * s], [s, -s * s], [s, s * s], [0, s * s]]})
    found = [falsify_ch(K, 2000, seed) for seed in range(8)]
    assert [w.pair_index for w in found] == [7, 0, 5, 3, 17, 5, 0, 10]
    assert all(replay_ch_witness(K, w) for w in found)


RADIAL_TABLE = {
    "koranyi_ball": (True, True),
    "euclidean_ball": (False, True),
    "cylinder": (True, True),
    "cylinder_hat": (True, True),
    "importante": (False, False),
}


@pytest.mark.parametrize("name", sorted(RADIAL_TABLE))
def test_radial_necessary_gallery(name):
    K = gallery(name)
    rep = radial_necessary(K.profile, 1000, seed=0)
    assert (rep.thm_i_ok, rep.thm_ii_ok) == RADIAL_TABLE[name]
    if not rep.thm_i_ok:
        w = rep.thm_i_witness
        assert not K.profile.contains2d(math.hypot(w.x, w.y), w.t)
    assert rep.r_flat > 0.0


def test_radial_necessary_importante_witness():
    K = gallery("importante")
    rep = radial_necessary(K.profile, 1000, seed=0)
    w = rep.thm_ii_witness
    assert w is not None
    assert abs(w.x - IMPORTANTE_R_MAX) <= 1e-3
    assert w.y == 0.0 and w.t == 0.0
    assert rep.r_sup > rep.r_flat


def test_radial_necessary_thm_ii_sees_a_1e4_bulge():
    # a unit cylinder whose side bulges out to radius 1 + 1e-4 at t = 1/2:
    # the widest slice exceeds r* = 1 by 1e-4, far above the eps_geom slack
    P = polygon_profile([(0.0, 1.0), (1.0, 1.0), (1.0001, 0.5), (1.0, 0.0), (1.0, -1.0), (0.0, -1.0)])
    rep = radial_necessary(P, 1000, seed=0)
    assert rep.thm_i_ok and not rep.thm_ii_ok
    assert rep.r_sup - rep.r_flat == pytest.approx(1e-4, rel=1e-3)
    assert rep.thm_ii_witness == Point3(rep.r_sup, 0.0, 0.0)


def test_radial_necessary_validates_n():
    with pytest.raises(ValueError):
        radial_necessary(gallery("cylinder").profile, 0)


@pytest.mark.parametrize("K", radial_sets(), ids=lambda K: K.label)
def test_radial_necessary_matches_scalar_reference(K):
    # one batched scan and one caps call give the report of the
    # height-by-height, cap-by-cap loops, field for field
    for n in (1, 7, 400, 2000):
        for seed in (0, 1, 5):
            assert radial_necessary(K.profile, n, seed) == reference_radial_necessary(K.profile, n, seed), (n, seed)


@pytest.mark.parametrize("K", radial_sets(), ids=lambda K: K.label)
def test_outer_radii_match_scalar_scan(K, monkeypatch):
    # every height of a fine grid, past both ends of the profile (radius 0),
    # bit for bit, with blocks of 1 and 7 radii as well as the default, and
    # under a max_iter cap that cuts the bisection short
    t_lo, t_hi = K.profile.t_range
    ts = np.linspace(1.1 * t_lo - 0.1, 1.1 * t_hi + 0.1, 301)
    for tol in (DEFAULT_TOL, Tolerances(eps_geom=1e-4, eps_eq=1e-4, max_iter=5)):
        want = [reference_outer_radius(K.profile, float(t), tol) for t in ts]
        assert want.count(0.0) >= 2
        for block in (1, 7, chcheck.RADIUS_BLOCK):
            monkeypatch.setattr(chcheck, "RADIUS_BLOCK", block)
            assert chcheck._outer_radii(K.profile, ts, tol).tolist() == want, (tol, block)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-5.0, max_value=5.0).filter(lambda t: abs(t) > 1e-3),
)
@settings(max_examples=200)
def test_envelope_identities(r0, t0):
    assert envelope_phi(r0, r0, t0) == pytest.approx(t0, rel=1e-9, abs=1e-9)
    assert envelope_psi(r0, r0, t0) == pytest.approx(abs(t0), rel=1e-9, abs=1e-9)
    for frac in (0.0, 0.33, 0.77, 1.0):
        r = frac * r0
        psi = envelope_psi(r, r0, t0)
        assert r ** 4 + psi * psi == pytest.approx(r0 ** 4 + t0 * t0, rel=1e-9)


def test_envelope_check_koranyi_anchor():
    K = gallery("koranyi_ball")
    t0 = math.sqrt(1.0 - 0.9 ** 4)
    rep = envelope_check(K, [Point3(0.9, 0.0, t0)], 200)[0]
    assert rep.ok()
    assert rep.cap_min_margin >= -1e-7
    assert rep.solid_min_margin >= -1e-7
    assert rep.phi_endpoint_residual <= 1e-12
    assert rep.cap_identity_residual <= 1e-12


def test_envelope_check_cylinder_fails_solid():
    K = gallery("cylinder")
    rep = envelope_check(K, [Point3(0.9, 0.0, 0.9)], 200)[0]
    assert not rep.ok()
    assert rep.solid_failure is not None
    # vertex of the parabolic arc envelope tops out just above the lid
    assert rep.solid_failure.t == pytest.approx(1.055413, abs=1e-3)
    assert rep.solid_min_margin < -1e-3


def _reference_envelope(K, xi0, n, tol=DEFAULT_TOL):
    """The point-by-point envelope_check the one-batch version must reproduce."""
    r0, t0 = math.hypot(xi0.x, xi0.y), xi0.t
    fine = Tolerances(eps_geom=tol.eps_eq, eps_eq=tol.eps_eq, max_iter=tol.max_iter)
    floor = -max(1e-6, 10.0 * tol.eps_geom)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    solid_min, solid_failure = math.inf, None
    for k in range(n):
        r = r0 / math.sqrt(2.0) + (r0 - r0 / math.sqrt(2.0)) * k / (n - 1)
        rho = r * ((k % 3) + 1) / 3.0
        pt = Point3(rho * math.cos(k * golden), rho * math.sin(k * golden), envelope_phi(r, r0, t0))
        mg = 1.0 - dilation_level(K, pt, fine)
        if mg < solid_min:
            solid_min = mg
            if mg < floor:
                solid_failure = pt
    cap_min, cap_failure, cap_res = math.inf, None, 0.0
    sgn = math.copysign(1.0, t0)
    for k in range(n):
        r = r0 * k / (n - 1)
        psi = envelope_psi(r, r0, t0)
        cap_res = max(cap_res, abs((r * r) * (r * r) + psi * psi - ((r0 * r0) * (r0 * r0) + t0 * t0)))
        for t in (sgn * psi, 0.5 * (t0 + sgn * psi)):
            pt = Point3(r * math.cos(k * golden + 1.0), r * math.sin(k * golden + 1.0), t)
            mg = 1.0 - dilation_level(K, pt, fine)
            if mg < cap_min:
                cap_min = mg
                if mg < floor:
                    cap_failure = pt
    phi_res = abs(envelope_phi(r0, r0, t0) - t0)
    return EnvelopeReport(solid_min, cap_min, n, 2 * n, solid_failure, cap_failure, phi_res, cap_res)


@pytest.mark.parametrize(
    "name, anchor",
    [
        ("koranyi_ball", Point3(0.9, 0.0, math.sqrt(1.0 - 0.9 ** 4))),
        ("cylinder", Point3(0.9, 0.0, 0.9)),
        ("importante", Point3(0.8 * IMPORTANTE_R_MAX, 0.0, -3.0)),
    ],
)
def test_envelope_check_matches_point_by_point_loop(name, anchor):
    K = gallery(name)
    assert envelope_check(K, [anchor], 120) == [_reference_envelope(K, anchor, 120)]


@pytest.mark.parametrize(
    "name, anchor",
    [
        ("koranyi_ball", Point3(0.9, 0.0, math.sqrt(1.0 - 0.9 ** 4))),
        ("cylinder_hat", Point3(0.8, 0.0, 2.0)),
        ("importante", Point3(0.8 * IMPORTANTE_R_MAX, 0.0, -3.0)),
        ("cylinder", Point3(0.9, 0.0, 0.9)),
    ],
)
def test_envelope_check_lists_of_anchors_match_point_by_point_loop(name, anchor):
    # one anchor, then three bisected in one batch with two radial-command anchors
    K = gallery(name)
    anchors = [anchor] + _anchor_points(K)[:2]
    want = [_reference_envelope(K, a, 80) for a in anchors]
    assert envelope_check(K, anchors[:1], 80) == want[:1]
    assert envelope_check(K, anchors, 80) == want
    # the cylinder's solid envelope overshoots its lid
    assert (want[0].solid_failure is not None) == (name == "cylinder")
    assert envelope_check(K, [], 80) == []


def test_envelope_check_validates_every_anchor_first(monkeypatch):
    K = gallery("koranyi_ball")
    good = _anchor_points(K)[:2]
    monkeypatch.setattr(chcheck, "dilation_level_many", None)  # a call would raise TypeError
    for bad, message in ((Point3(2.0, 0.0, 0.3), "must lie in the set"), (Point3(0.9, 0.0, 0.0), "nonzero vertical")):
        for at in range(3):
            with pytest.raises(ValueError, match=message):
                envelope_check(K, good[:at] + [bad] + good[at:], 10)


def test_envelope_check_validation():
    K = gallery("koranyi_ball")
    with pytest.raises(ValueError):
        envelope_check(K, [Point3(0.9, 0.0, 0.3)], 1)
    with pytest.raises(ValueError):
        envelope_check(K, [Point3(2.0, 0.0, 0.3)], 10)  # outside the set
    with pytest.raises(ValueError):
        envelope_check(K, [Point3(0.9, 0.0, 0.0)], 10)  # planar anchor
    with pytest.raises(ValueError):
        envelope_check(K, [Point3(0.0, 0.0, 0.9)], 10)  # polar anchor
