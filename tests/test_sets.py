import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisconvex import (
    ConeFunction,
    DilationEscape,
    HVec,
    ORIGIN,
    Point3,
    SegmentEscape,
    Tolerances,
    boundary_sample,
    check_axioms,
    cone_eval,
    dilate,
    dilation_level,
    escape_margin,
    escapes,
    exp_h,
    gallery,
    group_mul,
    norm,
    sample_in_set,
)
from heisconvex.chcheck import PAIR_BATCHES, curve_point
from heisconvex.core import ARRAYS, FLOATS
from heisconvex.core import scale as core_scale
from heisconvex import sets
from heisconvex.sets import (
    GALLERY_NAMES,
    IMPORTANTE_ANCHOR_NORM,
    IMPORTANTE_R_FLAT,
    IMPORTANTE_R_MAX,
    SetOracle,
    bbox_scale,
    bisect_many,
    box_oracle,
    dilation_level_many,
    check_axioms_ab,
    chunk_batches,
    LINE_CHUNK,
    escapes_many,
    interior_thetas,
    polygon_profile,
    radial_to_oracle,
    scan_horizontal_segments,
    segment_chunks,
    uniform_points,
)
from ch_reference import dilate_oracle
from radial_reference import radial_sets, reference_polygon_member
from line_reference import reference_scan

PLUS_VERTICES = [
    (0.0, 2.0),
    (0.2, 2.0),
    (0.2, 0.2),
    (2.0, 0.2),
    (2.0, -0.2),
    (0.2, -0.2),
    (0.2, -2.0),
    (0.0, -2.0),
]


def plus_set():
    return gallery("radial_custom", {"vertices": PLUS_VERTICES})


def test_gallery_names_resolve():
    for name in GALLERY_NAMES:
        if name == "radial_custom":
            K = plus_set()
        else:
            K = gallery(name)
        assert K.contains(Point3(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        gallery("not_a_set")
    with pytest.raises(ValueError):
        gallery("radial_custom")


def test_gallery_params():
    K = gallery("koranyi_ball", {"r": 2.0})
    assert K.contains(Point3(1.9, 0.0, 0.0))
    assert not K.contains(Point3(2.1, 0.0, 0.0))


def test_gallery_rejects_bad_params():
    # unknown keys name the set and the keys it accepts
    with pytest.raises(ValueError, match=r"koranyi_ball does not accept params \['radius'\]; accepted: r"):
        gallery("koranyi_ball", {"radius": 3})
    with pytest.raises(ValueError, match="cylinder does not accept params .*accepted: none"):
        gallery("cylinder", {"r": 2.0})
    with pytest.raises(ValueError, match="accepted: vertices"):
        gallery("radial_custom", {"vertices": PLUS_VERTICES, "t_half": 0.5})
    for r in (math.nan, math.inf, -1.0, 0.0, True, "2"):
        with pytest.raises(ValueError, match="euclidean_ball needs a finite r > 0"):
            gallery("euclidean_ball", {"r": r})
    assert gallery("euclidean_ball", {"r": 2}).label == "euclidean_ball(r=2)"


@pytest.mark.parametrize(
    "vertices",
    [
        5,
        "abc",
        [[0, 0], [1, 0], 7],
        [[0, 0], [1, 0], [1, "a"]],
        [[0, 0], [1, 0], "12"],
        [[0, 0], [1, 0], [1, 1, 1]],
        [[0, 0], [1, 0], [1, math.nan]],
        [[0, 0], [1, 0], [math.inf, 1]],
        [[0, 0], [1, 0], [True, 1]],
    ],
)
def test_polygon_profile_rejects_malformed_vertices(vertices):
    with pytest.raises(ValueError, match=r"vertices must be \[r, t\] pairs of finite numbers"):
        polygon_profile(vertices)
    with pytest.raises(ValueError, match=r"vertices must be \[r, t\] pairs of finite numbers"):
        gallery("radial_custom", {"vertices": vertices})


def test_gallery_rejects_overflowing_r():
    # (r + eps)**4 and (r + eps)**2 overflow at build time; r = 1e77 builds
    # a bounding box whose diameter overflows; a 400-digit int has no float
    cases = (("koranyi_ball", 1e300), ("euclidean_ball", 1e300), ("koranyi_ball", 1e77), ("koranyi_ball", 10**400))
    for name, r in cases:
        with pytest.raises(ValueError, match=f"{name} params overflow its floating-point bounds"):
            gallery(name, {"r": r})
    assert gallery("koranyi_ball", {"r": 1e76}).label == "koranyi_ball(r=1e+76)"


def test_dilation_level_rejects_non_finite():
    K = gallery("koranyi_ball")
    for p in (Point3(math.nan, 0.0, 0.0), Point3(0.0, math.inf, 0.0), Point3(0.0, 0.0, -math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            dilation_level(K, p)
        with pytest.raises(ValueError, match="non-finite"):
            dilation_level(K, p, scaling="euclidean")


def test_membership_spot_checks():
    K = gallery("koranyi_ball")
    assert K.contains(Point3(0.0, 0.0, 1.0))
    assert not K.contains(Point3(0.0, 0.0, 1.01))
    # gauge-sphere point outside the euclidean ball
    s = Point3(2.0 ** -0.5, 0.0, math.sqrt(3.0) / 2.0)
    assert K.contains(s)
    assert not gallery("euclidean_ball").contains(s)

    C = gallery("cylinder")
    assert C.contains(Point3(1.0, 0.0, 1.0))
    assert not C.contains(Point3(1.0, 0.0, 1.001))
    assert not C.contains(Point3(1.001, 0.0, 0.0))

    H = gallery("cylinder_hat")
    assert H.contains(Point3(1.0, 0.0, 0.0))
    assert H.contains(Point3(0.0, 0.0, 3.999))  # hat: gauge norm <= 2 allows t up to 4
    assert not H.contains(Point3(0.0, 0.0, 4.01))
    assert not H.contains(Point3(1.01, 0.0, 0.0))

    S = gallery("slab_x")
    assert S.contains(Point3(1.0, 50.0, -999.0))
    assert not S.contains(Point3(1.01, 0.0, 0.0))
    assert not S.is_compact


def test_importante_profile_constants():
    # widest slice sits at t = -pi/2 (depth 3/2), flat slice at depth 2
    K = gallery("importante")
    assert K.profile is not None
    assert K.profile.contains2d(IMPORTANTE_R_FLAT - 1e-9, 0.0)
    assert not K.profile.contains2d(IMPORTANTE_R_FLAT + 1e-3, 0.0)
    assert K.profile.contains2d(IMPORTANTE_R_MAX - 1e-9, -math.pi / 2.0)
    assert not K.profile.contains2d(IMPORTANTE_R_MAX + 1e-3, -math.pi / 2.0)
    assert IMPORTANTE_R_MAX > IMPORTANTE_R_FLAT


def test_dilation_level_koranyi_is_gauge():
    K = gallery("koranyi_ball")
    for p in (Point3(0.5, 0.0, 0.0), Point3(0.3, -0.4, 0.7), Point3(0.0, 0.0, -2.0)):
        assert dilation_level(K, p) == pytest.approx(norm(p, "koranyi"), abs=1e-6)
    assert dilation_level(K, Point3(0.0, 0.0, 0.0)) == 0.0


def test_dilation_level_euclidean_scaling():
    K = gallery("euclidean_ball")
    p = Point3(0.3, -0.4, 0.7)
    assert dilation_level(K, p, scaling="euclidean") == pytest.approx(
        norm(p, "euclidean"), abs=1e-6
    )


def test_dilation_level_unbounded_direction():
    S = gallery("slab_x")
    # (0,1,0) never enters a scaled slab's bbox truncation but is in the slab itself
    assert dilation_level(S, Point3(0.5, 0.0, 0.0)) <= 0.5 + 1e-6


def test_escapes_and_margin():
    K = gallery("koranyi_ball")
    assert not escapes(K, Point3(0.5, 0.0, 0.0))
    assert not escapes(K, Point3(1.0, 0.0, 0.0))  # boundary is not a robust escape
    out = Point3(1.1, 0.0, 0.0)
    assert escapes(K, out)
    assert escape_margin(K, out) == pytest.approx(0.1, abs=1e-5)


def test_escape_margin_flags_a_non_monotone_ray():
    # the dumbbell fails assumption b: along the ray of this escape point,
    # membership flips more than once, so the bisected 1.104 is no level
    K = radial_to_oracle(
        polygon_profile([(0, -2), (1, -2), (1, -1), (0.1, -1), (0.1, 1), (1, 1), (1, 2), (0, 2)]), "dumbbell"
    )
    p = Point3(0.009180772108855333, 0.10999218263229252, 0.6798846419619698)
    assert escapes(K, p)
    assert dilation_level(K, p) == pytest.approx(1.104, abs=1e-3)
    assert escape_margin(K, p) == math.inf


def _counting(K):
    """K, and the sizes of the contains_many calls its kernel receives."""
    sizes = []

    def kernel(x, y, t):
        sizes.append(np.size(x))
        return K.kernel(x, y, t)

    return dataclasses.replace(K, kernel=kernel), sizes


def test_uniform_points_sizes_rounds_from_acceptance():
    # the plus shape keeps about 8 % of its box: the first round of 1024
    # draws sizes the next, so 256 points take at most three rounds
    K, sizes = _counting(plus_set())
    for seed in range(20):
        sizes.clear()
        pts = uniform_points(K, 256, np.random.default_rng(seed))
        assert pts.shape == (256, 3) and K.contains_many(*pts.T).all()
        assert sizes[0] == 1024 and len(sizes) <= 3, (seed, sizes)


def test_uniform_points_on_a_box_is_one_round():
    # a set that fills its box is done in the first round of
    # max(64, 4 need) draws of x, then y, then t: criterion 2's box stream
    box = box_oracle(((-2.0, 2.0), (-1.0, 3.0), (-4.0, 0.5)))
    for need in (0, 1, 16, 17, 300):
        m = max(64, 4 * need)
        rng = np.random.default_rng(need)
        want = np.stack([rng.uniform(lo, hi, m) for lo, hi in box.bbox], axis=1)[:need]
        assert uniform_points(box, need, np.random.default_rng(need)).tolist() == want.tolist()


def test_sample_in_set_members_and_determinism():
    K = gallery("cylinder_hat")
    pts1 = sample_in_set(K, 64, np.random.default_rng(9))
    pts2 = sample_in_set(K, 64, np.random.default_rng(9))
    assert pts1 == pts2
    assert all(K.contains(p) for p in pts1)
    assert all(isinstance(p.x, float) for p in pts1)
    assert sample_in_set(K, 0, np.random.default_rng(9)) == []


def test_boundary_sample_members_near_level_one():
    K = gallery("euclidean_ball")
    pts = boundary_sample(K, 32, seed=4)
    assert pts.shape == (32, 3)
    for p in map(Point3._make, pts.tolist()):
        assert K.contains(p)
        assert dilation_level(K, p) == pytest.approx(1.0, abs=1e-4)


def test_boundary_sample_needs_compact():
    with pytest.raises(ValueError):
        boundary_sample(gallery("slab_x"), 8, seed=0)
    # the rays double up to max(1, bbox_scale) * 2**32, as the level
    # brackets do, so every ray leaves a box flagged compact, however large
    for r in (2.0 ** 59, 2.0 ** 61, 1e70):
        box = box_oracle(((-r, r), (-r, r), (-r * r, r * r)))
        assert box.contains_many(*boundary_sample(box, 8, seed=0).T).all()
    # and a set flagged compact that holds every point counts as unbounded
    everything = SetOracle(lambda p: True, ((-1.0, 1.0),) * 3, "all", kernel=lambda x, y, t: np.ones(np.shape(x), bool))
    with pytest.raises(RuntimeError, match="never exits"):
        boundary_sample(everything, 8, seed=0)


@pytest.mark.parametrize("r", [1e19, 1e20, 1e70])
def test_boundary_sample_on_huge_koranyi_balls(r):
    # eps_geom is below the ball's float spacing, so exact pool points round
    # outside K and are bisected; the rays reach the boundary at scale r
    K = gallery("koranyi_ball", {"r": r})
    pts = boundary_sample(K, 256, 0)
    assert K.contains_many(*pts.T).all()


def test_interior_thetas_contains_half():
    for m in (2, 3, 9, 10, 33):
        grid = interior_thetas(m)
        assert 0.5 in grid
        assert 0.0 < grid[0] and grid[-1] < 1.0
        assert list(grid) == sorted(grid)
    with pytest.raises(ValueError):
        interior_thetas(1)


AXIOM_TABLE = {
    "koranyi_ball": (True, True, True),
    "euclidean_ball": (True, True, True),
    "cylinder": (True, True, True),
    "cylinder_hat": (True, True, True),
    "importante": (True, True, True),
    "slab_x": (False, True, True),
}


@pytest.mark.parametrize("name", sorted(AXIOM_TABLE))
def test_check_axioms_gallery(name):
    rep = check_axioms(gallery(name), 800, seed=0)
    assert (rep.a_holds, rep.b_holds, rep.c_holds) == AXIOM_TABLE[name]


def test_plus_polygon_not_hconvex():
    K = plus_set()
    rep = check_axioms(K, 800, seed=0)
    assert rep.a_holds and rep.b_holds
    assert not rep.c_holds
    w = rep.hconvex_witness
    assert K.contains(w.base)
    assert w.escape_point is not None
    assert escapes(K, w.escape_point)

    # hand instance: both arm tips are in, the elbow midpoint is not
    a = Point3(1.5, 0.0, 0.1)
    b = Point3(0.0, -0.2, a.t + 2.0 * (a.y * (0.0 - a.x) - a.x * (-0.2 - a.y)))
    mid = Point3(0.75, -0.1, 0.1 + 2.0 * (a.y * (0.75 - a.x) - a.x * (-0.1 - a.y)))
    assert K.contains(a) and K.contains(b)
    assert not K.contains(mid)


def test_scan_clean_on_koranyi():
    w, used = scan_horizontal_segments(gallery("koranyi_ball"), 500, 9, seed=0)
    assert w is None
    assert used == 500


def _scan_outcome(K, n, grid, seed):
    try:
        return scan_horizontal_segments(K, n, grid, seed)
    except RuntimeError as exc:
        return RuntimeError, str(exc)


def _stripes(p):
    return math.floor(4.0 * p.x) % 2 == 0 and abs(p.y) <= 1.0 and abs(p.t) <= 1.0


def _sliver(x, y, t):
    return (abs(x) <= 1.0) & (abs(y) <= 1.0) & (abs(t) <= 1e-4)


def _scan_cases():
    """name: (set, line budget n)."""
    plus = plus_set()
    (xlo, xhi), (ylo, yhi), tb = plus.bbox
    return {
        **{name: (_level_set(name, Tolerances()), 100) for name in GALLERY_NAMES},
        # a bare predicate: contains_many is a row loop over contains
        "bare plus": (SetOracle(plus.contains, plus.bbox, "bare plus"), 100),
        # too thin for n lines: almost no line meets it at two of its samples
        # (at seed 1, 2 of the first 1000 + 400 n lines count, and 3 of the
        # first 5120, which end chunk 19: the scan must stop at the bound)
        "sliver": (SetOracle(lambda p: _sliver(*p), ((-1.0, 1.0), (-1.0, 1.0), (-1e-3, 1e-3)), "sliver", kernel=_sliver), 10),
        # rejection sampling stalls a few lines into the stream
        "wide plus": (SetOracle(plus.contains, ((6 * xlo, 6 * xhi), (6 * ylo, 6 * yhi), tb), "wide plus", kernel=plus.kernel), 200),
        "tall stripes": (SetOracle(_stripes, ((-1.0, 1.0), (-1.0, 1.0), (-200.0, 200.0)), "tall stripes"), 200),
    }


def test_scan_matches_reference_loop():
    cases = _scan_cases()
    outcomes = {}
    for name, (K, n) in cases.items():
        for grid in (9, 33):
            for seed in range(4):
                want = reference_scan(K, n, grid, seed)
                assert _scan_outcome(K, n, grid, seed) == want, (name, grid, seed)
                outcomes[name, grid, seed] = want
    kinds = {
        "escape": [k for k, (w, _) in outcomes.items() if isinstance(w, SegmentEscape)],
        "clean": [k for k, (w, used) in outcomes.items() if w is None and used == cases[k[0]][1]],
        "thin": [k for k, (w, msg) in outcomes.items() if w is RuntimeError and "too thin" in msg],
        "stall": [k for k, (w, msg) in outcomes.items() if w is RuntimeError and "stalled" in msg],
    }
    assert all(kinds.values()), kinds
    assert sum(map(len, kinds.values())) == len(outcomes)
    assert all(k[0] == "sliver" for k in kinds["thin"])
    # an escape found before a stall is reported: in a thin box with a
    # pinhole, at seed 149, line 334 escapes in chunk 1, and drawing chunk 2
    # stalls
    def pinhole(x, y, t):
        return (abs(x) <= 1.0) & (abs(y) <= 1.0) & (abs(t) <= 0.5) & (x * x + y * y >= 1e-4)

    holed = SetOracle(lambda p: pinhole(*p), ((-1.0, 1.0), (-1.0, 1.0), (-200.0, 200.0)), "pinhole", kernel=pinhole)
    for chunk in range(2):
        uniform_points(holed, LINE_CHUNK, np.random.default_rng([149, 0xC, chunk]))
    with pytest.raises(RuntimeError, match="stalled"):
        uniform_points(holed, LINE_CHUNK, np.random.default_rng([149, 0xC, 2]))
    for grid in (9, 33):
        want = reference_scan(holed, 2000, grid, 149)
        assert _scan_outcome(holed, 2000, grid, 149) == want
        assert isinstance(want[0], SegmentEscape) and want[1] == 334


def test_line_scan_budget_prefix_stable():
    # line i depends only on (seed, i), and so does whether it counts: a
    # smaller budget scans a prefix of the lines, a larger one extends them
    plus = plus_set()
    for grid in (9, 33):
        for seed in range(6):
            w, used = scan_horizontal_segments(plus, 5000, grid, seed)
            assert w is not None
            for n in (used, used + 1, 2 * used + 7):
                assert scan_horizontal_segments(plus, n, grid, seed) == (w, used), (grid, seed, n)
            for n in range(1, used):
                assert scan_horizontal_segments(plus, n, grid, seed) == (None, n), (grid, seed, n)
    K = gallery("cylinder_hat")
    assert scan_horizontal_segments(K, 40, 33, 5) == (None, 40)
    assert scan_horizontal_segments(K, 3000, 33, 5) == (None, 3000)


def test_line_scan_takes_only_grids_8k_plus_1(monkeypatch):
    # a line counts when two of its 9 samples j / 8 test inside, and only a
    # grid of 8 k + 1 >= 9 samples holds them: grid 5 once died on a zero
    # slice step, and grid 10 counted other samples and escaped later than 9
    plus = plus_set()
    drawn = []
    monkeypatch.setattr(sets, "uniform_points", lambda *args: drawn.append(args) or uniform_points(*args))
    for grid in (5, 10, 12):
        with pytest.raises(ValueError, match=r"8 k \+ 1 >= 9"):
            scan_horizontal_segments(plus, 2000, grid, 0)
    assert not drawn
    for seed in (0, 3):
        w, used = scan_horizontal_segments(plus, 2000, 9, seed)
        assert isinstance(w, SegmentEscape)
        for grid in (17, 33):
            w, finer = scan_horizontal_segments(plus, 2000, grid, seed)
            assert isinstance(w, SegmentEscape) and finer <= used, (grid, seed)
    assert drawn


def test_chunk_batches_follow_the_sizes_and_end_with_the_stall():
    def falsifiers():
        return itertools.chain((1, 2, 4, 8), itertools.repeat(16))

    def pairs():
        return itertools.cycle(PAIR_BATCHES)

    batches = list(chunk_batches(iter(range(47)), falsifiers()))
    assert [len(b) for b in batches] == [1, 2, 4, 8, 16, 16]
    assert sum(batches, []) == list(range(47))
    batches = list(chunk_batches(iter(range(20)), pairs()))
    assert [len(b) for b in batches] == [1, 1, 6, 1, 1, 6, 1, 1, 2]
    assert sum(batches, []) == list(range(20))
    assert list(chunk_batches(iter(()), pairs())) == []

    def stalling(n):
        yield from range(n)
        raise RuntimeError("stalled")

    # the chunks drawn before a stall come out first, then its error, and
    # no list is empty, also when the stall falls on a batch boundary
    batches = chunk_batches(stalling(5), falsifiers())
    assert [next(batches) for _ in range(3)] == [[0], [1, 2], [3, 4]]
    with pytest.raises(RuntimeError, match="stalled"):
        next(batches)
    for sizes in (falsifiers, pairs):
        for n in range(18):
            batches = []
            with pytest.raises(RuntimeError, match="stalled"):
                for batch in chunk_batches(stalling(n), sizes()):
                    batches.append(batch)
            assert all(batches) and sum(batches, []) == list(range(n)), (sizes, n)


def _stream(K, n, seed):
    chunks = list(segment_chunks(K, n, interior_thetas(9), seed))
    return [np.concatenate([c[i] for c in chunks]) for i in range(3)]


def test_probe_stream_budget_prefix_stable():
    # probe i depends only on (seed, i): a larger n extends the stream
    plus = plus_set()
    for K in (gallery("cylinder_hat"), plus, SetOracle(plus.contains, plus.bbox, "bare plus")):
        for seed in (0, 5):
            short, long = _stream(K, 40, seed), _stream(K, 700, seed)
            assert len(short[0]) == 40 and len(long[0]) == 700
            for a, b in zip(short, long):
                assert np.array_equal(a, b[:40])


def test_probe_stream_points_are_group_mul():
    thetas = interior_thetas(9)
    K = plus_set()
    p, v, q, seg = next(segment_chunks(K, 200, thetas, 3))
    for r in range(len(p)):
        base, step = Point3(*p[r].tolist()), HVec(*v[r].tolist())
        assert K.contains(base) and K.contains(Point3(*q[r].tolist()))
        assert tuple(q[r].tolist()) == group_mul(base, exp_h(step))
        for j, th in enumerate(thetas.tolist()):
            want = group_mul(base, exp_h(HVec(th * step.a, th * step.b)))
            assert (seg.x[r, j], seg.y[r, j], seg.t[r, j]) == want


def _reference_axioms_ab(K, n, seed):
    """check_axioms_ab one probe and one dilate at a time."""
    rng = np.random.default_rng([seed, 0xA])
    (xlo, xhi), (ylo, yhi), (tlo, thi) = K.bbox
    half = min((xhi - xlo) / 2.0, (yhi - ylo) / 2.0, math.sqrt(max(thi - tlo, 0.0) / 2.0))
    rho = 1e-3 * min(1.0, half) if half > 0.0 else 1e-3
    probes = [ORIGIN, Point3(rho, 0.0, 0.0), Point3(-rho, 0.0, 0.0), Point3(0.0, rho, 0.0),
              Point3(0.0, -rho, 0.0), Point3(0.0, 0.0, rho * rho), Point3(0.0, 0.0, -rho * rho)]
    for _ in range(8):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s = rng.uniform(0.0, rho)
        probes.append(Point3(s * math.cos(phi), s * math.sin(phi), rng.uniform(-1.0, 1.0) * rho * rho))
    a_holds = K.is_compact and all(K.contains(p) for p in probes)
    if not (a_holds or K.contains(ORIGIN)):
        return a_holds, False, None
    for p in sample_in_set(K, n, rng):
        tau = rng.uniform(0.0, 1.0)
        if not K.contains(dilate(tau, p)):
            return a_holds, False, DilationEscape(p, tau)
    return a_holds, True, None


def test_check_axioms_ab_matches_reference():
    # one array of n factors draws what n scalar draws do
    rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
    assert rng1.uniform(0.0, 1.0, 300).tolist() == [rng2.uniform(0.0, 1.0) for _ in range(300)]
    dumbbell = radial_to_oracle(
        polygon_profile([(0, -2), (1, -2), (1, -1), (0.1, -1), (0.1, 1), (1, 1), (1, 2), (0, 2)]), "dumbbell"
    )
    ring = radial_to_oracle(polygon_profile([(1.0, 1.0), (2.0, 1.0), (2.0, -1.0), (1.0, -1.0)]), "ring")
    # the identity sits on the floor t = 0 of this compact cylinder: it and
    # the probes beside and above it are in K, the probe at t = -rho^2 is not
    floor = radial_to_oracle(polygon_profile([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), "floor")
    assert check_axioms_ab(floor, 200, 0) == (False, True, None)
    outcomes = []
    for K in (*(gallery(name) for name in AXIOM_TABLE), plus_set(), dumbbell, ring, floor):
        for seed in (0, 1):
            want = _reference_axioms_ab(K, 500, seed)
            assert check_axioms_ab(K, 500, seed) == want, (K.label, seed)
            outcomes.append(want)
    assert any(b_witness is not None for _, _, b_witness in outcomes)
    assert any(not a for a, _, _ in outcomes)


def test_box_oracle():
    B = box_oracle(((-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0)), "b")
    assert B.contains(Point3(0.9, -1.9, 2.9))
    assert not B.contains(Point3(1.1, 0.0, 0.0))


def _exact_crossing_cases():
    """(oracle, hand-written rational membership, lines) per formula set: each line is
    (point of s, lo, hi) with the rational test changing between s = lo and hi."""
    eps = Tolerances().eps_geom
    ball4, ball2 = Fraction((1.0 + eps) ** 4), Fraction((1.0 + eps) ** 2)
    hat4, unit = Fraction((2.0 * (1.0 + eps)) ** 4), Fraction(1.0 + eps)

    def rho2(p):
        return p.x * p.x + p.y * p.y

    box = ((-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0))
    return [
        (
            gallery("koranyi_ball"),
            lambda p: rho2(p) ** 2 + p.t ** 2 <= ball4,
            [(lambda s: (0.6, 0.0, s), 0.0, 1.5), (lambda s: (s, 0.3, 0.5), 0.0, 1.5)],
        ),
        (
            gallery("euclidean_ball"),
            lambda p: rho2(p) + p.t ** 2 <= ball2,
            [(lambda s: (0.6, 0.1, s), 0.0, 1.5), (lambda s: (s, -0.3, 0.5), 0.0, 1.5)],
        ),
        (
            gallery("cylinder"),
            lambda p: rho2(p) <= ball2 and abs(p.t) <= unit,
            [(lambda s: (s, 0.2, 0.5), 0.0, 1.5), (lambda s: (0.3, 0.1, s), 0.0, -1.5)],
        ),
        (
            gallery("cylinder_hat"),
            lambda p: rho2(p) <= ball2 and rho2(p) ** 2 + p.t ** 2 <= hat4,
            [(lambda s: (s, 0.0, 1.0), 0.0, 1.5), (lambda s: (0.5, 0.2, s), 0.0, 4.5)],
        ),
        (
            gallery("slab_x"),
            lambda p: abs(p.x) <= unit,
            [(lambda s: (s, 1.0, 2.0), 0.0, 2.0), (lambda s: (s, -3.0, 0.5), 0.0, -2.0)],
        ),
        (
            box_oracle(box),
            lambda p: all(Fraction(lo) <= c <= Fraction(hi) for c, (lo, hi) in zip(p, box)),
            [(lambda s: (s, 0.5, 0.5), 0.0, 1.5), (lambda s: (0.1, 0.2, s), 0.0, -3.5)],
        ),
    ]


def test_formulas_are_exact_on_fractions():
    # the squared-out formulas use only arithmetic, comparisons, & and abs,
    # so Fraction points are tested exactly: at the exact boundary crossing
    # of each line and one ulp either side, contains is the rational test
    for K, exact, lines in _exact_crossing_cases():
        for point, lo, hi in lines:
            def at(s, point=point):
                return Point3(*map(Fraction, point(s)))

            crossing = _crossing(lambda s: exact(at(s)), lo, hi)
            outcomes = [exact(at(s)) for s in _ulps(crossing, 1)]
            assert [K.contains(at(s)) for s in _ulps(crossing, 1)] == outcomes, K.label
            assert set(outcomes) == {True, False}
    # the group law and the curve formula return Fractions, exactly
    p, q, r = (Point3(*map(Fraction, c)) for c in ((0.3, -0.7, 1.1), (1 / 3, 0.2, -0.9), (-2.5, 0.1, 0.4)))
    pq = group_mul(p, q)
    assert all(isinstance(c, Fraction) for c in pq)
    assert pq == Point3(p.x + q.x, p.y + q.y, p.t + q.t + 2 * (q.x * p.y - p.x * q.y))
    assert group_mul(pq, r) == group_mul(p, group_mul(q, r))
    assert group_mul(p, Point3(-p.x, -p.y, -p.t)) == ORIGIN
    a, b, tau, theta = Fraction(0.7), Fraction(-1.3), Fraction(2.5), Fraction(1, 3)
    lam = 1 / ((1 - theta) + theta * tau)
    curve = curve_point(*p, a, b, tau, theta)
    assert all(isinstance(c, Fraction) for c in curve)
    assert curve == dilate(lam, group_mul(p, exp_h(HVec(theta * a, theta * b))))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _group_law_columns(rng, count: int) -> np.ndarray:
    # every combination of signed zeros, a subnormal and -1e150, then random
    # floats, near 1e150 too, and subnormals; no product or sum of these
    # overflows, so no NaN bits compare
    grid = np.array(list(itertools.product([0.0, -0.0, 5e-324, -1e150], repeat=count))).T
    pool = np.concatenate([rng.normal(size=64), 1e150 * rng.uniform(-1.0, 1.0, 32), [-5e-324, 2.2e-308, -1e-310, 1e150]])
    return np.concatenate([grid, rng.choice(pool, size=(count, 4096))], axis=1)


def test_group_law_on_arrays_is_the_scalar_law_bit_for_bit():
    x, y, t, a, b, s = _group_law_columns(np.random.default_rng([24, 1]), 6)
    rows = list(zip(*(c.tolist() for c in (x, y, t, a, b, s))))
    got = np.stack(group_mul(Point3(x, y, t), Point3(a, b, s)), axis=1)
    assert np.array_equal(_bits(got), _bits([group_mul(Point3(*r[:3]), Point3(*r[3:])) for r in rows]))
    # p o exp_h(v), whose t is the integer 0, as segment_chunks and curve_point take it
    got = np.stack(group_mul(Point3(x, y, t), exp_h(HVec(a, b))), axis=1)
    assert np.array_equal(_bits(got), _bits([group_mul(Point3(*r[:3]), exp_h(HVec(*r[3:5]))) for r in rows]))


def test_curve_point_on_arrays_is_the_scalar_formula_row_by_row():
    rng = np.random.default_rng([24, 2])
    x, y, t, a, b = _group_law_columns(rng, 5)
    tau = rng.uniform(0.5, 2.0, x.size)
    theta = rng.choice([0.0, 1.0, 0.5, 1 / 3, *rng.uniform(0.0, 1.0, 28)], x.size)
    got = np.stack(curve_point(x, y, t, a, b, tau, theta), axis=1)
    cols = (x, y, t, a, b, tau, theta)
    want = [curve_point(*r) for r in zip(*(c.tolist() for c in cols))]
    assert np.array_equal(_bits(got), _bits(want))


@given(st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_dilate_oracle_membership(alpha):
    K = gallery("koranyi_ball")
    KA = dilate_oracle(K, alpha)
    p = Point3(0.4, 0.2, -0.5)
    assert KA.contains(dilate(alpha, p)) == K.contains(p)
    assert KA.profile.r_max == pytest.approx(alpha * K.profile.r_max)


def test_dilate_oracle_closed_form():
    K = gallery("koranyi_ball")
    K2 = dilate_oracle(K, 2.0)
    p = Point3(0.7, -0.2, 1.3)
    assert K2.level(p) == pytest.approx(K.level(p) / 2.0)
    with pytest.raises(ValueError):
        dilate_oracle(K, 0.0)


def test_polygon_profile_plus():
    P = polygon_profile(PLUS_VERTICES)
    assert P.contains2d(1.9, 0.0)
    assert P.contains2d(0.0, 1.9)
    assert not P.contains2d(1.0, 1.0)
    K = radial_to_oracle(P, "plus")
    assert K.profile is not None
    assert K.contains(Point3(0.0, 1.9, 0.0))
    assert K.contains(Point3(-1.9, 0.0, 0.0))  # radial: any planar rotation


def _crossing(inside, lo, hi):
    """Adjacent floats lo, hi on which inside changes, given that it does."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if inside(mid) == inside(lo):
            lo = mid
        else:
            hi = mid
    return lo


def _ulps(x, k=3):
    """x and its k float neighbours on either side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@pytest.mark.parametrize("K", radial_sets(), ids=lambda K: K.label)
@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_profile_batch_membership_is_the_oracle_slice(K, fr, ft):
    # contains2d_many is contains2d element for element, and both are the
    # oracle at y = 0: at a random point and at the float neighbours of the
    # boundary crossings on its row and on its column
    P = K.profile
    r_out = 1.01 * P.r_max + 1.0
    t_out = 1.01 * max(map(abs, P.t_range)) + 1.0
    r, t = fr * r_out, (2.0 * ft - 1.0) * t_out
    points = [(r, t)]
    for end in (0.0, r_out):
        if P.contains2d(r, t) != P.contains2d(end, t):
            points += [(x, t) for x in _ulps(_crossing(lambda x: P.contains2d(x, t), r, end))]
    for end in (-t_out, t_out):
        if P.contains2d(r, t) != P.contains2d(r, end):
            points += [(r, y) for y in _ulps(_crossing(lambda y: P.contains2d(r, y), t, end))]
    rs, ts = (np.array(c) for c in zip(*points))
    many = P.contains2d_many(rs, ts)
    assert many.dtype == bool and many.shape == rs.shape
    assert many.tolist() == [bool(P.contains2d(x, y)) for x, y in points]
    assert many.tolist() == [bool(K.contains(Point3(x, 0.0, y))) for x, y in points]


POLYGONS = {
    "plus": PLUS_VERTICES,
    "dumbbell": [(0, -2), (1, -2), (1, -1), (0.1, -1), (0.1, 1), (1, 1), (1, 2), (0, 2)],
    "ring": [(1.0, 1.0), (2.0, 1.0), (2.0, -1.0), (1.0, -1.0)],
    "triangle": [(0.0, -1.0), (1.5, 0.3), (0.0, 1.0)],
    # a repeated vertex: a zero-length edge
    "repeated_vertex": [(0.0, -1.0), (1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)],
    # an edge whose squared length underflows to 0 but which is not horizontal
    "underflow_edge": [(0.0, -1.0), (0.5, 0.0), (0.5, 1e-170), (0.0, 1.0)],
    # 64 vertices on the Koranyi profile r^4 + t^2 = 1
    "koranyi_64": [
        (math.sqrt(max(0.0, math.cos(a))), math.sin(a)) for a in np.linspace(-math.pi / 2.0, math.pi / 2.0, 64).tolist()
    ],
}


def _polygon_points(vertices, tol=Tolerances()):
    """(r, t) arrays: random points, points eps_geom (1 +- 1e-3) from each
    edge of nonzero length on both sides (slanted, horizontal and
    vertical) and from each vertex in 8 directions, points on each edge's
    line past its ends (near the edge only within eps of an end), the
    vertices with their 3-ulp neighbours, and non-finite coordinates."""
    rng = np.random.default_rng(14)
    r_hi = 1.2 * max(r for r, _ in vertices) + 0.1
    t_hi = 1.2 * max(abs(t) for _, t in vertices) + 0.1
    points = list(zip(rng.uniform(-0.1, r_hi, 2000).tolist(), rng.uniform(-t_hi, t_hi, 2000).tolist()))
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        points += [(ax + s * (bx - ax), ay + s * (by - ay)) for s in (-3.0, -0.5, 1.5, 4.0)]
        length = math.hypot(bx - ax, by - ay)
        if length > 0.0:
            nx, ny = (by - ay) / length, (ax - bx) / length
            for s in (0.1, 0.5, 0.9):
                for d in (1.0 - 1e-3, 1.0 + 1e-3):
                    for sign in (1.0, -1.0):
                        off = sign * d * tol.eps_geom
                        points.append((ax + s * (bx - ax) + off * nx, ay + s * (by - ay) + off * ny))
    for r, t in vertices:
        points += [(x, y) for x in _ulps(float(r)) for y in _ulps(float(t))]
        for a in range(8):
            for d in (1.0 - 1e-3, 1.0 + 1e-3):
                off = d * tol.eps_geom
                points.append((r + off * math.cos(a * math.pi / 4.0), t + off * math.sin(a * math.pi / 4.0)))
    for bad in (math.nan, math.inf, -math.inf):
        points += [(bad, 0.0), (0.5, bad), (bad, bad)]
    return (np.array(c) for c in zip(*points))


@pytest.mark.parametrize("name", sorted(POLYGONS))
def test_polygon_membership_is_the_edge_loop(name):
    # contains2d_many is the one-edge-at-a-time loop on arrays, and
    # contains2d is it on floats, bit for bit, at every batch size the
    # switch between one broadcast and the edge-at-a-time loop can meet;
    # every point goes through both array paths
    vertices = POLYGONS[name]
    P = polygon_profile(vertices)
    member = reference_polygon_member(vertices)
    r, t = _polygon_points(vertices)
    with np.errstate(invalid="ignore", over="ignore"):
        want = member(r, t, ARRAYS)
        assert P.contains2d_many(r, t).tolist() == want.tolist()
        assert want.any() and not want.all()
        for x, y, w in zip(r.tolist(), t.tolist(), want.tolist()):
            got = P.contains2d(x, y)
            assert type(got) is bool and got == member(x, y, FLOATS) == w, (x, y)
        switch = sets._POLYGON_POINTS
        assert len(r) > switch
        for i in range(0, len(r), switch):
            assert P.contains2d_many(r[i : i + switch], t[i : i + switch]).tolist() == want[i : i + switch].tolist()
        rng = np.random.default_rng(15)
        for n in (0, 1, switch - 1, switch, switch + 1, 10**4):
            idx = rng.integers(0, len(r), n)
            got = P.contains2d_many(r[idx], t[idx])
            assert got.dtype == bool and got.shape == (n,)
            assert got.tolist() == want[idx].tolist(), n
        grid = rng.integers(0, len(r), (7, 45))
        got = P.contains2d_many(r[grid], t[grid])
        assert got.shape == (7, 45) and got.tolist() == want[grid].tolist()


@pytest.mark.parametrize("eps_geom", [1e-300, 1e-160, 1e-3, 1e150])
def test_polygon_membership_is_the_edge_loop_at_extreme_tolerances(eps_geom):
    # the gate's margin holds where eps_geom^2 underflows to 0 (1e-300) or
    # to a subnormal (1e-160), at a coarse slack, and at the largest slacks
    # Tolerances accepts, where every finite point is near an edge (1e150)
    tol = Tolerances(eps_geom=eps_geom, eps_eq=min(eps_geom, 1e-9))
    for name, vertices in sorted(POLYGONS.items()):
        P = polygon_profile(vertices, tol)
        member = reference_polygon_member(vertices, tol)
        r, t = _polygon_points(vertices, tol)
        with np.errstate(invalid="ignore", over="ignore"):
            want = member(r, t, ARRAYS)
            assert P.contains2d_many(r, t).tolist() == want.tolist(), name
            for i in range(0, len(r), sets._POLYGON_POINTS):
                chunk = slice(i, i + sets._POLYGON_POINTS)
                assert P.contains2d_many(r[chunk], t[chunk]).tolist() == want[chunk].tolist(), name
            assert [P.contains2d(x, y) for x, y in zip(r.tolist(), t.tolist())] == want.tolist(), name


def test_cylinder_hat_closed_form_matches_oracle():
    K = gallery("cylinder_hat")
    rng = np.random.default_rng(12)
    for _ in range(300):
        p = Point3(*(rng.uniform(-1.7, 1.7, size=2)), rng.uniform(-4.5, 4.5))
        f = K.level(p)
        if abs(f - 1.0) > 1e-6:
            assert K.contains(p) == (f <= 1.0)


def _all_oracles():
    """Every kind of oracle this package builds, by name."""
    base = {name: plus_set() if name == "radial_custom" else gallery(name) for name in GALLERY_NAMES}
    out = dict(base)
    out["box"] = box_oracle(((-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0)), "b")
    for alpha in (0.5, 2.0):
        for name, K in base.items():
            out[f"dilate({alpha:g}, {name})"] = dilate_oracle(K, alpha)
    return out


ORACLES = _all_oracles()
FINE_TOL = Tolerances(eps_geom=1e-300, eps_eq=1e-300, max_iter=200)


def _bisected(K):
    """K without its level formula, so its levels and boundary rays are bisected."""
    return dataclasses.replace(K, level=None)


def _edge_points(K, seed):
    """Points within a few ulps of the membership boundary: rays bisected
    down to adjacent floats, then each coordinate stepped one ulp each way."""
    if K.is_compact:
        pts = boundary_sample(_bisected(K), 256, seed, FINE_TOL)
    else:
        # the slabs: bisect x between the t-axis and the box face instead
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(64):
            y, t = (rng.uniform(lo, hi) for lo, hi in K.bbox[1:])
            lo, hi = 0.0, K.bbox[0][1]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if K.contains(Point3(mid, y, t)) else (lo, mid)
            rows.append((lo, y, t))
        pts = np.array(rows)
    steps = [pts]
    for axis in range(3):
        for direction in (-np.inf, np.inf):
            q = pts.copy()
            q[:, axis] = np.nextafter(q[:, axis], direction)
            steps.append(q)
    return np.concatenate(steps)


def _assert_same_membership(K, pts):
    got = K.contains_many(pts[:, 0], pts[:, 1], pts[:, 2])
    want = [K.contains(Point3(*p)) for p in pts.tolist()]
    assert got.dtype == bool and got.shape == (len(pts),)
    assert got.tolist() == want


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_contains_many_matches_contains(name):
    K = ORACLES[name]
    rng = np.random.default_rng(7)
    uniform = np.column_stack([rng.uniform(lo, hi, 2000) for lo, hi in K.bbox])
    _assert_same_membership(K, uniform)
    edge = _edge_points(K, 3)
    _assert_same_membership(K, edge)
    # the edge set straddles the boundary, so both answers occur
    inside = K.contains_many(edge[:, 0], edge[:, 1], edge[:, 2])
    assert inside.any() and not inside.all()
    # any shape goes in, the same shape comes out
    grid = edge[:60].reshape(4, 15, 3)
    assert K.contains_many(grid[..., 0], grid[..., 1], grid[..., 2]).shape == (4, 15)


@given(
    st.sampled_from(sorted(ORACLES)),
    st.lists(st.tuples(*[st.floats(min_value=-1.3, max_value=1.3)] * 3), min_size=1, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_contains_many_matches_contains_property(name, unit):
    K = ORACLES[name]
    u = np.array(unit)
    centre = np.array([0.5 * (lo + hi) for lo, hi in K.bbox])
    half = np.array([0.5 * (hi - lo) for lo, hi in K.bbox])
    _assert_same_membership(K, centre + u * half)


def test_contains_many_row_loop_fallback():
    inner = gallery("koranyi_ball")
    K = SetOracle(inner.contains, inner.bbox, "bare")
    _assert_same_membership(K, _edge_points(inner, 5))


def test_escapes_many_matches_escapes():
    for name in ("koranyi_ball", "cylinder", "importante", "radial_custom"):
        K = ORACLES[name]
        pts = _edge_points(K, 2)
        # pushed out a little: some escape robustly, some stay within slack
        pts = np.concatenate([pts, pts * np.array([1.0 + 1e-5, 1.0 + 1e-5, (1.0 + 1e-5) ** 2])])
        got = escapes_many(K, pts[:, 0], pts[:, 1], pts[:, 2])
        assert got.tolist() == [escapes(K, Point3(*p)) for p in pts.tolist()]
        assert got.any() and not got.all()


def test_escapes_many_keeps_shape_when_nothing_is_outside():
    # a clean input returns after one membership call: all inside, empty,
    # and 2-D, each element for element the scalar predicate
    for name in ("koranyi_ball", "cylinder", "importante", "radial_custom"):
        K = ORACLES[name]
        inside = uniform_points(K, 24, np.random.default_rng(7))
        out = _edge_points(K, 2)[:24] * np.array([1.0 + 1e-5, 1.0 + 1e-5, (1.0 + 1e-5) ** 2])
        cases = [(inside, (24,)), (inside, (4, 6)), (inside[:0], (0,)), (inside[:0], (3, 0)), (out, (4, 6))]
        for pts, shape in cases:
            got = escapes_many(K, *(c.reshape(shape) for c in pts.T))
            assert got.shape == shape and got.dtype == bool
            assert got.ravel().tolist() == [escapes(K, Point3(*p)) for p in pts.tolist()]
        assert not escapes_many(K, *inside.T).any() and escapes_many(K, *out.T).any()


def _reference_boundary_sample(K, n, seed, tol=Tolerances(), group=0):
    """The one-ray-at-a-time loop boundary_sample must reproduce bit for bit."""
    rng = np.random.default_rng([seed, 0xB0, group])
    out = []
    while len(out) < n:
        d = rng.normal(size=3)
        length = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if length < 1e-12:
            continue
        u = Point3(float(d[0]) / length, float(d[1]) / length, float(d[2]) / length)
        scale = max(1.0, norm(u, "koranyi"))
        lo, hi = 0.0, 1.0
        steps = 0
        while K.contains(dilate(hi, u)):
            lo = hi
            hi *= 2.0
            steps += 1
            if steps > 60:
                raise RuntimeError("ray never exits")
        for _ in range(tol.max_iter):
            if (hi - lo) * scale <= tol.eps_geom:
                break
            mid = 0.5 * (lo + hi)
            if K.contains(dilate(mid, u)):
                lo = mid
            else:
                hi = mid
        out.append(list(dilate(lo, u)))
    return out


@pytest.mark.parametrize("name", ["koranyi_ball", "euclidean_ball", "cylinder", "cylinder_hat", "importante"])
def test_boundary_sample_matches_per_ray_loop(name):
    # the bisection, which a set with a level formula keeps for the points
    # that round outside K
    K = _bisected(gallery(name))
    # also under a max_iter cap that cuts every ray's bisection short
    for tol in (Tolerances(), Tolerances(eps_geom=1e-4, eps_eq=1e-4, max_iter=5)):
        for seed in (0, 1, 2):
            assert boundary_sample(K, 256, seed, tol).tolist() == _reference_boundary_sample(K, 256, seed, tol)
    # the first points do not depend on how many are asked for
    assert boundary_sample(K, 10, 0).tolist() == boundary_sample(K, 256, 0)[:10].tolist()
    # each group of falsify_ch's pair chunks has a pool of its own
    later = boundary_sample(K, 256, 0, group=3)
    assert later.tolist() == _reference_boundary_sample(K, 256, 0, group=3)
    assert not np.isin(later, boundary_sample(K, 256, 0)).any()


LEVEL_ORACLES = {name: K for name, K in ORACLES.items() if K.level is not None}


def _box_points(K, n, seed):
    """n uniform points of K's bounding box dilated by 1.5."""
    lo, hi = (core_scale(1.5, *corner) for corner in zip(*K.bbox))
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, 3))


@pytest.mark.parametrize("name", sorted(LEVEL_ORACLES))
def test_level_formula_on_arrays_is_the_scalar_formula(name):
    K = LEVEL_ORACLES[name]
    pts = _box_points(K, 2000, 5)
    want = [K.level(Point3(*p)) for p in pts.tolist()]
    assert np.array_equal(_bits(K.level(Point3(*pts.T), ARRAYS)), _bits(want))
    # dilation_level_many's dilation by powers of two changes no bit here,
    # and far out, where the formula's squares alone would underflow or
    # overflow, it keeps the level homogeneous to the bit
    assert np.array_equal(_bits(dilation_level_many(K, *pts.T)), _bits(want))
    for k in (-400, -200, 200, 400):
        far = dilation_level_many(K, *core_scale(2.0 ** k, *pts.T), FINE_TOL)
        assert np.array_equal(_bits(far), _bits(2.0 ** k * np.array(want)))


@pytest.mark.parametrize("name", sorted(LEVEL_ORACLES))
def test_level_formula_matches_bisection(name):
    # the bisection finds the level of K with its slack, which differs from
    # the formula's by at most eps_geom level (the dilated sets carry the
    # scaled level and slack), to half a bracket, eps_geom max(1, level) / 2
    K, tol = LEVEL_ORACLES[name], Tolerances()
    pts = _box_points(K, 2000, 6)
    level = K.level(Point3(*pts.T), ARRAYS)
    bisected = sets._bisected_levels(K, *pts.T, tol, "heisenberg", True)
    assert (np.abs(level - bisected) <= tol.eps_geom * (level + np.maximum(1.0, level))).all()


def test_importante_level_is_finite_on_the_t_axis_and_at_e():
    # at rho = 0 the sine branch's bracket ends are 0 and only the gauge
    # branch binds, and at e every quotient of the Newton steps is 0 / 0
    # but for its guard: no warning, no ZeroDivisionError, level 0 at e
    K = gallery("importante")
    t = np.array([0.0, 1e-150, 1.0, -3.0, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K.level(Point3(np.zeros(5), np.zeros(5), t), ARRAYS)
        floats = [K.level(Point3(0.0, 0.0, v)) for v in t.tolist()]
        assert dilation_level_many(K, 0.0, 0.0, 0.0).tolist() == [0.0]
    assert got.tolist() == floats
    assert got.tolist() == [math.sqrt(abs(v)) / IMPORTANTE_ANCHOR_NORM for v in t.tolist()]


@pytest.mark.parametrize("eps_geom", [1e-7, 1e-19, 1e-300])
def test_boundary_sample_points_test_inside_k(eps_geom):
    # each point is the exact one, dilate(1 / level(u), u) at level 1, or,
    # where that rounds outside K, the bisected one; either tests inside K
    tol = Tolerances(eps_geom=eps_geom, eps_eq=eps_geom)
    fallbacks = 0
    for name in ("koranyi_ball", "euclidean_ball", "cylinder", "cylinder_hat", "importante"):
        K, sizes = _counting(gallery(name, None, tol))
        for group in range(20):
            sizes.clear()
            pts = boundary_sample(K, 256, 0, tol, group)
            # one membership call on the exact points, then the bisection's
            # on the rows outside K, if any
            assert sizes[0] == 256
            fallbacks += sizes[1] if len(sizes) > 1 else 0
            assert K.contains_many(*pts.T).all(), (name, group)
            exact = np.abs(K.level(Point3(*pts.T), ARRAYS) - 1.0) <= 4.0 * 2.0 ** -52
            bisected = (pts == boundary_sample(_bisected(K), 256, 0, tol, group)).all(axis=1)
            assert (exact | bisected).all(), (name, group)
    # exact points round outside K only at the tiny slacks
    assert (fallbacks == 0) == (eps_geom == 1e-7), fallbacks


@pytest.mark.parametrize("relative", [False, True])
def test_bisect_many_matches_scalar_loop(relative):
    # brackets of widths 1e-6 to 1e3 around random levels, and NaN brackets;
    # under `capped` most rows stop on their own test and the widest on the
    # cap; FINE_TOL caps every row
    rng = np.random.default_rng(3)
    lo = rng.uniform(-10.0, 10.0, 2000)
    hi = lo + 10.0 ** rng.uniform(-6.0, 3.0, 2000)
    level = rng.uniform(lo, hi)
    lo[::97] = hi[::97] = np.nan
    sizes = []

    def upper(level, mid):
        sizes.append(mid.size)
        return mid >= level

    capped = Tolerances(eps_geom=1e-2, eps_eq=1e-2, max_iter=8)
    for tol in (Tolerances(), capped, FINE_TOL):
        want, steps = [], []
        for a, b, c in zip(lo.tolist(), hi.tolist(), level.tolist()):
            step = 0
            while step < tol.max_iter and b - a > tol.eps_geom * (max(1.0, a) if relative else 1.0):
                mid = 0.5 * (a + b)
                a, b = (a, mid) if mid >= c else (mid, b)
                step += 1
            want.append((a, b))
            steps.append(step)
        sizes.clear()
        got = bisect_many(upper, (level,), lo.copy(), hi.copy(), tol, relative)
        np.testing.assert_array_equal(np.column_stack(got), np.array(want))
        # step k sees exactly the rows whose own loop still bisects there
        steps = np.array(steps)
        assert sizes == [np.count_nonzero(steps > k) for k in range(steps.max())]
    # a zero-row batch makes no call
    sizes.clear()
    got = bisect_many(upper, (np.empty(0),), np.empty(0), np.empty(0), Tolerances(), relative)
    assert sizes == [] and [g.shape for g in got] == [(0,), (0,)]


# "ulp" bisects down to adjacent floats, where the last bit of lam * x decides
LEVEL_TOLS = {"default": Tolerances(), "fine": Tolerances(eps_geom=1e-9, eps_eq=1e-9), "ulp": FINE_TOL}


def _level_set(name, tol):
    return gallery(name, {"vertices": PLUS_VERTICES} if name == "radial_custom" else None, tol)


def _level_points(K, seed):
    """e, points within 1e-9 of e, the box, twice the box, and far outside."""
    rng = np.random.default_rng(seed)
    box = np.column_stack([rng.uniform(lo, hi, 150) for lo, hi in K.bbox])
    near_e = rng.uniform(-1e-9, 1e-9, (50, 3))
    far = rng.uniform(-1.0, 1.0, (50, 3)) * 1e3 * bbox_scale(K.bbox)
    return np.concatenate([np.zeros((1, 3)), near_e, box, 2.0 * box, far])


def _assert_levels_match(K, pts, tol, scaling):
    # a set with a level formula as it is, and bisected
    for K in [K] + [_bisected(K)] * (K.level is not None):
        got = dilation_level_many(K, pts[:, 0], pts[:, 1], pts[:, 2], tol, scaling)
        want = [dilation_level(K, Point3(*p), tol, scaling) for p in pts.tolist()]
        assert got.dtype == float and got.shape == (len(pts),)
        assert got.tolist() == want


@pytest.mark.parametrize("tol_name", sorted(LEVEL_TOLS))
@pytest.mark.parametrize("scaling", ["heisenberg", "euclidean"])
@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_dilation_level_many_matches_scalar(name, scaling, tol_name):
    tol = LEVEL_TOLS[tol_name]
    K = _level_set(name, tol)
    pts = _level_points(K, 4)
    _assert_levels_match(K, pts, tol, scaling)
    # e sits at the vertex and the far points outside K
    levels = dilation_level_many(K, pts[:, 0], pts[:, 1], pts[:, 2], tol, scaling)
    assert levels[0] == 0.0 and (levels[-50:] > 1.0).all()


def test_vertex_level_zero_at_tiny_eps_geom():
    # below eps_geom of about 1e-154 the downward bracket used to reach
    # lam * lam = inf, where e tested outside its own set
    for eps in (1e-150, 1e-160, 1e-300, 5e-324):
        tol = Tolerances(eps_geom=eps, eps_eq=eps)
        K = gallery("koranyi_ball", None, tol)
        assert dilation_level(K, ORIGIN, tol) == 0.0
        assert dilation_level_many(K, *np.zeros((3, 1)), tol).tolist() == [0.0]
        assert cone_eval(ConeFunction(K, tol=tol), ORIGIN) == 0.0
        # a point at gauge 1e-100 keeps its level
        assert dilation_level(K, Point3(0.0, 0.0, 1e-200), tol) == pytest.approx(1e-100, rel=1e-9, abs=0.0)


def test_dilation_level_many_stops_at_the_vertex():
    # e halves its way down to the vertex, where the scalar loop returns 0
    # without bisecting: the batch makes one kernel call for each of the
    # scalar loop's contains calls, and none for a bisection after it
    tol = Tolerances(eps_geom=1e-300, eps_eq=1e-300, max_iter=200)
    base = gallery("koranyi_ball", None, tol)
    calls = {"contains": 0, "kernel": 0}

    def contains(p):
        calls["contains"] += 1
        return base.contains(p)

    def kernel(x, y, t):
        calls["kernel"] += 1
        return base.contains_many(x, y, t)

    K = SetOracle(contains, base.bbox, "recorded", kernel=kernel)
    assert dilation_level(K, ORIGIN, tol) == 0.0
    assert dilation_level_many(K, *np.zeros((3, 1)), tol).tolist() == [0.0]
    assert calls == {"contains": 503, "kernel": 503}


@pytest.mark.parametrize("scaling", ["heisenberg", "euclidean"])
@pytest.mark.parametrize("eps_geom", [3.0, 5.0, 6.0])
def test_dilation_level_many_matches_scalar_at_coarse_eps_geom(eps_geom, scaling):
    # above eps_geom = 2 a point inside at tau = 1 is at the vertex before
    # it halves; above 4 the outside points' lo = 1 is below vertex / 4 as
    # well, yet they must double from [1, 2] as the scalar loop does (from
    # [0, 0] the doubling never ends)
    tol = Tolerances(eps_geom=eps_geom)
    K = gallery("importante", None, tol)
    _assert_levels_match(K, _level_points(K, 4), tol, scaling)


@given(
    st.sampled_from(GALLERY_NAMES),
    st.sampled_from(["heisenberg", "euclidean"]),
    st.sampled_from(sorted(LEVEL_TOLS)),
    st.lists(st.tuples(*[st.floats(min_value=-5.0, max_value=5.0)] * 3), min_size=1, max_size=20),
    st.sampled_from([1e-9, 1e-3, 1.0, 1e3]),
)
@settings(max_examples=150, deadline=None)
def test_dilation_level_many_matches_scalar_property(name, scaling, tol_name, rows, scale):
    tol = LEVEL_TOLS[tol_name]
    _assert_levels_match(_level_set(name, tol), np.array(rows) * scale, tol, scaling)


def test_dilation_level_many_errors_match_scalar():
    K = gallery("koranyi_ball")
    x, y, t = np.array([0.5, 0.0, 0.1]), np.array([0.5, math.nan, math.inf]), np.zeros(3)
    with pytest.raises(ValueError) as scalar:
        dilation_level(K, Point3(0.0, math.nan, 0.0))
    # the first non-finite point is the one named
    with pytest.raises(ValueError) as batch:
        dilation_level_many(K, x, y, t)
    assert str(batch.value) == str(scalar.value)
    with pytest.raises(ValueError, match="unknown scaling"):
        dilation_level_many(K, x[:1], y[:1], t[:1], scaling="spherical")

    # no interior identity: the bracket of e runs away, a point of the box does not
    box = box_oracle(((1.0, 2.0), (1.0, 2.0), (1.0, 2.0)), "offset box")
    with pytest.raises(RuntimeError) as scalar:
        dilation_level(box, Point3(0.0, 0.0, 0.0))
    x, y, t = np.array([1.5, 0.0]), np.array([1.5, 0.0]), np.array([1.5, 0.0])
    with pytest.raises(RuntimeError) as batch:
        dilation_level_many(box, x, y, t)
    assert str(batch.value) == str(scalar.value)
    lenient = dilation_level_many(box, x, y, t, strict=False)
    assert lenient[0] == dilation_level(box, Point3(1.5, 1.5, 1.5)) and math.isnan(lenient[1])


def _scalar_bisection_steps(K, q, tol, scaling):
    """The bisection steps of dilation_level's scalar loop on q: the same
    brackets and stop test, with the steps counted."""
    def member(tau):
        return K.contains(Point3(*core_scale(1.0 / tau, *q, scaling)))

    if member(1.0):
        lo, hi = 0.5, 1.0
        while member(lo):
            lo, hi = 0.5 * lo, lo
            if lo < 0.25 * max(tol.eps_geom, 2.0 ** -500):
                return 0
    else:
        lo, hi = 1.0, 2.0
        while not member(hi):
            lo, hi = hi, 2.0 * hi
    steps = 0
    while steps < tol.max_iter and hi - lo > tol.eps_geom * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if member(mid) else (mid, hi)
        steps += 1
    return steps


@pytest.mark.parametrize("scaling", ["heisenberg", "euclidean"])
def test_dilation_level_many_masked_bisection_matches_scalar(scaling):
    # 5000 points at levels from about 1e-6 to 1e3.  Under `capped` the
    # levels below about 0.4 stop within 12 steps and the others stop at
    # the cap; FINE_TOL caps every point
    base = gallery("koranyi_ball")
    sizes = []

    def kernel(x, y, t):
        sizes.append(x.size)
        return base.contains_many(x, y, t)

    K = SetOracle(base.contains, base.bbox, "recorded", kernel=kernel)
    rng = np.random.default_rng(11)
    s = 10.0 ** rng.uniform(-6.0, 3.0, 5000)
    pts = rng.normal(size=(5000, 3)) * np.stack([s, s, s * s if scaling == "heisenberg" else s], axis=1)
    capped = Tolerances(eps_geom=1e-4, eps_eq=1e-4, max_iter=12)
    for tol in (Tolerances(), capped, FINE_TOL):
        _assert_levels_match(K, pts, tol, scaling)
        # the last calls are the bisection's: step k sees exactly the points
        # whose scalar loop still bisects there
        steps = np.array([_scalar_bisection_steps(base, p, tol, scaling) for p in pts.tolist()])
        want = [np.count_nonzero(steps > k) for k in range(steps.max())]
        sizes.clear()
        dilation_level_many(K, *pts.T, tol, scaling)
        assert want and sizes[-len(want):] == want
    sizes.clear()
    dilation_level_many(K, *pts.T, capped, scaling)
    calls = len(sizes)
    dilation_level_many(K, *pts.T, Tolerances(eps_geom=1e-4, eps_eq=1e-4, max_iter=13), scaling)
    # the cap binds: one more step allowed is one more call
    assert len(sizes) == 2 * calls + 1
    # a kernel-less oracle evaluates the masked rows through its row loop
    _assert_levels_match(SetOracle(base.contains, base.bbox, "bare"), pts[:1000], Tolerances(), scaling)
