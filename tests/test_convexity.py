import dataclasses
import math

import numpy as np
import pytest

from heisconvex import (
    ConvexityWitness,
    FnOracle,
    HVec,
    HomogeneityReport,
    Point3,
    Tolerances,
    check_hconvex_fn,
    check_homogeneous,
    check_hquasiconvex_fn,
    cone_fn_oracle,
    exp_h,
    gallery,
    group_mul,
    make_cone,
    norm,
    replay_witness,
)
from heisconvex.cones import _scaled_box
from heisconvex.sets import box_oracle, interior_thetas, segment_chunks
from stream_reference import reference_probes

BOX3 = box_oracle(((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)), "box3")

gauge = FnOracle(eval=lambda p: norm(p, "koranyi"), label="gauge")
planar = FnOracle(eval=lambda p: math.hypot(p.x, p.y), label="planar")
ln_bump = FnOracle(
    eval=lambda p: math.log(p.x * p.x + p.y * p.y + p.t * p.t + 1.0), label="ln-bump"
)


def test_planar_norm_is_hconvex():
    # |(x,y)| restricted to horizontal segments is a 1d convex function
    assert check_hconvex_fn(planar, BOX3, 2000, seed=0) is None


def test_gauge_is_hquasiconvex():
    assert check_hquasiconvex_fn(gauge, BOX3, 2000, seed=0) is None


def test_ln_bump_witness_and_replay():
    w = check_hconvex_fn(ln_bump, BOX3, 2000, seed=0)
    assert w is not None
    assert w.kind == "convex"
    assert w.lhs > w.rhs
    assert replay_witness(ln_bump, w)
    # but its sublevels are balls, so the quasiconvex falsifier stays quiet
    assert check_hquasiconvex_fn(ln_bump, BOX3, 2000, seed=0) is None


def test_replay_recomputes_from_fields():
    w = check_hconvex_fn(ln_bump, BOX3, 2000, seed=0)
    # same stored data against a convex function cannot replay
    assert not replay_witness(planar, w)
    fabricated = ConvexityWitness(
        base=Point3(1.0, 0.0, 0.0), v=HVec(0.5, 0.0), theta=0.5, lhs=9.0, rhs=0.0
    )
    assert not replay_witness(planar, fabricated)


def test_euclidean_ball_gauge_witness_frozen():
    # the seed-0 stream (chunks from default_rng([0, 0xF, c]) through
    # segment_chunks) pinned: criterion 2 proves this witness exactly
    f = FnOracle(eval=gallery("euclidean_ball").level, label="euclidean-ball-cone")
    box15 = box_oracle(((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)), "box15")
    w = check_hconvex_fn(f, box15, 100000, grid=9, seed=0)
    assert w is not None and w.kind == "convex"
    assert w.base == Point3(-0.6270079018483069, 0.7873304169403514, 0.1999035792081325)
    assert w.v == HVec(-0.005754820245205455, 0.015399407154723451)
    assert w.theta == 0.125


def test_thin_domain_raises():
    # no horizontal step of length >= 1e-3 stays inside a slab 2e-9 wide
    sliver = box_oracle(((-1e-9, 1e-9), (-1.0, 1.0), (-1.0, 1.0)), "sliver")
    with pytest.raises(RuntimeError, match="sliver too thin: 0/3 probes"):
        check_hconvex_fn(planar, sliver, 3, seed=0)
    with pytest.raises(RuntimeError, match="too thin"):
        check_hquasiconvex_fn(planar, sliver, 3, seed=0)


def test_hconvex_implies_hquasiconvex_on_shared_seeds():
    for f in (planar, gauge):
        for seed in (0, 1, 7):
            if check_hconvex_fn(f, BOX3, 500, seed=seed) is None:
                assert check_hquasiconvex_fn(f, BOX3, 500, seed=seed) is None


def test_quasi_witness_on_indicator_like_profile():
    # max of shifted planar norms has square-ish sublevels in (x,t): still quasiconvex;
    # a genuinely non-quasiconvex profile (two bumps) must be caught
    two_wells = FnOracle(
        eval=lambda p: min((p.x - 1.0) ** 2 + p.y * p.y, (p.x + 1.0) ** 2 + p.y * p.y),
        label="two-wells",
    )
    w = check_hquasiconvex_fn(two_wells, BOX3, 2000, seed=0)
    assert w is not None
    assert w.kind == "quasi"
    assert replay_witness(two_wells, w)


def test_check_homogeneous_gauge():
    rep = check_homogeneous(gauge, 500, seed=0)
    assert rep.ok
    assert rep.max_dev <= 1e-12
    assert rep.samples == 500


def test_check_homogeneous_rejects_ln():
    rep = check_homogeneous(ln_bump, 500, seed=0)
    assert not rep.ok
    assert rep.max_dev > 1e-3
    lam, p = rep.worst
    assert 0.25 <= lam <= 4.0


def test_check_homogeneous_floor_is_a_few_ulps():
    # an exact level deviates by rounding alone, which passes however small
    # eps_eq is; 1e-14 off homogeneity still fails
    tiny = Tolerances(eps_geom=1e-300, eps_eq=1e-300)
    for name in ("euclidean_ball", "cylinder", "cylinder_hat", "koranyi_ball", "importante"):
        K = gallery(name)
        rep = check_homogeneous(FnOracle(K.level, name), 2000, seed=0, tol=tiny, box=K.bbox)
        assert rep.ok and rep.max_dev > 0.0, name
    skewed = FnOracle(lambda p: norm(p, "koranyi") + 1e-14 * p.t, "skewed")
    assert not check_homogeneous(skewed, 2000, seed=0, tol=tiny).ok


def test_check_homogeneous_validates_n():
    with pytest.raises(ValueError):
        check_homogeneous(gauge, 0)


def test_closed_form_cones_are_homogeneous():
    for name in ("euclidean_ball", "cylinder", "cylinder_hat", "koranyi_ball", "importante"):
        f = FnOracle(eval=gallery(name).level, label=name)
        rep = check_homogeneous(f, 400, seed=0)
        assert rep.ok, name
        assert rep.max_dev <= 1e-12


def _reference_scan(f, domain, n, grid, seed, tol, quasi):
    """The probe-by-probe scan that the chunked scan must reproduce."""
    thetas = interior_thetas(max(grid, 2)).tolist()
    produced = 0
    for p, v, q in reference_probes(domain, n, seed):
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


def _outcome(call):
    """The witness a scan returns, or the type and message of its error."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_scan_matches_reference(f, domain, n, grid, seed, tol=Tolerances()):
    for quasi, check in ((False, check_hconvex_fn), (True, check_hquasiconvex_fn)):
        want = _outcome(lambda: _reference_scan(f, domain, n, grid, seed, tol, quasi))
        got = _outcome(lambda: check(f, domain, n, grid=grid, seed=seed, tol=tol))
        assert got == want, (f.label, quasi, seed)
        yield want


def _cone_scan_case(name):
    # cone_validate's scan: the 1.5x box of the source, with loosened slack
    C = make_cone(gallery(name), seed=0)
    loose = Tolerances(eps_geom=1e-5, eps_eq=1e-5)
    return cone_fn_oracle(C), _scaled_box(C, 1.5), loose


def test_scan_matches_reference_on_cone_oracles():
    # the euclidean ball's cone has an early convex witness, the Koranyi gauge none
    f, domain, loose = _cone_scan_case("euclidean_ball")
    assert f.kernel is not None
    convex, _ = _assert_scan_matches_reference(f, domain, 400, 5, 0, loose)
    assert isinstance(convex, ConvexityWitness)
    f, domain, loose = _cone_scan_case("koranyi_ball")
    assert list(_assert_scan_matches_reference(f, domain, 300, 5, 1, loose)) == [None, None]


def test_scan_matches_reference_on_bare_functions():
    two_wells = FnOracle(lambda p: min((p.x - 1.0) ** 2 + p.y * p.y, (p.x + 1.0) ** 2 + p.y * p.y), "two-wells")
    # NaN compares false, so max(f0, NaN) is f0 and a NaN value is never a violation
    holey = FnOracle(lambda p: math.nan if p.x + p.t > 2.0 else math.log(p.x * p.x + p.y * p.y + 1.0), "holey")
    seen = []
    for f in (planar, gauge, ln_bump, two_wells, holey):
        assert f.kernel is None
        for seed in (0, 3):
            seen += _assert_scan_matches_reference(f, BOX3, 700, 9, seed)
    # witnesses of both kinds and clean runs all occur
    assert {w.kind for w in seen if w is not None} == {"convex", "quasi"} and None in seen
    sliver = box_oracle(((-1e-9, 1e-9), (-1.0, 1.0), (-1.0, 1.0)), "sliver")
    for outcome in _assert_scan_matches_reference(planar, sliver, 3, 9, 0):
        assert outcome[0] is RuntimeError


def test_scan_evaluation_errors_match_reference():
    # an error stops the scan unless a violation comes first in scan order
    def partial(limit):
        def fn(p):
            if p.x > limit:
                raise ValueError(f"no value at {tuple(p)}")
            return ln_bump.eval(p)

        return FnOracle(fn, f"ln-bump below x = {limit}")

    outcomes = []
    for limit in (-2.0, 0.0, 1.0, 2.9):
        for seed in range(4):
            outcomes += _assert_scan_matches_reference(partial(limit), BOX3, 300, 5, seed)
    errors = [o for o in outcomes if isinstance(o, tuple)]
    assert errors and len(errors) < len(outcomes)
    assert {kind for kind, _ in errors} == {ValueError}


def _spiked(domain, n, seed, chunks):
    """planar, but 10 at the middle segment point of the last probe of each
    of these chunks of the grid-5 stream (so the violation sits there)."""
    spikes = set()
    try:
        for c, (_p, _v, _q, seg) in enumerate(segment_chunks(domain, n, interior_thetas(5), seed)):
            if c in chunks:
                spikes.add(Point3(*(float(a[-1, 1]) for a in seg)))
    except RuntimeError:
        pass
    assert len(spikes) == len(chunks)
    return FnOracle(lambda p: 10.0 if p in spikes else planar.eval(p), f"planar spiked in chunks {chunks}"), spikes


def _segment_point(w):
    return group_mul(w.base, exp_h(HVec(w.theta * w.v.a, w.theta * w.v.b)))


def test_grouped_scan_matches_reference_at_group_ends():
    # the scan evaluates chunks 0 | 1 2 | 3 4 5 6 | ... together; a spike in
    # the last chunk of a group is found, and of two spikes in one group the
    # first in probe order wins
    for chunks in ({0}, {2}, {6}, {3, 6}, {5, 4}):
        f, spikes = _spiked(BOX3, 3000, 0, chunks)
        convex, quasi = _assert_scan_matches_reference(f, BOX3, 3000, 5, 0)
        assert _segment_point(convex) == _segment_point(quasi)
        assert _segment_point(convex) in spikes
        if len(chunks) == 2:
            first = _spiked(BOX3, 3000, 0, {min(chunks)})[1]
            assert _segment_point(convex) in first


# a cube of side 0.5 in a bbox of side 3.64: the rejection sampler keeps
# about 0.26 % of its draws, close to the 256 / 103400 it needs per chunk.
# Seed 10 yields chunks 0-4 and stalls on chunk 5, inside the group 3 4 5 6.
SPECK = dataclasses.replace(box_oracle(((-0.25, 0.25),) * 3, "speck"), bbox=((-1.82, 1.82),) * 3)


def test_grouped_scan_matches_reference_on_a_stall_inside_a_group():
    drawn = []
    with pytest.raises(RuntimeError, match="rejection sampling stalled on speck"):
        for chunk in segment_chunks(SPECK, 10000, interior_thetas(5), 10):
            drawn.append(chunk)
    assert len(drawn) == 5
    # no violation before the stall: its error, from both scans
    outcomes = list(_assert_scan_matches_reference(planar, SPECK, 10000, 5, 10))
    assert [o[0] for o in outcomes] == [RuntimeError, RuntimeError]
    # a violation in a chunk drawn before the stall wins over it
    for chunks in ({4}, {3}, {1}):
        f, spikes = _spiked(SPECK, 10000, 10, chunks)
        for w in _assert_scan_matches_reference(f, SPECK, 10000, 5, 10):
            assert _segment_point(w) in spikes


def test_fn_oracle_eval_many_defaults_to_a_row_loop():
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (50, 3))
    got = ln_bump.eval_many(*pts.T)
    assert got.dtype == float and got.tolist() == [ln_bump.eval(Point3(*p)) for p in pts.tolist()]


def _reference_homogeneous(f, n, seed, tol, box):
    """The one-sample-at-a-time loop check_homogeneous must reproduce."""
    rng = np.random.default_rng([seed, 0x40])
    max_dev = 0.0
    worst = None
    for _ in range(n):
        p = Point3(rng.uniform(*box[0]), rng.uniform(*box[1]), rng.uniform(*box[2]))
        lam = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        fp = f.eval(p)
        dev = abs(f.eval(Point3(lam * p.x, lam * p.y, lam * lam * p.t)) - lam * fp) / ((1.0 + abs(fp)) * lam)
        if dev > max_dev:
            max_dev = dev
            worst = (lam, p)
    return HomogeneityReport(ok=max_dev <= tol.eps_eq, max_dev=max_dev, worst=worst, samples=n)


def test_check_homogeneous_matches_reference():
    box = ((-2.0, 2.0), (-2.0, 2.0), (-4.0, 4.0))
    cone, _, loose = _cone_scan_case("koranyi_ball")
    # NaN and exact zeros count as no deviation
    holes = FnOracle(lambda p: math.nan if p.x > 1.0 else 0.0, "holes")
    for f, tol in ((gauge, Tolerances()), (ln_bump, Tolerances()), (cone, loose), (holes, Tolerances())):
        for seed in (0, 1):
            assert check_homogeneous(f, 300, seed, tol, box) == _reference_homogeneous(f, 300, seed, tol, box)
    assert check_homogeneous(holes, 300, 0).worst is None
