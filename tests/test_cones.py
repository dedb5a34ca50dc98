import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisconvex import (
    ConeFunction,
    FamilyReport,
    NestingWitness,
    Point3,
    cone_eval,
    cone_fn_oracle,
    cone_validate,
    compare_closed_form,
    dilate,
    family_axioms_check,
    gallery,
    make_cone,
    norm,
    sample_in_set,
)
from heisconvex import sets
from heisconvex.cones import _scaled_box
from heisconvex.sets import SetOracle, polygon_profile, radial_to_oracle


@pytest.fixture(scope="module")
def koranyi_cone():
    return make_cone(gallery("koranyi_ball"), seed=0)


@pytest.fixture(scope="module")
def euclid_cone():
    return make_cone(gallery("euclidean_ball"), seed=0)


def ring_set():
    return radial_to_oracle(
        polygon_profile([(1.0, 1.0), (2.0, 1.0), (2.0, -1.0), (1.0, -1.0)]), "ring"
    )


def test_cone_kind_validated():
    with pytest.raises(ValueError):
        ConeFunction(gallery("koranyi_ball"), kind="spherical")


def test_koranyi_cone_is_gauge(koranyi_cone):
    rng = np.random.default_rng(1)
    worst = 0.0
    for row in rng.uniform(-3.0, 3.0, size=(500, 3)):
        p = Point3(*row)
        worst = max(worst, abs(cone_eval(koranyi_cone, p) - norm(p, "koranyi")))
    assert worst <= 1e-6
    assert cone_eval(koranyi_cone, Point3(0.0, 0.0, 0.0)) == 0.0


def test_cone_eval_rejects_non_finite(koranyi_cone):
    for p in (Point3(math.nan, 0.0, 0.0), Point3(0.0, 0.0, math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            cone_eval(koranyi_cone, p)


@given(st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_cone_eval_homogeneous(koranyi_cone, lam):
    p = Point3(0.6, 0.3, -0.9)
    assert cone_eval(koranyi_cone, dilate(lam, p)) == pytest.approx(
        lam * cone_eval(koranyi_cone, p), abs=1e-6 * (1.0 + lam)
    )


def test_euclidean_kind_scales_linearly():
    C = make_cone(gallery("euclidean_ball"), kind="euclidean", seed=0)
    rng = np.random.default_rng(2)
    for row in rng.uniform(-3.0, 3.0, size=(200, 3)):
        p = Point3(*row)
        assert cone_eval(C, p) == pytest.approx(norm(p, "euclidean"), abs=1e-6)


def test_closed_form_comparison(euclid_cone, koranyi_cone):
    assert compare_closed_form(euclid_cone, 2000, seed=0) <= 1e-6
    assert compare_closed_form(koranyi_cone, 2000, seed=0) <= 1e-6
    with pytest.raises(ValueError):
        compare_closed_form(make_cone(gallery("cylinder"), seed=0), 100)


def test_make_cone_refuses_bad_sets():
    with pytest.raises(ValueError):
        make_cone(gallery("slab_x"))
    with pytest.raises(ValueError):
        make_cone(ring_set())


def test_make_cone_checks_only_assumptions_a_and_b(monkeypatch):
    # the bisection relies on a and b; the segment scan of c is not run
    def no_scan(*args, **kwargs):
        raise AssertionError("make_cone ran the horizontal-segment scan")

    monkeypatch.setattr(sets, "scan_horizontal_segments", no_scan)
    assert make_cone(gallery("koranyi_ball"), seed=0).source.label == "koranyi_ball(r=1)"
    with pytest.raises(ValueError, match="assumption a"):
        make_cone(ring_set())
    # a dumbbell profile: the identity is interior, but dilating the
    # bells toward e leaves the set
    dumbbell = radial_to_oracle(
        polygon_profile([(0, -2), (1, -2), (1, -1), (0.1, -1), (0.1, 1), (1, 1), (1, 2), (0, 2)]), "dumbbell"
    )
    with pytest.raises(ValueError, match="assumption b"):
        make_cone(dumbbell, seed=0)


def test_family_axioms_healthy(koranyi_cone):
    rep = family_axioms_check(koranyi_cone, 300, seed=0)
    assert rep.all_ok
    assert rep.nesting_witness is None
    assert rep.coverage_failure is None
    assert rep.closedness_failure is None


def test_family_axioms_flag_ring():
    C = ConeFunction(ring_set())
    rep = family_axioms_check(C, 300, seed=0)
    assert not rep.all_ok
    assert not rep.axiom_i_ok
    assert not rep.axiom_ii_ok
    assert rep.coverage_failure is not None
    assert rep.nesting_witness.tau1 < rep.nesting_witness.tau2


def test_validate_candidates():
    for name in ("koranyi_ball", "cylinder_hat"):
        C = make_cone(gallery(name), seed=0)
        val = cone_validate(C, 1000, seed=0)
        assert val.verdict == "candidate cone function (not falsified)"
        assert val.family.all_ok
        assert val.homogeneity.ok
        assert val.convexity_witness is None


def test_validate_falsifies_euclidean_ball(euclid_cone):
    # the level function of the euclidean ball's dilation family bulges
    # above its chords near the vertical axis
    val = cone_validate(euclid_cone, 1000, seed=0)
    assert val.verdict == "horizontal convexity witness found"
    assert val.convexity_witness is not None
    assert val.family.all_ok


def test_cone_fn_oracle_labels(koranyi_cone):
    f = cone_fn_oracle(koranyi_cone)
    assert "koranyi" in f.label
    assert f.eval(Point3(0.0, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-6)


def _reference_family(C, n, seed):
    """The one-point-at-a-time family_axioms_check the batch must reproduce."""
    rng = np.random.default_rng([seed, 0xFA])
    (xlo, xhi), (ylo, yhi), (tlo, thi) = _scaled_box(C, 2.0).bbox

    def scale(lam, p):
        return Point3(lam * p.x, lam * p.y, (lam if C.kind == "euclidean" else lam * lam) * p.t)

    def draw():
        return Point3(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi), rng.uniform(tlo, thi))

    coverage_failure = None
    for _ in range(max(1, n // 3)):
        p = draw()
        try:
            cone_eval(C, p)
        except RuntimeError:
            coverage_failure = p
            break
    nesting_witness = None
    K = C.source
    try:
        nested_pts = sample_in_set(K, max(1, n // 3), rng)
        axiom_ii_ok = True
    except RuntimeError:
        nested_pts, axiom_ii_ok = [], False
    for p in nested_pts:
        taus = np.exp(rng.uniform(np.log(0.125), np.log(8.0), 2))
        tau1, tau2 = float(min(taus)), float(max(taus))
        if tau2 - tau1 < 1e-3:
            tau2 = tau1 * 1.5
        if not K.contains(scale(tau1 / tau2, p)):
            axiom_ii_ok = False
            nesting_witness = NestingWitness(tau1, tau2, scale(tau1, p))
            break
    closedness_failure = None
    if coverage_failure is None:
        for _ in range(max(1, n // 3)):
            p = draw()
            try:
                level = cone_eval(C, p)
            except RuntimeError:
                continue
            if level <= 0.0:
                continue
            for eps in (1e-2, 1e-3, 1e-4, 1e-5):
                tau = level * (1.0 + eps) + C.tol.eps_geom
                if not K.contains(scale(1.0 / tau, p)):
                    closedness_failure = (p, tau)
                    break
            if closedness_failure is not None:
                break
    return FamilyReport(
        coverage_failure is None, axiom_ii_ok, closedness_failure is None, nesting_witness,
        n, seed, coverage_failure, closedness_failure,
    )


def _shelled_set():
    # the Koranyi ball plus a thin gauge shell around it: a bisection that
    # lands in the shell stops at its inner face, and slightly larger levels
    # fall into the gap below it, so closedness from above fails
    def contains(p):
        g = norm(p, "koranyi")
        return g <= 1.0 or 1.3 <= g <= 1.31

    return SetOracle(contains, ((-1.32, 1.32), (-1.32, 1.32), (-1.72, 1.72)), "shelled")


def _gapped_set():
    # the Koranyi ball less a thin gap just inside its sphere: from a level
    # on the sphere, the closedness probe 1e-4 above it falls into the gap,
    # and the probes 1e-2, 1e-3 and 1e-5 above it miss the gap
    def contains(p):
        g = norm(p, "koranyi")
        return g <= 1.0 - 1.5e-4 or 1.0 - 0.5e-4 <= g <= 1.0

    return SetOracle(contains, ((-1.01, 1.01), (-1.01, 1.01), (-1.01, 1.01)), "gapped")


FAMILY_CASES = {
    "koranyi_ball": (lambda: gallery("koranyi_ball"), "heisenberg"),
    "koranyi_ball_euclidean": (lambda: gallery("koranyi_ball"), "euclidean"),
    "cylinder_hat": (lambda: gallery("cylinder_hat"), "heisenberg"),
    "ring": (ring_set, "heisenberg"),
    "shelled": (_shelled_set, "heisenberg"),
    "gapped": (_gapped_set, "heisenberg"),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_axioms_match_reference(case):
    build, kind = FAMILY_CASES[case]
    C = ConeFunction(build(), kind)
    reports = [family_axioms_check(C, 300, seed) for seed in (0, 1, 2)]
    assert reports == [_reference_family(C, 300, seed) for seed in (0, 1, 2)]
    if case == "ring":
        assert all(r.coverage_failure is not None and r.nesting_witness is not None for r in reports)
    if case == "shelled":
        assert any(r.closedness_failure is not None for r in reports)
    if case == "gapped":
        # every seed fails axiom III, first at the 1e-4 step
        for r in reports:
            p, tau = r.closedness_failure
            assert r.axiom_i_ok and not r.axiom_iii_ok
            assert tau / norm(p, "koranyi") - 1.0 == pytest.approx(1e-4, rel=1e-2)


def test_closed_form_comparison_matches_reference(euclid_cone, koranyi_cone):
    for C in (euclid_cone, koranyi_cone, make_cone(gallery("cylinder_hat"), "euclidean", seed=0)):
        rng = np.random.default_rng([3, 0xCF])
        (xlo, xhi), (ylo, yhi), (tlo, thi) = _scaled_box(C, 1.5).bbox
        worst = 0.0
        for _ in range(300):
            p = Point3(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi), rng.uniform(tlo, thi))
            worst = max(worst, abs(cone_eval(C, p) - C.source.closed_form_cone(p)))
        assert compare_closed_form(C, 300, seed=3) == worst
