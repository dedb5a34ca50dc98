"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints `criterion N: PASS/FAIL  detail` and asserts the verdict,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Budgets
and tolerances are the contract values, not the trimmed unit-test ones.
Criterion 2's violation is proved in exact rational arithmetic by
`exact_gap_lower_bound`, whose own control test sits beside it.
"""

import math
import time
from fractions import Fraction

import numpy as np

from heisconvex import (
    DEFAULT_TOL,
    ConvexityWitness,
    FnOracle,
    HVec,
    Point3,
    ch_curve,
    check_axioms,
    check_hconvex_fn,
    check_homogeneous,
    check_hquasiconvex_fn,
    cone_eval,
    compare_closed_form,
    envelope_check,
    envelope_phi,
    envelope_psi,
    exp_h,
    falsify_ch,
    gallery,
    group_mul,
    make_cone,
    norm,
    radial_necessary,
    replay_ch_witness,
    replay_witness,
)
from heisconvex.core import ARRAYS
from heisconvex.sets import IMPORTANTE_R_MAX, box_oracle, polygon_profile, radial_to_oracle

from ch_reference import ch_curve_cases, dilate_oracle, transport_witness

PLUS_VERTICES = [
    (0.0, 2.0), (0.2, 2.0), (0.2, 0.2), (2.0, 0.2),
    (2.0, -0.2), (0.2, -0.2), (0.2, -2.0), (0.0, -2.0),
]


# square roots in the exact witness check are rounded to the grid 2**-SQRT_BITS
SQRT_BITS = 120


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _sqrt_bound(x: Fraction, upper: bool) -> Fraction:
    # sqrt(x) for rational x >= 0, rounded down (or up) to the grid
    scale = 1 << SQRT_BITS
    m = math.ceil(x * scale * scale) if upper else math.floor(x * scale * scale)
    s = math.isqrt(m)
    if upper and s * s < m:
        s += 1
    return Fraction(s, scale)


def _ball_gauge_bound(x: Fraction, y: Fraction, t: Fraction, upper: bool) -> Fraction:
    # the unit Euclidean ball's gauge sqrt((rho^2 + sqrt(rho^4 + 4 t^2)) / 2)
    # is increasing in both square roots, so rounding both one way bounds it
    rho2 = x * x + y * y
    inner = _sqrt_bound(rho2 * rho2 + 4 * t * t, upper)
    return _sqrt_bound((rho2 + inner) / 2, upper)


def exact_gap_lower_bound(w: ConvexityWitness) -> Fraction:
    """A sound lower bound on lhs - rhs of a convexity witness of the
    unit Euclidean ball's gauge.

    The points p, p o exp_h(theta v) and p o exp_h(v) are rebuilt from the
    witness floats with the group law in exact rational arithmetic; the
    gauge is bounded below at the theta point and above at both ends.  A
    positive result proves that the gauge is not horizontally convex.
    """
    assert 0.0 <= w.theta <= 1.0
    px, py, pt = (Fraction(c) for c in w.base)
    a, b, theta = Fraction(w.v.a), Fraction(w.v.b), Fraction(w.theta)

    def step(s: Fraction) -> tuple:
        # p o exp_h(s v)
        return px + s * a, py + s * b, pt + 2 * s * (a * py - px * b)

    lhs = _ball_gauge_bound(*step(theta), upper=False)
    f0 = _ball_gauge_bound(*step(Fraction(0)), upper=True)
    f1 = _ball_gauge_bound(*step(Fraction(1)), upper=True)
    return lhs - ((1 - theta) * f0 + theta * f1)


def test_criterion_01_koranyi_cone_identity():
    start = time.perf_counter()
    C = make_cone(gallery("koranyi_ball"), seed=0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for row in rng.uniform(-3.0, 3.0, size=(10000, 3)):
        p = Point3(*row)
        worst = max(worst, abs(cone_eval(C, p) - norm(p, "koranyi")))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _verdict(1, ok, f"koranyi cone equals gauge norm (max dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_euclidean_ball_closed_form():
    K = gallery("euclidean_ball")
    C = make_cone(K, seed=0)
    dev = compare_closed_form(C, 10000, seed=0)
    closed_ok = dev <= 1e-6

    f = FnOracle(eval=K.level, label="euclidean-ball-cone")
    hom = check_homogeneous(f, 2000, seed=0)
    hom_ok = hom.max_dev <= 1e-8

    # the closed form is not horizontally convex: its graph bulges above
    # chords near the vertical axis (same overshoot the cylinder shows).
    # This sub-check asserts that proved violation: the falsifier's witness
    # must lie in the domain, replay in floats, and keep a positive gap
    # above eps_eq in exact rational arithmetic.  Do not weaken it.
    dom = box_oracle(((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)), "box15")
    w = check_hconvex_fn(f, dom, 100000, grid=9, seed=0)
    found = w is not None and w.kind == "convex"
    in_dom = found and dom.contains(w.base) and dom.contains(group_mul(w.base, exp_h(w.v)))
    replays = found and replay_witness(f, w)
    bound = exact_gap_lower_bound(w) if found else Fraction(0)
    violation_ok = in_dom and replays and bound > DEFAULT_TOL.eps_eq
    if violation_ok:
        hconvex = (
            f"hconvex violation proved as expected (float {w.lhs - w.rhs:.4e}, "
            f"exact lower bound {float(bound):.4e})"
        )
    else:
        hconvex = (
            f"hconvex violation NOT PROVED (witness {w.kind if w else 'none'}, "
            f"in domain {in_dom}, replays {replays}, exact lower bound {float(bound):.4e})"
        )

    CE = make_cone(K, kind="euclidean", seed=0)
    rng = np.random.default_rng(0)
    worst_e = 0.0
    for row in rng.uniform(-3.0, 3.0, size=(10000, 3)):
        p = Point3(*row)
        worst_e = max(worst_e, abs(cone_eval(CE, p) - norm(p, "euclidean")))
    euclid_ok = worst_e <= 1e-6

    ok = closed_ok and hom_ok and violation_ok and euclid_ok
    assert _verdict(
        2,
        ok,
        f"euclidean-ball cone: closed form {'ok' if closed_ok else 'FAIL'} (dev {dev:.2e}), "
        f"homogeneity {'ok' if hom_ok else 'FAIL'} (dev {hom.max_dev:.2e}), "
        f"{hconvex}, "
        f"euclidean kind {'ok' if euclid_ok else 'FAIL'} (dev {worst_e:.2e})",
    )


def test_exact_gap_bound_not_positive_at_segment_ends():
    # at theta = 0 or 1 the theta point is an endpoint, so lhs equals one
    # term of rhs exactly and no sound lower bound can be positive
    K = gallery("euclidean_ball")
    f = FnOracle(eval=K.level, label="euclidean-ball-cone")
    dom = box_oracle(((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)), "box15")
    w = check_hconvex_fn(f, dom, 100000, grid=9, seed=0)
    assert w is not None
    assert exact_gap_lower_bound(w) > DEFAULT_TOL.eps_eq
    for theta in (0.0, 1.0):
        end = ConvexityWitness(w.base, w.v, theta, w.lhs, w.rhs)
        assert exact_gap_lower_bound(end) <= 0


def test_criterion_03_cylinder_falsification():
    K = gallery("cylinder")
    w = falsify_ch(K, 100000, seed=0)
    found_ok = w is not None and w.pair_index < 10000 and replay_ch_witness(K, w)

    xi0 = Point3(0.5, 0.0, 1.0)
    tau = math.sqrt(1.5)
    peak = max(p.t for p in ch_curve(xi0, HVec(0.0, -0.5), tau, 101))
    hand_ok = peak > 1.0 + 1e-6

    ok = found_ok and hand_ok
    assert _verdict(
        3,
        ok,
        f"cylinder: witness at pair {w.pair_index if w else 'none'} "
        f"(tau={w.tau:.4f}, margin={w.margin:.2e}), hand instance peak t={peak:.6f}",
    )


def test_criterion_04_cylinder_hat_function():
    K = gallery("cylinder_hat")
    # the closed form on arrays is the scalar one bit for bit
    f = FnOracle(K.level, "hat", lambda x, y, t: K.level(Point3(x, y, t), ARRAYS))
    hom = check_homogeneous(f, 2000, seed=0)
    dom = box_oracle(((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)), "box2")
    w = check_hconvex_fn(f, dom, 100000, grid=9, seed=0)

    rng = np.random.default_rng(3)
    mismatches = 0
    for row in rng.uniform(-1.6, 1.6, size=(10000, 3)):
        p = Point3(*row)
        level = f.eval(p)
        if abs(level - 1.0) <= 1e-6:
            continue  # points at oracle tolerance of the boundary are ambiguous
        if (level <= 1.0) != K.contains(p):
            mismatches += 1

    ok = hom.max_dev <= 1e-8 and w is None and mismatches == 0
    assert _verdict(
        4,
        ok,
        f"hat function: homogeneity dev {hom.max_dev:.2e}, "
        f"hconvex witness {'none' if w is None else 'FOUND'}, "
        f"level-set mismatches {mismatches}/10000",
    )


def test_criterion_05_radial_necessary_conditions():
    rep = radial_necessary(gallery("importante").profile, 2000, seed=0)
    w = rep.thm_ii_witness
    imp_ok = (
        not rep.thm_ii_ok
        and w is not None
        and abs(w.x - IMPORTANTE_R_MAX) <= 1e-3
        and abs(w.y) <= 1e-3
        and abs(w.t) <= 1e-3
    )
    clean_ok = True
    for name in ("koranyi_ball", "cylinder_hat"):
        r = radial_necessary(gallery(name).profile, 2000, seed=0)
        clean_ok = clean_ok and r.thm_i_ok and r.thm_ii_ok

    ok = imp_ok and clean_ok
    assert _verdict(
        5,
        ok,
        f"radial necessity: importante thm_ii witness r={w.x:.6f} "
        f"(target {IMPORTANTE_R_MAX:.6f}), koranyi/cylinder_hat pass both",
    )


def test_criterion_06_parametrization_equivalence():
    rng = np.random.default_rng(42)
    worst = {"i": 0.0, "ii": 0.0, "iii": 0.0}
    for k in range(3000):
        case = ("i", "ii", "iii")[k % 3]
        tau = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        t0 = rng.uniform(-4, 4)
        if case == "i":
            alpha, beta = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(x0 * (tau - 1.0) - alpha) < 1e-3:
                alpha += 0.01
        elif case == "ii":
            alpha = x0 * (tau - 1.0)
            beta = rng.uniform(-2, 2)
            if abs(y0 * (tau - 1.0) - beta) < 1e-3:
                beta += 0.01
        else:
            alpha, beta = x0 * (tau - 1.0), y0 * (tau - 1.0)
        xi0 = Point3(x0, y0, t0)
        direct = ch_curve(xi0, HVec(alpha, beta), tau, 41)
        cases = ch_curve_cases(xi0, alpha, beta, tau, 41)
        dev = max(
            max(abs(p.x - q.x), abs(p.y - q.y), abs(p.t - q.t))
            for p, q in zip(direct, cases)
        )
        worst[case] = max(worst[case], dev)
        if case == "iii":
            for j, p in enumerate(cases):
                s = j / 40.0
                worst["iii"] = max(
                    worst["iii"], abs(p.t - t0 / (1.0 + s * (tau - 1.0)) ** 2)
                )
    ok = all(v <= 1e-7 for v in worst.values())
    assert _verdict(
        6,
        ok,
        "curve parametrizations agree: max devs "
        f"i={worst['i']:.1e} ii={worst['ii']:.1e} iii={worst['iii']:.1e} "
        "(1000 configs each)",
    )


def test_criterion_07_envelope_identities():
    rng = np.random.default_rng(7)
    worst_phi = worst_psi = 0.0
    for _ in range(1000):
        r0 = rng.uniform(0.05, 3.0)
        t0 = rng.uniform(-5.0, 5.0)
        if abs(t0) < 1e-3:
            t0 = 1e-3
        worst_phi = max(worst_phi, abs(envelope_phi(r0, r0, t0) - t0))
        r = rng.uniform(0.0, r0)
        psi = envelope_psi(r, r0, t0)
        worst_psi = max(worst_psi, abs(r ** 4 + psi * psi - (r0 ** 4 + t0 * t0)))
    ident_ok = worst_phi <= 1e-9 and worst_psi <= 1e-9

    K = gallery("koranyi_ball")
    t0 = math.sqrt(1.0 - 0.9 ** 4)
    rep = envelope_check(K, [Point3(0.9, 0.0, t0)], 400)[0]
    cap_ok = rep.cap_min_margin >= -1e-7

    ok = ident_ok and cap_ok
    assert _verdict(
        7,
        ok,
        f"envelopes: identity residuals {worst_phi:.1e}/{worst_psi:.1e}, "
        f"koranyi cap margin {rep.cap_min_margin:+.1e}",
    )


def test_criterion_08_tau_one_reduction():
    sets = [(name, gallery(name)) for name in
            ("koranyi_ball", "euclidean_ball", "cylinder", "cylinder_hat", "importante", "slab_x")]
    sets.append(
        ("plus_polygon", radial_to_oracle(polygon_profile(PLUS_VERTICES), "plus_polygon"))
    )
    agreements = []
    for name, K in sets:
        c_holds = check_axioms(K, 2000, seed=0).c_holds
        w = falsify_ch(K, 2000, seed=0, tau_one=True)
        agreements.append((name, (w is None) == c_holds))
    ok = all(a for _, a in agreements)
    bad = [name for name, a in agreements if not a]
    assert _verdict(
        8,
        ok,
        f"tau=1 falsifier matches the set checker on {len(agreements)} sets"
        + (f" (disagrees: {bad})" if bad else ""),
    )


def test_criterion_09_scale_invariance_replay():
    found = []
    for name in ("euclidean_ball", "cylinder", "importante"):
        K = gallery(name)
        w = falsify_ch(K, 100000, seed=0)
        if w is not None:
            found.append((name, K, w))
    plus = radial_to_oracle(polygon_profile(PLUS_VERTICES), "plus_polygon")
    w = falsify_ch(plus, 2000, seed=0, tau_one=True)
    if w is not None:
        found.append(("plus_polygon", plus, w))

    replayed = 0
    total = 0
    for name, K, w in found:
        for alpha in (0.5, 2.0):
            total += 1
            if replay_ch_witness(dilate_oracle(K, alpha), transport_witness(w, alpha)):
                replayed += 1
    ok = len(found) >= 4 and replayed == total
    assert _verdict(
        9,
        ok,
        f"dilation transport: {replayed}/{total} transported witnesses replay "
        f"({len(found)} base witnesses, alpha in {{1/2, 2}})",
    )


def test_criterion_10_nonconvex_function_detection():
    f = FnOracle(
        eval=lambda p: math.log(p.x * p.x + p.y * p.y + p.t * p.t + 1.0), label="ln-bump"
    )
    dom = box_oracle(((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)), "box3")
    w = check_hconvex_fn(f, dom, 100000, grid=9, seed=0)
    wq = check_hquasiconvex_fn(f, dom, 100000, grid=9, seed=0)
    ok = w is not None and wq is None
    assert _verdict(
        10,
        ok,
        f"ln(x^2+y^2+t^2+1): hconvex witness {'found' if w is not None else 'MISSING'}, "
        f"quasiconvex witness {'none' if wq is None else 'FOUND'}",
    )
