"""Plant known faults in a copy of the package and check that tests catch each.

Each row of FAULTS is (name, file, exact old text, new text, test ids that
must fail).  The runner first runs every named test on an unchanged copy of
src/ and tests/, where all must pass.  Then, one row at a time, it makes a
fresh copy, replaces the old text (which must occur exactly once) by the new,
and runs only that row's tests in one pytest subprocess.  A fault is killed
when every one of its tests fails (a parametrized id counts when any of its
cases fails).  The runner exits 1 when a fault survives, when its old text no
longer matches, or when the unchanged copy fails; otherwise 0.

Run from anywhere, with the test dependencies installed:

    python tools/plant_faults.py

Copies go under the system temporary directory (TMPDIR) and are removed.
Standard library only; faults run one after another, never in parallel.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Fault(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


FAULTS = (
    Fault(
        "parity_broadcast",
        "src/heisconvex/sets.py",
        "inside = np.logical_xor.reduce(",
        "inside = np.logical_or.reduce(",
        ("tests/test_sets.py::test_polygon_membership_is_the_edge_loop",),
    ),
    Fault(
        "parity_edge_loop",
        "src/heisconvex/sets.py",
        "inside ^= _edge_crosses(e, r, t)",
        "inside |= _edge_crosses(e, r, t)",
        ("tests/test_sets.py::test_polygon_membership_is_the_edge_loop",),
    ),
    Fault(
        "parity_floats",
        "src/heisconvex/sets.py",
        "inside = inside ^ _edge_crosses(e, r, t)",
        "inside = inside | _edge_crosses(e, r, t)",
        ("tests/test_sets.py::test_polygon_membership_is_the_edge_loop",),
    ),
    Fault(
        "edge_near_clamp",
        "src/heisconvex/sets.py",
        "s = k.max(0.0, k.min(1.0, (wx * vx + wy * vy) / vv))",
        "s = (wx * vx + wy * vy) / vv",
        ("tests/test_sets.py::test_polygon_membership_is_the_edge_loop",),
    ),
    Fault(
        "gate_margin_halved",
        "src/heisconvex/sets.py",
        "return 1.5 * math.sqrt(eps2) + 2.0 ** -500",
        "return 0.5 * (1.5 * math.sqrt(eps2) + 2.0 ** -500)",
        ("tests/test_sets.py::test_polygon_membership_is_the_edge_loop",),
    ),
    Fault(
        "vertex_exit",
        "src/heisconvex/sets.py",
        "    lo[at_vertex] = hi[at_vertex] = 0.0\n",
        "",
        ("tests/test_sets.py::test_dilation_level_many_stops_at_the_vertex",),
    ),
    Fault(
        # the halving toward the vertex takes one step past vertex / 4
        "bracket_halving_stop",
        "src/heisconvex/sets.py",
        "else near[rows] < stop",
        "else near[rows] < 0.5 * stop",
        ("tests/test_sets.py::test_dilation_level_many_stops_at_the_vertex",),
    ),
    Fault(
        "bisect_stop_test",
        "src/heisconvex/sets.py",
        "go = b - a > (tol.eps_geom * np.maximum(1.0, a) if relative else tol.eps_geom)",
        "go = b - a > tol.eps_geom",
        (
            "tests/test_sets.py::test_dilation_level_many_matches_scalar",
            "tests/test_sets.py::test_dilation_level_many_masked_bisection_matches_scalar",
        ),
    ),
    Fault(
        "scale_t",
        "src/heisconvex/core.py",
        "return lam * x, lam * y, lam * lam * t",
        "return lam * x, lam * y, lam * t",
        (
            "tests/test_core.py::test_dilation_homomorphism",
            "tests/test_core.py::test_scale_dilate_and_curve_point_are_exact_on_fractions",
        ),
    ),
    Fault(
        "group_law_sign",
        "src/heisconvex/core.py",
        "2 * (q.x * p.y - p.x * q.y)",
        "2 * (p.x * q.y - q.x * p.y)",
        ("tests/test_core.py::test_group_law", "tests/test_core.py::test_noncommutative"),
    ),
    Fault(
        "escape_pullback",
        "src/heisconvex/sets.py",
        "return not K.contains(dilate(_pullback(tol), p))",
        "return True",
        ("tests/test_chcheck.py::test_replay_rejects_escape_within_pullback_slack",),
    ),
    Fault(
        "solve_tau_root_check",
        "src/heisconvex/chcheck.py",
        "return ok & (abs(tau_residual(Point3(x0, y0, t0), Point3(x1, y1, t1), tau)) <= res_bound)",
        "return ok",
        ("tests/test_chcheck.py::test_solve_tau_many_branches_match_reference",),
    ),
    Fault(
        "interior_thetas_half",
        "src/heisconvex/sets.py",
        "    if 0.5 not in grid:\n",
        "    if False:\n",
        ("tests/test_sets.py::test_interior_thetas_contains_half",),
    ),
    Fault(
        "too_thin_raise",
        "src/heisconvex/sets.py",
        "    if produced < n:\n",
        "    if produced < 0:\n",
        ("tests/test_convexity.py::test_thin_domain_raises",),
    ),
    Fault(
        "line_scan_too_thin_raise",
        "src/heisconvex/sets.py",
        "    if used < n:\n",
        "    if used < 0:\n",
        (
            "tests/test_sets.py::test_scan_matches_reference_loop",
            "tests/test_cli.py::test_thin_probe_stream_exits_1",
        ),
    ),
    Fault(
        "face_digit_leading_zero",
        "src/heisconvex/cli.py",
        "(np.maximum(np.arange(count), 1) >= place)",
        "(np.maximum(np.arange(count), 1) > place)",
        (
            "tests/test_cli.py::test_face_tokens_are_the_printf_digits",
            "tests/test_cli.py::test_export_levelset_matches_reference_on_every_cube_code",
        ),
    ),
    Fault(
        "vertex_first_occurrence",
        "src/heisconvex/cli.py",
        "np.minimum.at(first, edge, pos)",
        "np.maximum.at(first, edge, pos)",
        (
            "tests/test_cli.py::test_export_levelset_matches_cube_by_cube_march",
            "tests/test_cli.py::test_export_levelset_matches_reference_on_every_cube_code",
        ),
    ),
    Fault(
        "cube_edge_key",
        "src/heisconvex/cli.py",
        "7 * (a & b)",
        "7 * (a | b)",
        ("tests/test_cli.py::test_export_levelset_matches_reference_on_every_cube_code",),
    ),
    Fault(
        "cone_transport_dilation",
        "src/heisconvex/cones.py",
        "lam = 1.0 / max(1.0, w.tau)",
        "lam = 1.0",
        ("tests/test_cones.py::test_cone_witness_passes_the_benchmark_gate",),
    ),
    Fault(
        "ch_escapes_order",
        "src/heisconvex/chcheck.py",
        "for hit in np.flatnonzero(escapes_many(K, px, py, pt, tol)).tolist():",
        "for hit in np.flatnonzero(escapes_many(K, px, py, pt, tol)).tolist()[::-1]:",
        (
            "tests/test_chcheck.py::test_falsify_cylinder_frozen",
            "tests/test_chcheck.py::test_falsify_euclidean_ball_frozen",
            "tests/test_chcheck.py::test_ch_escapes_match_chunk_by_chunk_reference",
        ),
    ),
    Fault(
        # a batch's pair indices count from its first chunk's start; the
        # last chunk's start differs only in batches of several chunks
        "ch_batch_first_index",
        "src/heisconvex/chcheck.py",
        "pair_index=batch[0][0] + int(p[r]),",
        "pair_index=batch[-1][0] + int(p[r]),",
        ("tests/test_chcheck.py::test_ch_escapes_match_chunk_by_chunk_reference",),
    ),
    Fault(
        # the absolute 1 back in solve_tau's clamp scale and residual bound
        # (the scale alone changes no root here: the relative residual bound
        # still rejects the root of every discriminant it clamps)
        "solve_tau_absolute_scale",
        "src/heisconvex/chcheck.py",
        "    size = abs(t0) + abs(t1) + abs(cross)\n    res_bound = tol.eps_eq * (abs(t0)",
        "    size = 1.0 + abs(t0) + abs(t1) + abs(cross)\n    res_bound = tol.eps_eq * (1.0 + abs(t0)",
        ("tests/test_chcheck.py::test_small_koranyi_balls_stay_clean",),
    ),
    Fault(
        # the residual bound without the cross term loses the far root of a
        # pair near the t = 0 plane
        "solve_tau_residual_without_cross",
        "src/heisconvex/chcheck.py",
        "res_bound = tol.eps_eq * (abs(t0) + abs(t1) + 2.0 * (abs(x0 * y1) + abs(x1 * y0)))",
        "res_bound = tol.eps_eq * (abs(t0) + abs(t1))",
        ("tests/test_chcheck.py::test_solve_tau_many_branches_match_reference",),
    ),
    Fault(
        # merging roots within eps_eq * size splits a dilated double root
        "solve_tau_merge_by_size",
        "src/heisconvex/chcheck.py",
        "tol.eps_eq * np.maximum(1.0, abs(first))",
        "tol.eps_eq * size",
        ("tests/test_chcheck.py::test_solve_tau_many_branches_match_reference",),
    ),
    Fault(
        "ch_chunk_budget_cut",
        "src/heisconvex/chcheck.py",
        "yield start, pairs[:, : budget - start]",
        "yield start, pairs[:, : budget - start + 1]",
        ("tests/test_chcheck.py::test_ch_escapes_match_chunk_by_chunk_reference",),
    ),
    Fault(
        # chunk_batches orders the stalls of both the C_H pair stage and the
        # function falsifiers, so one plant must fail both stall tests
        "ch_stall_drops_drawn_chunks",
        "src/heisconvex/sets.py",
        "        if batch:\n            yield batch\n        raise\n",
        "        raise\n",
        (
            "tests/test_chcheck.py::test_ch_escapes_stall_comes_after_the_chunks_drawn_before_it",
            "tests/test_convexity.py::test_grouped_scan_matches_reference_on_a_stall_inside_a_group",
        ),
    ),
    Fault(
        "line_grid_check",
        "src/heisconvex/sets.py",
        "if grid < SEGMENT_GRID or (grid - 1) % (SEGMENT_GRID - 1):",
        "if grid < SEGMENT_GRID:",
        ("tests/test_sets.py::test_line_scan_takes_only_grids_8k_plus_1",),
    ),
    Fault(
        "replay_ch_escape",
        "src/heisconvex/chcheck.py",
        "    return escapes(K, w.escape_point, tol)\n",
        "    return True\n",
        ("tests/test_chcheck.py::test_replay_rejects_escape_within_pullback_slack",),
    ),
    Fault(
        "replay_fn_slack_sign",
        "src/heisconvex/convexity.py",
        "return lhs > rhs + tol.eps_eq",
        "return lhs > rhs - tol.eps_eq",
        ("tests/test_convexity.py::test_replay_recomputes_from_fields",),
    ),
    Fault(
        "axiom_a_any_probe",
        "src/heisconvex/sets.py",
        "bool(K.contains_many(x, y, t).all())",
        "bool(K.contains_many(x, y, t).any())",
        ("tests/test_sets.py::test_check_axioms_ab_matches_reference",),
    ),
    Fault(
        "axiom_b_first_failure",
        "src/heisconvex/sets.py",
        "        k = int(bad[0])\n",
        "        k = int(bad[-1])\n",
        ("tests/test_sets.py::test_check_axioms_ab_matches_reference",),
    ),
    Fault(
        "boundary_pool_group",
        "src/heisconvex/chcheck.py",
        "boundary_sample(K, PAIR_CHUNK, seed, tol, chunk // POOL_GROUP)",
        "boundary_sample(K, PAIR_CHUNK, seed, tol, 0)",
        (
            "tests/test_chcheck.py::test_falsify_pairs_shared_across_chunk_boundary",
            "tests/test_chcheck.py::test_ch_escapes_match_chunk_by_chunk_reference",
        ),
    ),
    Fault(
        "family_coverage_nan",
        "src/heisconvex/cones.py",
        "ran_away = np.flatnonzero(np.isnan(levels))",
        "ran_away = np.flatnonzero(np.isinf(levels))",
        ("tests/test_cones.py::test_family_axioms_match_reference",),
    ),
    Fault(
        "family_nesting_ratio",
        "src/heisconvex/cones.py",
        "scale(tau1 / tau2, *pts.T, C.kind)",
        "scale(tau2 / tau1, *pts.T, C.kind)",
        ("tests/test_cones.py::test_family_axioms_match_reference",),
    ),
    Fault(
        "family_closedness_step",
        "src/heisconvex/cones.py",
        "levels[keep, None] * (1.0 + steps)",
        "levels[keep, None] * (1.0 - steps)",
        ("tests/test_cones.py::test_family_axioms_match_reference",),
    ),
    Fault(
        "radial_theorem_i_shrink",
        "src/heisconvex/chcheck.py",
        "x, t = r * shrink, t * shrink * shrink",
        "x, t = r * shrink, t * shrink",
        ("tests/test_chcheck.py::test_radial_necessary_matches_scalar_reference",),
    ),
    Fault(
        "radial_theorem_ii_slack",
        "src/heisconvex/chcheck.py",
        "thm_ii_ok = r_sup <= r_flat + slack",
        "thm_ii_ok = r_sup <= r_flat - slack",
        ("tests/test_chcheck.py::test_radial_necessary_matches_scalar_reference",),
    ),
    Fault(
        "envelope_floor_sign",
        "src/heisconvex/chcheck.py",
        "floor = -max(1e-6, 10.0 * tol.eps_geom)",
        "floor = max(1e-6, 10.0 * tol.eps_geom)",
        (
            "tests/test_chcheck.py::test_envelope_check_koranyi_anchor",
            "tests/test_chcheck.py::test_envelope_check_matches_point_by_point_loop",
            "tests/test_chcheck.py::test_envelope_check_lists_of_anchors_match_point_by_point_loop",
        ),
    ),
    Fault(
        "budget_range_check",
        "src/heisconvex/cli.py",
        "if cfg.budget < 1:",
        "if cfg.budget < 0:",
        ("tests/test_cli.py::test_budget_and_samples_below_1_exit_1",),
    ),
    Fault(
        "radial_takes_budget",
        "src/heisconvex/cli.py",
        '"radial necessary conditions and envelope sweep", "set", "samples")',
        '"radial necessary conditions and envelope sweep", "set", "budget", "samples")',
        ("tests/test_cli.py::test_options_a_command_does_not_read_exit_1",),
    ),
    Fault(
        "closed_form_any_kind",
        "src/heisconvex/cones.py",
        'if C.kind != "heisenberg":',
        "if False:",
        (
            "tests/test_cli.py::test_error_exits",
            "tests/test_cones.py::test_closed_form_comparison_matches_reference",
        ),
    ),
    Fault(
        # a level formula 1e-4 off: the comparison with the bisection sees it
        "level_formula_scale",
        "src/heisconvex/sets.py",
        'level=lambda p, k=FLOATS: norm(p, "koranyi", k) / r,',
        'level=lambda p, k=FLOATS: norm(p, "koranyi", k) / (r * 1.0001),',
        (
            "tests/test_sets.py::test_level_formula_matches_bisection",
            "tests/test_cones.py::test_closed_form_comparison_matches_reference",
        ),
    ),
    Fault(
        # without the power-of-two dilation a level's squares underflow
        "exact_level_unscaled",
        "src/heisconvex/sets.py",
        "    lam = np.ldexp(1.0, np.minimum(np.maximum(-np.frexp(s)[1], -500), 500))\n",
        "    lam = np.ones_like(x)\n",
        (
            "tests/test_sets.py::test_vertex_level_zero_at_tiny_eps_geom",
            "tests/test_sets.py::test_level_formula_on_arrays_is_the_scalar_formula",
        ),
    ),
    Fault(
        # exact pool points that round outside K kept, not bisected
        "boundary_sample_no_fallback",
        "src/heisconvex/sets.py",
        "rows = np.flatnonzero(~K.contains_many(*pts.T))",
        "rows = np.flatnonzero(np.zeros(n, bool))",
        ("tests/test_sets.py::test_boundary_sample_points_test_inside_k",),
    ),
    Fault(
        # importante's level without its sine branch: the gauge branch alone
        "importante_level_gauge_only",
        "src/heisconvex/sets.py",
        "    return k.sqrt(v)\n",
        "    return gauge\n",
        (
            "tests/test_sets.py::test_level_formula_matches_bisection",
            "tests/test_cones.py::test_closed_form_comparison",
        ),
    ),
    Fault(
        # one Newton step leaves the sine branch's root some 4e-5 off
        "importante_newton_one_step",
        "src/heisconvex/sets.py",
        "_NEWTON_STEPS = 4",
        "_NEWTON_STEPS = 1",
        (
            "tests/test_sets.py::test_level_formula_matches_bisection",
            "tests/test_cones.py::test_closed_form_comparison",
        ),
    ),
    Fault(
        # the boundary rays' absolute cap of 60 doublings, which a ball of
        # radius 1e19 outruns
        "ray_cap_absolute",
        "src/heisconvex/sets.py",
        "np.arange(ux.size), 2.0, limit).any():",
        "np.arange(ux.size), 2.0, 2.0 ** 60).any():",
        (
            "tests/test_sets.py::test_boundary_sample_needs_compact",
            "tests/test_sets.py::test_boundary_sample_on_huge_koranyi_balls",
        ),
    ),
    Fault(
        "cone_scan_euclidean_only",
        "src/heisconvex/cones.py",
        "    if scan:\n",
        '    if C.kind == "euclidean":\n',
        ("tests/test_cli.py::test_cone_scans_f_when_no_escape_clears_the_slack",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> tuple[int, set[str], str]:
    """Run the tests in tree; returns (exit code, failed node ids, output)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", *tests]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def _killed_by(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def run_fault(fault: Fault) -> str:
    """Plant one fault in a fresh copy; '' when killed, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="plant_faults_") as tmp:
        tree = Path(tmp)
        _copy(tree)
        path = tree / fault.file
        text = path.read_text()
        found = text.count(fault.old)
        if found != 1:
            return f"old text found {found} times in {fault.file}"
        path.write_text(text.replace(fault.old, fault.new))
        code, failed, output = _pytest(tree, fault.tests)
    alive = [t for t in fault.tests if not _killed_by(t, failed)]
    if code == 1 and not alive:
        return ""
    tail = "\n".join(output.strip().splitlines()[-5:])
    return f"pytest exit {code}; not failing: {', '.join(alive) or '-'}\n{tail}"


def main() -> int:
    tests = sorted({t for f in FAULTS for t in f.tests})
    with tempfile.TemporaryDirectory(prefix="plant_faults_") as tmp:
        _copy(Path(tmp))
        code, _failed, output = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the unchanged copy fails its tests (pytest exit {code}):\n{output}", file=sys.stderr)
        return 1
    bad = 0
    for fault in FAULTS:
        problem = run_fault(fault)
        print(f"{'killed  ' if not problem else 'SURVIVED'} {fault.name}")
        if problem:
            bad += 1
            print("    " + problem.replace("\n", "\n    "))
    print(f"{len(FAULTS) - bad}/{len(FAULTS)} faults killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
