import dataclasses
import functools
import json
import math
import subprocess
import sys
import typing
from collections import Counter

import numpy as np
import pytest

from heisconvex import (
    ChWitness,
    ConeFunction,
    ConvexityWitness,
    FamilyReport,
    HVec,
    NestingWitness,
    Point3,
    RadialNecessityReport,
    SegmentEscape,
    Tolerances,
    check_axioms,
    cone_fn_oracle,
    cone_validate,
    escapes,
    exp_h,
    falsify_ch,
    gallery,
    group_mul,
    make_cone,
    radial_necessary,
    replay_ch_witness,
    replay_witness,
)
from heisconvex import cli
from heisconvex.cli import (
    _anchor_points,
    _write_report,
    export_curve,
    export_levelset,
    main,
    parse_descriptor,
)
from heisconvex.sets import bbox_scale

PLUS_PARAMS = json.dumps(
    {"vertices": [[0, 2], [0.2, 2], [0.2, 0.2], [2, 0.2], [2, -0.2], [0.2, -0.2], [0.2, -2], [0, -2]]}
)

# 66 vertices on the Korányi ball's profile r**4 + t**2 = 1, from (0, 1) to (0, -1)
KORANYI_66_PARAMS = json.dumps(
    {"vertices": [[round(math.sqrt(math.sin(math.pi * k / 65)), 6), round(math.cos(math.pi * k / 65), 6)] for k in range(66)]}
)


def read_report(path):
    return json.loads(path.read_text())


def import_curve(path):
    """The points of a CSV written by export_curve."""
    header, *rows = path.read_text().splitlines()
    assert header == "theta,x,y,t"
    return [Point3(*map(float, row.split(",")[1:])) for row in rows]


def test_parse_descriptor_forms(tmp_path):
    assert parse_descriptor("koranyi_ball") == ("koranyi_ball", {})
    assert parse_descriptor('{"set": "cylinder"}') == ("cylinder", {})
    assert parse_descriptor('{"set": "cylinder", "params": {}}') == ("cylinder", {})
    spec = tmp_path / "set.json"
    spec.write_text('{"set": "koranyi_ball", "params": {"r": 2.0}}')
    assert parse_descriptor(str(spec)) == ("koranyi_ball", {"r": 2.0})
    with pytest.raises(ValueError):
        parse_descriptor('{"params": {}}')


def test_gallery_name_beats_a_same_named_file(tmp_path, monkeypatch):
    # a file named like a gallery set does not shadow the set; a file of
    # any other name is still read as a descriptor
    (tmp_path / "cylinder").write_text("notes\n")
    (tmp_path / "myset").write_text('{"set": "koranyi_ball", "params": {"r": 2.0}}')
    monkeypatch.chdir(tmp_path)
    assert parse_descriptor("cylinder") == ("cylinder", {})
    assert parse_descriptor("myset") == ("koranyi_ball", {"r": 2.0})
    assert main(["axioms", "--set", "cylinder", "--samples", "200", "--out", "out"]) == 0
    assert read_report(tmp_path / "out" / "axioms_cylinder.json")["axioms"]["c_holds"]


def test_inline_descriptor_longer_than_a_file_name(tmp_path):
    # no file name is this long: the descriptor must be read as JSON
    # without asking the file system about it
    descriptor = json.dumps({"set": "radial_custom", "params": json.loads(KORANYI_66_PARAMS)})
    assert len(KORANYI_66_PARAMS) > 255
    assert parse_descriptor(descriptor) == ("radial_custom", json.loads(KORANYI_66_PARAMS))
    out = ["--out", str(tmp_path)]
    # a polygon inscribed in a clean profile fails theorem i: exit 2
    assert main(["radial", "--set", "radial_custom", "--params", KORANYI_66_PARAMS] + out) == 2
    assert not read_report(tmp_path / "radial_radial_custom.json")["radial"]["thm_i_ok"]
    assert main(["axioms", "--set", descriptor] + out) == 0


def test_cone_scans_f_when_no_escape_clears_the_slack(tmp_path):
    # at seed 1 every C_H escape of the inscribed polygon has a gap on f
    # below the slack (margins about 1e-6); f is not convex all the same,
    # and the scan of f finds a witness that clears it: exit 2
    argv = ["cone", "--set", "radial_custom", "--params", KORANYI_66_PARAMS, "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    cone = read_report(tmp_path / "cone_radial_custom_heisenberg.json")["cone"]
    assert cone["verdict"] == "horizontal convexity witness found"


def test_thin_probe_stream_exits_1(tmp_path, capsys):
    # a disk 2e-9 thick: a horizontal line almost never meets it at two of
    # its samples, so the line stream gives up short of its budget and no
    # verdict stands
    params = '{"vertices": [[0,-1e-9],[1,-1e-9],[1,1e-9],[0,1e-9]]}'
    out = ["--set", "radial_custom", "--params", params, "--out", str(tmp_path)]
    assert main(["ch", "--tau-one", "--budget", "50"] + out) == 1
    assert "too thin" in capsys.readouterr().err
    assert main(["axioms", "--samples", "50"] + out) == 1
    assert "too thin" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_infinite_tolerance_exits_1(tmp_path, capsys):
    # eps_geom = inf made every point near K: ch found no witness, axioms
    # passed a, b and c, cone read candidate, and the reports held Infinity
    out = ["--set", "koranyi_ball", "--out", str(tmp_path)]
    for argv in (["ch"], ["axioms"], ["cone"], ["export"], ["radial"]):
        for tols in (["--eps-geom", "inf"], ["--eps-geom", "inf", "--eps-eq", "inf"]):
            assert main(argv + tols + out) == 1, (argv, tols)
            err = capsys.readouterr().err
            assert err.startswith("heisconvex: error: tolerances must be finite"), err
    assert not list(tmp_path.iterdir())


def test_budget_and_samples_below_1_exit_1(tmp_path, capsys):
    for argv, message in (
        (["ch", "--budget", "0"], "budget must be >= 1"),
        (["axioms", "--samples", "0"], "samples must be >= 1"),
        (["gallery", "--budget", "0"], "budget must be >= 1"),
    ):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1, argv
        assert capsys.readouterr().err == f"heisconvex: error: {message}\n", argv
    assert not (tmp_path / "out").exists()


# the (command, option) pairs that no command reads, so the parser refuses them
UNREAD_OPTIONS = [
    ("axioms", "--budget"),
    ("cone", "--budget"),
    ("radial", "--budget"),
    ("export", "--budget"),
    ("ch", "--samples"),
    ("export", "--samples"),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=[c + o for c, o in UNREAD_OPTIONS])
def test_options_a_command_does_not_read_exit_1(tmp_path, capsys, command, option):
    # accepted, radial --budget 100000 would run the 2000-sample check as if it were a larger one
    with pytest.raises(SystemExit) as exc:
        main([command, option, "100000", "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: heisconvex {command} ")
    assert f"heisconvex {command}: error: unrecognized arguments: {option} 100000" in err
    assert not (tmp_path / "out").exists()


def test_unread_option_prints_the_command_usage(capsys):
    # the command's own parser refuses it, with the usage line of the
    # options the command does take
    with pytest.raises(SystemExit) as exc:
        main(["radial", "--budget", "5"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: heisconvex radial")
    assert "[--samples SAMPLES]" in err and "--budget BUDGET" not in err
    assert err.endswith("heisconvex radial: error: unrecognized arguments: --budget 5\n")


def test_reports_record_the_budget_and_samples_defaults(tmp_path):
    # every report header keeps set, seed, budget and samples, also those a command does not take
    assert main(["radial", "--set", "koranyi_ball", "--samples", "300", "--out", str(tmp_path)]) == 0
    radial = read_report(tmp_path / "radial_koranyi_ball_r_1.json")
    assert (radial["budget"], radial["samples"], radial["seed"]) == (2000, 300, 0)
    assert main(["ch", "--set", "koranyi_ball", "--budget", "50", "--seed", "4", "--out", str(tmp_path)]) == 0
    ch = read_report(tmp_path / "ch_koranyi_ball_r_1.json")
    assert (ch["budget"], ch["samples"], ch["seed"], ch["set"]) == (50, 2000, 4, "koranyi_ball")
    assert main(["gallery", "--samples", "400", "--budget", "50", "--out", str(tmp_path)]) == 0
    gallery_ = read_report(tmp_path / "gallery.json")
    assert (gallery_["budget"], gallery_["samples"], gallery_["set"]) == (50, 400, "koranyi_ball")


def test_axioms_roundtrip(tmp_path):
    code = main(
        ["axioms", "--set", "koranyi_ball", "--samples", "400", "--out", str(tmp_path)]
    )
    assert code == 0
    rep = read_report(tmp_path / "axioms_koranyi_ball_r_1.json")
    ax = rep["axioms"]
    assert ax["a_holds"] and ax["b_holds"] and ax["c_holds"]
    assert rep["samples"] == 400
    assert rep["tolerances"]["eps_geom"] == 1e-7


def test_axioms_witness_exit(tmp_path):
    code = main(["axioms", "--set", "slab_x", "--samples", "300", "--out", str(tmp_path)])
    assert code == 2
    rep = read_report(tmp_path / "axioms_slab_x.json")
    assert not rep["axioms"]["a_holds"]


def test_ch_witness_and_curve(tmp_path):
    code = main(["ch", "--set", "cylinder", "--budget", "2000", "--out", str(tmp_path)])
    assert code == 2
    rep = read_report(tmp_path / "ch_cylinder.json")
    w = rep["ch"]["witness"]
    assert w["pair_index"] == 7
    assert w["tau"] == pytest.approx(1.6290873090895175)
    curve = import_curve(tmp_path / "ch_curve_cylinder.csv")
    assert len(curve) == 101
    assert curve[0].x == pytest.approx(w["xi0"][0])


def test_ch_clean_exit(tmp_path):
    code = main(["ch", "--set", "koranyi_ball", "--budget", "1000", "--out", str(tmp_path)])
    assert code == 0
    rep = read_report(tmp_path / "ch_koranyi_ball_r_1.json")
    assert rep["ch"]["witness"] is None


def test_ch_reports_are_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert main(["ch", "--set", "cylinder", "--budget", "1500", "--out", str(d)]) == 2
    # the whole report body, byte for byte: no wall-clock field
    assert (a_dir / "ch_cylinder.json").read_bytes() == (b_dir / "ch_cylinder.json").read_bytes()
    assert (a_dir / "ch_curve_cylinder.csv").read_bytes() == (
        b_dir / "ch_curve_cylinder.csv"
    ).read_bytes()


def test_cone_command_with_closed_form(tmp_path):
    code = main(
        [
            "cone",
            "--set",
            "koranyi_ball",
            "--samples",
            "600",
            "--compare-closed-form",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rep = read_report(tmp_path / "cone_koranyi_ball_r_1_heisenberg.json")
    cone = rep["cone"]
    assert cone["verdict"].startswith("candidate")
    assert cone["closed_form_max_dev"] <= 1e-6
    assert cone["family"]["axiom_i_ok"] and cone["family"]["axiom_ii_ok"]


def test_cone_falsified_exit(tmp_path):
    code = main(
        ["cone", "--set", "euclidean_ball", "--samples", "1000", "--out", str(tmp_path)]
    )
    assert code == 2
    rep = read_report(tmp_path / "cone_euclidean_ball_r_1_heisenberg.json")
    assert rep["cone"]["verdict"] == "horizontal convexity witness found"
    assert rep["cone"]["convexity_witness"] is not None


def test_tiny_tolerances_stay_clean(tmp_path):
    # at eps_geom = eps_eq = 1e-19 the pool points that round outside K are
    # bisected, so no false escape; the cone's homogeneity deviation is the
    # rounding of exact levels, under check_homogeneous's floor
    tiny = ["--eps-geom", "1e-19", "--eps-eq", "1e-19", "--out", str(tmp_path)]
    for name in ("koranyi_ball", "cylinder_hat"):
        assert main(["ch", "--set", name] + tiny) == 0
    assert main(["cone", "--set", "koranyi_ball"] + tiny) == 0
    hom = read_report(tmp_path / "cone_koranyi_ball_r_1_heisenberg.json")["cone"]["homogeneity"]
    assert hom["ok"] and 1e-19 < hom["max_dev"] < 1e-15


def test_cone_euclidean_kind_exit(tmp_path):
    # the Euclidean scaling's levels are not homogeneous under the
    # Heisenberg dilations that the homogeneity check applies
    code = main(["cone", "--set", "koranyi_ball", "--kind", "euclidean", "--out", str(tmp_path)])
    assert code == 2
    rep = read_report(tmp_path / "cone_koranyi_ball_r_1_euclidean.json")
    assert rep["cone"]["verdict"] == "homogeneity deviation above tolerance"


def test_radial_command(tmp_path):
    code = main(["radial", "--set", "importante", "--samples", "1000", "--out", str(tmp_path)])
    assert code == 2
    rep = read_report(tmp_path / "radial_importante.json")
    rad = rep["radial"]
    assert not rad["thm_i_ok"] and not rad["thm_ii_ok"]
    assert rad["thm_ii_witness"][0] == pytest.approx(2.152556, abs=1e-3)
    assert rad["envelopes"]

    assert main(["radial", "--set", "koranyi_ball", "--out", str(tmp_path)]) == 0


def test_radial_command_without_anchors(tmp_path):
    # the plus shape has no inside radius at any anchor height, so there is
    # no envelope to bisect; theorem i still fails
    K = gallery("radial_custom", json.loads(PLUS_PARAMS))
    assert _anchor_points(K) == []
    assert main(["radial", "--set", "radial_custom", "--params", PLUS_PARAMS, "--out", str(tmp_path)]) == 2
    rad = read_report(tmp_path / "radial_radial_custom.json")["radial"]
    assert rad["envelopes"] == [] and not rad["thm_i_ok"]


def test_radial_command_on_a_polygon_too_thin_for_anchors(tmp_path, capsys):
    # a polygon 1e-9 wide: every candidate anchor has r at most eps_eq, which
    # envelope_check refuses, so no envelope runs and theorems i and ii decide
    params = '{"vertices": [[0,-1],[1e-9,-1],[1e-9,1],[0,1]]}'
    K = gallery("radial_custom", json.loads(params))
    assert _anchor_points(K) == []
    assert main(["radial", "--set", "radial_custom", "--params", params, "--out", str(tmp_path)]) == 0
    assert "envelopes: none run (no anchor)" in capsys.readouterr().out
    rad = read_report(tmp_path / "radial_radial_custom.json")["radial"]
    assert rad["envelopes"] == [] and rad["thm_i_ok"] and rad["thm_ii_ok"]
    # ten times wider, the anchors clear eps_eq and the envelopes run
    wider = params.replace("1e-9", "1e-8")
    assert main(["radial", "--set", "radial_custom", "--params", wider, "--out", str(tmp_path)]) == 0
    assert "envelopes_ok=True" in capsys.readouterr().out
    assert len(read_report(tmp_path / "radial_radial_custom.json")["radial"]["envelopes"]) == 3


def test_gallery_matches_expectations(tmp_path):
    code = main(
        ["gallery", "--budget", "2000", "--samples", "1000", "--out", str(tmp_path)]
    )
    assert code == 0
    rep = read_report(tmp_path / "gallery.json")
    assert rep["all_match"]
    assert rep["gallery"]["cylinder"]["ch_witness"]["pair_index"] == 7
    assert rep["gallery"]["importante"]["radial"] == [False, False]
    assert all(block["inconclusive"] == [] for block in rep["gallery"].values())


def test_gallery_unfound_witness_is_inconclusive(tmp_path, capsys):
    # importante's witness is due, but 50 pairs at seed 0 do not reach it
    # (pair 76 does); the cylinder's and the euclidean ball's do
    assert main(["gallery", "--samples", "400", "--budget", "50", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gallery importante: inconclusive (ch: no witness in 50 pairs)" in out
    assert "gallery: no mismatches, 1 inconclusive" in out
    rep = read_report(tmp_path / "gallery.json")
    assert rep["all_match"]
    assert rep["gallery"]["importante"]["inconclusive"] == ["ch: no witness in 50 pairs"]
    assert rep["gallery"]["importante"]["mismatches"] == []


def test_gallery_unexpected_witness_is_a_mismatch(tmp_path, monkeypatch, capsys):
    # the cylinder's witness, found where none is expected, is a mismatch
    entry = cli.GALLERY["cylinder"]
    monkeypatch.setattr(cli, "GALLERY", {"cylinder": entry._replace(expect=entry.expect._replace(ch_witness=False))})
    assert main(["gallery", "--samples", "400", "--budget", "500", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "gallery cylinder: MISMATCH (ch: expected witness=False, got True)" in out
    rep = read_report(tmp_path / "gallery.json")
    assert not rep["all_match"]
    assert rep["gallery"]["cylinder"]["mismatches"] == ["ch: expected witness=False, got True"]


def test_export_mesh(tmp_path):
    code = main(
        [
            "export",
            "--set",
            "koranyi_ball",
            "--kind",
            "mesh",
            "--tau",
            "1.0",
            "--resolution",
            "16",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "levelset_koranyi_ball_r_1_tau1.obj").read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert verts and faces
    for f in faces:
        idx = [int(s) for s in f.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(verts) for i in idx)
    # every mesh vertex hugs the unit gauge sphere at grid resolution
    from heisconvex import norm

    for l in verts[:50]:
        _, xs, ys, ts = l.split()
        r = norm(Point3(float(xs), float(ys), float(ts)), "koranyi")
        assert abs(r - 1.0) < 0.25


def test_export_curve_roundtrip(tmp_path):
    spec = tmp_path / "curve.json"
    spec.write_text(
        json.dumps({"xi0": [0.5, 0.0, 1.0], "v": [0.0, -0.5], "tau": math.sqrt(1.5), "m": 21})
    )
    code = main(["export", "--kind", "curve", "--curve-json", str(spec), "--out", str(tmp_path)])
    assert code == 0
    pts = import_curve(tmp_path / "curve.csv")
    assert len(pts) == 21
    assert pts[0] == Point3(0.5, 0.0, 1.0)


def test_export_curve_from_ch_report(tmp_path):
    main(["ch", "--set", "cylinder", "--budget", "1500", "--out", str(tmp_path)])
    code = main(
        [
            "export",
            "--kind",
            "curve",
            "--curve-json",
            str(tmp_path / "ch_cylinder.json"),
            "--out",
            str(tmp_path / "curve_out"),
        ]
    )
    assert code == 0
    assert (tmp_path / "curve_out" / "curve.csv").exists()


def test_error_exits(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["axioms", "--set", "nonsense"] + out) == 1
    assert main(["radial", "--set", "slab_x"] + out) == 1
    # a polygon has no level formula to compare with
    square = json.dumps({"vertices": [[0, -1], [1, -1], [1, 1], [0, 1]]})
    assert main(["cone", "--set", "radial_custom", "--params", square, "--samples", "100", "--compare-closed-form"] + out) == 1
    # the recorded closed forms are Heisenberg levels: the euclidean kind has none to compare with
    assert main(["cone", "--set", "koranyi_ball", "--kind", "euclidean", "--compare-closed-form"] + out) == 1
    assert main(["export", "--kind", "curve"] + out) == 1
    assert main(["export", "--set", "slab_x", "--kind", "mesh"] + out) == 1
    assert main(["export", "--set", "koranyi_ball", "--kind", "mesh", "--resolution", "4"] + out) == 1
    assert main(["axioms", "--set", "radial_custom"] + out) == 1
    assert main(["axioms", "--set", "{bad json"] + out) == 1
    assert not list(tmp_path.iterdir())


def test_parser_reuse_keeps_reports_and_usage_errors(tmp_path, capsys):
    # the argument parser is built once per process and reused by every main
    first = ["cone", "--set", "cylinder_hat", "--seed", "3", "--samples", "300"]
    first += ["--eps-geom", "1e-7", "--compare-closed-form"]
    second = ["radial", "--set", "importante", "--samples", "100"]
    cli._build_parser.cache_clear()
    assert main(first + ["--out", str(tmp_path / "a")]) == 0
    assert main(second + ["--out", str(tmp_path / "a")]) == 2
    assert cli._build_parser.cache_info().misses == 1
    reused = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    for argv in (first, second):
        cli._build_parser.cache_clear()
        main(argv + ["--out", str(tmp_path / "b")])
    assert {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()} == reused
    # the options of the first call do not leak into the second
    assert read_report(tmp_path / "a" / "radial_importante.json")["tolerances"]["eps_geom"] == Tolerances().eps_geom
    capsys.readouterr()
    # usage errors after reuse exit 1 with the message a new parser gives
    for bad in (["cone", "--kind", "bogus"], ["radial", "--samples", "many"], []):
        errors = []
        for fresh in (False, True):
            if fresh:
                cli._build_parser.cache_clear()
            else:
                cli._build_parser().parse_args(first)
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "error:" in errors[0]
    assert main(second + ["--out", str(tmp_path / "c")]) == 2
    assert (tmp_path / "c" / "radial_importante.json").read_bytes() == reused["radial_importante.json"]


def test_eps_flags_propagate(tmp_path):
    code = main(
        [
            "axioms",
            "--set",
            "koranyi_ball",
            "--samples",
            "200",
            "--eps-geom",
            "1e-6",
            "--eps-eq",
            "1e-8",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rep = read_report(tmp_path / "axioms_koranyi_ball_r_1.json")
    assert rep["tolerances"] == {"eps_geom": 1e-6, "eps_eq": 1e-8, "max_iter": 60}


def test_params_flag_merges(tmp_path):
    code = main(
        [
            "axioms",
            "--set",
            "koranyi_ball",
            "--params",
            '{"r": 2.0}',
            "--samples",
            "200",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "axioms_koranyi_ball_r_2.json").exists()


def test_export_levelset_validates():
    K = gallery("koranyi_ball")
    with pytest.raises(ValueError):
        export_levelset(K, 0.0, 16, "/tmp/never.obj")
    with pytest.raises(ValueError):
        export_levelset(K, 1.0, 4, "/tmp/never.obj")
    with pytest.raises(ValueError):
        export_levelset(gallery("slab_x"), 1.0, 16, "/tmp/never.obj")
    # not finite, 1/tau**2 overflows, or the dilated grid overflows
    for tau in (math.nan, math.inf, -math.inf, 1e-320, 1e-160, 1e160):
        with pytest.raises(ValueError, match="tau"):
            export_levelset(K, tau, 16, "/tmp/never.obj")


def test_export_bad_tau_exits_1(tmp_path, capsys):
    for tau in ("nan", "inf", "1e-320"):
        argv = ["export", "--set", "koranyi_ball", "--kind", "mesh", "--tau", tau, "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "heisconvex: error: tau" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.obj"))


@pytest.mark.parametrize("command", ["axioms", "cone", "ch", "radial", "gallery", "export"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    assert main([command, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    assert "heisconvex: error: --seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["koranyi_ball", "cylinder_hat", "importante"])
def test_export_mesh_batch_field_matches_row_loop(tmp_path, name):
    # the batch membership field gives the same mesh as the scalar
    # contains of the same oracle (kernel=None falls back to a row loop)
    K = gallery(name)
    bare = dataclasses.replace(K, kernel=None)
    a = export_levelset(K, 0.7, 20, tmp_path / "batch.obj").read_bytes()
    b = export_levelset(bare, 0.7, 20, tmp_path / "rows.obj").read_bytes()
    assert a == b
    # the tau-dilate fits inside the padded grid, so the mesh is closed:
    # every edge is shared by exactly two faces
    faces = [l.split()[1:] for l in a.decode().splitlines() if l.startswith("f ")]
    edges = Counter(frozenset(e) for f0, f1, f2 in faces for e in ((f0, f1), (f1, f2), (f2, f0)))
    assert faces and set(edges.values()) == {2}


_REF_CORNERS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
_REF_TETS = ((0, 5, 1, 6), (0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6), (0, 7, 4, 6), (0, 4, 5, 6))


def _reference_march(field):
    """Cube-by-cube marching tetrahedra on a boolean n^3 grid (nested lists).

    Returns (edges, faces): each vertex's edge as its two grid points, lower
    first, in numbering order; the triangles as vertex numbers from 1.
    """
    n = len(field)
    verts, edges, faces = {}, [], []

    def midpoint(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in verts:
            edges.append(key)
            verts[key] = len(edges)
        return verts[key]

    for i in range(n - 1):
        for j in range(n - 1):
            for k in range(n - 1):
                corner = [(i + dx, j + dy, k + dz) for dx, dy, dz in _REF_CORNERS]
                inside = [field[a][b][c] for a, b, c in corner]
                if all(inside) or not any(inside):
                    continue
                for tet in _REF_TETS:
                    ins = [c for c in tet if inside[c]]
                    outs = [c for c in tet if not inside[c]]
                    if not ins or not outs:
                        continue
                    if len(ins) == 1 or len(outs) == 1:
                        lone, others = (ins[0], outs) if len(ins) == 1 else (outs[0], ins)
                        faces.append(tuple(midpoint(corner[lone], corner[o]) for o in others))
                    else:
                        (p, q), (r, s) = ins, outs
                        m_pr, m_ps = midpoint(corner[p], corner[r]), midpoint(corner[p], corner[s])
                        m_qr, m_qs = midpoint(corner[q], corner[r]), midpoint(corner[q], corner[s])
                        faces += [(m_pr, m_ps, m_qr), (m_ps, m_qs, m_qr)]
    return edges, faces


def _reference_levelset(K, tau, resolution, path):
    """The cube-by-cube march whose OBJ bytes export_levelset must reproduce."""
    (xlo, xhi), (ylo, yhi), (tlo, thi) = K.bbox
    n = resolution
    xs = [tau * 1.05 * (xlo + (xhi - xlo) * i / (n - 1)) for i in range(n)]
    ys = [tau * 1.05 * (ylo + (yhi - ylo) * i / (n - 1)) for i in range(n)]
    ts = [tau * tau * 1.05 * (tlo + (thi - tlo) * i / (n - 1)) for i in range(n)]
    inv = 1.0 / tau
    X, Y, T = np.meshgrid(xs, ys, ts, indexing="ij")
    edges, faces = _reference_march(K.contains_many(inv * X, inv * Y, inv * inv * T).tolist())
    with open(path, "w") as fh:
        fh.write(f"# level-set mesh: {K.label}, tau={tau:g}, resolution={resolution}\n")
        for a, b in edges:
            x, y, t = (xs[a[0]] + xs[b[0]]) / 2.0, (ys[a[1]] + ys[b[1]]) / 2.0, (ts[a[2]] + ts[b[2]]) / 2.0
            fh.write(f"v {x:.17g} {y:.17g} {t:.17g}\n")
        fh.writelines(f"f {a} {b} {c}\n" for a, b, c in faces)
    return path


@pytest.mark.parametrize("name", ["koranyi_ball", "euclidean_ball", "cylinder", "cylinder_hat", "importante", "radial_custom"])
def test_export_levelset_matches_cube_by_cube_march(tmp_path, name):
    K = gallery(name, json.loads(PLUS_PARAMS) if name == "radial_custom" else None)
    # 48, the README's resolution, numbers vertices past 9999
    for resolution in (8, 16, 33) + ((48,) if name == "cylinder_hat" else ()):
        for tau in (0.7, 1.0, 2.5):
            got = export_levelset(K, tau, resolution, tmp_path / "array.obj").read_bytes()
            want = _reference_levelset(K, tau, resolution, tmp_path / "cubes.obj").read_bytes()
            assert got == want, (resolution, tau)
    assert b"\nf " in got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_export_levelset_matches_reference_on_every_cube_code(tmp_path, seed):
    # a random 20^3 field has 6859 cubes, enough for all 256 corner codes;
    # the oracle ignores the grid and returns that field
    field = np.random.default_rng([19, seed]).random((20, 20, 20)) < 0.5
    codes = sum(field[dx : dx + 19, dy : dy + 19, dz : dz + 19].astype(int) << c for c, (dx, dy, dz) in enumerate(_REF_CORNERS))
    assert len(np.unique(codes)) == 256
    K = dataclasses.replace(gallery("koranyi_ball"), kernel=lambda x, y, t: field)
    got = export_levelset(K, 1.0, 20, tmp_path / "array.obj").read_bytes()
    assert got == _reference_levelset(K, 1.0, 20, tmp_path / "cubes.obj").read_bytes()
    assert got.count(b"\nf ") > 6859


def test_cube_table_is_built_on_first_export_once():
    # importing builds nothing; the first export builds the table, later ones reuse it
    code = (
        "import heisconvex.cli as c; assert c._cube_table.cache_info().currsize == 0; "
        "c._march(__import__('numpy').ones((8, 8, 8), bool)); assert c._cube_table.cache_info().currsize == 1"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
    assert cli._cube_table() is cli._cube_table()
    assert not cli._cube_table()[0].flags.writeable


def test_face_tokens_are_the_printf_digits():
    # every digit count from 1 to 7, so each boundary 10**k - 1, 10**k
    count = 10**6 + 11
    records = cli._face_tokens(count).reshape(3, count, -1)
    digits = np.array([len(b"%d" % i) for i in range(count)])
    for column, (head, tail) in enumerate(((b"f ", b""), (b" ", b""), (b" ", b"\n"))):
        rows = records[column]
        # each row holds as many bytes as its token, and the rows laid end
        # to end are the tokens laid end to end, so each row is its token
        assert (np.count_nonzero(rows, axis=1) == len(head) + digits + len(tail)).all()
        assert rows.tobytes().translate(None, b"\0") == b"".join(head + b"%d" % i + tail for i in range(count))


def test_export_levelset_writes_in_blocks(tmp_path, monkeypatch):
    # block boundaries leave no mark: 7-line blocks write what one block writes
    K = gallery("koranyi_ball")
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 10**9)
    whole = export_levelset(K, 1.0, 24, tmp_path / "whole.obj").read_bytes()
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 7)
    assert export_levelset(K, 1.0, 24, tmp_path / "blocks.obj").read_bytes() == whole
    assert whole.count(b"\n") > 100 * 7


def test_bad_params_exit_1(tmp_path, tmp_path_factory, capsys):
    # export takes no --samples
    to_dir = ["--out", str(tmp_path)]
    out = ["--samples", "50"] + to_dir
    for params in ('{"radius": 3}', '{"r": NaN}', '{"r": -1}', '{"r": Infinity}', '{"r": 0}', '{"r": 1e300}'):
        assert main(["axioms", "--set", "koranyi_ball", "--params", params] + out) == 1
        assert "heisconvex: error: koranyi_ball" in capsys.readouterr().err
    assert main(["axioms", "--set", "cylinder", "--params", '{"r": 2}'] + out) == 1
    assert "cylinder does not accept params ['r']" in capsys.readouterr().err
    assert main(["axioms", "--set", "euclidean_ball", "--params", '{"r": 1e300}'] + out) == 1
    assert "heisconvex: error: euclidean_ball params overflow" in capsys.readouterr().err
    # a finite bounding box, but the fourth power of r overflows in radial_necessary
    assert main(["radial", "--set", "euclidean_ball", "--params", '{"r": 1e100}'] + out) == 1
    assert "heisconvex: error: euclidean_ball params overflow" in capsys.readouterr().err
    # so does a polygon's outer radius: at 1.2e77 its fourth power overflows, at 1e77 it does not
    wide = '{"vertices": [[0, -1], [%s, -1], [%s, 1], [0, 1]]}'
    assert main(["radial", "--set", "radial_custom", "--params", wide % ("1.2e77", "1.2e77")] + out) == 1
    assert "heisconvex: error: radial_custom params overflow" in capsys.readouterr().err
    wide_out = ["--out", str(tmp_path_factory.mktemp("wide"))]
    assert main(["radial", "--set", "radial_custom", "--params", wide % ("1e77", "1e77")] + wide_out) == 2
    capsys.readouterr()
    for vertices in ("5", '[[0, 0], [1, 0], [1, "a"]]'):
        assert main(["axioms", "--set", "radial_custom", "--params", f'{{"vertices": {vertices}}}'] + out) == 1
        assert "heisconvex: error: polygon profile vertices must be [r, t] pairs" in capsys.readouterr().err
    # params that are not a JSON object, inside an inline descriptor, empty ones too
    for params in ("[1]", '"ab"', "[]", "0", "false", '""', "null"):
        assert main(["axioms", "--set", f'{{"set": "koranyi_ball", "params": {params}}}'] + out) == 1
        assert 'heisconvex: error: set descriptor JSON must look like {"set"' in capsys.readouterr().err
    # a descriptor key other than set and params: a misspelt params is not ignored
    assert main(["axioms", "--set", '{"set": "koranyi_ball", "parms": {"r": 2}}'] + out) == 1
    assert """error: set descriptor JSON takes only "set" and "params", got ['parms']""" in capsys.readouterr().err
    # curve specs without xi0, with a two-element xi0, and not an object
    specs = tmp_path_factory.mktemp("specs")
    for i, spec in enumerate(({}, {"xi0": [0.1, 0.2], "v": [0.3, 0.4], "tau": 1.5}, [1, 2], {"ch": 3})):
        (specs / f"{i}.json").write_text(json.dumps(spec))
        assert main(["export", "--kind", "curve", "--curve-json", str(specs / f"{i}.json")] + to_dir) == 1
        assert "heisconvex: error: curve spec needs xi0 [x, y, t], v [a, b] and tau" in capsys.readouterr().err
    # curve specs with a NaN or infinite tau, a NaN coordinate or a NaN step
    good = {"xi0": [0.1, 0.2, 0.3], "v": [0.3, 0.4], "tau": 1.5}
    nonfinite = ({"tau": math.nan}, {"tau": math.inf}, {"xi0": [0.1, math.nan, 0.3]}, {"v": [math.nan, 0.4]})
    for i, change in enumerate(nonfinite):
        (specs / f"nonfinite{i}.json").write_text(json.dumps({**good, **change}))
        assert main(["export", "--kind", "curve", "--curve-json", str(specs / f"nonfinite{i}.json")] + to_dir) == 1
        assert "heisconvex: error: curve needs finite xi0, v and tau" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_eps_geom_overflow_names_eps_geom(tmp_path, capsys):
    # no params passed: the overflow comes from (r + eps_geom) ** 4 alone
    assert main(["axioms", "--set", "koranyi_ball", "--eps-geom", "1e78", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "heisconvex: error: koranyi_ball params overflow" in err
    assert "params {}, eps_geom=1e+78" in err
    assert not list(tmp_path.iterdir())


def test_eps_geom_as_large_as_the_set_exits_1(tmp_path, capsys):
    # a slack of 1e76 put every probe near koranyi_ball: axioms read a=b=c=True
    out = ["--set", "koranyi_ball", "--eps-geom", "1e76", "--out", str(tmp_path)]
    for argv in (["ch"], ["axioms", "--samples", "50"], ["cone"], ["export"], ["radial"]):
        assert main(argv + out) == 1, argv
        err = capsys.readouterr().err
        assert "heisconvex: error: eps_geom=1e+76 is not below" in err and "1.00002" in err, err
    assert not list(tmp_path.iterdir())
    # the bound is the set's bbox_scale: just below it builds, at it raises
    for name in ("koranyi_ball", "importante"):
        size = bbox_scale(gallery(name).bbox)
        gallery(name, tol=Tolerances(eps_geom=math.nextafter(size, 0.0)))
        with pytest.raises(ValueError, match=f"eps_geom={size!r} is not below"):
            gallery(name, tol=Tolerances(eps_geom=size))


def test_export_curve_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        export_curve([], tmp_path / "empty.csv")


def _cone_witness(K, tol):
    # the cone command's build and validation at --samples 1000
    return cone_validate(make_cone(K, "heisenberg", tol, n=1000, seed=0), 1000, 0).convexity_witness


def _cone_replay(K, w, tol):
    # cone_validate scans with slack a hundredfold above the bisection noise
    slack = max(100.0 * tol.eps_geom, tol.eps_eq)
    loose = Tolerances(eps_geom=max(tol.eps_geom, slack), eps_eq=slack, max_iter=tol.max_iter)
    return replay_witness(cone_fn_oracle(ConeFunction(K, "heisenberg", tol)), w, loose)


def _segment_replay(K, w, tol):
    step = HVec(w.theta * w.v.a, w.theta * w.v.b)
    return group_mul(w.base, exp_h(step)) == w.escape_point and escapes(K, w.escape_point, tol)


# (argv, report file, witness block, its dataclass, in-process result, replay)
REPORT_CASES = {
    "ch_cylinder": (
        ["ch", "--set", "cylinder"],
        "ch_cylinder.json",
        "ch.witness",
        ChWitness,
        lambda K, tol: falsify_ch(K, 2000, seed=0, tol=tol),
        replay_ch_witness,
    ),
    "ch_tau_one_plus": (
        ["ch", "--set", "radial_custom", "--params", PLUS_PARAMS, "--tau-one"],
        "ch_radial_custom.json",
        "ch.witness",
        ChWitness,
        lambda K, tol: falsify_ch(K, 2000, seed=0, tol=tol, tau_one=True),
        replay_ch_witness,
    ),
    "cone_euclidean_ball": (
        ["cone", "--set", "euclidean_ball", "--samples", "1000", "--compare-closed-form"],
        "cone_euclidean_ball_r_1_heisenberg.json",
        "cone.convexity_witness",
        ConvexityWitness,
        _cone_witness,
        _cone_replay,
    ),
    "axioms_plus": (
        ["axioms", "--set", "radial_custom", "--params", PLUS_PARAMS, "--samples", "800"],
        "axioms_radial_custom.json",
        "axioms.hconvex_witness",
        SegmentEscape,
        lambda K, tol: check_axioms(K, 800, 0, tol).hconvex_witness,
        _segment_replay,
    ),
    # no replay for the radial theorems: the rebuilt report must equal the run
    "radial_importante": (
        ["radial", "--set", "importante", "--samples", "1000"],
        "radial_importante.json",
        "radial",
        RadialNecessityReport,
        lambda K, tol: radial_necessary(K.profile, 1000, 0, tol),
        None,
    ),
}

# every key bench/workloads.py reads from a report of that command
BENCH_KEYS = {
    "ch": [f"ch.witness.{k}" for k in ("xi0", "xi1", "tau", "v", "theta_star", "escape_point", "margin", "pair_index")],
    "cone": ["cone.verdict", "cone.closed_form_max_dev"]
    + [f"cone.convexity_witness.{k}" for k in ("base", "v", "theta", "lhs", "rhs")],
    "radial": ["radial.thm_i_ok", "radial.thm_ii_ok"],
    "axioms": [],
}


def _at(report, dotted):
    return functools.reduce(lambda block, key: block[key], dotted.split("."), report)


def _rebuild(cls, block):
    """cls from its report block alone: JSON lists back to Point3 and HVec."""
    hints = typing.get_type_hints(cls)

    def value(name):
        raw, kinds = block[name], (hints[name], *typing.get_args(hints[name]))
        for kind in (Point3, HVec):
            if raw is not None and kind in kinds:
                return kind(*raw)
        return raw

    return cls(**{f.name: value(f.name) for f in dataclasses.fields(cls)})


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_rebuilds_the_result(tmp_path, case):
    argv, stem, path, cls, compute, replay = REPORT_CASES[case]
    assert main(argv + ["--out", str(tmp_path)]) == 2  # every case reports a witness
    report = read_report(tmp_path / stem)
    for key in [f"tolerances.{k}" for k in ("eps_geom", "eps_eq", "max_iter")] + BENCH_KEYS[argv[0]]:
        _at(report, key)  # KeyError when a key the benchmark reads is missing
    tol = _rebuild(Tolerances, report["tolerances"])
    K = gallery(*parse_descriptor(report["set"]), tol)
    rebuilt = _rebuild(cls, _at(report, path))
    assert rebuilt == compute(K, tol)
    assert replay is None or replay(K, rebuilt, tol)


def test_report_encoder_rejects_foreign_values(tmp_path):
    cfg = cli._build_parser().parse_args(["ch", "--out", str(tmp_path / "out")])
    cfg.tolerances = Tolerances(eps_geom=cfg.eps_geom, eps_eq=cfg.eps_eq)
    # np.int64 is no int to json; a dataclass type is not a dataclass value
    for bad in (object(), {1, 2}, np.int64(3), ChWitness):
        with pytest.raises(TypeError):
            _write_report(cfg, "bad", ch={"witness": bad})
    assert not (tmp_path / "out").exists()
    # a nesting witness, which no gallery cone produces, writes by field name
    family = FamilyReport(True, False, True, NestingWitness(0.5, 2.0, Point3(1.0, 0.0, 0.25)), 10, 0)
    report = read_report(_write_report(cfg, "family", family=family))
    assert report["family"]["nesting_witness"] == {"tau1": 0.5, "tau2": 2.0, "point": [1.0, 0.0, 0.25]}
    assert report["tolerances"] == {"eps_geom": 1e-7, "eps_eq": 1e-9, "max_iter": 60}
