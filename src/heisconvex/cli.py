"""Command-line front end.

Subcommands run the library pipelines on a named or JSON-described set
and write JSON reports (plus CSV curves and OBJ meshes) to an output
directory.  A report block is the library's result dataclass written
field by field, so a witness rebuilds from its JSON alone.  Exit codes: 0 checks passed / no witness, 2 witness found or
an expected verdict contradicted, 1 usage or precondition error.

Set descriptors are JSON objects {"set": <name>, "params": {...}}
accepted inline, as a file path, or as a bare gallery name.  The
radial_custom set takes params {"vertices": [[r, t], ...]}, a closed
polygon in the half-plane r >= 0 with even-odd membership.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .chcheck import ch_curve, envelope_check, falsify_ch, radial_necessary
from .cones import KINDS, make_cone, cone_validate, compare_closed_form
from .core import DEFAULT_TOL, HVec, Point3, Tolerances, scale
from .sets import GALLERY, GALLERY_NAMES, SetOracle, check_axioms, gallery

MESH_KINDS = ("mesh", "curve")


def parse_descriptor(descriptor: str) -> tuple[str, dict]:
    """Resolve a bare name, inline JSON, or JSON file path to (name, params);
    a gallery name wins over a file of the same name."""
    text = descriptor.strip()
    # gallery names and inline JSON first: is_file() on a name over 255 bytes raises OSError
    if text not in GALLERY and not text.startswith("{") and (text.endswith(".json") or Path(text).is_file()):
        text = Path(text).read_text().strip()
    if text.startswith("{"):
        obj = json.loads(text)
        params = obj.get("params", {}) if isinstance(obj, dict) else None
        if not (isinstance(params, dict) and "set" in obj):
            raise ValueError('set descriptor JSON must look like {"set": name, "params": {...}}')
        unknown = sorted(set(obj) - {"set", "params"})
        if unknown:
            raise ValueError(f'set descriptor JSON takes only "set" and "params", got {unknown}')
        return str(obj["set"]), dict(params)
    return text, {}


def _resolve_set(cfg: argparse.Namespace) -> SetOracle:
    name, params = parse_descriptor(cfg.set_descriptor)
    return gallery(name, params, cfg.tolerances)


def _encode(obj) -> dict:
    """JSON encoding of the library's result dataclasses, field by field.

    Point3 and HVec are NamedTuples, which json writes as lists; any
    other value json cannot write is a TypeError.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"cannot write {type(obj).__name__} to a report")


def _write_report(cfg: argparse.Namespace, stem: str, **blocks) -> Path:
    """Write the run header plus blocks as stem.json.

    Raises:
        TypeError: a value is neither JSON-native nor a dataclass; nothing is written.
    """
    report = {
        "version": __version__,
        "command": cfg.command,
        "set": cfg.set_descriptor,
        "seed": cfg.seed,
        "budget": cfg.budget,
        "samples": cfg.samples,
        "tolerances": cfg.tolerances,
        **blocks,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=_encode) + "\n"
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / f"{stem}.json"
    out.write_text(text)
    return out


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")


# ---------------------------------------------------------------------------
# exports


# six tetrahedra around the 0-7 cube diagonal, each corner numbered by its code 4 dx + 2 dy + dz
_TETS = ((0, 5, 4, 7), (0, 4, 6, 7), (0, 6, 2, 7), (0, 2, 3, 7), (0, 3, 1, 7), (0, 1, 5, 7))
# OBJ lines formatted and written at a time
_WRITE_BLOCK = 4096


@functools.cache
def _cube_table() -> tuple[np.ndarray, np.ndarray]:
    """Marching-tetrahedra table of a cube, for the 256 codes whose bit c
    says whether the corner of code c is inside, as (key, ptr): a code's
    triangles, tet by tet in _TETS order, are the triples of its run
    key[ptr[code]:ptr[code + 1]], each corner keyed by its crossing edge as
    7 * (lower end a & b) + (direction a ^ b) - 1 for the edge's corners a
    and b (a Kuhn edge joins corners ordered coordinate by coordinate).
    Built on first use, once per process, and read-only: it does not
    depend on the grid."""
    key, ptr = [], [0]
    for code in range(256):
        for tet in _TETS:
            ins = [c for c in tet if code >> c & 1]
            outs = [c for c in tet if not code >> c & 1]
            if not ins or not outs:
                continue
            # a lone corner (in or out) gives one triangle, a 2-2 split two on the four crossing edges
            if len(ins) == 1 or len(outs) == 1:
                lone, others = (ins[0], outs) if len(ins) == 1 else (outs[0], ins)
                edges, faces = [(lone, o) for o in others], [(0, 1, 2)]
            else:
                (p, q), (r, s) = ins, outs
                edges, faces = [(p, r), (p, s), (q, r), (q, s)], [(0, 1, 2), (1, 3, 2)]
            key += [7 * (a & b) + (a ^ b) - 1 for a, b in (edges[e] for face in faces for e in face)]
        ptr.append(len(key))
    table = np.array(key), np.array(ptr)
    for array in table:
        array.setflags(write=False)
    return table


def _face_tokens(count: int) -> np.ndarray:
    """Row c * count + i is b"f %d", b" %d" or b" %d\\n" (c = 0, 1, 2) % i as a
    uint8 record, NUL-padded to one width, for i < count."""
    width = len(b"%d" % (count - 1))
    table = np.zeros((3, count, width + 3), dtype=np.uint8)
    for d in range(width):
        # the digit of i at this place, (i // place) % 10, has period 10 place
        place = 10 ** (width - 1 - d)
        digit = np.tile(np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), place), count // (10 * place) + 1)
        # a number is written from its leading digit on, and 0 as "0"
        table[:, :, 2 + d] = digit[:count] * (np.maximum(np.arange(count), 1) >= place)
    # columns 0, 1 and 2 start "f ", " " and " ", and column 2 ends "\n"
    table[:, :, [0, 1, -1]] = np.frombuffer(b"f \0\0 \0\0 \n", dtype=np.uint8).reshape(3, 1, 3)
    return table.reshape(3 * count, -1)


def _march(field_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marching tetrahedra on a boolean n^3 grid, in march order.

    Returns (verts, faces): the crossing edges, one per vertex in the order
    a cube-by-cube march first meets them, as 7 * (flat grid index of the
    lower end) + direction - 1 (see _cube_table); and the triangles as
    triples of vertex numbers, counted from 1.  A tetrahedron's triangle
    corners meet its crossing edges first in the order it lists the edges
    ((0, 1, 2), and (0, 1, 2), (1, 3, 2) on a 2-2 split), so the vertices
    are numbered by their first triangle corner.
    """
    n = field_.shape[0]
    # bit c = 4 dx + 2 dy + dz of a cube's code says whether its corner at
    # (dx, dy, dz) is inside: the dz bit, then dy, then dx, one axis at a time
    code = field_[:, :, :-1] | np.left_shift(field_[:, :, 1:], 1, dtype=np.uint8)
    code = code[:, :-1] | code[:, 1:] << 2
    code = code[:-1] | code[1:] << 4
    # mixed cubes in (i, j, k) order, by their corner 0 grid point
    i, j, k = np.nonzero((code != 0) & (code != 255))
    code = code[i, j, k].astype(np.intp)
    key, ptr = _cube_table()
    # the grid enters only here: the flat offset of each corner code's corner
    corner = np.array([((c >> 2) * n + (c >> 1 & 1)) * n + (c & 1) for c in range(8)])
    # the runs ptr[c]:ptr[c + 1] of the cubes' codes, laid end to end
    count = ptr[code + 1] - ptr[code]
    run = np.arange(count.sum()) + np.repeat(ptr[code] - (np.cumsum(count) - count), count)
    # each triangle corner's crossing edge, in march order
    edge = np.repeat(7 * ((i * n + j) * n + k), count) + (7 * corner[key // 7] + key % 7)[run]
    # an edge's vertex is new where the edge first comes up: numbered 1, 2, ...
    pos = np.arange(len(edge), dtype=np.int32)
    first = np.empty(7 * n**3, dtype=np.int32)
    first[edge] = len(edge)
    np.minimum.at(first, edge, pos)
    first = first[edge]
    new = first == pos
    return edge[new], np.cumsum(new)[first].reshape(-1, 3)


def export_levelset(K: SetOracle, tau: float, resolution: int, path: Path) -> Path:
    """Triangle mesh of the boundary of the tau-dilated set, OBJ text.

    Marches tetrahedra (Doi and Koide 1991) over a resolution^3 grid of the
    dilated bounding box; crossing vertices sit at edge midpoints of the
    binary membership field, so they are within one cell diagonal of the
    true boundary.  Each cube gets an 8-bit code of its inside corners and
    one table lookup per code gives its crossing edges and triangles; the
    file is byte for byte what a cube-by-cube march writes: cubes in (i, j,
    k) order, the six tetrahedra in _TETS order, each vertex numbered when
    its edge first comes up (found without a sort, by the least march
    position of each edge).  The cube table is built once per process.
    Lines are written as bytes in blocks: a vertex line joins three tokens
    of a table of formatted coordinates, and a face line is three records
    of a digit table of the vertex numbers, less their NUL padding.

    Raises:
        ValueError: non-compact set, resolution < 8, tau not positive and
            finite, or a tau whose dilated grid or 1/tau**2 overflows.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if not K.is_compact:
        raise ValueError(f"{K.label} is not compact: level-set mesh is unbounded")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    n = resolution
    # the padded bounding box, dilated: x and y by tau, t by tau * tau
    xs, ys, ts = (
        np.array([s * 1.05 * (lo + (hi - lo) * i / (n - 1)) for i in range(n)])
        for s, (lo, hi) in zip((tau, tau, tau * tau), K.bbox)
    )

    inv = 1.0 / tau
    if not (math.isfinite(inv * inv) and np.isfinite(np.concatenate([xs, ys, ts])).all()):
        raise ValueError(f"tau={tau!r} overflows the dilated grid or 1/tau**2")
    field_ = K.contains_many(*scale(inv, *np.meshgrid(xs, ys, ts, indexing="ij")))

    verts, faces = _march(field_)
    # a vertex joins its edge's lower end to lower end + step, so on each
    # axis its coordinate (axis[lo] + axis[lo + step]) / 2 is entry
    # 2 lo + step of that axis' 2n - 1 grid points and midpoints; the three
    # axes' tables are formatted once, one after the other
    lo, step = np.unravel_index(verts // 7, field_.shape), verts % 7 + 1
    m = 2 * n - 1
    slots = np.stack([2 * lo[d] + (step >> (2 - d) & 1) + d * m for d in range(3)], axis=1)
    below, above = np.arange(m) // 2, np.arange(1, m + 1) // 2
    coords = [((axis[below] + axis[above]) / 2.0).tolist() for axis in (xs, ys, ts)]
    # a vertex line is the tokens of its three slots, joined
    tokens = np.array([fmt % v for fmt, col in zip((b"v %.17g ", b"%.17g ", b"%.17g\n"), coords) for v in col], dtype=object)
    # a face line is the records of its three vertex numbers, less their NULs
    records, column = _face_tokens(len(verts) + 1), np.arange(3) * (len(verts) + 1)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(f"# level-set mesh: {K.label}, tau={tau:g}, resolution={resolution}\n".encode())
        for s in range(0, len(slots), _WRITE_BLOCK):
            fh.write(b"".join(tokens[slots[s : s + _WRITE_BLOCK]].ravel().tolist()))
        for s in range(0, len(faces), _WRITE_BLOCK):
            fh.write(np.take(records, faces[s : s + _WRITE_BLOCK] + column, axis=0).tobytes().translate(None, b"\0"))
    return path


def export_curve(curve: list[Point3], path: Path) -> Path:
    """CSV of a sampled curve: header theta,x,y,t, 17 significant digits."""
    if not curve:
        raise ValueError("cannot export an empty curve")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    m = len(curve)
    rows = np.column_stack([np.arange(m) / max(m - 1, 1), np.array(curve, dtype=float)])
    with path.open("wb") as fh:
        fh.write(b"theta,x,y,t\n")
        for block in np.array_split(rows, range(_WRITE_BLOCK, m, _WRITE_BLOCK)):
            fh.write((b"%.17g,%.17g,%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))
    return path


# ---------------------------------------------------------------------------
# commands


def _cmd_axioms(cfg: argparse.Namespace) -> int:
    K = _resolve_set(cfg)
    rep = check_axioms(K, cfg.samples, cfg.seed, cfg.tolerances)
    ok = rep.a_holds and rep.b_holds and rep.c_holds
    out = _write_report(cfg, f"axioms_{_slug(K.label)}", axioms={**_encode(rep), "c_holds": rep.c_holds})
    print(f"axioms {K.label}: a={rep.a_holds} b={rep.b_holds} c={rep.c_holds} -> {out}")
    return 0 if ok else 2


def _cmd_cone(cfg: argparse.Namespace) -> int:
    K = _resolve_set(cfg)
    C = make_cone(K, cfg.kind, cfg.tolerances, n=min(cfg.samples, 1000), seed=cfg.seed)
    validation = cone_validate(C, cfg.samples, cfg.seed)
    cone = {"kind": C.kind, **_encode(validation)}
    if cfg.compare_closed_form:
        cone["closed_form_max_dev"] = compare_closed_form(C, cfg.samples, cfg.seed)
    out = _write_report(cfg, f"cone_{_slug(K.label)}_{C.kind}", cone=cone)
    print(f"cone {K.label} [{C.kind}]: {validation.verdict} -> {out}")
    return 0 if validation.verdict.startswith("candidate") else 2


def _cmd_ch(cfg: argparse.Namespace) -> int:
    K = _resolve_set(cfg)
    w = falsify_ch(K, cfg.budget, seed=cfg.seed, tol=cfg.tolerances, tau_one=cfg.tau_one)
    out = _write_report(cfg, f"ch_{_slug(K.label)}", ch={"tau_one": cfg.tau_one, "witness": w})
    if w is None:
        print(f"ch {K.label}: no witness in {cfg.budget} pairs -> {out}")
        return 0
    curve_path = cfg.output_dir / f"ch_curve_{_slug(K.label)}.csv"
    export_curve(ch_curve(w.xi0, w.v, w.tau, 101, cfg.tolerances), curve_path)
    print(
        f"ch {K.label}: witness at pair {w.pair_index} "
        f"(tau={w.tau:.6g}, theta={w.theta_star:.4g}, margin={w.margin:.3g}) "
        f"-> {out}, {curve_path}"
    )
    return 2


def _anchor_points(K: SetOracle, tol: Tolerances = DEFAULT_TOL, count: int = 3) -> list[Point3]:
    """Deterministic envelope anchors: in-set profile points, |t| and r large,
    both above eps_eq, as envelope_check requires."""
    P = K.profile
    assert P is not None
    t_lo, t_hi = P.t_range
    found: list[Point3] = []
    for frac_t in (0.8, 0.5, 0.25, -0.8, -0.5, -0.25):
        t = (t_hi if frac_t > 0 else -t_lo) * frac_t
        if abs(t) <= tol.eps_eq:
            continue
        for frac_r in (0.8, 0.6, 0.4, 0.2):
            r = P.r_max * frac_r
            if r > tol.eps_eq and P.contains2d(r, t):
                found.append(Point3(r, 0.0, t))
                break
        if len(found) >= count:
            break
    return found


def _cmd_radial(cfg: argparse.Namespace) -> int:
    K = _resolve_set(cfg)
    if K.profile is None:
        raise ValueError(f"{K.label} is not radial: the necessary conditions do not apply")
    rep = radial_necessary(K.profile, cfg.samples, cfg.seed, cfg.tolerances)
    n_env = max(64, cfg.samples // 8)
    anchors = _anchor_points(K, cfg.tolerances)
    checks = envelope_check(K, anchors, n_env, cfg.tolerances)
    envelope_ok = all(env.ok() for env in checks)
    envelopes = [{"anchor": anchor, **_encode(env)} for anchor, env in zip(anchors, checks)]
    out = _write_report(cfg, f"radial_{_slug(K.label)}", radial={**_encode(rep), "envelopes": envelopes})
    ok = rep.thm_i_ok and rep.thm_ii_ok and envelope_ok
    envelope_note = f"envelopes_ok={envelope_ok}" if checks else "envelopes: none run (no anchor)"
    print(f"radial {K.label}: thm_i={rep.thm_i_ok} thm_ii={rep.thm_ii_ok} {envelope_note} -> {out}")
    return 0 if ok else 2


def _cmd_gallery(cfg: argparse.Namespace) -> int:
    all_match = True
    blocks = {}
    # a registry entry without expected verdicts is not in the suite
    suite = {name: entry.expect for name, entry in GALLERY.items() if entry.expect is not None}
    for name, expect in suite.items():
        K = gallery(name, None, cfg.tolerances)
        block: dict = {}
        mismatches: list[str] = []
        # expected witnesses the budget did not find: the falsifier is a
        # semidecision, so these neither confirm nor contradict the set
        inconclusive: list[str] = []

        ax = check_axioms(K, cfg.samples, cfg.seed, cfg.tolerances)
        got_ax = (ax.a_holds, ax.b_holds, ax.c_holds)
        block["axioms"] = list(got_ax)
        if got_ax != expect.axioms:
            mismatches.append(f"axioms: expected {expect.axioms}, got {got_ax}")

        w = falsify_ch(K, cfg.budget, seed=cfg.seed, tol=cfg.tolerances)
        block["ch_witness"] = w
        if w is not None and not expect.ch_witness:
            mismatches.append("ch: expected witness=False, got True")
        elif w is None and expect.ch_witness:
            inconclusive.append(f"ch: no witness in {cfg.budget} pairs")

        if K.profile is not None:
            rad = radial_necessary(K.profile, cfg.samples, cfg.seed, cfg.tolerances)
            block["radial"] = [rad.thm_i_ok, rad.thm_ii_ok]
            block["radial_witness"] = rad.thm_ii_witness or rad.thm_i_witness
            if (rad.thm_i_ok, rad.thm_ii_ok) != expect.radial:
                mismatches.append(f"radial: expected {expect.radial}, got {(rad.thm_i_ok, rad.thm_ii_ok)}")

        if expect.cone_prefix is not None:
            C = make_cone(K, "heisenberg", cfg.tolerances, seed=cfg.seed)
            verdict = cone_validate(C, min(cfg.samples, 800), cfg.seed).verdict
            block["cone_verdict"] = verdict
            if not verdict.startswith(expect.cone_prefix):
                mismatches.append(f"cone: expected prefix {expect.cone_prefix!r}, got {verdict!r}")

        block["mismatches"] = mismatches
        block["inconclusive"] = inconclusive
        blocks[name] = block
        all_match = all_match and not mismatches
        status = "MISMATCH" if mismatches else "inconclusive" if inconclusive else "ok"
        notes = mismatches + inconclusive
        print(f"gallery {name}: {status}" + (f" ({'; '.join(notes)})" if notes else ""))

    out = _write_report(cfg, "gallery", gallery=blocks, all_match=all_match)
    inconclusive_sets = sum(bool(block["inconclusive"]) for block in blocks.values())
    if not all_match:
        summary = "MISMATCHES found"
    elif inconclusive_sets:
        summary = f"no mismatches, {inconclusive_sets} inconclusive"
    else:
        summary = "all expectations matched"
    print(f"gallery: {summary} -> {out}")
    return 0 if all_match else 2


def _cmd_export(cfg: argparse.Namespace) -> int:
    if cfg.kind == "mesh":
        K = _resolve_set(cfg)
        out = cfg.output_dir / f"levelset_{_slug(K.label)}_tau{cfg.tau:g}.obj"
        export_levelset(K, cfg.tau, cfg.resolution, out)
        print(f"export mesh {K.label}: tau={cfg.tau:g} res={cfg.resolution} -> {out}")
        return 0
    if not cfg.curve_json:
        raise ValueError("export --kind curve requires --curve-json")
    obj = json.loads(Path(cfg.curve_json).read_text())
    try:
        # the witness of a ch report, a bare witness, or the spec itself
        spec = (obj.get("ch") or {}).get("witness") or obj.get("witness") or obj
        xi0 = Point3(*map(float, spec["xi0"]))
        v = HVec(*map(float, spec["v"]))
        tau = float(spec["tau"])
        m = int(spec.get("m", 101))
    except (KeyError, TypeError, AttributeError):
        raise ValueError("curve spec needs xi0 [x, y, t], v [a, b] and tau") from None
    out = cfg.output_dir / "curve.csv"
    export_curve(ch_curve(xi0, v, tau, m, cfg.tolerances), out)
    print(f"export curve: tau={tau:g}, {m} samples -> {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit code 2 is reserved for found witnesses
    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _CommandParser(_Parser):
    # a subcommand refuses an option it does not take under its own usage line
    def parse_known_args(self, args=None, namespace=None):  # noqa: D102
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = _Parser(
        prog="heisconvex",
        description="Convexity verification toolkit for the Heisenberg group.",
    )
    parser.add_argument("--version", action="version", version=f"heisconvex {__version__}")
    # every report header records the set, seed, budget and samples, so a
    # command that takes none of them still carries these defaults; the
    # subcommand options leave them unset unless given (SUPPRESS)
    parser.set_defaults(set_descriptor="koranyi_ball", params="", seed=0, budget=2000, samples=2000)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(
        name: str, handler: Callable[[argparse.Namespace], int], summary: str, *takes: str
    ) -> argparse.ArgumentParser:
        # every command takes --seed, the tolerances and --out; takes names
        # which of --set (with --params), --budget and --samples it reads
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if "set" in takes:
            p.add_argument(
                "--set",
                dest="set_descriptor",
                metavar="SET",
                default=argparse.SUPPRESS,
                help=f"gallery name, inline JSON, or JSON file (names: {', '.join(GALLERY_NAMES)})",
            )
            p.add_argument("--params", default=argparse.SUPPRESS, help="JSON object merged into the set params")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        if "budget" in takes:
            p.add_argument("--budget", type=int, default=argparse.SUPPRESS, help="pair budget for falsifiers")
        if "samples" in takes:
            p.add_argument("--samples", type=int, default=argparse.SUPPRESS, help="sample count for checks")
        p.add_argument("--eps-geom", type=float, default=DEFAULT_TOL.eps_geom)
        p.add_argument("--eps-eq", type=float, default=DEFAULT_TOL.eps_eq)
        p.add_argument(
            "--out", dest="output_dir", metavar="OUT", type=Path, default=".", help="output directory for reports"
        )
        return p

    command("axioms", _cmd_axioms, "check assumptions a/b/c on a set", "set", "samples")

    cone = command("cone", _cmd_cone, "build and validate the cone function of a set", "set", "samples")
    cone.add_argument("--kind", choices=KINDS, default="heisenberg")
    cone.add_argument(
        "--compare-closed-form",
        action="store_true",
        help="also compare against the gallery closed form (error if none)",
    )

    ch = command("ch", _cmd_ch, "hunt for a dilation-family convexity violation", "set", "budget")
    ch.add_argument("--tau-one", action="store_true", help="restrict to tau=1 (horizontal segments)")

    command("radial", _cmd_radial, "radial necessary conditions and envelope sweep", "set", "samples")

    command("gallery", _cmd_gallery, "run the reference suite against expected verdicts", "budget", "samples")

    exp = command("export", _cmd_export, "export a level-set mesh or an interpolation curve", "set")
    exp.add_argument("--kind", choices=MESH_KINDS, default="mesh")
    exp.add_argument("--tau", type=float, default=1.0, help="dilation level of the exported set")
    exp.add_argument("--resolution", type=int, default=32, help="grid resolution (>= 8)")
    exp.add_argument("--curve-json", default="", help="witness JSON (from ch) or curve spec")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    cfg = _build_parser().parse_args(argv)
    try:
        cfg.tolerances = Tolerances(eps_geom=cfg.eps_geom, eps_eq=cfg.eps_eq)
        params = json.loads(cfg.params or "{}")
        if not isinstance(params, dict):
            raise ValueError("--params must be a JSON object")
        if params:
            name, base = parse_descriptor(cfg.set_descriptor)
            base.update(params)
            cfg.set_descriptor = json.dumps({"set": name, "params": base})
        if cfg.budget < 1:
            raise ValueError("budget must be >= 1")
        if cfg.samples < 1:
            raise ValueError("samples must be >= 1")
        if cfg.seed < 0:
            raise ValueError("--seed must be >= 0")
        return cfg.handler(cfg)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"heisconvex: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
