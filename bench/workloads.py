"""Workloads of the heisconvex benchmark: job lists, expected verdicts, checks.

A workload is a list of CLI jobs, each an argument vector for
`heisconvex.cli.main`.  The job list is built from the benchmark seed alone,
and every job's exit code and report are checked against this module's own
table of expected verdicts (deliberately not `cli.GALLERY_EXPECTATIONS`,
which the program may rewrite).  Witnesses are replayed from the report JSON
with freshly built oracles, and meshes are checked against closed-form
gauges written out here.

Import this module only after `checkout.load()`, so that `heisconvex`
resolves to the checkout under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from heisconvex import (
    ChWitness,
    ConeFunction,
    ConvexityWitness,
    HVec,
    Point3,
    Tolerances,
    cone_eval,
    cone_fn_oracle,
    gallery,
    replay_ch_witness,
    replay_witness,
)

# README's plus-shaped radial profile: thin arms, so tau = 1 segments leave it
PLUS_VERTICES = [[0, 2], [0.2, 2], [0.2, 0.2], [2, 0.2], [2, -0.2], [0.2, -0.2], [0.2, -2], [0, -2]]

# Closed-form level functions, written out independently of the program.
CLOSED_FORMS = {
    "koranyi_ball": lambda x, y, t: ((x * x + y * y) ** 2 + t * t) ** 0.25,
    "cylinder_hat": lambda x, y, t: max(math.hypot(x, y), 0.5 * ((x * x + y * y) ** 2 + t * t) ** 0.25),
    "euclidean_ball": lambda x, y, t: math.sqrt(
        0.5 * (x * x + y * y + math.sqrt((x * x + y * y) ** 2 + 4.0 * t * t))
    ),
}
CLOSED_FORM_DEV = 1e-6
# `export --kind mesh` defaults; the mesh jobs do not override them
MESH_TAU, MESH_RESOLUTION = 1.0, 32

# A tail percentile needs ten jobs beyond it, so a pass holds at least 21.
MIN_JOBS = 21
# Share of a job type's seed corpus that a run leaves out (see job_list).
HELD_OUT = 1 / 16


@dataclass(frozen=True)
class JobType:
    """One kind of CLI job and what the benchmark expects it to return.

    `expect` depends on the command: for `ch` whether a witness is due, for
    `cone` the verdict prefix, for `radial` the (theorem i, theorem ii)
    outcomes; `export` expects a mesh and nothing else.
    """

    argv: tuple[str, ...]
    exit_code: int
    expect: object = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def set_name(self) -> str:
        return self.argv[self.argv.index("--set") + 1]

    @property
    def params(self) -> Optional[dict]:
        if "--params" not in self.argv:
            return None
        return json.loads(self.argv[self.argv.index("--params") + 1])

    @property
    def label(self) -> str:
        return f"{self.command}:{self.set_name}"


@dataclass(frozen=True)
class Job:
    kind: JobType
    seed: int

    def argv(self, out: Path) -> list[str]:
        return [*self.kind.argv, "--seed", str(self.seed), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    """A round of job types (a type may appear more than once), repeated.

    `rounds_per_s` sizes a pass so that it takes about the requested seconds
    on a 2-CPU x86 host at the commit that introduced the benchmark.
    """

    name: str
    why: str
    kinds: tuple[JobType, ...]
    rounds_per_s: float

    def sets(self) -> list[tuple[str, Optional[dict]]]:
        seen: dict[str, Optional[dict]] = {}
        for kind in self.kinds:
            seen.setdefault(kind.set_name, kind.params)
        return list(seen.items())


def _ch(set_name: str, witness: bool, *extra: str) -> JobType:
    return JobType(("ch", "--set", set_name, *extra), 2 if witness else 0, witness)


_PLUS = ("--params", json.dumps({"vertices": PLUS_VERTICES}))
_CYLINDER = _ch("cylinder", True, "--budget", "100000")
_EUCLIDEAN = _ch("euclidean_ball", True, "--budget", "100000")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ch_clean",
            "full 2000-pair budgets on clean sets: per-pair sampling, solve_tau, curves, escapes",
            (_ch("koranyi_ball", False), _ch("cylinder_hat", False)),
            rounds_per_s=2.0,
        ),
        Workload(
            "witness_hunt",
            "hunts that stop at the first witness, so fixed per-call cost and pairs-to-witness count",
            # the quick hunts twice a round, so the median job is a euclidean_ball
            # hunt and not the boundary between two job types
            (_CYLINDER, _EUCLIDEAN) * 2
            + (
                _ch("importante", True, "--budget", "100000"),
                _ch("radial_custom", True, "--tau-one", "--budget", "100000", *_PLUS),
            ),
            rounds_per_s=1.6,
        ),
        Workload(
            "gauge",
            "cone builds, radial checks and a mesh export: dilation-level bisection and dense membership",
            (
                JobType(("radial", "--set", "koranyi_ball"), 0, (True, True)),
                JobType(("cone", "--set", "koranyi_ball", "--compare-closed-form"), 0, "candidate"),
                JobType(("cone", "--set", "cylinder_hat", "--compare-closed-form"), 0, "candidate"),
                JobType(("cone", "--set", "euclidean_ball"), 2, "horizontal convexity witness"),
                JobType(("radial", "--set", "importante"), 2, (False, False)),
            )
            # the mesh export twice a round, so the median job is an export and
            # not the boundary between two job types
            + (JobType(("export", "--set", "koranyi_ball", "--kind", "mesh"), 0),) * 2,
            rounds_per_s=0.35,
        ),
    )
}


def job_list(workload: Workload, seed: int, seconds: float) -> list[Job]:
    """The seeded job list of one pass: rounds of the workload's job types.

    Each job type draws its job seeds, without replacement, from a corpus of
    job seeds a sixteenth larger than the draws.  Time to a witness is heavy
    tailed (the plus-shape and importante hunts vary about 1:1 in standard
    deviation to mean), so with fully fresh seeds the tail time of ten runs
    spread by about 0.27 of its median from the inputs alone, more than any
    usable regression bound; holding out a seeded sixteenth keeps that near
    0.04 and still gives every seed its own job list.
    """
    rounds = max(math.ceil(MIN_JOBS / len(workload.kinds)), round(seconds * workload.rounds_per_s))
    rng = random.Random(seed)
    seeds = {}
    for kind in dict.fromkeys(workload.kinds):
        draws = rounds * workload.kinds.count(kind)
        seeds[kind] = iter(rng.sample(range(draws + math.ceil(draws * HELD_OUT)), draws))
    return [Job(kind, next(seeds[kind])) for _ in range(rounds) for kind in workload.kinds]


# ---------------------------------------------------------------------------
# checks


def _tolerances(report: dict) -> Tolerances:
    tol = report["tolerances"]
    return Tolerances(eps_geom=tol["eps_geom"], eps_eq=tol["eps_eq"], max_iter=tol["max_iter"])


def _only(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} in the job output, found {len(found)}")
    return found[0]


def check(job: Job, code: Optional[int], out: Path) -> Optional[str]:
    """Why the job's outcome is wrong, or None when it matches expectations."""
    kind = job.kind
    if code != kind.exit_code:
        return f"exit code {code}, expected {kind.exit_code}"
    try:
        if kind.command == "export":
            return _check_mesh(kind, _only(out, "*.obj"))
        report = json.loads(_only(out, "*.json").read_text())
        return {"ch": _check_ch, "cone": _check_cone, "radial": _check_radial}[kind.command](kind, report)
    except (OSError, ValueError, KeyError, TypeError, RuntimeError) as exc:
        return f"unreadable output: {exc!r}"


def _point(xs: list) -> Point3:
    return Point3(*map(float, xs))


def _check_ch(kind: JobType, report: dict) -> Optional[str]:
    w = report["ch"]["witness"]
    if (w is not None) != kind.expect:
        return f"witness {'found' if w else 'missing'}, expected {'one' if kind.expect else 'none'}"
    if w is None:
        return None
    witness = ChWitness(
        _point(w["xi0"]),
        _point(w["xi1"]),
        float(w["tau"]),
        HVec(*map(float, w["v"])),
        float(w["theta_star"]),
        _point(w["escape_point"]),
        float(w["margin"]),
        int(w["pair_index"]),
    )
    tol = _tolerances(report)
    fresh = gallery(kind.set_name, kind.params, tol)
    if not replay_ch_witness(fresh, witness, tol):
        return "ch witness does not replay"
    return None


def _check_cone(kind: JobType, report: dict) -> Optional[str]:
    cone = report["cone"]
    if not cone["verdict"].startswith(kind.expect):
        return f"cone verdict {cone['verdict']!r}, expected {kind.expect!r}"
    if "--compare-closed-form" in kind.argv and not cone["closed_form_max_dev"] <= CLOSED_FORM_DEV:
        return f"closed-form deviation {cone['closed_form_max_dev']:.3g} above {CLOSED_FORM_DEV:g}"
    w = cone["convexity_witness"]
    if w is None:
        return "convexity witness missing" if kind.expect.endswith("witness") else None
    tol = _tolerances(report)
    # cone_validate scans with slack a hundredfold above the bisection noise
    slack = max(100.0 * tol.eps_geom, tol.eps_eq)
    loose = Tolerances(eps_geom=max(tol.eps_geom, slack), eps_eq=slack, max_iter=tol.max_iter)
    C = ConeFunction(gallery(kind.set_name, kind.params, tol), "heisenberg", tol)
    witness = ConvexityWitness(
        _point(w["base"]), HVec(*map(float, w["v"])), float(w["theta"]), float(w["lhs"]), float(w["rhs"])
    )
    if not replay_witness(cone_fn_oracle(C), witness, loose):
        return "convexity witness does not replay"
    closed = CLOSED_FORMS[kind.set_name]
    p, v, th = witness.base, witness.v, witness.theta
    probes = [p, _mul(p, v, 1.0), _mul(p, v, th)]
    dev = max(abs(cone_eval(C, q) - closed(*q)) for q in probes)
    if dev > CLOSED_FORM_DEV:
        return f"witness points deviate {dev:.3g} from the closed form"
    return None


def _mul(p: Point3, v: HVec, s: float) -> Point3:
    # p o exp_h(s v), written out so the check does not reuse the program's group law
    a, b = s * v.a, s * v.b
    return Point3(p.x + a, p.y + b, p.t + 2.0 * (a * p.y - p.x * b))


def _check_radial(kind: JobType, report: dict) -> Optional[str]:
    got = (report["radial"]["thm_i_ok"], report["radial"]["thm_ii_ok"])
    if got != tuple(kind.expect):
        return f"radial theorems {got}, expected {tuple(kind.expect)}"
    return None


def _check_mesh(kind: JobType, path: Path) -> Optional[str]:
    """Every vertex must sit on the tau level of the closed-form gauge.

    Vertices are midpoints of grid edges whose ends differ in membership,
    so each lies within half a cell diagonal of the boundary; the gauges
    here change by at most 1.12 per unit length near their unit level, so
    a full cell diagonal bounds the gauge error.
    """
    tau, res = MESH_TAU, MESH_RESOLUTION
    bbox = gallery(kind.set_name, kind.params).bbox
    scales = (tau, tau, tau * tau)
    diag = math.sqrt(sum((s * 1.05 * (hi - lo) / (res - 1)) ** 2 for s, (lo, hi) in zip(scales, bbox)))
    verts, faces = [], 0
    with path.open() as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(tuple(map(float, line.split()[1:])))
            elif line.startswith("f "):
                faces += 1
                if not all(1 <= int(i) <= len(verts) for i in line.split()[1:]):
                    return f"face {line.strip()!r} references a missing vertex"
    if not verts or not faces:
        return "empty mesh"
    gauge = CLOSED_FORMS[kind.set_name]
    worst = max(abs(gauge(*v) - tau) for v in verts)
    if worst > diag:
        return f"mesh vertex off the level set by {worst:.3g} (cell diagonal {diag:.3g})"
    return None
