"""Per-layer tracing of heisconvex, installed from outside the program.

`Tracer.install()` replaces every module binding of the functions below with
a wrapper (so `chcheck.dilation_level` and `cones.dilation_level` are caught
as well as `sets.dilation_level`), and wraps the `contains` field of every
oracle that `gallery` or `box_oracle` builds.  `uninstall()` puts the
originals back.

- Leaf calls, made once per point (`core.*`, oracle membership, `solve_tau`,
  `escapes`, `cone_eval`), get aggregated call counts and time only.
- Coarser calls get a span each: name, parent span, start, end, and the
  membership and escape counters at both ends.  Spans stay in memory and
  are written out by `save_spans`; self time is a span's duration minus the
  durations of its children.
- Inputs to the leaves and to `dilation_level` are sampled evenly over the
  traced pass; `microbench` replays them through the original functions to
  give the `*.ns` metrics from the workload's own points.

Which end-to-end metric each layer metric should move:

- `core.*`: `jobs_per_s` on ch_clean; little effect elsewhere.
- `sets.contains.*`: ch_clean (through escapes) and gauge (bisection, export grid).
- `sets.sample_in_set.*`: ch_clean `jobs_per_s`; witness_hunt `verdict_s_tail`.
- `sets.boundary_sample.*`: witness_hunt `verdict_s_p50`.
- `sets.dilation_level.*`: gauge `jobs_per_s`; not used by ch_clean.
- `chcheck.solve_tau.*`, `chcheck.falsify_ch.*`: ch_clean; pairs-to-witness: witness_hunt.
- `convexity.*`, `cones.*`, `chcheck.radial_necessary`, `chcheck.envelope_check`,
  `cli.export_levelset`: gauge.

Import this module only after `checkout.load()`.
"""

from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

import heisconvex
from heisconvex import chcheck, cli, cones, convexity, core, sets

MODULES: tuple[ModuleType, ...] = (heisconvex, core, sets, convexity, cones, chcheck, cli)

# (module, function, keep sampled inputs for a replay microbenchmark)
LEAVES = (
    (core, "group_mul", True),
    (core, "dilate", True),
    (core, "norm", True),
    (sets, "escapes", True),
    (chcheck, "solve_tau", True),
    (cones, "cone_eval", False),
)
SPANS = (
    (cli, "main"),
    (cli, "export_levelset"),
    (sets, "sample_in_set"),
    (sets, "boundary_sample"),
    (sets, "dilation_level"),
    (sets, "scan_horizontal_segments"),
    (sets, "check_axioms"),
    (chcheck, "falsify_ch"),
    (chcheck, "radial_necessary"),
    (chcheck, "envelope_check"),
    (convexity, "check_hconvex_fn"),
    (convexity, "check_homogeneous"),
    (cones, "make_cone"),
    (cones, "cone_validate"),
    (cones, "family_axioms_check"),
    (cones, "compare_closed_form"),
)
ORACLE_BUILDERS = ((sets, "gallery"), (sets, "box_oracle"))
GALLERY_SETS = ("koranyi_ball", "euclidean_ball", "cylinder", "cylinder_hat", "importante", "radial_custom")


def _outcome(key: str, args: tuple, kwargs: dict, result) -> int:
    """The number a span records about its own result."""
    if key in ("sets.sample_in_set", "sets.boundary_sample"):
        return len(result)
    if key == "chcheck.falsify_ch":
        return 0 if result is None else result.pair_index + 1
    if key == "cli.export_levelset":
        resolution = args[2] if len(args) > 2 else kwargs["resolution"]
        return resolution ** 3
    return 0


def _replays(fn: Callable, item: tuple) -> bool:
    """Run one sampled call untimed; inputs that raise are not replayed."""
    args, kwargs = item
    try:
        fn(*args, **kwargs)
    except (ValueError, RuntimeError):
        return False
    return True


def _key(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


PER_LAYER: dict[str, str] = {
    **{f"core.{f}.{m}": u for f in ("group_mul", "dilate", "norm") for m, u in (("calls", "count"), ("ns", "ns"))},
    "sets.contains.calls": "count",
    **{f"sets.contains.{name}.ns": "ns" for name in GALLERY_SETS},
    "sets.sample_in_set.calls": "count",
    "sets.sample_in_set.self_s": "s",
    "sets.sample_in_set.accept_ratio": "1",
    "sets.boundary_sample.calls": "count",
    "sets.boundary_sample.self_s": "s",
    "sets.boundary_sample.contains_per_point": "1",
    "sets.boundary_sample.share": "1",
    "sets.dilation_level.calls": "count",
    "sets.dilation_level.self_s": "s",
    "sets.dilation_level.ns": "ns",
    "sets.dilation_level.contains_per_call": "1",
    "sets.dilation_level.share": "1",
    "sets.escapes.calls": "count",
    "sets.escapes.ns": "ns",
    "sets.scan_horizontal_segments.self_s": "s",
    "sets.check_axioms.self_s": "s",
    "chcheck.solve_tau.calls": "count",
    "chcheck.solve_tau.ns": "ns",
    "chcheck.solve_tau.roots_per_call": "1",
    "chcheck.solve_tau.share": "1",
    "chcheck.falsify_ch.self_s": "s",
    "chcheck.falsify_ch.curve_points": "count",
    "chcheck.falsify_ch.pairs_to_witness_p50": "count",
    "chcheck.radial_necessary.self_s": "s",
    "chcheck.envelope_check.self_s": "s",
    "convexity.check_hconvex_fn.self_s": "s",
    "convexity.check_homogeneous.self_s": "s",
    **{f"cones.{f}.self_s": "s" for f in ("make_cone", "cone_validate", "family_axioms_check", "compare_closed_form")},
    "cones.cone_eval.calls": "count",
    "cli.export_levelset.self_s": "s",
    "cli.export_levelset.ns_per_grid_point": "ns",
    "cli.main.self_s": "s",
    "trace.jobs_s": "s",
    "trace.jobs_per_s_ratio": "1",
}


class Sampler:
    """Every stride-th input of a call site, the stride doubling as the
    buffer fills, so the kept inputs spread evenly over the whole pass."""

    def __init__(self, cap: int = 2048):
        self.cap = cap
        self.stride = 1
        self.seen = 0
        self.items: list = []

    def due(self) -> bool:
        """Count one call; true when its input is to be kept."""
        self.seen += 1
        return (self.seen - 1) % self.stride == 0

    def add(self, item) -> None:
        self.items.append(item)
        if len(self.items) >= 2 * self.cap:
            self.items = self.items[::2]
            self.stride *= 2


class Tracer:
    """Counters, spans and sampled inputs for one traced pass."""

    COLUMNS = ("name", "parent", "t0", "t1", "c0", "c1", "e0", "e1", "out")

    def __init__(self) -> None:
        self.leaf: dict[str, list[int]] = {}  # key -> [calls, ns, results]
        self.samplers: dict[str, Sampler] = {}
        self.originals: dict[str, Callable] = {}
        self.raw_contains: dict[str, Callable] = {}
        self.contains_total = [0]
        self.names: list[str] = []
        self.cols = {c: array("q") for c in self.COLUMNS}
        self.stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, Callable]] = []
        self._oracles: list[tuple[object, Callable]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module, name, capture in LEAVES:
            self._patch(getattr(module, name), lambda fn, k, c=capture: self._leaf(k, fn, c))
        for module, name in SPANS:
            self._patch(getattr(module, name), self._span)
        for module, name in ORACLE_BUILDERS:
            self._patch(getattr(module, name), self._builder)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        for oracle, raw in self._oracles:
            oracle.contains = raw
        self._patched.clear()
        self._oracles.clear()

    def _patch(self, original: Callable, make: Callable[[Callable, str], Callable]) -> None:
        key = _key(original)
        self.originals[key] = original
        wrapper = make(original, key)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    # -- wrappers -------------------------------------------------------

    def _leaf(self, key: str, fn: Callable, capture: bool) -> Callable:
        stat = self.leaf.setdefault(key, [0, 0, 0])
        sampler = self.samplers.setdefault(key, Sampler()) if capture else None
        count_results = key == "chcheck.solve_tau"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if sampler is not None and sampler.due():
                sampler.add((args, kwargs))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat[1] += clock() - t0
                stat[0] += 1
            if count_results:
                stat[2] += len(result)
            return result

        return wrapper

    def _span(self, fn: Callable, key: str) -> Callable:
        nid = len(self.names)
        self.names.append(key)
        sampler = self.samplers.setdefault(key, Sampler()) if key == "sets.dilation_level" else None
        escapes = self.leaf.setdefault("sets.escapes", [0, 0, 0])
        contains = self.contains_total
        cols, stack, clock = self.cols, self.stack, time.perf_counter_ns
        name, parent, t0, t1, c0, c1, e0, e1, out = (cols[c] for c in self.COLUMNS)

        def wrapper(*args, **kwargs):
            if sampler is not None and sampler.due():
                sampler.add((args, kwargs))
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            for col in (t1, c1, e1, out):
                col.append(0)
            c0.append(contains[0])
            e0.append(escapes[0])
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
                c1[idx] = contains[0]
                e1[idx] = escapes[0]
            out[idx] = _outcome(key, args, kwargs, result)
            return result

        return wrapper

    def _builder(self, fn: Callable, key: str) -> Callable:
        def wrapper(*args, **kwargs):
            oracle = fn(*args, **kwargs)
            set_name = (args[0] if args else kwargs["name"]) if key == "sets.gallery" else "box"
            self._wrap_contains(oracle, set_name)
            return oracle

        return wrapper

    def _wrap_contains(self, oracle, set_name: str) -> None:
        raw = oracle.contains
        self.raw_contains.setdefault(set_name, raw)
        stat_key = f"sets.contains.{set_name}"
        stat = self.leaf.setdefault(stat_key, [0, 0, 0])
        sampler = self.samplers.setdefault(stat_key, Sampler()) if set_name in GALLERY_SETS else None
        total, clock = self.contains_total, time.perf_counter_ns

        def contains(p):
            if sampler is not None and sampler.due():
                sampler.add(((p,), {}))
            t0 = clock()
            try:
                return raw(p)
            finally:
                stat[1] += clock() - t0
                stat[0] += 1
                total[0] += 1

        oracle.contains = contains
        self._oracles.append((oracle, raw))

    # -- results --------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        return {c: np.array(self.cols[c], dtype=np.int64) for c in self.COLUMNS}

    def save_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.span_table())

    def microbench(self, min_ns: int = 20_000_000, repeats: int = 5) -> dict[str, float]:
        """ns per call of each sampled call site, replayed through the
        original function (tracing must be uninstalled)."""
        out = {}
        for key, sampler in self.samplers.items():
            if key.startswith("sets.contains."):
                fn = self.raw_contains[key.rsplit(".", 1)[-1]]
            else:
                fn = self.originals[key]
            inputs = [item for item in sampler.items if _replays(fn, item)]
            if not inputs:
                continue
            per_call = []
            for _ in range(repeats):
                calls, start = 0, time.perf_counter_ns()
                while True:
                    for args, kwargs in inputs:
                        fn(*args, **kwargs)
                    calls += len(inputs)
                    if time.perf_counter_ns() - start >= min_ns:
                        break
                per_call.append((time.perf_counter_ns() - start) / calls)
            out[key] = statistics.median(per_call)
        return out

    def metrics(self, ns: dict[str, float], untraced_jobs_per_s: float, traced_jobs_per_s: float) -> dict[str, float]:
        """Every PER_LAYER metric; layers a workload never calls read 0."""
        spans = self.span_table()
        dur = spans["t1"] - spans["t0"]
        child = spans["parent"] >= 0
        self_ns = dur - np.bincount(spans["parent"][child], weights=dur[child], minlength=len(dur))
        by_name = {}
        for nid, key in enumerate(self.names):
            pick = spans["name"] == nid
            by_name[key] = {
                "calls": int(pick.sum()),
                "ns": float(dur[pick].sum()),
                "self_s": float(self_ns[pick].sum()) / 1e9,
                "contains": int((spans["c1"][pick] - spans["c0"][pick]).sum()),
                "escapes": int((spans["e1"][pick] - spans["e0"][pick]).sum()),
                "out": spans["out"][pick],
            }
        leaf = lambda key: self.leaf.get(key, [0, 0, 0])
        jobs_ns = by_name["cli.main"]["ns"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for f in ("group_mul", "dilate", "norm"):
            m[f"core.{f}.calls"] = leaf(f"core.{f}")[0]
            m[f"core.{f}.ns"] = ns.get(f"core.{f}", 0.0)
        m["sets.contains.calls"] = self.contains_total[0]
        for name in GALLERY_SETS:
            m[f"sets.contains.{name}.ns"] = ns.get(f"sets.contains.{name}", 0.0)
        s = by_name["sets.sample_in_set"]
        m["sets.sample_in_set.calls"] = s["calls"]
        m["sets.sample_in_set.self_s"] = s["self_s"]
        m["sets.sample_in_set.accept_ratio"] = ratio(int(s["out"].sum()), s["contains"])
        s = by_name["sets.boundary_sample"]
        m["sets.boundary_sample.calls"] = s["calls"]
        m["sets.boundary_sample.self_s"] = s["self_s"]
        m["sets.boundary_sample.contains_per_point"] = ratio(s["contains"], int(s["out"].sum()))
        m["sets.boundary_sample.share"] = ratio(s["ns"], jobs_ns)
        s = by_name["sets.dilation_level"]
        m["sets.dilation_level.calls"] = s["calls"]
        m["sets.dilation_level.self_s"] = s["self_s"]
        m["sets.dilation_level.ns"] = ns.get("sets.dilation_level", 0.0)
        m["sets.dilation_level.contains_per_call"] = ratio(s["contains"], s["calls"])
        m["sets.dilation_level.share"] = ratio(s["ns"], jobs_ns)
        m["sets.escapes.calls"] = leaf("sets.escapes")[0]
        m["sets.escapes.ns"] = ns.get("sets.escapes", 0.0)
        m["sets.scan_horizontal_segments.self_s"] = by_name["sets.scan_horizontal_segments"]["self_s"]
        m["sets.check_axioms.self_s"] = by_name["sets.check_axioms"]["self_s"]
        calls, solve_ns, roots = leaf("chcheck.solve_tau")
        m["chcheck.solve_tau.calls"] = calls
        m["chcheck.solve_tau.ns"] = ns.get("chcheck.solve_tau", 0.0)
        m["chcheck.solve_tau.roots_per_call"] = ratio(roots, calls)
        m["chcheck.solve_tau.share"] = ratio(solve_ns, jobs_ns)
        s = by_name["chcheck.falsify_ch"]
        m["chcheck.falsify_ch.self_s"] = s["self_s"]
        m["chcheck.falsify_ch.curve_points"] = s["escapes"]
        found = s["out"][s["out"] > 0]
        m["chcheck.falsify_ch.pairs_to_witness_p50"] = float(np.median(found)) if len(found) else 0.0
        for key in ("chcheck.radial_necessary", "chcheck.envelope_check", "convexity.check_hconvex_fn",
                    "convexity.check_homogeneous", "cones.make_cone", "cones.cone_validate",
                    "cones.family_axioms_check", "cones.compare_closed_form"):
            m[f"{key}.self_s"] = by_name[key]["self_s"]
        m["cones.cone_eval.calls"] = leaf("cones.cone_eval")[0]
        s = by_name["cli.export_levelset"]
        m["cli.export_levelset.self_s"] = s["self_s"]
        m["cli.export_levelset.ns_per_grid_point"] = ratio(s["ns"], int(s["out"].sum()))
        m["cli.main.self_s"] = by_name["cli.main"]["self_s"]
        m["trace.jobs_s"] = jobs_ns / 1e9
        m["trace.jobs_per_s_ratio"] = ratio(traced_jobs_per_s, untraced_jobs_per_s)
        return m
