"""heisconvex benchmark: CLI jobs timed end to end, and a traced run per layer.

    python3 bench/run.py --workload ch_clean --seed 1 --seconds 25 --trace 0

Runs the workload's seeded job list through `heisconvex.cli.main` in this
process, one job after another, each with its own output directory under
`.bench_out/`, so report writing is on the timed path.  The list is sized
to take about `--seconds` and runs whole, again only while another pass
fits; then every job's exit code, report and witness are checked.  BLAS
threads are pinned to 1, and the process to one CPU.

The `pace` reference loop is timed around and during each job, and in each
set-up probe right after its set-up, and the time metrics are given at the
reference host speed: each job's seconds times `pace.REFERENCE_S` over the
mean loop time, which cancels the drift of a shared host's speed (see
`pace`).  The unscaled figures are in the `# meta` line.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; `setup_s` comes from fresh interpreter processes
(the only processes started), and `fail_ratio` is failed over attempted.
All three workloads, one after another:

    for w in ch_clean witness_hunt gauge; do
        python3 bench/run.py --workload $w --seed 0 --seconds 25 --trace 0; done

With `--trace 1` a quarter-size job list runs once untraced and once under
`tracer.Tracer`, and the JSON object holds the per-layer metrics.  Lines
before it, marked `#`, give the run metadata and every metric by name with
its unit, `fail_ratio` included.

Exit status 2, with no JSON line, when the checkout has no program to
measure.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import checkout  # noqa: E402
import pace  # noqa: E402

OUT = checkout.ROOT / ".bench_out"
SETUP_PROBES = 5
SETUP_REFERENCE_LOOPS = 32  # host-speed samples a probe takes right after its set-up
TAIL_BEYOND = 10  # verdict_s_tail is the highest percentile with this many jobs above it
TRACE_SHARE = 0.25  # a traced run uses a job list this fraction of the full size
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    job: "workloads.Job"
    code: Optional[int]
    seconds: float
    reference_s: float  # mean time of the `pace` reference loop around and during the job
    out: Path
    error: str = ""

    @property
    def scale(self) -> float:
        return pace.REFERENCE_S / self.reference_s

    @property
    def scaled(self) -> float:
        """The job's seconds at the reference host speed."""
        return self.seconds * self.scale


def run_pass(cli, jobs: list, tmp: Path, tag: str) -> list[Result]:
    """Run each job through `cli.main`, timing the call alone, with host-speed samples."""
    results = []
    clock = pace.Pace()
    with open(os.devnull, "w") as sink:
        for i, job in enumerate(jobs):
            out = tmp / f"{tag}{i:05d}"
            err = io.StringIO()
            code, error = None, ""
            with clock.job() as timing:
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                        code = cli.main(job.argv(out))
                except Exception as exc:  # a job that raises is a failed job, not a crash
                    error = repr(exc)
            results.append(Result(job, code, timing.seconds, timing.reference_s, out, error or err.getvalue().strip()))
    return results


def failures(results: list[Result]) -> list[str]:
    """One line per failed job: it raised, or its outcome fails `workloads.check`."""
    import workloads

    bad = []
    for r in results:
        why = r.error if r.code is None else workloads.check(r.job, r.code, r.out)
        if why:
            bad.append(f"{r.job.kind.label} seed {r.job.seed}: {why}")
    return bad


def timed_passes(cli, jobs: list, tmp: Path, seconds: float) -> tuple[list[Result], int]:
    """Whole passes over the job list, another only while it fits in `seconds`."""
    results: list[Result] = []
    passes = 0
    start = time.perf_counter()
    while True:
        results += run_pass(cli, jobs, tmp, f"p{passes}_")
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return results, passes


def setup_seconds(workload: str, seed: int, seconds: float) -> list[tuple[float, float]]:
    """Set-up time and its host-speed scale, measured in fresh interpreters one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=checkout.ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], pace.REFERENCE_S / probe["reference_s"]))
    return times


def setup_probe(workload, seed: int, seconds: float) -> int:
    """Child side of `setup_seconds`: import, build oracles, one warm-up job."""
    import heisconvex.cli
    import workloads

    for name, params in workload.sets():
        heisconvex.gallery(name, params)
    job = workloads.job_list(workload, seed, seconds)[0]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        ready = time.perf_counter() - START
        result = run_pass(heisconvex.cli, [job], tmp, "w")
        elapsed = ready + result[0].seconds  # without the host-speed samples
        bad = failures(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    reference_s = statistics.fmean(pace.loop_seconds() for _ in range(SETUP_REFERENCE_LOOPS))
    print(json.dumps({"setup_s": elapsed, "reference_s": reference_s}))
    return 0


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def end_to_end(setups: list[float], seconds: list[float], passes: int) -> dict[str, float]:
    """The end-to-end metrics from set-up times and per-job times."""
    times = sorted(seconds)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(times) / sum(times),
        "verdict_s_p50": statistics.median(times),
        # every pass repeats the list, so each adds TAIL_BEYOND jobs above the percentile
        "verdict_s_tail": times[len(times) - TAIL_BEYOND * passes - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        program = checkout.load()
    except checkout.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import heisconvex.cli as cli
    import numpy as np
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload, args.seed, args.seconds)

    # one CPU for the jobs, their host-speed samples and the set-up probes
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    scale = TRACE_SHARE if args.trace else 1.0
    jobs = workloads.job_list(workload, args.seed, args.seconds * scale)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "program": checkout.program_file(program),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "reference_s": pace.REFERENCE_S,
        "jobs_per_pass": len(jobs),
        "job_seeds": {k.label: sorted({j.seed for j in jobs if j.kind is k}) for k in workload.kinds},
        "tail_percentile": round(100.0 * (len(jobs) - TAIL_BEYOND) / len(jobs), 3),
    }

    setups = [] if args.trace else setup_seconds(workload.name, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run_pass(cli, jobs[:1], tmp, "warm")
        if args.trace:
            metrics, results, meta["passes"] = traced(cli, jobs, tmp, workload.name)
        else:
            results, meta["passes"] = timed_passes(cli, jobs, tmp, args.seconds)
            metrics = end_to_end([s * f for s, f in setups], [r.scaled for r in results], meta["passes"])
            unscaled = end_to_end([s for s, _ in setups], [r.seconds for r in results], meta["passes"])
            del unscaled["peak_rss_mb"]
            meta["unscaled"] = unscaled
            scales = [r.scale for r in results]
            meta["host_scale"] = {"median": statistics.median(scales), "min": min(scales), "max": max(scales)}
        bad = failures(results)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta["attempted"] = len(results)
    meta["setup_probes_s"] = [s for s, _ in setups]
    print("# meta " + json.dumps(meta, sort_keys=True))
    for line in bad:
        print(f"# FAILED {line}", file=sys.stderr)
    failed = len(bad)
    print(f"# fail_ratio = {failed / len(results):.6g} 1")
    emit(failed == 0, len(results), failed, metrics, tracer.PER_LAYER if args.trace else END_TO_END)
    return 0


def traced(cli, jobs: list, tmp: Path, workload: str) -> tuple[dict[str, float], list[Result], int]:
    """One untraced and one traced pass of the same jobs; per-layer metrics."""
    import tracer

    plain = run_pass(cli, jobs, tmp, "plain_")
    plain_rate = len(jobs) / sum(r.seconds for r in plain)
    t = tracer.Tracer()
    t.install()
    try:
        seen = run_pass(cli, jobs, tmp, "traced_")
        traced_rate = len(jobs) / sum(r.seconds for r in seen)
    finally:
        t.uninstall()
    metrics = t.metrics(t.microbench(), plain_rate, traced_rate)
    t.save_spans(OUT / f"spans_{workload}.npz")
    return metrics, plain + seen, 2


if __name__ == "__main__":
    sys.exit(main())
