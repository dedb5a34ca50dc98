"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They check that planted faults are counted as failed jobs, that job lists
and traced counts are functions of the seed, that BENCHMARK.json names the
metrics the harness reports, and that a directory without the program is
refused.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path

import checkout

checkout.load()

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from heisconvex import cli  # noqa: E402

HUNT = workloads.WORKLOADS["witness_hunt"]
CYLINDER = HUNT.kinds[0]
MESH = workloads.WORKLOADS["gauge"].kinds[-1]
# ratios of counts repeat exactly as well; time-based ones do not
COUNT_RATIOS = {
    "sets.sample_in_set.accept_ratio",
    "sets.boundary_sample.contains_per_point",
    "sets.dilation_level.contains_per_call",
    "chcheck.solve_tau.roots_per_call",
}


class Harness(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fail_ratio(self, results: list) -> float:
        return len(run.failures(results)) / len(results)

    def test_clean_jobs_do_not_fail(self) -> None:
        jobs = [workloads.Job(CYLINDER, 0), workloads.Job(MESH, 0)]
        self.assertEqual(self.fail_ratio(run.run_pass(cli, jobs, self.tmp, "ok")), 0.0)

    def test_planted_wrong_verdict_raises_fail_ratio(self) -> None:
        planted = replace(CYLINDER, exit_code=0, expect=False)
        jobs = [workloads.Job(CYLINDER, 0), workloads.Job(planted, 0)]
        self.assertEqual(self.fail_ratio(run.run_pass(cli, jobs, self.tmp, "verdict")), 0.5)

    def test_planted_non_replaying_witness_raises_fail_ratio(self) -> None:
        results = run.run_pass(cli, [workloads.Job(CYLINDER, 0), workloads.Job(CYLINDER, 1)], self.tmp, "w")
        report_path = next(results[1].out.glob("*.json"))
        report = json.loads(report_path.read_text())
        witness = report["ch"]["witness"]
        witness["escape_point"] = witness["xi0"]  # a point of K escapes nothing
        report_path.write_text(json.dumps(report))
        self.assertEqual(self.fail_ratio(results), 0.5)

    def test_planted_mesh_vertex_off_the_level_set_fails(self) -> None:
        results = run.run_pass(cli, [workloads.Job(MESH, 0)], self.tmp, "mesh")
        obj = next(results[0].out.glob("*.obj"))
        lines = obj.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("v "))
        lines[first] = "v 0 0 0"
        obj.write_text("\n".join(lines) + "\n")
        self.assertEqual(self.fail_ratio(results), 1.0)

    def test_same_seed_gives_same_job_list(self) -> None:
        for workload in workloads.WORKLOADS.values():
            self.assertEqual(workloads.job_list(workload, 7, 30), workloads.job_list(workload, 7, 30))

    def test_different_seed_changes_job_seeds(self) -> None:
        for workload in workloads.WORKLOADS.values():
            seeds = [[job.seed for job in workloads.job_list(workload, s, 30)] for s in (7, 8)]
            self.assertNotEqual(seeds[0], seeds[1])

    def test_same_seed_gives_identical_traced_counts(self) -> None:
        jobs = workloads.job_list(HUNT, 3, 0)[: 2 * len(HUNT.kinds)]
        counts = []
        for attempt in range(2):
            t = tracer.Tracer()
            t.install()
            try:
                results = run.run_pass(cli, jobs, self.tmp, f"trace{attempt}_")
            finally:
                t.uninstall()
            self.assertEqual(run.failures(results), [])
            metrics = t.metrics({}, 1.0, 1.0)
            self.assertEqual(set(metrics), set(tracer.PER_LAYER))
            counts.append({k: v for k, v in metrics.items() if tracer.PER_LAYER[k] == "count" or k in COUNT_RATIOS})
        self.assertGreater(counts[0]["sets.contains.calls"], 0)
        self.assertEqual(counts[0], counts[1])

    def test_pace_samples_during_a_job_and_restores_the_alarm(self) -> None:
        handler = signal.getsignal(signal.SIGALRM)
        clock = pace.Pace()
        with self.assertRaises(KeyError):
            with clock.job() as timing:
                time.sleep(0.05)  # resumed after each sample
                raise KeyError("job failed")
        self.assertEqual(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        with clock.job() as timing:
            time.sleep(0.05)
        self.assertGreater(timing.sampling_s, 0.0)
        self.assertGreater(timing.seconds, 0.04)
        self.assertGreater(timing.reference_s, 0.0)

    def test_uninstall_restores_every_binding(self) -> None:
        before = {(m.__name__, k): v for m in tracer.MODULES for k, v in vars(m).items() if callable(v)}
        t = tracer.Tracer()
        t.install()
        t.uninstall()
        after = {(m.__name__, k): v for m in tracer.MODULES for k, v in vars(m).items() if callable(v)}
        self.assertEqual(before, after)

    def test_benchmark_json_names_the_reported_metrics(self) -> None:
        spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.PER_LAYER)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in workloads.WORKLOADS.values()})

    def test_directory_without_the_program_is_refused(self) -> None:
        bare = self.tmp / "bare"
        (bare / "bench").mkdir(parents=True)
        shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
        for source in Path(__file__).parent.glob("*.py"):
            shutil.copy(source, bare / "bench")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ch_clean", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
