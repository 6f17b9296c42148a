"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that the output checks reject corrupted outputs, that a pass
writing other bytes is counted as failed, and that the benchmark refuses to
run without the package source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "out" / "selftest"
TINY = 64

os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cdtradeoff import cli  # noqa: E402


def bench_result(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--scale", str(TINY)],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False)
    return done


class TinyJobs(unittest.TestCase):
    """Jobs of one tiny workload, run once through the CLI."""

    def run_workload(self, name: str):
        directory = SCRATCH / name
        shutil.rmtree(directory, ignore_errors=True)
        workload = workloads.build(name, 5, TINY)
        workload.write(directory)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            for job in workload.jobs:
                if job.name != "eigenstate":
                    self.assertEqual(cli.main(["--config", job.config_file, "--out", job.out]), 0)
        finally:
            os.chdir(cwd)
        return directory, {job.name: job for job in workload.jobs}

    def test_corrupted_scan_fails_its_check(self):
        directory, jobs = self.run_workload("scan-wide")
        for name in ("exact-theta", "shot-theta", "highdim-exact"):
            job, path = jobs[name], directory / jobs[name].out
            self.assertEqual(job.check(path), [], name)
            good = path.read_text()
            lines = good.split("\n")
            theta, c, d, c_err, d_err, c2d2 = lines[3].split(",")
            for bad_row in (
                [theta, f"{float(c) + 0.25:.9g}", d, c_err, d_err, c2d2],
                [theta, c, "nan", c_err, d_err, c2d2],
            ):
                path.write_text("\n".join(lines[:3] + [",".join(bad_row)] + lines[4:]))
                self.assertNotEqual(job.check(path), [], f"{name}: {bad_row}")
            path.write_text(good)

    def test_corrupted_report_fails_its_check(self):
        directory, jobs = self.run_workload("calibrate")
        for name, key in (("fit-known", "probe_bias"), ("fit-circle", "target_strength"),
                          ("detector-inversion", "eta")):
            job, path = jobs[name], directory / jobs[name].out
            self.assertEqual(job.check(path), [], name)
            report = json.loads(path.read_text())
            section = report["estimate"] if name == "detector-inversion" else report["result"]
            section[key] += 0.1
            path.write_text(json.dumps(report))
            self.assertNotEqual(job.check(path), [], name)

    def test_other_bytes_fail_the_pass(self):
        jobs = workloads.build("calibrate", 5, TINY).jobs
        same = {"errors": [None] * len(jobs), "digests": [{"a": "0"}] * len(jobs)}
        other = {"errors": same["errors"], "digests": [{"a": "1"}] + same["digests"][1:]}
        counts = run.tally(jobs, [same, same, other], [[] for _ in jobs])
        self.assertFalse(counts["correct"])
        self.assertEqual((counts["attempted"], counts["failed"]), (3 * len(jobs), 1))


class Metrics(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                done = bench_result(workload, trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], done.stderr)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want, f"{workload} trace {trace}")
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_refuses_to_run_without_the_source(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench_result("calibrate", 0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
