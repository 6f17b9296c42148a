#!/usr/bin/env python3
"""Benchmark of the cdtradeoff command line.

Run from the root of a checkout:

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 20 --trace 0

The workload's job list (workloads.py) runs in-process through
``cdtradeoff.cli.main``, with BLAS/OpenMP pinned to one thread: one untimed
warm-up pass, then timed passes for ``--seconds`` seconds.  Every output is
checked (checks.py), and every pass must write the same bytes as the
warm-up.  Set-up time and peak memory are measured in fresh processes
started by this script.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (jobs over all passes) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of tracing.py
with ``--trace 1``.  A fuller record (environment, pass times, output
SHA-256s, problems found) is written to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("scan-wide", "scan-deep", "calibrate")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 11
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
# Host contention on shared machines changes how fast Python runs by up to
# 1.7x over tens of seconds.  Timed passes are scaled by a reference kernel
# sampled between them: pass time x REFERENCE_S / median reference time.
REFERENCE_S = 0.25
REFERENCE_LOOPS = 5000
REFERENCE_EVERY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "points_per_s": "1/s",
    "draws_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "job_success_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the cdtradeoff CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed (or traced) part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every job size by this (self-test)")
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scale < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --scale >= 1, --seconds > 0")
    return args


def set_up(args, directory: Path):
    """Import the package from this checkout and write the job files."""
    shutil.rmtree(directory, ignore_errors=True)
    import cdtradeoff
    from cdtradeoff import cli

    import workloads

    if Path(cdtradeoff.__file__).resolve().parent != SRC / "cdtradeoff":
        raise SystemExit(f"cdtradeoff imported from {cdtradeoff.__file__}, not {SRC}")
    workload = workloads.build(args.workload, args.seed, args.scale)
    workload.write(directory)
    return workload, cli


def _outputs(job):
    yield job.out
    if job.out.endswith(".csv"):
        yield job.out[:-4] + ".meta.json"


class Runner:
    """Runs passes of one workload in its job directory (the working
    directory, so configs and outputs carry no absolute paths)."""

    def __init__(self, workload, cli):
        self.jobs = workload.jobs
        self.cli = cli
        self.passes = []

    def run_pass(self) -> dict:
        for job in self.jobs:
            for name in _outputs(job):
                Path(name).unlink(missing_ok=True)
        gc.collect()
        errors, job_s = [], []
        start = time.perf_counter()
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                code = self.cli.main(["--config", job.config_file, "--out", job.out])
                errors.append(None if code == 0 else f"exit code {code}")
            except Exception as exc:  # a traceback out of the CLI counts as a failed job
                errors.append(f"{type(exc).__name__}: {exc}")
            job_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        digests, written = [], 0
        for job in self.jobs:
            files = {}
            for name in _outputs(job):
                path = Path(name)
                if path.exists():
                    data = path.read_bytes()
                    written += len(data)
                    files[name] = hashlib.sha256(data).hexdigest()
            digests.append(files)
        record = {"pass_s": elapsed, "job_s": job_s, "errors": errors,
                  "digests": digests, "bytes_written": written}
        self.passes.append(record)
        return record


def check_outputs(jobs, reference: dict) -> list:
    """Problems of each job's warm-up output ([] for a job that failed to run)."""
    problems = []
    for job, error in zip(jobs, reference["errors"]):
        if error is not None:
            problems.append([])
            continue
        try:
            problems.append(job.check(Path(job.out)))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append([f"{job.out}: unreadable ({type(exc).__name__}: {exc})"])
    return problems


def tally(jobs, passes: list, problems: list) -> dict:
    """Jobs attempted and failed over ``passes``; the first is the reference.

    A job fails a pass when it raises, exits non-zero, writes output that
    fails its check, or writes bytes that differ from the reference pass.
    ``correct`` is false when any output is wrong or not reproduced.
    """
    reference = passes[0]
    attempted = failed = 0
    correct = not any(problems)
    notes = [p for job_problems in problems for p in job_problems]
    for index, record in enumerate(passes):
        for j, job in enumerate(jobs):
            attempted += 1
            same = record["digests"][j] == reference["digests"][j]
            if not same:
                correct = False
                notes.append(f"pass {index}: {job.name} wrote other bytes than pass 0")
            if record["errors"][j] is not None or problems[j] or not same:
                failed += 1
    errors = {job.name: e for job, e in zip(jobs, reference["errors"]) if e is not None}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "problems": notes, "errors": errors}


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of small-matrix numpy calls driven from
    Python, the kind of work one scan point does.  It does not use the
    package, so only the speed of the machine moves it."""
    import numpy as np

    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    start = time.perf_counter()
    for k in range(REFERENCE_LOOPS):
        m = (np.eye(2) + np.einsum("i,ijk->jk", [0.5 * math.cos(k), 0.0, 0.5 * math.sin(k)],
                                   pauli)) / 2
        np.abs(m - m.conj().T).max()
        np.linalg.eigvalsh(m)
        float(np.trace(m @ m).real)
    return time.perf_counter() - start


def ok_work(jobs, reference: dict, field: str) -> int:
    return sum(getattr(job, field) for job, e in zip(jobs, reference["errors"]) if e is None)


def child(args, kind: str) -> dict:
    """Run this script as a fresh process (set-up only, or set-up and one
    pass) and return the JSON it prints."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", str(args.scale)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark child {kind!r} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_child(args, started: float) -> int:
    directory = OUT / "work" / args.workload / "child"
    workload, cli = set_up(args, directory)
    result = {"setup_s": time.perf_counter() - started}
    if args.child == "pass":
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            record = Runner(workload, cli).run_pass()
        finally:
            os.chdir(cwd)
        result["pass"] = record
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0


def environment(load_at_start) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(args, runner, workload, results: dict):
    setups = [child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    fresh = child(args, "pass")
    warm_up = runner.run_pass()
    problems = check_outputs(workload.jobs, warm_up)
    timed, references = [], [reference_kernel()]
    start = last = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        timed.append(runner.run_pass())
        if time.perf_counter() - last >= REFERENCE_EVERY_S:
            references.append(reference_kernel())
            last = time.perf_counter()
    references.append(reference_kernel())
    counts = tally(workload.jobs, [warm_up, *timed, fresh["pass"]], problems)
    speed = REFERENCE_S / statistics.median(references)
    wall = [r["pass_s"] for r in timed]
    times = [t * speed for t in wall]
    rows = ok_work(workload.jobs, warm_up, "rows")
    draws = ok_work(workload.jobs, warm_up, "draws")
    resamples = ok_work(workload.jobs, warm_up, "resamples")
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(times),
        "points_per_s": statistics.median(rows / t for t in times),
        "draws_per_s": statistics.median(draws / t for t in times),
        "peak_rss_mib": fresh["peak_rss_mib"],
        "job_success_rate": 1.0 - counts["failed"] / counts["attempted"],
    }
    results.update({
        "setup_samples_s": setups,
        "passes": len(times),
        "wall_pass_s": wall,
        "wall_pass_s_median": statistics.median(wall),
        "reference_s": references,
        "speed_scale": speed,
        "job_s_all": [r["job_s"] for r in timed],
        "work_per_pass": {"rows": rows, "draws": draws, "resamples": resamples},
        "error_rate": counts["failed"] / counts["attempted"],
        "resamples_per_s": statistics.median(resamples / t for t in times),
    })
    return counts, metrics, END_TO_END


def per_layer(args, runner, workload, results: dict):
    """Untraced and traced passes alternate, so the tracing overhead is
    measured under the same machine load."""
    import tracing

    warm_up = runner.run_pass()
    problems = check_outputs(workload.jobs, warm_up)
    tracer = tracing.Tracer()
    untraced, traced, samples = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            tracer.reset()
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        samples.append(tracer.metrics(traced[-1]["pass_s"], traced[-1]["bytes_written"]))
    probe = tracing.AllocProbe()
    probe.install()
    try:
        probed = runner.run_pass()
    finally:
        probe.uninstall()
    counts = tally(workload.jobs, [warm_up, *untraced, *traced, probed], problems)
    metrics = tracing.summarize(samples)
    untraced_s = statistics.median(r["pass_s"] for r in untraced)
    metrics["trace.overhead"] = metrics["trace.pass_s"] / untraced_s - 1.0
    metrics["shot_sampler.peak_alloc_mib"] = probe.peak_bytes / 2**20
    results.update({"passes": len(traced),
                    "untraced_pass_s": [r["pass_s"] for r in untraced],
                    "traced_pass_s": [r["pass_s"] for r in traced]})
    units = {name: unit for name, (unit, _) in tracing.metric_specs().items()}
    return counts, metrics, units


def run(args) -> int:
    load_at_start = os.getloadavg()
    directory = OUT / "work" / args.workload / "main"
    workload, cli = set_up(args, directory)
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "scale": args.scale,
               "environment": environment(load_at_start),
               "configs": {job.name: job.config for job in workload.jobs}}
    runner = Runner(workload, cli)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        measure = per_layer if args.trace else end_to_end
        counts, metrics, units = measure(args, runner, workload, results)
    finally:
        os.chdir(cwd)
    shutil.rmtree(directory, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics and units disagree: {sorted(set(metrics) ^ set(units))}")
    summary = {"correct": counts["correct"], "attempted": counts["attempted"],
               "failed": counts["failed"],
               "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                           for name in sorted(metrics)}}
    results.update(counts)
    results["metrics"] = summary["metrics"]
    results["output_sha256"] = {job.name: digest for job, digest
                                in zip(workload.jobs, runner.passes[0]["digests"])}
    results["job_s_median"] = {
        job.name: statistics.median(r["job_s"][j] for r in runner.passes)
        for j, job in enumerate(workload.jobs)}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    for note in counts["problems"]:
        print(f"problem: {note}", file=sys.stderr)
    for name, error in counts["errors"].items():
        print(f"job {name} failed: {error}", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}: medians over {results['passes']} passes")
    for name, metric in summary["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    # numpy reads these when it is first imported, below
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cdtradeoff" / "__init__.py").is_file():
        print(f"no cdtradeoff source under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return run_child(args, started)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
