"""Job lists of the benchmark workloads, generated from a seed.

A workload is a fixed list of CLI jobs; one run of the list is a *pass*.
Everything the program reads (configs and the calibration input scans) is
generated here from the seed, so the program receives only files.  The seed
moves grid offsets, shot seeds and input noise; it never changes how much
work a pass does.

Device parameters follow the issue that defined the benchmark: probe
(gamma 0.8, bias 0.1), target (gamma 0.9, bias 0.05); the circle-fit input
uses a sharp, unbiased probe.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

PROBE = {"gamma": 0.8, "bias": 0.1}
TARGET = {"gamma": 0.9, "bias": 0.05}
SHARP_PROBE = {"gamma": 1.0, "bias": 0.0}
HIGHDIM_DIM = 8
DETECTOR = {"eta": 0.7, "nu": 0.05}
BOOTSTRAP = 200  # the CLI default; the configs leave the key out

# Gaussian noise (one sigma) added to the generated calibration inputs.
SCAN_NOISE = 0.005
READING_NOISE = 1e-3

# ROADMAP item 3, verbatim: a valid measure-and-prepare scenario whose
# (C, D) leaves the unit disc, which the CLI currently rejects with an
# uncaught ValueError.  Kept so the failure stays counted until it is fixed.
EIGENSTATE_CONFIG = {
    "schema": 1, "mode": "scan", "policy": "eigenstate",
    "probe": {"gamma": 0.3, "bias": 0.6}, "state": {"bloch": [0, 0, 1]},
    "target": {"gamma": 1, "theta_grid": {"points": 16}},
}

WORKLOADS = ("scan-wide", "scan-deep", "calibrate")


@dataclass
class Job:
    """One CLI invocation: ``cdtradeoff --config <name>.config.json --out <out>``."""

    name: str
    config: dict
    out: str
    check: Callable[[Path], list]  # problems found in the output, [] if none
    rows: int = 0       # scan rows written (scan modes) or read (calibrate)
    draws: int = 0      # uniform draws: shots over both arms, or bootstrap indices
    resamples: int = 0  # bootstrap resamples requested

    @property
    def config_file(self) -> str:
        return f"{self.name}.config.json"


@dataclass
class Workload:
    jobs: list
    inputs: dict = field(default_factory=dict)  # file name -> text, made in set-up

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.inputs.items():
            (directory / name).write_text(text, encoding="utf-8")
        for job in self.jobs:
            (directory / job.config_file).write_text(json.dumps(job.config), encoding="utf-8")


def _angles(rng: np.random.Generator, points: int):
    """Full-turn angle grid with a seeded offset inside the first step, and
    the values the CLI computes from it."""
    start = float(rng.random()) * 2 * math.pi / points
    spec = {"start": start, "stop": start + 2 * math.pi, "points": points}
    return spec, np.linspace(spec["start"], spec["stop"], points, endpoint=False)


def _overlaps(rng: np.random.Generator, points: int):
    """Overlap grid on [0, 1) with a seeded offset inside the first step."""
    spec = {"start": float(rng.random()) / points, "stop": 1.0, "points": points}
    return spec, np.linspace(spec["start"], spec["stop"], points, endpoint=False)


def _scan_csv(theta, c, d, c_err, d_err) -> str:
    """Scan file in the CLI's own format (9 significant digits)."""
    lines = ["theta,c,d,c_err,d_err,c2d2"]
    for row in zip(theta, c, d, c_err, d_err, c * c + d * d):
        lines.append(",".join(f"{float(v):.9g}" for v in row))
    return "\n".join(lines) + "\n"


def _noisy_scan(rng, probe: dict, target: dict, points: int) -> str:
    _, theta = _angles(rng, points)
    c, d = checks.ellipse_law(probe, target, theta)
    sigma = np.full(points, SCAN_NOISE)
    c = c + rng.normal(0.0, SCAN_NOISE, points)
    d = d + rng.normal(0.0, SCAN_NOISE, points)
    return _scan_csv(theta, c, d, sigma, sigma)


def _sized(n: int, scale: int, floor: int) -> int:
    return max(floor, n // scale)


def _scan_wide(rng, seed: int, scale: int) -> Workload:
    jobs = []
    n = _sized(4096, scale, 16)
    spec, theta = _angles(rng, n)
    jobs.append(Job(
        "exact-theta",
        {"schema": 1, "mode": "scan", "probe": PROBE, "state": "optimal",
         "target": {**TARGET, "theta_grid": spec}},
        "exact-theta.csv",
        functools.partial(checks.exact_scan, theta, *checks.ellipse_law(PROBE, TARGET, theta)),
        rows=n,
    ))
    n = _sized(1024, scale, 16)
    spec, theta = _angles(rng, n)
    jobs.append(Job(
        "mixed-theta",
        {"schema": 1, "mode": "scan", "policy": "mixed", "probe": PROBE,
         "state": {"bloch": [0, 0, 1]}, "target": {**TARGET, "theta_grid": spec}},
        "mixed-theta.csv",
        functools.partial(checks.exact_scan, theta, *checks.mixed_law(PROBE, TARGET, theta)),
        rows=n,
    ))
    spec, phi = _angles(rng, n)
    jobs.append(Job(
        "search-optimal",
        {"schema": 1, "mode": "search-optimal", "phi_grid": spec},
        "search-optimal.csv",
        functools.partial(checks.exact_scan, phi, *checks.search_law(phi)),
        rows=n,
    ))
    spec, c2 = _overlaps(rng, n)
    jobs.append(Job(
        "highdim-exact",
        {"schema": 1, "mode": "highdim", "dim": HIGHDIM_DIM, "gamma": TARGET["gamma"],
         "c2_grid": spec},
        "highdim-exact.csv",
        functools.partial(checks.exact_scan, *checks.circle_law(TARGET["gamma"], c2)),
        rows=n,
    ))
    n, shots = _sized(2048, scale, 16), _sized(1000, scale, 1000)
    spec, theta = _angles(rng, n)
    jobs.append(Job(
        "shot-theta",
        {"schema": 1, "mode": "scan", "shots": shots, "seed": seed, "probe": PROBE,
         "state": "optimal", "target": {**TARGET, "theta_grid": spec}},
        "shot-theta.csv",
        functools.partial(checks.shot_scan, theta, *checks.ellipse_law(PROBE, TARGET, theta)),
        rows=n, draws=2 * shots * n,
    ))
    jobs.append(Job(
        "eigenstate", EIGENSTATE_CONFIG, "eigenstate.csv", checks.finite_scan, rows=16,
    ))
    return Workload(jobs)


def _scan_deep(rng, seed: int, scale: int) -> Workload:
    jobs = []
    n, shots = _sized(256, scale, 16), _sized(100_000, scale, 1000)
    spec, theta = _angles(rng, n)
    jobs.append(Job(
        "shot-theta",
        {"schema": 1, "mode": "scan", "shots": shots, "seed": seed, "probe": PROBE,
         "state": "optimal", "target": {**TARGET, "theta_grid": spec}},
        "shot-theta.csv",
        functools.partial(checks.shot_scan, theta, *checks.ellipse_law(PROBE, TARGET, theta)),
        rows=n, draws=2 * shots * n,
    ))
    n = _sized(64, scale, 16)
    spec, c2 = _overlaps(rng, n)
    jobs.append(Job(
        "highdim-shot",
        {"schema": 1, "mode": "highdim", "dim": HIGHDIM_DIM, "gamma": TARGET["gamma"],
         "shots": shots, "seed": seed + 1, "c2_grid": spec},
        "highdim-shot.csv",
        functools.partial(checks.shot_scan, *checks.circle_law(TARGET["gamma"], c2)),
        rows=n, draws=2 * shots * n,
    ))
    shots = _sized(10_000_000, scale, 1000)
    jobs.append(Job(
        "detector-sim",
        {"schema": 1, "mode": "detector", "shots": shots, "seed": seed + 2,
         "detector": DETECTOR},
        "detector-sim.json",
        functools.partial(checks.detector_simulation, DETECTOR),
        draws=2 * 2 * shots,  # two reference settings, two arms each
    ))
    return Workload(jobs)


def _calibrate(rng, seed: int, scale: int) -> Workload:
    sizes = {"circle": _sized(256, scale, 16), "known": _sized(256, scale, 16),
             "unknown": _sized(1024, scale, 16)}
    inputs = {
        "circle-input.csv": _noisy_scan(rng, SHARP_PROBE, TARGET, sizes["circle"]),
        "known-input.csv": _noisy_scan(rng, PROBE, TARGET, sizes["known"]),
        "unknown-input.csv": _noisy_scan(rng, PROBE, TARGET, sizes["unknown"]),
    }
    truth = checks.device_truth(PROBE, TARGET)
    fits = (
        ("circle", "circle", {}, {"target_strength": TARGET["gamma"]}),
        ("known", "ellipse-known-theta", {"target_strength": TARGET["gamma"]}, truth),
        ("unknown", "ellipse-unknown-theta", {}, checks.combos_only(truth)),
    )
    jobs = []
    for index, (key, fit, extra, expected) in enumerate(fits):
        jobs.append(Job(
            f"fit-{key}",
            {"schema": 1, "mode": "calibrate", "scan_file": f"{key}-input.csv",
             "fit": fit, "seed": seed + index, **extra},
            f"fit-{key}.json",
            functools.partial(checks.calibration_report, expected),
            rows=sizes[key], draws=BOOTSTRAP * sizes[key], resamples=BOOTSTRAP,
        ))
    d1, c2 = checks.detector_readings(DETECTOR)
    jobs.append(Job(
        "detector-inversion",
        {"schema": 1, "mode": "detector", "detector": {
            "d1": d1 + float(rng.normal(0.0, READING_NOISE)), "d1_err": READING_NOISE,
            "c2": c2 + float(rng.normal(0.0, READING_NOISE)), "c2_err": READING_NOISE}},
        "detector-inversion.json",
        functools.partial(checks.detector_estimate, DETECTOR),
    ))
    return Workload(jobs, inputs)


def build(workload: str, seed: int, scale: int = 1) -> Workload:
    """Job list of ``workload`` for ``seed``; ``scale`` divides every size
    (points, shots) for quick self-tests."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"scan-wide": _scan_wide, "scan-deep": _scan_deep, "calibrate": _calibrate}
    return make[workload](rng, seed, scale)
