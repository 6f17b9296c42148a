"""Output checks of the benchmark jobs.

Each check takes the expected values (bound with functools.partial) and the
path of one output file, and returns the problems it found; an empty list
means the output is correct.  Expected values come from closed forms
written here, independently of the package:

* exact scan rows match their closed form within ``EXACT_TOL``;
* shot-mode rows lie within ``SIGMAS`` reported sigmas of the exact value;
* detector and calibration estimates lie within ``SIGMAS`` reported sigmas
  of the generating truth, plus ``FIT_ABS`` for the calibration fits;
* every number written is finite.

The qubit laws assume probe and target measurements of the form
{"gamma": |a|, "bias": a0} with the probe along x and the target at angle
theta in the x-z plane, as in the generated configs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CSV_HEADER = "theta,c,d,c_err,d_err,c2d2"
EXACT_TOL = 1e-8
SIGMAS = 5.0
# Absolute slack on calibration fits: bootstrap errors of a near-noiseless
# fit can underestimate the algebraic bias of the conic fit.
FIT_ABS = 2e-3
# Relative rounding of the CLI's 9-significant-digit output.
DIGITS_TOL = 1e-8


def _squeeze_shear(probe: dict) -> tuple[float, float]:
    a0, na = probe["bias"], probe["gamma"]
    u_plus = math.sqrt(max((1 + a0) ** 2 - na**2, 0.0))
    u_minus = math.sqrt(max((1 - a0) ** 2 - na**2, 0.0))
    return 1 - (u_plus + u_minus) / 2, (u_plus - u_minus) / 2


def ellipse_law(probe: dict, target: dict, theta):
    """(C, D) of a Lueders probe on the disturbance-maximizing state:
    C = a0 b0 + |a||b| cos t + delta |b| |sin t|,  D = s |b| |sin t|."""
    squeeze, shear = _squeeze_shear(probe)
    sin_t, nb = np.abs(np.sin(theta)), target["gamma"]
    c = probe["bias"] * target["bias"] + probe["gamma"] * nb * np.cos(theta) + shear * nb * sin_t
    return c, squeeze * nb * sin_t


def mixed_law(probe: dict, target: dict, theta):
    """(C, D) on the state with Bloch vector (0, 0, 1) when the probe
    re-prepares the mixed state +/- |a| along its axis:
    C = a0 b0 + |a||b| cos t,  D = |b| |sin t - a0 |a| cos t|."""
    a0, na, nb = probe["bias"], probe["gamma"], target["gamma"]
    c = a0 * target["bias"] + na * nb * np.cos(theta)
    return c, nb * np.abs(np.sin(theta) - a0 * na * np.cos(theta))


def search_law(phi):
    """(C, D) of the search-optimal defaults (sharp probe at pi/4, sharp
    target along x, state at polar angle phi): C = 1/sqrt(2),
    D = |sin phi - cos phi| / 2."""
    return np.full_like(phi, 1 / math.sqrt(2)), np.abs(np.sin(phi) - np.cos(phi)) / 2


def circle_law(gamma: float, c2):
    """(angle, C, D) of the d-dimensional circle law at overlap c2."""
    angle = np.arccos(np.clip(2 * c2 - 1, -1, 1))
    return angle, gamma * (2 * c2 - 1), 2 * gamma * np.sqrt((1 - c2) * c2)


def device_truth(probe: dict, target: dict) -> dict:
    """Every parameter a known-theta fit reports, given the target strength."""
    squeeze, shear = _squeeze_shear(probe)
    nb = target["gamma"]
    return {
        "center_shift": probe["bias"] * target["bias"],
        "target_strength_product": probe["gamma"] * nb,
        "shear_strength": shear * nb,
        "squeeze_strength": squeeze * nb,
        "probe_sharpness": probe["gamma"],
        "probe_bias": probe["bias"],
        "squeeze": squeeze,
        "shear": shear,
    }


def combos_only(truth: dict) -> dict:
    """The four strength combinations identifiable without |b|."""
    keys = ("center_shift", "target_strength_product", "shear_strength", "squeeze_strength")
    return {k: truth[k] for k in keys}


def detector_readings(detector: dict) -> tuple[float, float]:
    """Exact (D_sharp, C_biased) of the two-reading detector protocol."""
    silence = math.exp(-detector["nu"])
    return silence * detector["eta"], silence * (2 - detector["eta"]) - 1


def read_scan(path: Path):
    """Rows of a scan CSV as a (rows, 6) array, and the problems found."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return None, [f"{path.name}: bad header or missing final newline"]
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    except ValueError as exc:
        return None, [f"{path.name}: unreadable row ({exc})"]
    if rows.ndim != 2 or rows.shape[1] != 6:
        return None, [f"{path.name}: rows do not have 6 columns"]
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append(f"{path.name}: non-finite value")
    c, d = rows[:, 1], rows[:, 2]
    if np.any(np.abs(rows[:, 5] - (c * c + d * d)) > DIGITS_TOL * np.maximum(1, rows[:, 5])):
        problems.append(f"{path.name}: c2d2 column differs from c^2 + d^2")
    sidecar = path.with_suffix(".meta.json")
    if json.loads(sidecar.read_text(encoding="utf-8")).get("rows") != len(rows):
        problems.append(f"{sidecar.name}: row count differs from the CSV")
    return rows, problems


def _compare(path: Path, what: str, got, want, tol) -> list:
    bad = np.flatnonzero(~(np.abs(np.asarray(got) - want) <= tol))
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{path.name}: {what} off at {bad.size} rows (row {i}: {got[i]!r} vs {want[i]!r})"]


def exact_scan(theta, c, d, path: Path) -> list:
    rows, problems = read_scan(path)
    if rows is None:
        return problems
    if len(rows) != len(theta):
        return problems + [f"{path.name}: {len(rows)} rows, expected {len(theta)}"]
    for col, what, want in ((0, "angle", theta), (1, "C", c), (2, "D", d)):
        problems += _compare(path, what, rows[:, col], want, EXACT_TOL)
    for col in (3, 4):
        problems += _compare(path, "exact error column", rows[:, col], 0.0, 0.0)
    return problems


def shot_scan(theta, c, d, path: Path) -> list:
    rows, problems = read_scan(path)
    if rows is None:
        return problems
    if len(rows) != len(theta):
        return problems + [f"{path.name}: {len(rows)} rows, expected {len(theta)}"]
    problems += _compare(path, "angle", rows[:, 0], theta, EXACT_TOL)
    problems += _compare(path, "C", rows[:, 1], c, SIGMAS * rows[:, 3] + EXACT_TOL)
    problems += _compare(path, "D", rows[:, 2], d, SIGMAS * rows[:, 4] + EXACT_TOL)
    return problems


def finite_scan(path: Path) -> list:
    return read_scan(path)[1]


def _load_report(path: Path):
    report = json.loads(path.read_text(encoding="utf-8"))
    stack, problems = [report], []
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, float) and not math.isfinite(node):
            problems.append(f"{path.name}: non-finite value")
    return report, problems


def _near(path: Path, what: str, got, want: float, err, slack: float = 0.0) -> list:
    if got is None or err is None or not abs(got - want) <= SIGMAS * err + slack:
        return [f"{path.name}: {what} = {got!r} +/- {err!r}, truth {want!r}"]
    return []


def calibration_report(expected: dict, path: Path) -> list:
    report, problems = _load_report(path)
    result = report["result"]
    errors = result.get("errors", {"target_strength": result.get("target_strength_err")})
    for key, want in expected.items():
        problems += _near(path, key, result.get(key), want, errors.get(key), FIT_ABS)
    return problems


def _detector_estimate(detector: dict, path: Path, report: dict) -> list:
    est = report["estimate"]
    return (_near(path, "eta", est["eta"], detector["eta"], est["eta_err"])
            + _near(path, "nu", est["nu"], detector["nu"], est["nu_err"]))


def detector_estimate(detector: dict, path: Path) -> list:
    report, problems = _load_report(path)
    return problems + _detector_estimate(detector, path, report)


def detector_simulation(detector: dict, path: Path) -> list:
    report, problems = _load_report(path)
    readings = report["readings"]
    d1, c2 = detector_readings(detector)
    for key, want in (("c1", 0.0), ("d1", d1), ("c2", c2), ("d2", 0.0)):
        problems += _near(path, key, readings[key], want, readings[f"{key}_err"])
    return problems + _detector_estimate(detector, path, report)
