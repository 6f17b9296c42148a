"""Command-line interface: JSON scenario configs in, CSV scan data and JSON
calibration reports out.

Modes
-----
scan            theta scan of a probe/target pair (exact or finite shots)
search-optimal  scan the initial-state angle phi at fixed measurements
calibrate       fit a previously written scan file
detector        simulate and/or invert the on-off detector protocol
highdim         overlap scan of the d-dimensional circle law

A config is parsed once, after the flags, then run: ``_SCHEMA`` maps each
key of each mode to its default and parser, and ``_RUNS`` maps each mode to
what it writes (a scan CSV or a JSON report) and the function that gives it.

All angles are radians.  CSV columns are theta,c,d,c_err,d_err,c2d2 with 9
significant digits; every scan CSV gets a JSON sidecar carrying the full
config, its SHA-256 hash, and the library version, so outputs are
byte-reproducible from config + seed alone.  A grid is evaluated in
slices of at most ``_BATCH_ENTRIES`` operator entries: each slice's
operators are built and validated, and its outcome tables go through one
column path (``_columns``, which the detector's two settings take too),
exact or drawn; only the columns grow with the grid, and the rows are
written from them a slice at a time.  Shot-mode point ``i`` draws from a
Philox stream keyed by ``seed XOR i``, seed in [0, 2**64), whatever slice it falls in.

Exit codes: 0 success, 2 config error, 3 physics/feasibility error,
4 fit failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calibration import (
    CdScan,
    estimate_detector,
    fit_circle_sharp_probe,
    fit_ellipse_known_theta,
    fit_ellipse_unknown_theta,
)
from .detector_model import LABELS_CLICK, DetectorNoise, _herald, scenario_distributions
from .errors import (
    CdTradeoffError,
    ConfigError,
    FitError,
    OutOfDomainError,
    SchemaError,
)
from .highdim_model import (
    circle_law,
    optimal_kets,
    overlaps,
    projectors,
    randomized_povms,
)
from .cd_measures import cd_tables
from .quantum_core import Instrument, Povm, index_base, scenario_tables
from .qubit_model import (InstrumentPolicy, optimal_bloch, plane_axis, qubit_povms,
                          qubit_states, unit_axes)
from .shot_sampler import estimate_columns, sample_tables

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_FIT = 4

CSV_HEADER = "theta,c,d,c_err,d_err,c2d2"
# 9 significant digits, '.' decimal separator, one line; columns get + 0.0
# first so that no value prints as -0
_CSV_ROW = ",".join(["%.9g"] * 6) + "\n"
SCHEMA_VERSION = 1
SEED_LIMIT = 2**64
# Every grid is evaluated in slices of at most this many operator entries,
# points times the entries of one point's operators (dim**2 for (dim, dim)
# matrices, dim for the kets of an exact highdim scan), and at least one
# point, so the operator stacks of a scan do not grow with the grid: 1024
# qubit points, or 64 points at dim 8.
_BATCH_ENTRIES = 1 << 12
# Memory model of a highdim scan (tracemalloc peaks, less a fixed overhead
# under 1 MiB): an exact scan holds at most 64 bytes per entry of its
# (points, dim) kets, and a shot-mode scan on top 320 bytes per entry of one
# slice of (dim, dim) stacks, max(dim**2, _BATCH_ENTRIES) entries.  Exact
# kets are built a slice at a time too, max(dim, _BATCH_ENTRIES) entries,
# so the first term overstates the peak (67 MB at dim 2**20 and 16 points,
# where it allows 1 GiB), but it keeps its value.  Configs whose model exceeds
# _HIGHDIM_BYTES are refused before anything is allocated:
# points * dim <= HIGHDIM_ENTRIES (2**24) in every mode, and
# dim <= HIGHDIM_SHOT_DIM (1831) in shot mode.
_HIGHDIM_BYTES = 1 << 30
HIGHDIM_ENTRIES = _HIGHDIM_BYTES // 64
HIGHDIM_SHOT_DIM = math.isqrt(_HIGHDIM_BYTES // 320)
# Memory model of a grid (tracemalloc peaks through main, every policy,
# exact and shot mode): a run holds one slice of operators and rows, and
# per point only its columns, the grid and four estimate columns, which are
# written without a copy.  The peak grows by about 40 bytes per added point
# from 2**12 to 2**15 points (scans, search-optimal and exact highdim at
# dim 2), and is 41 to 46 bytes per point at 2**18 points.  The budget
# keeps the 1280 bytes per point of whole-grid evaluation (1272 measured),
# so every grid is still capped at SCAN_POINTS points before anything is
# allocated, and no config changes its exit code.
_GRID_POINT_BYTES = 1280
SCAN_POINTS = _HIGHDIM_BYTES // _GRID_POINT_BYTES
# Memory model of a calibration's bootstrap (tracemalloc slopes through main
# between 4000 and 60000 resamples, every fit, scans of 8, 2049 and 4097
# points): the kept rows, one (resamples, width) array, and the arrays
# derived from them take at most 112 bytes per resample, reached by the
# unknown-theta fit on 2049 points; the statistics a fit has reduced but not
# yet fitted are at most one group of 8192 numbers (or one draw block's),
# and a draw block holds at most 8192 uniforms (or one resample), whatever
# the resample count.  The resample count is capped at
# BOOTSTRAP_LIMIT, within the same budget, before anything is drawn.
_RESAMPLE_BYTES = 128
BOOTSTRAP_LIMIT = _HIGHDIM_BYTES // _RESAMPLE_BYTES
# Time model of a shot-mode run: it draws points * 2 * shots raw Philox
# words (both arms of every record).  A run of more than DRAW_LIMIT draws is
# refused before any table is built.  DRAW_LIMIT is a fixed count: the words
# of _DRAW_SECONDS at the _WORD_NS per word measured on one core of a 2-vCPU
# x86_64 VM (numpy 2.4) when the cap was set.  How long the limit takes now
# depends on the host: on such VMs the raw Philox words alone have since
# taken from 3.4 to 9.9 ns each on one core, from run to run as host load
# changed.  It stays a count, so that no config changes its exit code.
# The bound is a one-core bound: records of more than one block are drawn on
# every CPU the process may use, which shortens the run but leaves the
# limit, and so which configs are refused, unchanged.
_WORD_NS = 8.5
_DRAW_SECONDS = 3 * 3600
DRAW_LIMIT = int(_DRAW_SECONDS * 1e9 / _WORD_NS)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


# Parsers: each takes (value, what, *args), where ``what`` names the value
# in messages, and returns the parsed value or raises SchemaError.


def _number(value, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """A config number as a finite double in (low, high]; ``true``/``false``,
    strings, ``null`` and integers too large for a double are schema errors."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    _require(math.isfinite(number), f"{what} must be finite in double precision")
    _require(low < number <= high, f"{what} must lie in ({low}, {high}]")
    return number


def _integer(value, what: str, low: int, high: int) -> int:
    """A JSON integer in [low, high]; ``true``/``false`` load as ``bool``."""
    _require(isinstance(value, int) and not isinstance(value, bool) and low <= value <= high,
             f"{what} must be an integer in [{low}, {high}]")
    return value


def _shots(value, what: str) -> int | None:
    """None for ``"exact"``, else the shots of one point within DRAW_LIMIT."""
    return None if value == "exact" else _integer(value, f'{what} (or "exact")', 1, DRAW_LIMIT // 2)


def _choice(value, what: str, *choices: str) -> str:
    _require(value in choices, f"unknown {what} {value!r}, not one of {choices}")
    return value


def _path(value, what: str) -> str:
    _require(isinstance(value, str), f"{what} must be a path")
    return value


def _vector(value, what: str) -> np.ndarray:
    """A 3-component config vector of numbers."""
    _require(isinstance(value, list) and len(value) == 3, f"{what} must have 3 components")
    return np.array([_number(v, f"{what}[{i}]") for i, v in enumerate(value)])


def _point(value, what: str) -> tuple[float, float, int]:
    """One number as the one-point grid (value, value, 1)."""
    number = _number(value, what)
    return number, number, 1


def _grid(spec, what: str) -> tuple[float, float, int]:
    """(start, stop, points) of a grid spec, checked alone; ``_linspace``
    makes the points once the branch has checked the caps of other keys."""
    _require(isinstance(spec, dict) and set(spec) <= {"start", "stop", "points"},
             f"{what} must carry start/stop/points")
    points = _integer(spec.get("points"), f"{what}.points", 1, SCAN_POINTS)
    start = _number(spec.get("start", 0.0), f"{what}.start")
    stop = _number(spec.get("stop", 2 * math.pi), f"{what}.stop")
    _require(math.isfinite(stop - start), f"{what} span stop - start overflows double precision")
    return start, stop, points


def _measurement(spec, what: str, scan_target: bool = False) -> tuple:
    """(bias, Bloch vector) of ``{bias, bloch}`` or of ``gamma`` along ``theta``
    in the x-z plane; a scan target takes no bloch but one of theta and
    theta_grid, and gives (bias, gamma, angle grid as ``_grid`` gives it)."""
    other = ("gamma", "theta_grid") if scan_target else ("bloch",)
    _require(isinstance(spec, dict) and (
        set(spec) <= {"bias", "gamma", "theta"} or set(spec) <= {"bias", *other}),
        f"{what} takes bias, gamma and theta, or bias and {' and '.join(other)}")
    bias = _number(spec.get("bias", 0.0), f"{what}.bias")
    if "bloch" in spec:
        return bias, _vector(spec["bloch"], f"{what}.bloch")
    gamma = _number(spec.get("gamma", 1.0), f"{what}.gamma")
    if not scan_target:
        return bias, gamma * plane_axis(_number(spec.get("theta", 0.0), f"{what}.theta"))
    if "theta_grid" in spec:
        return bias, gamma, _grid(spec["theta_grid"], f"{what}.theta_grid")
    _require("theta" in spec, f"{what} needs one of theta and theta_grid")
    return bias, gamma, _point(spec["theta"], f"{what}.theta")


def _state(value, what: str) -> np.ndarray | None:
    """None for ``"optimal"``, else the Bloch vector of ``{"bloch": [x, y, z]}``."""
    if value == "optimal":
        return None
    _require(isinstance(value, dict) and set(value) == {"bloch"},
             f"{what} must be \"optimal\" or {{\"bloch\": [x,y,z]}}")
    return _vector(value["bloch"], f"{what}.bloch")


def _detector(spec, what: str) -> dict:
    """The numbers of a detector spec: ``eta`` and ``nu`` to simulate, or
    readings ``d1`` and ``c2`` to invert, with non-negative errors (default 0)."""
    _require(isinstance(spec, dict) and (
        set(spec) == {"eta", "nu"} or set(spec) - {"d1_err", "c2_err"} == {"d1", "c2"}),
        f"{what} takes eta and nu, or d1 and c2 (optionally d1_err and c2_err)")
    numbers = {key: _number(value, f"{what}.{key}") for key, value in spec.items()}
    for key in ("d1_err", "c2_err"):
        _require(numbers.get(key, 0.0) >= 0.0, f"{what}.{key} must be non-negative")
    return numbers if "eta" in numbers else {"d1_err": 0.0, "c2_err": 0.0, **numbers}


_REQUIRED = object()  # the default of a key that every config of its mode gives
_POLICIES = tuple(policy.value for policy in InstrumentPolicy)
# key -> (default, parser, *args) of each mode, beside schema, mode and the
# common seed; a default of None reads None when the key is absent, any other
# default goes through the parser
_SEED = {"seed": (0, _integer, 0, SEED_LIMIT - 1)}
_SCHEMA = {
    "scan": {
        "shots": ("exact", _shots),
        "policy": ("lueders", _choice, *_POLICIES),
        "probe": ({"gamma": 1.0, "theta": 0.0}, _measurement),
        "target": (_REQUIRED, _measurement, True),
        "state": ("optimal", _state),
    },
    # the defaults reproduce the optimal-state search setting: probe axis at
    # pi/4 in the x-z plane, target along x
    "search-optimal": {
        "shots": ("exact", _shots),
        "policy": ("lueders", _choice, *_POLICIES),
        "probe": ({"gamma": 1.0, "theta": math.pi / 4}, _measurement),
        "target": ({"gamma": 1.0, "theta": 0.0}, _measurement),
        "phi_grid": ({"points": 64}, _grid),
    },
    "calibrate": {
        "scan_file": (_REQUIRED, _path),
        "fit": ("circle", _choice, "circle", "ellipse-known-theta", "ellipse-unknown-theta"),
        "target_strength": (None, _number, 0.0, 1.0),
        "bootstrap": (200, _integer, 0, BOOTSTRAP_LIMIT),
    },
    "detector": {
        "shots": ("exact", _shots),
        "detector": (_REQUIRED, _detector),
    },
    "highdim": {
        "shots": ("exact", _shots),
        "dim": (2, _integer, 2, HIGHDIM_ENTRIES),
        "gamma": (1.0, _number),
        "c2": (0.5, _point),
        "c2_grid": (None, _grid),
    },
}
MODES = tuple(_SCHEMA)


def _reject_constant(name: str):
    raise SchemaError(f"config holds the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # a literal such as 1e400 overflows to inf
        raise SchemaError(f"config number {text} is not finite in double precision")
    return value


def load_config(path: str) -> dict:
    """Parse a config file; NaN, Infinity and numbers that overflow a
    double are rejected, so every float in the config is finite."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(config, dict), "config must be a JSON object")
    _require(config.get("schema") == SCHEMA_VERSION,
             f"config schema must be {SCHEMA_VERSION}")
    _require(config.get("mode") in MODES, f"mode must be one of {MODES}")
    return config


def _parse(config: dict) -> dict:
    """The parsed value of every key of the config's mode and the seed,
    defaults filled in; a key the mode does not take is refused."""
    mode = config["mode"]
    table = {**_SEED, **_SCHEMA[mode]}
    unknown = set(config) - {"schema", "mode"} - set(table)
    _require(not unknown, f"{mode} mode takes no config keys {sorted(unknown)}")
    values = {}
    for key, (default, parser, *args) in table.items():
        if key in config:
            values[key] = parser(config[key], key, *args)
        else:
            _require(default is not _REQUIRED, f"{mode} mode needs {key}")
            values[key] = None if default is None else parser(default, key, *args)
    return values


def _draws(points: int, shots: int | None) -> None:
    _require(shots is None or points * 2 * shots <= DRAW_LIMIT,
             f"points * 2 * shots must be <= {DRAW_LIMIT} (a fixed cap on draws)")


def _linspace(start: float, stop: float, points: int, shots: int | None) -> np.ndarray:
    """The points of a grid (``_grid``), once their draws are within DRAW_LIMIT."""
    _draws(points, shots)
    return np.linspace(start, stop, points, endpoint=False) if points > 1 else np.array([start])


def _slices(points: int, entries: int = 4):
    """The slices of a grid of ``points`` points whose operators hold
    ``entries`` entries each (default: a qubit's 2 x 2): ``_BATCH_ENTRIES``
    entries a slice, and at least one point."""
    step = max(1, _BATCH_ENTRIES // entries)
    return (slice(start, min(start + step, points)) for start in range(0, points, step))


def _columns(joint, alone, probe: Instrument, labels, shots: int | None, seed: int, first=0):
    """Columns of a stack of ``scenario_tables`` output whose target outcomes
    carry ``labels``: exact c, d (2, points), or with ``shots`` per arm the
    estimates c, d, c_err, d_err (4, points), point i from stream seed ^ (first + i)."""
    if shots is None:
        return np.array(cd_tables(joint, alone, probe, labels))
    return estimate_columns(*sample_tables(joint, alone, shots, seed, first))


def _scan_rows(config: dict, values: dict) -> tuple[np.ndarray, np.ndarray]:
    """The grid and the (4, points) columns c, d, c_err, d_err of the scan
    and search-optimal modes."""
    scan, shots = config["mode"] == "scan", values["shots"]
    if scan:
        target_bias, gamma, angles = values["target"]
    else:
        (target_bias, target_bloch), angles = values["target"], values["phi_grid"]
    grid = _linspace(*angles, shots)
    probe_bias, probe_bloch = values["probe"]
    probe = InstrumentPolicy(values["policy"]).instrument(
        Povm(qubit_povms(probe_bias, probe_bloch)))
    columns = np.zeros((4, len(grid)))  # c, d, c_err, d_err (exact: no errors)
    for points in _slices(len(grid)):
        with index_base(points.start):
            part = grid[points]
            if scan:
                target_bloch = gamma * plane_axis(part)
            target_effects = qubit_povms(target_bias, target_bloch)
            # the measurements are validated before the optimal state takes their axes
            if not scan:
                state = np.stack([np.sin(part), np.zeros_like(part), np.cos(part)], axis=-1)
            elif (state := values["state"]) is None:
                state = optimal_bloch(unit_axes(probe_bloch), unit_axes(target_bloch))
            joint, alone = scenario_tables(qubit_states(state), probe, target_effects)
            part = _columns(joint, alone, probe, probe.labels, shots, values["seed"], points.start)
            columns[:len(part), points] = part
    return grid, columns


def _highdim_rows(config: dict, values: dict) -> tuple[np.ndarray, np.ndarray]:
    """The theta column and the (4, points) columns of an overlap scan."""
    dim, shots = values["dim"], values["shots"]
    _require(shots is None or dim <= HIGHDIM_SHOT_DIM, f"shots need dim <= {HIGHDIM_SHOT_DIM}")
    _require(values["c2_grid"] is None or "c2" not in config, "highdim takes one of c2 and c2_grid")
    start, stop, points = values["c2_grid"] or values["c2"]
    _require(points * dim <= HIGHDIM_ENTRIES, f"points * dim must be <= {HIGHDIM_ENTRIES}")
    grid = _linspace(start, stop, points, shots)
    _require(bool(np.all((grid >= 0) & (grid <= 1))), "c2 values must lie in [0, 1]")
    # sharp probe along the first basis ket; target ket at overlap c2 with it
    ket_a = np.zeros(dim)
    ket_a[0] = 1.0
    if shots is not None:
        proj_a = projectors(ket_a)
        probe = Instrument.lueders(Povm(randomized_povms(1.0, proj_a)))
    columns = np.zeros((4, len(grid)))  # c, d, c_err, d_err (exact: no errors)
    # an exact slice holds (points, dim) kets, a shot-mode slice (points, dim, dim) stacks
    for points in _slices(len(grid), dim if shots is None else dim * dim):
        with index_base(points.start):
            c2 = grid[points]
            kets_b = np.zeros((len(c2), dim))
            kets_b[:, 0] = np.sqrt(c2)
            kets_b[:, 1] = np.sqrt(1.0 - c2)
            if shots is None:
                columns[:2, points] = circle_law(values["gamma"], overlaps(ket_a, kets_b))
                continue
            proj_b = projectors(kets_b)
            # rank-one projectors of unit kets: valid states by construction
            joint, alone = scenario_tables(projectors(optimal_kets(proj_a, proj_b)), probe,
                                           randomized_povms(values["gamma"], proj_b))
            columns[:, points] = _columns(joint, alone, probe, probe.labels, shots,
                                          values["seed"], points.start)
    grid *= 2.0  # theta = arccos(2 c^2 - 1), in place of the overlaps
    grid -= 1.0
    return np.arccos(np.clip(grid, -1.0, 1.0, out=grid), out=grid), columns


def _report(config: dict, **fields) -> dict:
    """A report or sidecar: ``fields``, the config, its SHA-256 and the library version."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())
    return {"schema": SCHEMA_VERSION, "library_version": __version__, "config": config,
            "config_sha256": digest.hexdigest(), **fields}


def _write_scan(out_path: str, theta: np.ndarray, columns: np.ndarray, config: dict) -> None:
    """The CSV of a scan's theta column and (4, points) columns c, d, c_err,
    d_err, written one slice of rows at a time (one ``%`` formatting each),
    and its sidecar."""
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for points in _slices(len(theta)):
            c, d, c_err, d_err = columns[:, points]
            rows = np.column_stack([theta[points], c, d, c_err, d_err, c * c + d * d]) + 0.0
            fh.write(_CSV_ROW * len(rows) % tuple(rows.ravel().tolist()))
    _write_json(_sidecar_path(out_path), _report(config, csv_header=CSV_HEADER, rows=len(theta)))


def _sidecar_path(csv_path: str) -> str:
    # distinct suffix so the sidecar can never clobber a config file that
    # shares the CSV's stem
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".meta.json"


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_scan_csv(path: str) -> CdScan:
    """Parse a scan CSV back into a calibration scan.  The rows are parsed
    in one ``np.loadtxt`` conversion, which reads a number as ``float``
    does but refuses a few that ``float`` takes (underscores, non-ASCII
    digits), and checked as an array; a file that fails there is parsed
    again by ``_parsed_rows``, which names the first bad row."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in map(str.strip, fh) if line]
    except OSError as exc:
        raise ConfigError(f"cannot read scan file: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise SchemaError(f"scan file must start with header {CSV_HEADER!r}")
    rows = lines[1:]
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else None
    except ValueError:
        values = None
    if (values is None or values.shape != (len(rows), 6) or not np.isfinite(values).all()
            or (values[:, 3:5] < 0).any()):
        values = _parsed_rows(rows)
    theta, c, d, c_err, d_err, _ = values.T
    return CdScan(theta, c, d, c_err, d_err)


def _parsed_rows(lines: list) -> np.ndarray:
    """Scan rows parsed one at a time as ``float`` does, six finite numbers
    each with non-negative errors; a SchemaError names the first bad row."""
    rows = []
    for number, line in enumerate(lines, start=1):
        parts = line.split(",")
        if len(parts) != 6:
            raise SchemaError(f"malformed scan row: {line!r}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise SchemaError(f"non-numeric scan row: {line!r}") from exc
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"scan row {number} holds a non-finite number: {line!r}")
        if values[3] < 0 or values[4] < 0:
            raise SchemaError(f"scan row {number} holds a negative c_err or d_err: {line!r}")
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, 6)


def _calibrate_fields(config: dict, values: dict) -> dict:
    fit, strength, n_boot, seed = map(values.get, ("fit", "target_strength", "bootstrap", "seed"))
    _require(fit == "ellipse-known-theta" or strength is None,
             "target_strength applies to the ellipse-known-theta fit only")
    scan = read_scan_csv(values["scan_file"])
    if fit == "circle":
        circle = fit_circle_sharp_probe(scan, n_boot, seed)
        result = {"target_strength": circle.strength, "target_strength_err": circle.strength_err,
                  "residual": circle.residual}
    elif fit == "ellipse-known-theta":
        result = dataclasses.asdict(fit_ellipse_known_theta(scan, strength, n_boot, seed))
    else:
        result = dataclasses.asdict(fit_ellipse_unknown_theta(scan, n_boot, seed))
    return {"fit": fit, "points": len(scan), "result": result}


def _detector_fields(config: dict, values: dict) -> dict:
    spec, shots = values["detector"], values["shots"]
    fields = {}
    if "eta" in spec:
        noise = DetectorNoise(**spec)
        _draws(2, shots)
        # the sharp and fully biased settings are points 0 and 1 of one
        # stack, drawn from the streams seed ^ 0 and seed ^ 1; the two
        # heralds share their labels and neither is a square-root
        # instrument, so the sharp one stands for both in ``cd_tables``
        tables = zip(*(scenario_distributions(noise, ref) for ref in ("sharp", "fully_biased")))
        columns = _columns(*map(np.stack, tables), _herald("sharp"), LABELS_CLICK, shots,
                           values["seed"])
        # c1, d1, c2, d2, and in shot mode their errors c1_err ... d2_err
        readings = {name % setting: value
                    for name, row in zip(("c%d", "d%d", "c%d_err", "d%d_err"), columns.tolist())
                    for setting, value in enumerate(row, start=1)}
        fields = {"readings": readings, "truth": {"eta": noise.eta, "nu": noise.nu}}
        # the simulated readings are inverted as measured ones are
        spec = {key: readings.get(key, 0.0) for key in ("d1", "c2", "d1_err", "c2_err")}
    else:
        _require("shots" not in config, "a detector inversion draws no shots")
    estimate = estimate_detector(**spec)
    fields["estimate"] = {"eta": estimate.noise.eta, "nu": estimate.noise.nu,
                          "eta_err": estimate.eta_err, "nu_err": estimate.nu_err}
    return fields


# What each mode writes: a scan CSV with its sidecar, from the grid and the
# (4, points) columns of the mode's rows function, or a JSON report of the
# fields its function returns.
_RUNS = {"scan": ("csv", _scan_rows), "search-optimal": ("csv", _scan_rows),
         "highdim": ("csv", _highdim_rows),
         "calibrate": ("json", _calibrate_fields), "detector": ("json", _detector_fields)}


def _file_key(path: str):
    """What names the file at ``path``: its device and inode when it exists
    (so a symlink or a hard link names its target), else its real path."""
    try:
        info = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return info.st_dev, info.st_ino


def _require_distinct(config_path: str, out_path: str, mode: str, values: dict) -> None:
    """Refuse outputs (the report, or a scan CSV and its sidecar) that name
    an input: the config file or a calibration's scan file."""
    outputs = [out_path]
    if _RUNS[mode][0] == "csv":
        outputs.append(_sidecar_path(out_path))
    inputs = {_file_key(config_path): "the config file"}
    if mode == "calibrate":
        inputs[_file_key(values["scan_file"])] = "the scan file"
    for path in outputs:
        if clobbered := inputs.get(_file_key(path)):
            raise ConfigError(f"output {path!r} would overwrite {clobbered}")


def run(config: dict, values: dict, out_path: str) -> None:
    """Run the config's mode on ``values``, its keys as ``_parse`` gives them."""
    kind, produce = _RUNS[config["mode"]]
    if kind == "csv":
        _write_scan(out_path, *produce(config, values), config)
    else:
        _write_json(out_path, _report(config, **produce(config, values)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdtradeoff",
        description="Sequential-measurement correlation/disturbance scans and calibration.",
    )
    parser.add_argument("--config", required=True, help="JSON scenario config")
    parser.add_argument("--out", required=True, help="output CSV (scans) or JSON (reports)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--exact", action="store_true", help="force exact (infinite-shot) mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.exact:
            config["shots"] = "exact"
        values = _parse(config)
        _require_distinct(args.config, args.out, config["mode"], values)
        run(config, values, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, OutOfDomainError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except CdTradeoffError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
