"""Command-line interface: JSON scenario configs in, CSV scan data and JSON
calibration reports out.

Modes
-----
scan            theta scan of a probe/target pair (exact or finite shots)
search-optimal  scan the initial-state angle phi at fixed measurements
calibrate       fit a previously written scan file
detector        simulate and/or invert the on-off detector protocol
highdim         overlap scan of the d-dimensional circle law

All angles are radians.  CSV columns are theta,c,d,c_err,d_err,c2d2 with 9
significant digits; every scan CSV gets a JSON sidecar carrying the full
config, its SHA-256 hash, and the library version, so outputs are
byte-reproducible from config + seed alone.  A scan is evaluated as one
batch: its operators are built, validated and turned into outcome tables
with array kernels over the grid.  Shot-mode scan point ``i`` then draws
from a Philox stream keyed by ``seed XOR i``, where the seed lies in
[0, 2**64).

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
from .detector_model import DetectorNoise, scenario_cd, scenario_distributions
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
from .quantum_core import Instrument, Povm, check_states, scenario_tables
from .qubit_model import optimal_bloch, plane_axis, qubit_povms, qubit_states, unit_axes
from .shot_sampler import InstrumentPolicy, estimate_columns, sample_tables

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_FIT = 4

CSV_HEADER = "theta,c,d,c_err,d_err,c2d2"
# 9 significant digits, '.' decimal separator; columns get + 0.0 first so
# that no value prints as -0
_CSV_ROW = ",".join(["%.9g"] * 6)
SCHEMA_VERSION = 1
LABELS = (1.0, -1.0)  # outcome labels of every scan measurement, in effect order
SEED_LIMIT = 2**64
# Shot-mode highdim scans build (points, dim, dim) operator stacks; they are
# evaluated in batches of at most this many matrix entries (and at least one
# point), so memory does not grow with the grid.
_BATCH_ENTRIES = 1 << 16
# Memory model of a highdim scan (tracemalloc peaks, less a fixed overhead
# under 1 MiB): an exact scan holds at most 64 bytes per entry of its
# (points, dim) kets, and a shot-mode scan on top 320 bytes per entry of one
# batch of (dim, dim) stacks, max(dim**2, _BATCH_ENTRIES) entries.  Configs
# whose model exceeds _HIGHDIM_BYTES are refused before anything is
# allocated: points * dim <= HIGHDIM_ENTRIES (2**24) in every mode, and
# dim <= HIGHDIM_SHOT_DIM (1831) in shot mode.
_HIGHDIM_BYTES = 1 << 30
HIGHDIM_ENTRIES = _HIGHDIM_BYTES // 64
HIGHDIM_SHOT_DIM = math.isqrt(_HIGHDIM_BYTES // 320)
# Memory model of a grid (tracemalloc peaks through main at 2**12 to 2**16
# points, every policy, exact and shot mode): a scan or search-optimal run
# holds at most 1250 bytes per point, reached by the measure-and-prepare
# policies on the optimal state, and an exact highdim run at dim 2 about
# 350 (its CSV rows outweigh the 64 bytes per ket entry).  Every grid is
# capped at SCAN_POINTS points, within the same budget, before anything is
# allocated.
_GRID_POINT_BYTES = 1280
SCAN_POINTS = _HIGHDIM_BYTES // _GRID_POINT_BYTES
# Memory model of a calibration's bootstrap (tracemalloc slopes through main
# between 4000 and 60000 resamples, every fit, scans of 8, 2049 and 4097
# points): the kept rows, one (resamples, width) array, and the arrays
# derived from them take at most 118 bytes per resample, reached by the
# unknown-theta fit on 8 points.  The resample count is capped at
# BOOTSTRAP_LIMIT, within the same budget, before anything is drawn.
_RESAMPLE_BYTES = 128
BOOTSTRAP_LIMIT = _HIGHDIM_BYTES // _RESAMPLE_BYTES

# the config keys of each mode, beside schema, mode and seed
_MODE_KEYS = {
    "scan": {"shots", "policy", "probe", "target", "state"},
    "search-optimal": {"shots", "policy", "probe", "target", "phi_grid"},
    "calibrate": {"scan_file", "fit", "target_strength", "bootstrap"},
    "detector": {"shots", "detector"},
    "highdim": {"shots", "dim", "gamma", "c2", "c2_grid"},
}
MODES = tuple(_MODE_KEYS)


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _is_int(value) -> bool:
    """JSON integer: ``true``/``false`` load as ``bool``, a subclass of
    ``int``, and are rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A config number as a finite double; ``true``/``false``, strings,
    ``null`` and integers too large for a double are schema errors."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    _require(math.isfinite(number), f"{what} must be finite in double precision")
    return number


def _vector(value, what: str) -> np.ndarray:
    """A 3-component config vector of numbers."""
    _require(isinstance(value, list) and len(value) == 3, f"{what} must have 3 components")
    return np.array([_number(v, f"{what}[{i}]") for i, v in enumerate(value)])


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


def _grid(spec: dict, what: str, max_points: int = SCAN_POINTS) -> np.ndarray:
    _require(isinstance(spec, dict) and set(spec) <= {"start", "stop", "points"},
             f"{what} must carry start/stop/points")
    points = spec.get("points")
    _require(_is_int(points) and points >= 1, f"{what}.points must be >= 1")
    _require(points <= max_points, f"{what}.points must be <= {max_points}")
    start = _number(spec.get("start", 0.0), f"{what}.start")
    stop = _number(spec.get("stop", 2 * math.pi), f"{what}.stop")
    _require(math.isfinite(stop - start), f"{what} span stop - start overflows double precision")
    return np.linspace(start, stop, points, endpoint=False) if points > 1 else np.array([start])


def _measurement(spec: dict, what: str, theta=None) -> tuple[float, np.ndarray]:
    """(bias, Bloch vector) of a measurement spec.  An angle grid ``theta``
    replaces the spec's own angle and gives one Bloch vector per point."""
    _require(isinstance(spec, dict), f"{what} must be an object")
    _require(set(spec) <= {"bias", "gamma", "theta", "bloch"},
             f"{what} keys must be bias/gamma/theta or bias/bloch")
    _require(not ("bloch" in spec and {"gamma", "theta"} & set(spec)),
             f"{what}.bloch excludes gamma and theta")
    bias = _number(spec.get("bias", 0.0), f"{what}.bias")
    if "bloch" in spec:
        bloch = _vector(spec["bloch"], f"{what}.bloch")
    else:
        gamma = _number(spec.get("gamma", 1.0), f"{what}.gamma")
        angle = _number(spec.get("theta", 0.0), f"{what}.theta") if theta is None else theta
        bloch = gamma * plane_axis(angle)
    if theta is not None:
        bloch = np.broadcast_to(bloch, (len(theta), 3))
    return bias, bloch


def _states(spec, probe_bloch: np.ndarray, target_bloch: np.ndarray) -> np.ndarray:
    if spec == "optimal" or spec is None:
        return qubit_states(optimal_bloch(unit_axes(probe_bloch), unit_axes(target_bloch)))
    _require(isinstance(spec, dict) and set(spec) == {"bloch"},
             "state must be \"optimal\" or {\"bloch\": [x,y,z]}")
    return qubit_states(_vector(spec["bloch"], "state.bloch"))


def _shots(config: dict) -> int | None:
    shots = config.get("shots", "exact")
    if shots == "exact":
        return None
    _require(_is_int(shots) and shots > 0, "shots must be a positive integer or \"exact\"")
    return shots


def _policy(config: dict) -> InstrumentPolicy:
    name = config.get("policy", "lueders")
    try:
        return InstrumentPolicy(name)
    except ValueError as exc:
        raise SchemaError(f"unknown policy {name!r}") from exc


def _scan_rows(config: dict, seed: int) -> CdScan:
    """The scan of the scan and search-optimal modes."""
    mode = config["mode"]
    shots = _shots(config)
    policy = _policy(config)
    # search-optimal defaults reproduce the optimal-state search setting:
    # probe axis at pi/4 in the x-z plane, target along x
    default_theta = 0.0 if mode == "scan" else math.pi / 4
    probe_bias, probe_bloch = _measurement(
        config.get("probe", {"gamma": 1.0, "theta": default_theta}), "probe")
    probe = policy.instrument(Povm(qubit_povms(probe_bias, probe_bloch), LABELS))
    if mode == "scan":
        target_spec = config.get("target", {})
        _require(isinstance(target_spec, dict), "target must be an object")
        target_spec = dict(target_spec)
        _require(("theta_grid" in target_spec) != ("theta" in target_spec),
                 "target needs one of theta and theta_grid")
        if "theta_grid" in target_spec:
            grid = _grid(target_spec.pop("theta_grid"), "target.theta_grid")
        else:
            grid = np.array([_number(target_spec.pop("theta"), "target.theta")])
        target_bias, target_bloch = _measurement(target_spec, "target", grid)
        target_effects = qubit_povms(target_bias, target_bloch)
        rho = _states(config.get("state"), probe_bloch, target_bloch)
    else:
        target_bias, target_bloch = _measurement(
            config.get("target", {"gamma": 1.0, "theta": 0.0}), "target")
        target_effects = qubit_povms(target_bias, target_bloch)
        grid = _grid(config.get("phi_grid", {"points": 64}), "phi_grid")
        rho = qubit_states(np.stack([np.sin(grid), np.zeros_like(grid), np.cos(grid)], axis=-1))
    joint, alone = scenario_tables(rho, probe, target_effects)
    if shots is not None:
        return CdScan(grid, *estimate_columns(*sample_tables(joint, alone, shots, seed)))
    return CdScan(grid, *cd_tables(joint, alone, probe, LABELS))


def _highdim_rows(config: dict, seed: int) -> CdScan:
    dim = config.get("dim", 2)
    _require(_is_int(dim) and dim >= 2, "dim must be an integer >= 2")
    shots = _shots(config)
    _require(dim <= (HIGHDIM_ENTRIES if shots is None else HIGHDIM_SHOT_DIM),
             f"dim must be <= {HIGHDIM_ENTRIES} (exact) or {HIGHDIM_SHOT_DIM} (shots)")
    gamma = _number(config.get("gamma", 1.0), "gamma")
    _require(not {"c2", "c2_grid"} <= set(config), "highdim takes one of c2 and c2_grid")
    if "c2_grid" in config:
        grid = _grid(config["c2_grid"], "c2_grid", min(SCAN_POINTS, HIGHDIM_ENTRIES // dim))
    else:
        grid = np.array([_number(config.get("c2", 0.5), "c2")])
    _require(bool(np.all((grid >= 0) & (grid <= 1))), "c2 values must lie in [0, 1]")
    # sharp probe along the first basis ket; target ket at overlap c2 with it
    ket_a = np.zeros(dim)
    ket_a[0] = 1.0
    kets_b = np.zeros((len(grid), dim))
    kets_b[:, 0] = np.sqrt(grid)
    kets_b[:, 1] = np.sqrt(1.0 - grid)
    angles = np.arccos(np.clip(2.0 * grid - 1.0, -1.0, 1.0))
    if shots is None:
        return CdScan(angles, *circle_law(gamma, overlaps(ket_a, kets_b)))
    proj_a = projectors(ket_a)
    probe = Instrument.lueders(Povm(randomized_povms(1.0, proj_a), LABELS))
    batches = []
    step = max(1, _BATCH_ENTRIES // (dim * dim))
    for start in range(0, len(grid), step):
        proj_b = projectors(kets_b[start:start + step])
        joint, alone = scenario_tables(
            check_states(projectors(optimal_kets(proj_a, proj_b))), probe,
            randomized_povms(gamma, proj_b),
        )
        batches.append(estimate_columns(*sample_tables(joint, alone, shots, seed, start)))
    return CdScan(angles, *np.concatenate(batches, axis=1))


def _write_scan(out_path: str, scan: CdScan, config: dict) -> None:
    c2d2 = scan.c * scan.c + scan.d * scan.d
    columns = (scan.theta, scan.c, scan.d, scan.c_err, scan.d_err, c2d2)
    lines = [CSV_HEADER]
    lines += (_CSV_ROW % row for row in zip(*((col + 0.0).tolist() for col in columns)))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "schema": SCHEMA_VERSION,
        "library_version": __version__,
        "config": config,
        "config_sha256": _config_hash(config),
        "csv_header": CSV_HEADER,
        "rows": len(scan),
    }
    _write_json(_sidecar_path(out_path), sidecar)


def _sidecar_path(csv_path: str) -> str:
    # distinct suffix so the sidecar can never clobber a config file that
    # shares the CSV's stem
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".meta.json"


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_scan_csv(path: str) -> CdScan:
    """Parse a scan CSV back into a calibration scan."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read scan file: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise SchemaError(f"scan file must start with header {CSV_HEADER!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 6:
            raise SchemaError(f"malformed scan row: {line!r}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise SchemaError(f"non-numeric scan row: {line!r}") from exc
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"scan row {number} holds a non-finite number: {line!r}")
        rows.append(values)
    theta, c, d, c_err, d_err, _ = np.array(rows, dtype=float).reshape(-1, 6).T
    return CdScan(theta, c, d, c_err, d_err)


def _cmd_calibrate(config: dict, seed: int, out_path: str) -> None:
    _require(isinstance(config.get("scan_file"), str), "calibrate mode needs scan_file, a path")
    fit_kind = config.get("fit", "circle")
    _require(fit_kind in ("circle", "ellipse-known-theta", "ellipse-unknown-theta"),
             "fit must be circle, ellipse-known-theta, or ellipse-unknown-theta")
    _require(fit_kind == "ellipse-known-theta" or "target_strength" not in config,
             "target_strength applies to the ellipse-known-theta fit only")
    n_boot = config.get("bootstrap", 200)
    _require(_is_int(n_boot) and 0 <= n_boot <= BOOTSTRAP_LIMIT,
             f"bootstrap must be an integer in [0, {BOOTSTRAP_LIMIT}]")
    scan = read_scan_csv(config["scan_file"])
    report = {
        "schema": SCHEMA_VERSION,
        "library_version": __version__,
        "config": config,
        "config_sha256": _config_hash(config),
        "fit": fit_kind,
        "points": len(scan),
    }
    if fit_kind == "circle":
        result = fit_circle_sharp_probe(scan, n_boot, seed)
        report["result"] = {
            "target_strength": result.strength,
            "target_strength_err": result.strength_err,
            "residual": result.residual,
        }
    else:
        if fit_kind == "ellipse-known-theta":
            strength = config.get("target_strength")
            if strength is not None:
                strength = _number(strength, "target_strength")
                _require(0.0 < strength <= 1.0, "target_strength must lie in (0, 1]")
            character = fit_ellipse_known_theta(scan, strength, n_boot, seed)
        else:
            character = fit_ellipse_unknown_theta(scan, n_boot, seed)
        report["result"] = dataclasses.asdict(character)
    _write_json(out_path, report)


def _cmd_detector(config: dict, seed: int, out_path: str) -> None:
    spec = config.get("detector")
    _require(isinstance(spec, dict), "detector mode needs a detector object")
    report = {
        "schema": SCHEMA_VERSION,
        "library_version": __version__,
        "config": config,
        "config_sha256": _config_hash(config),
    }
    if {"eta", "nu"} <= set(spec):
        _require(set(spec) <= {"eta", "nu"}, "detector simulation takes only eta and nu")
        noise = DetectorNoise(_number(spec["eta"], "detector.eta"),
                              _number(spec["nu"], "detector.nu"))
        shots = _shots(config)
        if shots is None:
            sharp = scenario_cd(noise, "sharp")
            biased = scenario_cd(noise, "fully_biased")
            d1, c2 = sharp.disturbance, biased.correlation
            d1_err = c2_err = 0.0
            readings = {
                "c1": sharp.correlation, "d1": d1,
                "c2": c2, "d2": biased.disturbance,
            }
        else:
            # the sharp and fully biased settings are points 0 and 1 of one
            # stack, drawn from the streams seed ^ 0 and seed ^ 1
            tables = zip(*(scenario_distributions(noise, ref) for ref in ("sharp", "fully_biased")))
            (c1, c2), (d1, d2), (c1_err, c2_err), (d1_err, d2_err) = estimate_columns(
                *sample_tables(*map(np.stack, tables), shots, seed)).tolist()
            readings = {
                "c1": c1, "c1_err": c1_err,
                "d1": d1, "d1_err": d1_err,
                "c2": c2, "c2_err": c2_err,
                "d2": d2, "d2_err": d2_err,
            }
        report["readings"] = readings
        report["truth"] = {"eta": noise.eta, "nu": noise.nu}
        estimate = estimate_detector(d1, c2, d1_err, c2_err)
    else:
        _require("shots" not in config, "a detector inversion draws no shots")
        _require({"d1", "c2"} <= set(spec) and set(spec) <= {"d1", "c2", "d1_err", "c2_err"},
                 "detector inversion needs d1/c2 (optionally d1_err/c2_err)")
        estimate = estimate_detector(
            *(_number(spec.get(key, 0.0), f"detector.{key}")
              for key in ("d1", "c2", "d1_err", "c2_err")),
        )
    report["estimate"] = {
        "eta": estimate.noise.eta,
        "nu": estimate.noise.nu,
        "eta_err": estimate.eta_err,
        "nu_err": estimate.nu_err,
    }
    _write_json(out_path, report)


def _require_distinct(config_path: str, out_path: str, mode: str) -> None:
    """Refuse outputs (the report, or a scan CSV and its sidecar) that
    resolve to the config file."""
    outputs = [out_path]
    if mode not in ("calibrate", "detector"):
        outputs.append(_sidecar_path(out_path))
    config_real = os.path.realpath(config_path)
    for path in outputs:
        if os.path.realpath(path) == config_real:
            raise ConfigError(f"output {path!r} would overwrite the config file")


def run(config: dict, out_path: str, seed: int) -> None:
    mode = config["mode"]
    if mode in ("scan", "search-optimal"):
        _write_scan(out_path, _scan_rows(config, seed), config)
    elif mode == "highdim":
        _write_scan(out_path, _highdim_rows(config, seed), config)
    elif mode == "calibrate":
        _cmd_calibrate(config, seed, out_path)
    else:
        _cmd_detector(config, seed, out_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdtradeoff",
        description="Sequential-measurement correlation/disturbance scans and calibration.",
    )
    parser.add_argument("--config", required=True, help="JSON scenario config")
    parser.add_argument("--out", required=True, help="output CSV (scans) or JSON (reports)")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--exact", action="store_true", help="force exact (infinite-shot) mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.mode:
            config["mode"] = args.mode
        if args.seed is not None:
            config["seed"] = args.seed
        if args.exact:
            config["shots"] = "exact"
        unknown = set(config) - {"schema", "mode", "seed"} - _MODE_KEYS[config["mode"]]
        _require(not unknown, f"{config['mode']} mode takes no config keys {sorted(unknown)}")
        seed = config.get("seed", 0)
        _require(_is_int(seed) and 0 <= seed < SEED_LIMIT,
                 "seed must be an integer in [0, 2**64)")
        _require_distinct(args.config, args.out, config["mode"])
        run(config, args.out, seed)
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
