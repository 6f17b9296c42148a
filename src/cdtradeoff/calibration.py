"""Inversion of measured correlation/disturbance scans into device
parameters.

A scan against a sharp probe lies on a circle whose radius is the target
strength.  A theta scan against a general probe lies on a sheared ellipse

    C = c0 + P cos(theta) + Q |sin(theta)|,   D = S |sin(theta)|,

with c0 = a0 b0, P = |a||b|, Q = delta |b|, S = s |b|.  From scan data
alone only these four combinations are identifiable; separating the probe
parameters (|a|, a0, s, delta) additionally requires the target strength
|b|, e.g. from a sharp-target reference run.  The unknown-theta fit drops
the angle information entirely and recovers the same combinations from the
algebraic conic through the points.

A scan (``CdScan``) is held as columns: one read-only float64 array each
for theta, C, D and their errors, the layout the CLI scan modes write and
the fits read.

All fitted parameters carry nonparametric bootstrap errors (seeded,
resampling points with replacement); the shear decomposition is nonlinear,
so delta-method errors would under-cover.  The resample indices of a fit
are drawn as (resamples, points) arrays from the Philox stream of the seed;
they equal one draw per resample in order, so the error bits are unchanged
from 0.1.0.  A resample on which the fit degenerates is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detector_model import DetectorNoise, estimate_noise
from .errors import (
    FitError,
    InsufficientPointsError,
    InvalidMeasurementError,
    NotAnEllipseError,
    OutOfDomainError,
    RankDeficientError,
)
from .quantum_core import _frozen
from .shot_sampler import _stream

DEFAULT_BOOTSTRAP = 200
# DeviceCharacter fields of the four strength combinations and of the
# separated probe parameters, in the column order of the bootstrap rows
_COMBOS = ("center_shift", "target_strength_product", "shear_strength", "squeeze_strength")
_SEPARATED = ("probe_sharpness", "probe_bias", "squeeze", "shear")
# Bootstrap indices are drawn in blocks of whole resamples holding at most
# this many uniforms (and at least one resample).  One (resamples, points)
# matrix of 200 x 1024 raised the peak resident memory of a calibration run
# by 4.7 MiB; blocks this small add none, and the bits are the same.
_INDEX_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class CdScan:
    """Scan data as columns, one entry per point: the settings ``theta``
    (None when unknown), ``c``, ``d`` and their one-sigma errors ``c_err``
    and ``d_err`` (zeros by default).  Each column is stored as a read-only
    float64 array; all have the length of ``c``."""

    theta: np.ndarray | None
    c: np.ndarray
    d: np.ndarray
    c_err: np.ndarray | None = None
    d_err: np.ndarray | None = None

    def __post_init__(self):
        shape = (np.size(self.c),)
        for name in ("theta", "c", "d", "c_err", "d_err"):
            values = getattr(self, name)
            if values is None:
                if name == "theta":
                    continue
                values = np.zeros(shape)
            column = _frozen(np.asarray(values, dtype=float))
            if column.shape != shape:
                raise InsufficientPointsError(
                    f"scan column {name} has shape {column.shape}, expected {shape}")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class CircleFit:
    """Sharp-probe circle fit: target strength with error and residual."""

    strength: float
    strength_err: float
    residual: float


@dataclass(frozen=True)
class DeviceCharacter:
    """Recovered measurement-device parameters.

    The four strength combinations are always populated; the separated
    probe parameters are filled only when ``identifiability`` is "full".
    ``shear_ratio`` (Q / S) is None when the squeeze strength S is zero.
    ``errors`` maps field names to bootstrap one-sigma values.
    """

    center_shift: float
    target_strength_product: float
    shear_strength: float
    squeeze_strength: float
    shear_ratio: float | None
    identifiability: str
    probe_sharpness: float | None = None
    probe_bias: float | None = None
    squeeze: float | None = None
    shear: float | None = None
    residual: float = 0.0
    errors: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DetectorEstimate:
    """Detector noise with propagated one-sigma errors."""

    noise: DetectorNoise
    eta_err: float
    nu_err: float


def _bootstrap(fit, width: int, n: int, n_bootstrap: int, seed: int) -> np.ndarray:
    """Rows of ``fit`` (index array -> ``width`` parameters) on
    ``n_bootstrap`` resamples of the ``n`` points, drawn with replacement
    from the stream of ``seed`` as index matrices of whole resamples: the
    same indices as one ``random(n)`` call per resample.  A resample on
    which the fit raises ``FitError`` is skipped."""
    rng = _stream(seed)
    step = max(1, _INDEX_BLOCK // n)
    rows = []
    for start in range(0, n_bootstrap, step):
        draws = rng.random((min(step, n_bootstrap - start), n))
        for idx in np.minimum((draws * n).astype(np.int64), n - 1):
            try:
                rows.append(fit(idx))
            except FitError:
                continue
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _errors(names: tuple, rows: np.ndarray) -> dict:
    """Bootstrap one-sigma value of each column; empty below two rows."""
    if len(rows) < 2:
        return {}
    return dict(zip(names, map(float, rows.std(axis=0, ddof=1))))


def fit_circle_sharp_probe(
    scan: CdScan,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> CircleFit:
    """Target strength from a sharp-probe scan: sqrt of the error-weighted
    mean of C^2 + D^2.  Unweighted when any point lacks errors."""
    if len(scan) < 2:
        raise InsufficientPointsError(f"need at least 2 points, got {len(scan)}")
    c, d = scan.c, scan.d
    r2 = c * c + d * d
    r2_err = 2.0 * np.hypot(c * scan.c_err, d * scan.d_err)
    weighted = bool(np.all(r2_err > 0))
    weights = 1.0 / r2_err**2 if weighted else np.ones_like(r2)

    def point_fit(idx):
        m = np.average(r2[idx], weights=weights[idx])
        return (math.sqrt(max(m, 0.0)),)

    mean_r2 = np.average(r2, weights=weights)
    strength = math.sqrt(max(mean_r2, 0.0))
    residual = float(np.sqrt(np.mean((r2 - mean_r2) ** 2)))
    rows = _bootstrap(point_fit, 1, len(scan), n_bootstrap, bootstrap_seed)
    return CircleFit(strength, _errors(("strength",), rows).get("strength", 0.0), residual)


def _lstsq_scan(design: np.ndarray, target: np.ndarray, errs: np.ndarray):
    """Least squares with optional inverse-error weighting; returns the
    solution and the residual vector in data units."""
    if np.all(errs > 0):
        w = 1.0 / errs
        sol, _, rank, _ = np.linalg.lstsq(design * w[:, None], target * w, rcond=None)
    else:
        sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficientError("theta grid does not determine the fit")
    return sol, design @ sol - target


def _ellipse_combos_known_theta(theta, c, d, c_err, d_err):
    """(c0, P, Q, S) from a theta-labeled scan by linear least squares."""
    cos_t = np.cos(theta)
    sin_t = np.abs(np.sin(theta))
    if len(set(zip(np.round(cos_t, 12), np.round(sin_t, 12)))) < 3:
        raise RankDeficientError("need at least 3 distinct theta settings")
    sol_c, res_c = _lstsq_scan(
        np.column_stack([np.ones_like(theta), cos_t, sin_t]), c, c_err
    )
    sol_d, res_d = _lstsq_scan(sin_t[:, None], d, d_err)
    residual = float(np.sqrt(np.mean(np.concatenate([res_c, res_d]) ** 2)))
    return float(sol_c[0]), float(sol_c[1]), float(sol_c[2]), float(sol_d[0]), residual


def _separate_probe(q: float, s_strength: float, p: float, target_strength: float):
    """Split the strength combinations into probe parameters given |b|."""
    squeeze = s_strength / target_strength
    shear = q / target_strength
    probe_bias = shear * (1.0 - squeeze)
    probe_sharpness = p / target_strength
    return probe_sharpness, probe_bias, squeeze, shear


def _character(combos, residual: float, errors: dict, **separated) -> DeviceCharacter:
    """The fit result from the combinations (c0, P, Q, S) and, when the
    target strength was given, the separated probe parameters."""
    c0, p, q, s_strength = combos
    return DeviceCharacter(
        center_shift=c0,
        target_strength_product=p,
        shear_strength=q,
        squeeze_strength=s_strength,
        shear_ratio=q / s_strength if abs(s_strength) > 1e-12 else None,
        identifiability="full" if separated else "combos_only",
        residual=residual,
        errors=errors,
        **separated,
    )


def fit_ellipse_known_theta(
    scan: CdScan,
    target_strength: float | None = None,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> DeviceCharacter:
    """Linear least squares of the theta-parametrized scan model.

    Recovers the identifiable combinations (c0, P, Q, S); when the target
    strength |b| is supplied (e.g. measured beforehand with a sharp-target
    reference run) the probe parameters are separated and the result is
    marked fully identifiable.  A strength outside (0, 1] raises
    InvalidMeasurementError; one so small that the separated parameters or
    their errors overflow raises OutOfDomainError.
    """
    if target_strength is not None and not 0.0 < target_strength <= 1.0:
        raise InvalidMeasurementError(
            f"target strength {target_strength!r} must lie in (0, 1]")
    if len(scan) < 4:
        raise InsufficientPointsError(f"need at least 4 points, got {len(scan)}")
    if scan.theta is None:
        raise InsufficientPointsError("every point must carry its theta")
    columns = (scan.theta, scan.c, scan.d, scan.c_err, scan.d_err)
    *combos, residual = _ellipse_combos_known_theta(*columns)

    def point_fit(idx):
        return _ellipse_combos_known_theta(*(col[idx] for col in columns))[:4]

    rows = _bootstrap(point_fit, 4, len(scan), n_bootstrap, bootstrap_seed)
    errors = _errors(_COMBOS, rows)
    if target_strength is None:
        return _character(combos, residual, errors)
    _, p, q, s_strength = combos
    with np.errstate(over="ignore", invalid="ignore"):
        separated = _separate_probe(q, s_strength, p, target_strength)
        separated_errors = _errors(_SEPARATED, np.column_stack(
            _separate_probe(rows[:, 2], rows[:, 3], rows[:, 1], target_strength)))
    if not np.isfinite([*separated, *separated_errors.values()]).all():
        raise OutOfDomainError(
            f"target strength {target_strength!r} is too small to separate the probe parameters")
    errors.update(separated_errors)
    return _character(combos, residual, errors, **dict(zip(_SEPARATED, separated)))


def _fit_conic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Direct least-squares conic fit constrained to an ellipse.

    Partitioned scatter-matrix formulation: solve the reduced 3x3
    eigenproblem and keep the eigenvector satisfying the ellipse
    definiteness condition 4 A C - B^2 > 0.
    """
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise NotAnEllipseError("degenerate point configuration") from exc
    m = s1 + s2 @ t
    m_red = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m_red)
    best = None
    for i in range(3):
        if abs(evals[i].imag) > 1e-9:
            continue
        vec = evecs[:, i].real
        if 4.0 * vec[0] * vec[2] - vec[1] ** 2 > 0:
            best = vec
            break
    if best is None:
        raise NotAnEllipseError("no ellipse solution in the conic pencil")
    return np.concatenate([best, t @ best])


def _decompose_conic(coef: np.ndarray):
    """Center, semi-axis scales, and shear ratio of the scan-model conic
    ((x - cx - kappa y) / P)^2 + (y / S)^2 = 1."""
    a, b, c, d, e, f = (float(v) for v in coef)
    disc = b * b - 4.0 * a * c
    if disc >= 0:
        raise NotAnEllipseError(f"conic discriminant {disc!r} is not negative")
    cx = (2.0 * c * d - b * e) / disc
    cy = (2.0 * a * e - b * d) / disc
    f_centered = a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f
    kappa = -b / (2.0 * a)
    p_sq = -f_centered / a
    s_sq = -f_centered / (c - a * kappa * kappa)
    if not (p_sq > 0 and s_sq > 0 and math.isfinite(p_sq) and math.isfinite(s_sq)):
        raise NotAnEllipseError("conic does not decompose into real semi-axes")
    return cx, cy, math.sqrt(p_sq), math.sqrt(s_sq), kappa


def _sampson_rms(coef: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    a, b, c, d, e, f = coef
    val = a * x * x + b * x * y + c * y * y + d * x + e * y + f
    grad = np.hypot(2 * a * x + b * y + d, b * x + 2 * c * y + e)
    grad = np.where(grad > 0, grad, 1.0)
    return float(np.sqrt(np.mean((val / grad) ** 2)))


def _ellipse_combos_unknown_theta(c: np.ndarray, d: np.ndarray):
    coef = _fit_conic(c, d)
    cx, _, p, s_strength, kappa = _decompose_conic(coef)
    return cx, p, kappa * s_strength, s_strength, coef


def fit_ellipse_unknown_theta(
    scan: CdScan,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> DeviceCharacter:
    """Recover the identifiable strength combinations without any angle
    information, via an algebraic conic fit through the (C, D) points."""
    if len(scan) < 6:
        raise InsufficientPointsError(f"need at least 6 points, got {len(scan)}")
    c, d = scan.c, scan.d
    *combos, coef = _ellipse_combos_unknown_theta(c, d)

    def point_fit(idx):
        return _ellipse_combos_unknown_theta(c[idx], d[idx])[:4]

    rows = _bootstrap(point_fit, 4, len(scan), n_bootstrap, bootstrap_seed)
    return _character(combos, _sampson_rms(coef, c, d), _errors(_COMBOS, rows))


def estimate_detector(
    d1: float, c2: float, d1_err: float = 0.0, c2_err: float = 0.0
) -> DetectorEstimate:
    """Detector noise from the two reference readings, with first-order
    error propagation through the closed-form inversion."""
    noise = estimate_noise(d1, c2)
    total = c2 + d1 + 1.0
    deta_dd1 = 2.0 * (c2 + 1.0) / total**2
    deta_dc2 = -2.0 * d1 / total**2
    dnu = 1.0 / total
    eta_err = math.hypot(deta_dd1 * d1_err, deta_dc2 * c2_err)
    nu_err = math.hypot(dnu * d1_err, dnu * c2_err)
    return DetectorEstimate(noise, eta_err, nu_err)
