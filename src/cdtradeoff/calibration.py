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

All fitted parameters carry nonparametric bootstrap errors (seeded,
resampling points with replacement); the shear decomposition is nonlinear,
so delta-method errors would under-cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detector_model import DetectorNoise, estimate_noise
from .errors import (
    FitError,
    InsufficientPointsError,
    NotAnEllipseError,
    RankDeficientError,
)
from .shot_sampler import _stream

DEFAULT_BOOTSTRAP = 200


@dataclass(frozen=True)
class CdPoint:
    """One scan sample; ``theta`` may be None when the setting is unknown."""

    theta: float | None
    c: float
    d: float
    c_err: float = 0.0
    d_err: float = 0.0


@dataclass(frozen=True)
class CdScan:
    """Ordered collection of scan points."""

    points: tuple[CdPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @classmethod
    def from_arrays(cls, theta, c, d, c_err=None, d_err=None) -> "CdScan":
        theta = [None] * len(c) if theta is None else list(theta)
        c_err = np.zeros(len(c)) if c_err is None else np.asarray(c_err, float)
        d_err = np.zeros(len(c)) if d_err is None else np.asarray(d_err, float)
        return cls(
            tuple(
                CdPoint(theta[i], float(c[i]), float(d[i]), float(c_err[i]), float(d_err[i]))
                for i in range(len(c))
            )
        )

    def __len__(self) -> int:
        return len(self.points)


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
    ``errors`` maps field names to bootstrap one-sigma values.
    """

    center_shift: float
    target_strength_product: float
    shear_strength: float
    squeeze_strength: float
    shear_ratio: float
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


def _resample_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.minimum((rng.random(n) * n).astype(np.int64), n - 1)


def _bootstrap_rows(point_fit, n_points: int, n_bootstrap: int, seed: int) -> list:
    """Evaluate ``point_fit`` (index array -> parameter tuple) on seeded
    bootstrap resamples; resamples on which the fit degenerates are skipped."""
    rng = _stream(seed)
    rows = []
    for _ in range(n_bootstrap):
        try:
            rows.append(point_fit(_resample_indices(rng, n_points)))
        except FitError:
            continue
    return rows


def _rows_std(rows: list):
    if len(rows) < 2:
        return None
    return np.asarray(rows, dtype=float).std(axis=0, ddof=1)


def _columns(scan: CdScan, need_theta: bool):
    c = np.array([p.c for p in scan.points])
    d = np.array([p.d for p in scan.points])
    c_err = np.array([p.c_err for p in scan.points])
    d_err = np.array([p.d_err for p in scan.points])
    theta = None
    if need_theta:
        if any(p.theta is None for p in scan.points):
            raise InsufficientPointsError("every point must carry its theta")
        theta = np.array([p.theta for p in scan.points])
    return theta, c, d, c_err, d_err


def fit_circle_sharp_probe(
    scan: CdScan,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> CircleFit:
    """Target strength from a sharp-probe scan: sqrt of the error-weighted
    mean of C^2 + D^2.  Unweighted when any point lacks errors."""
    if len(scan) < 2:
        raise InsufficientPointsError(f"need at least 2 points, got {len(scan)}")
    _, c, d, c_err, d_err = _columns(scan, need_theta=False)
    r2 = c * c + d * d
    r2_err = 2.0 * np.hypot(c * c_err, d * d_err)
    weighted = bool(np.all(r2_err > 0))
    weights = 1.0 / r2_err**2 if weighted else np.ones_like(r2)

    def point_fit(idx):
        m = np.average(r2[idx], weights=weights[idx])
        return (math.sqrt(max(m, 0.0)),)

    mean_r2 = np.average(r2, weights=weights)
    strength = math.sqrt(max(mean_r2, 0.0))
    residual = float(np.sqrt(np.mean((r2 - mean_r2) ** 2)))
    std = _rows_std(_bootstrap_rows(point_fit, len(scan), n_bootstrap, bootstrap_seed))
    return CircleFit(strength, float(std[0]) if std is not None else 0.0, residual)


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
    marked fully identifiable.
    """
    if len(scan) < 4:
        raise InsufficientPointsError(f"need at least 4 points, got {len(scan)}")
    theta, c, d, c_err, d_err = _columns(scan, need_theta=True)
    c0, p, q, s_strength, residual = _ellipse_combos_known_theta(
        theta, c, d, c_err, d_err
    )

    def point_fit(idx):
        return _ellipse_combos_known_theta(
            theta[idx], c[idx], d[idx], c_err[idx], d_err[idx]
        )[:4]

    rows = _bootstrap_rows(point_fit, len(scan), n_bootstrap, bootstrap_seed)
    std = _rows_std(rows)
    names = ("center_shift", "target_strength_product", "shear_strength", "squeeze_strength")
    errors = dict(zip(names, map(float, std))) if std is not None else {}

    shear_ratio = q / s_strength if abs(s_strength) > 1e-12 else math.nan
    kwargs = {}
    identifiability = "combos_only"
    if target_strength is not None:
        sharp, bias, squeeze, shear = _separate_probe(q, s_strength, p, target_strength)
        kwargs = dict(
            probe_sharpness=sharp, probe_bias=bias, squeeze=squeeze, shear=shear
        )
        identifiability = "full"
        sep_std = _rows_std(
            [_separate_probe(row[2], row[3], row[1], target_strength) for row in rows]
        )
        if sep_std is not None:
            errors.update(
                zip(("probe_sharpness", "probe_bias", "squeeze", "shear"), map(float, sep_std))
            )
    return DeviceCharacter(
        center_shift=c0,
        target_strength_product=p,
        shear_strength=q,
        squeeze_strength=s_strength,
        shear_ratio=shear_ratio,
        identifiability=identifiability,
        residual=residual,
        errors=errors,
        **kwargs,
    )


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
    _, c, d, _, _ = _columns(scan, need_theta=False)
    c0, p, q, s_strength, coef = _ellipse_combos_unknown_theta(c, d)

    def point_fit(idx):
        return _ellipse_combos_unknown_theta(c[idx], d[idx])[:4]

    std = _rows_std(_bootstrap_rows(point_fit, len(scan), n_bootstrap, bootstrap_seed))
    names = ("center_shift", "target_strength_product", "shear_strength", "squeeze_strength")
    errors = dict(zip(names, map(float, std))) if std is not None else {}
    return DeviceCharacter(
        center_shift=c0,
        target_strength_product=p,
        shear_strength=q,
        squeeze_strength=s_strength,
        shear_ratio=q / s_strength if abs(s_strength) > 1e-12 else math.nan,
        identifiability="combos_only",
        residual=_sampson_rms(coef, c, d),
        errors=errors,
    )


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
