"""Inversion of measured correlation/disturbance scans into device
parameters.

A scan against a sharp probe lies on a circle whose radius is the target
strength.  A theta scan against a general probe lies on the sheared ellipse
of ``qubit_model.ellipse_map``, C = c0 + P cos(theta) + Q |sin(theta)| and
D = S |sin(theta)|.  From scan data alone only these four combinations are
identifiable; separating the probe parameters (|a|, a0, s, delta)
additionally requires the target strength |b|, e.g. from a sharp-target
reference run, and uses the map's inverse ``_separate_probe``.  The
unknown-theta fit drops the angle information entirely and recovers the
same combinations from the algebraic conic through the points.

A scan (``CdScan``) is held as columns: one read-only float64 array each
for theta, C, D and their errors, the layout the CLI scan modes write and
the fits read.

All fitted parameters carry nonparametric bootstrap errors (seeded,
resampling points with replacement); the shear decomposition is nonlinear,
so delta-method errors would under-cover.  Each fit draws its resamples as
blocks of (resamples, points) indices from the seed's Philox stream, at
most 8192 uniforms (or one resample) a block, reduces each block to one
row of statistics per resample (for the conic, its three 3x3 scatter
matrices), and fits the rows of consecutive blocks a group of at most 8192
numbers at a time (one stacked 3x3 ``solve`` and ``eig`` per group for the
conic), with the bits of one draw and one fit per resample, as in 0.1.0:
where blocks and groups are cut changes no bit.
The known-theta fit solves the resamples of a block with one stacked call
per arm of LAPACK ``gelsd``, the routine ``np.linalg.lstsq`` runs, again
with each resample's bits.  Degenerate resamples are skipped; a conic
resample whose pencil is not finite (a singular ``s3`` solves to NaN, or
its scatter or solution overflows) is masked out of its group before
``eig``; on the full data the same pencil raises.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    FitError,
    InsufficientPointsError,
    InvalidMeasurementError,
    InvalidSeedError,
    InvalidShotsError,
    NotAnEllipseError,
    NotFiniteError,
    OutOfDomainError,
    RankDeficientError,
)
from .quantum_core import _as_array, _finite_real, _frozen, _integer, at_index, first_bad
from .qubit_model import _separate_probe
from .shot_sampler import _stream

DEFAULT_BOOTSTRAP = 200
# DeviceCharacter fields of the four strength combinations and of the
# separated probe parameters, in the column order of the bootstrap rows
_COMBOS = ("center_shift", "target_strength_product", "shear_strength", "squeeze_strength")
_SEPARATED = ("probe_sharpness", "probe_bias", "squeeze", "shear")
# Bootstrap indices are drawn in blocks of whole resamples holding at most
# this many uniforms (and at least one resample), and reduced statistics are
# fitted in groups of at most this many numbers; the bits depend on neither.
# One (resamples, points) matrix of 200 x 1024 raised the peak resident
# memory of a calibration run by 4.7 MiB.  A block of the conic scatter
# holds about 64 bytes per index (uniform, index, six monomials), 512 KiB
# here: 0.22 to 0.47 MiB more peak RSS on the benchmark's calibrate workload
# than at 1 << 12, for half the Python round trips.  At 1 << 14 the
# unknown-theta fit of 4000 resamples of 2049 points peaks above the
# bootstrap memory model in cli.py plus its 1 MiB allowance.
_INDEX_BLOCK = 1 << 13


@dataclass(frozen=True, eq=False)
class CdScan:
    """Scan data as columns, one entry per point: the settings ``theta``
    (None when unknown), ``c``, ``d`` and their one-sigma errors ``c_err``
    and ``d_err`` (zeros by default, for an unweighted fit).  Each column is
    stored as a read-only float64 array; all have the length of ``c``.  An
    entry that is not finite raises NotFiniteError, a negative error
    OutOfDomainError, each naming its column and first bad index."""

    theta: np.ndarray | None
    c: np.ndarray
    d: np.ndarray
    c_err: np.ndarray | None = None
    d_err: np.ndarray | None = None

    def __post_init__(self):
        shape = (_as_array(self.c, float, "scan column c").size,)
        for name in ("theta", "c", "d", "c_err", "d_err"):
            values = getattr(self, name)
            if values is None:
                if name == "theta":
                    continue
                values = np.zeros(shape)
            column = _frozen(_as_array(values, float, f"scan column {name}"))
            if column.shape != shape:
                raise InsufficientPointsError(
                    f"scan column {name} has shape {column.shape}, expected {shape}")
            index = first_bad(~np.isfinite(column))
            if index is not None:
                raise NotFiniteError(f"scan column {name}{at_index(index)} is not finite")
            index = first_bad(column < 0.0) if name.endswith("_err") else None
            if index is not None:
                raise OutOfDomainError(f"scan column {name}{at_index(index)} is negative")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class CircleFit:
    """Sharp-probe circle fit, as the calibrate report's ``result`` keys: target
    strength |b|, its bootstrap one-sigma error, rms residual of C^2 + D^2."""

    target_strength: float
    target_strength_err: float
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
    """The detector report's ``estimate``: efficiency eta and dark-count
    exponent nu inverted by ``estimate_detector``, with their errors."""

    eta: float
    nu: float
    eta_err: float
    nu_err: float


def _bootstrap(reduce, fit, width: int, n: int, n_bootstrap: int, seed: int) -> np.ndarray:
    """``width``-parameter rows that ``fit`` keeps on ``n_bootstrap``
    resamples of the ``n`` points, fitting the groups of statistics that
    ``_reduced`` yields for ``reduce``; a group on which ``fit`` raises
    ``FitError`` or ``OutOfDomainError`` (it keeps no resample) adds no rows."""
    n_bootstrap, seed = _integer(n_bootstrap), _integer(seed)
    if not n_bootstrap >= 0:
        raise InvalidShotsError("bootstrap resample count must be an integer >= 0")
    if not 0 <= seed < 2**128:
        raise InvalidSeedError("bootstrap seed must be an integer in [0, 2**128)")
    rows = np.empty((n_bootstrap, width))
    kept = 0
    for group in _reduced(reduce, n, n_bootstrap, seed):
        with suppress(FitError, OutOfDomainError):
            block = fit(group)
            rows[kept:kept + len(block)] = block
            kept += len(block)
    return rows[:kept]


def _reduced(reduce, n: int, n_bootstrap: int, seed: int):
    """Rows of statistics that ``reduce`` makes of ``n_bootstrap``
    resamples of the ``n`` points, passed to it as (resamples, points)
    index matrices drawn from the stream of ``seed``: the same indices as
    one ``random(n)`` call per resample.  The rows of consecutive matrices
    are yielded together, at most ``_INDEX_BLOCK`` numbers (or the rows of
    one matrix) at a time; a matrix on which ``reduce`` raises ``FitError``
    (it keeps no resample) adds no rows."""
    rng = np.random.Generator(_stream(seed))
    step = max(1, _INDEX_BLOCK // n)
    group, filled = np.empty((0, 0)), 0
    for start in range(0, n_bootstrap, step):
        draws = rng.random((min(step, n_bootstrap - start), n))
        draws *= n
        idxs = draws.astype(np.int64)
        np.minimum(idxs, n - 1, out=idxs)
        try:
            stats = reduce(idxs)
        except FitError:
            continue
        if filled + len(stats) > len(group):
            if filled:
                yield group[:filled]
            width = stats.shape[1]
            group, filled = np.empty((max(len(stats), _INDEX_BLOCK // width), width)), 0
        group[filled:filled + len(stats)] = stats
        filled += len(stats)
    if filled:
        yield group[:filled]


def _unit_scaled(errs: np.ndarray) -> np.ndarray:
    """Positive errors times the power of two that brings the smallest into
    [0.5, 1): exact, so a weighted fit keeps its bits, and the inverse
    errors cannot overflow."""
    return np.ldexp(errs, -np.frexp(errs.min())[1])


def _finite(result, errors: dict):
    """``result`` unless one of its numbers or bootstrap ``errors`` is not
    finite in double precision."""
    numbers = [v for v in (*vars(result).values(), *errors.values()) if isinstance(v, float)]
    if not np.isfinite(numbers).all():
        raise OutOfDomainError(f"{type(result).__name__} is not finite in double precision")
    return result


def _errors(names: tuple, rows: np.ndarray) -> dict:
    """Bootstrap one-sigma value of each column; empty below two rows."""
    if len(rows) < 2:
        return {}
    return dict(zip(names, map(float, rows.std(axis=0, ddof=1))))


# Floating-point warnings are off inside the fits; a result that is not
# finite raises OutOfDomainError instead.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
def fit_circle_sharp_probe(
    scan: CdScan,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> CircleFit:
    """Target strength from a sharp-probe scan: sqrt of the error-weighted
    mean of C^2 + D^2.  Unweighted when any point lacks errors."""
    n = len(scan)
    if n < 2:
        raise InsufficientPointsError(f"need at least 2 points, got {n}")
    c, d = scan.c, scan.d
    r2 = c * c + d * d
    # both error columns share one exact power-of-two scale before the
    # products, so errors near the subnormal floor keep their bits
    scale = -np.frexp(max(scan.c_err.max(), scan.d_err.max()))[1]
    r2_err = 2.0 * np.hypot(c * np.ldexp(scan.c_err, scale), d * np.ldexp(scan.d_err, scale))
    weights = 1.0 / _unit_scaled(r2_err) ** 2 if np.all(r2_err > 0) else np.ones_like(r2)
    if not (weights > 0).all():
        raise OutOfDomainError("errors of C^2 + D^2 overflow their weights")

    def block_mean(idxs):  # rows of the weighted mean of C^2 + D^2
        return np.average(r2[idxs], weights=weights[idxs], axis=1)[:, None]

    def strengths(mean_r2):
        return np.sqrt(np.maximum(mean_r2, 0.0))

    mean_r2 = block_mean(np.arange(n)[None])[0, 0]
    residual = float(np.sqrt(np.mean((r2 - mean_r2) ** 2)))
    rows = _bootstrap(block_mean, strengths, 1, n, n_bootstrap, bootstrap_seed)
    errors = _errors(("strength",), rows)
    return _finite(CircleFit(float(strengths(mean_r2)), errors.get("strength", 0.0), residual), {})


def _unconverged(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(design: np.ndarray, target: np.ndarray, errs: np.ndarray):
    """Least squares of the system on each resample of a (resamples,
    points) block of point indices, weighted by inverse errors when every
    point of the scan carries one (decided once per scan, for every
    resample alike, as in the circle fit).  A weighted system that
    overflows raises OutOfDomainError.

    One stacked call of the gufunc that ``np.linalg.lstsq`` runs (LAPACK
    ``gelsd`` on each matrix), with its ``rcond=None`` cutoff and error
    state: each resample gets the solution and rank of fitting it alone,
    bit for bit, and a ``gelsd`` that does not converge raises
    LinAlgError."""
    if (errs > 0).all():
        w = 1.0 / _unit_scaled(errs)
        design, target = design * w[:, None], target * w
        if not (np.isfinite(design).all() and np.isfinite(target).all()):
            raise OutOfDomainError("the weighted scan points overflow double precision")
    rcond = np.finfo(float).eps * max(design.shape)

    def solve(idxs):  # (solutions (resamples, columns), ranks (resamples,))
        with np.errstate(call=_unconverged, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            sol, _, rank, _ = _umath_linalg.lstsq(
                np.take(design, idxs, 0), target[idxs][..., None], rcond, signature="ddd->ddid")
        return sol[..., 0], rank

    return solve


def _character(combos, residual: float, errors: dict, **separated) -> DeviceCharacter:
    """The fit result from the combinations (c0, P, Q, S) and, when the
    target strength was given, the separated probe parameters."""
    c0, p, q, s_strength = combos
    return _finite(DeviceCharacter(
        center_shift=c0,
        target_strength_product=p,
        shear_strength=q,
        squeeze_strength=s_strength,
        shear_ratio=q / s_strength if abs(s_strength) > 1e-12 else None,
        identifiability="full" if separated else "combos_only",
        residual=residual,
        errors=errors,
        **separated,
    ), errors)


@_quiet
def fit_ellipse_known_theta(
    scan: CdScan,
    target_strength: float | None = None,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> DeviceCharacter:
    """Linear least squares of the theta-parametrized scan model, each of
    C and D weighted by its inverse errors when all of them are positive.

    Recovers the identifiable combinations (c0, P, Q, S); when the target
    strength |b| is supplied (e.g. measured beforehand with a sharp-target
    reference run) the probe parameters are separated and the result is
    marked fully identifiable.  A strength outside (0, 1] raises
    InvalidMeasurementError; one so small that the separated parameters or
    their errors overflow raises OutOfDomainError, as does a weighted
    system that overflows.
    """
    if target_strength is not None and not 0.0 < _finite_real(
            target_strength, InvalidMeasurementError, "target strength") <= 1.0:
        raise InvalidMeasurementError(f"target strength {target_strength!r} must lie in (0, 1]")
    n = len(scan)
    if n < 4:
        raise InsufficientPointsError(f"need at least 4 points, got {n}")
    if scan.theta is None:
        raise InsufficientPointsError("every point must carry its theta")
    cos_t, sin_t = np.cos(scan.theta), np.abs(np.sin(scan.theta))
    # setting ids of the rounded (cos, |sin|) pairs, each pair one complex
    # number (-0.0 equals 0.0 here, and no two NaNs are equal)
    settings = np.round(np.column_stack([cos_t, sin_t]), 12).view(np.complex128)[:, 0]
    ids = np.unique(settings, return_inverse=True, equal_nan=False)[1]
    design = np.column_stack([np.ones(n), cos_t, sin_t])
    solvers = (_lstsq(design, scan.c, scan.c_err), _lstsq(sin_t[:, None], scan.d, scan.d_err))

    def block_fit(idxs):  # rows of (c0, P, Q, S) of the resamples it keeps
        distinct = 1 + np.count_nonzero(np.diff(np.sort(ids[idxs], axis=1), axis=1), axis=1)
        (c_sol, c_rank), (d_sol, d_rank) = (solve(idxs) for solve in solvers)
        kept = (distinct >= 3) & (c_rank == 3) & (d_rank == 1)
        if not kept.any():  # the reason of the last resample
            raise RankDeficientError("need at least 3 distinct theta settings" if distinct[-1] < 3
                                     else "theta grid does not determine the fit")
        return np.concatenate([c_sol, d_sol], axis=1)[kept]

    combos = block_fit(np.arange(n)[None])[0].tolist()
    res = np.concatenate([design @ combos[:3] - scan.c, sin_t[:, None] @ combos[3:] - scan.d])
    residual = float(np.sqrt(np.mean(res**2)))
    # the rows of the block fit are the parameters already
    rows = _bootstrap(block_fit, np.asarray, 4, n, n_bootstrap, bootstrap_seed)
    errors = _errors(_COMBOS, rows)
    if target_strength is None:
        return _character(combos, residual, errors)
    separated = _separate_probe(*combos[1:], target_strength)
    errors.update(_errors(_SEPARATED, np.column_stack(
        _separate_probe(*rows[:, 1:].T, target_strength))))
    return _character(combos, residual, errors, **dict(zip(_SEPARATED, separated)))


def _conic_rows(t: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Rows of (c0, P, Q, S) and the six coefficients of the ellipse in the
    conic pencil of each resample that has one, in resample order.  The
    ellipse is the first real eigenvector of the reduced problem that
    satisfies 4 A C - B^2 > 0; its conic
    ((x - cx - kappa y) / P)^2 + (y / S)^2 = 1 is decomposed into center,
    semi-axis scales and shear ratio, and a resample is kept when both
    squared semi-axes are positive and finite.  ``disc`` forms the same two
    products as the ellipse test, so it is negative on a kept resample."""
    vecs = evecs.real  # (resample, component, eigenvector)
    a, b, c = vecs.swapaxes(0, 1)
    ellipse = (np.abs(evals.imag) <= 1e-9) & (4.0 * a * c - b * b > 0)
    found = ellipse.any(axis=1)
    vec = np.take_along_axis(vecs, ellipse.argmax(axis=1)[:, None, None], axis=2)
    coef = np.concatenate([vec, t @ vec], axis=1)[..., 0]
    a, b, c, d, e, f = coef.T
    disc = b * b - 4.0 * a * c
    cx = (2.0 * c * d - b * e) / disc
    cy = (2.0 * a * e - b * d) / disc
    f_centered = a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f
    kappa = -b / (2.0 * a)
    p_sq = -f_centered / a
    s_sq = -f_centered / (c - a * kappa * kappa)
    real = found & (p_sq > 0) & (s_sq > 0) & np.isfinite(p_sq) & np.isfinite(s_sq)
    if not real.any():  # the reason of the last resample
        raise NotAnEllipseError("conic does not decompose into real semi-axes" if found[-1]
                                else "no ellipse solution in the conic pencil")
    s_strength = np.sqrt(s_sq)
    return np.column_stack([cx, np.sqrt(p_sq), kappa * s_strength, s_strength, coef])[real]


def _scatter(points: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """Rows of the three 3x3 scatter matrices S1, S2, S3 of each resample:
    the products of the quadratic monomials (x^2, xy, y^2) and the linear
    ones (x, y, 1) of the ``points`` rows that each row of ``idxs`` picks.
    S1 and S3 are the diagonal blocks of one Gram product of all six
    monomials (a BLAS ``syrk``, whose diagonal blocks carry the bits of
    their own products); S2 keeps its own product, whose bits the Gram
    product's off-diagonal block does not carry.  A scatter that overflows
    is returned as it is; its conic pencil is not finite."""
    sampled = np.take(points, idxs, 0)
    gram = sampled.transpose(0, 2, 1) @ sampled
    s2 = sampled[..., :3].transpose(0, 2, 1) @ sampled[..., 3:]
    return np.concatenate([gram[:, :3, :3], s2, gram[:, 3:, 3:]], axis=1).reshape(len(idxs), 27)


def _sampson_rms(coef: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    a, b, c, d, e, f = coef
    val = a * x * x + b * x * y + c * y * y + d * x + e * y + f
    grad = np.hypot(2 * a * x + b * y + d, b * x + 2 * c * y + e)
    grad = np.where(grad > 0, grad, 1.0)
    return float(np.sqrt(np.mean((val / grad) ** 2)))


@_quiet
def fit_ellipse_unknown_theta(
    scan: CdScan,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    bootstrap_seed: int = 0,
) -> DeviceCharacter:
    """Recover the identifiable strength combinations without any angle
    information, via the direct least-squares conic fit constrained to an
    ellipse (partitioned scatter matrices, reduced 3x3 eigenproblem).  The
    scatter of each resample is one Gram product of the six monomials and
    the product of its off-diagonal block S2 (``_scatter``), with the bits
    of the three separate products."""
    n = len(scan)
    if n < 6:
        raise InsufficientPointsError(f"need at least 6 points, got {n}")
    x, y = scan.c, scan.d
    points = np.column_stack([x * x, x * y, y * y, x, y, np.ones(n)])
    scatter = partial(_scatter, points)

    def conic_fit(stats):  # rows of (c0, P, Q, S) and the conic coefficients
        s1, s2, s3 = stats.reshape(-1, 3, 3, 3).swapaxes(0, 1)
        # one stacked call of the gufunc np.linalg.solve runs: with invalid
        # results ignored, it fills the solution of a singular s3 with NaN
        t = -_umath_linalg.solve(s3, s2.transpose(0, 2, 1), signature="dd->d")
        m = s1 + s2 @ t
        pencil = np.stack([m[:, 2] / 2.0, -m[:, 1], m[:, 0] / 2.0], axis=1)
        # a singular s3, a solution that overflows in part and a scatter that
        # overflows all leave a pencil that is not finite: the resample is dropped
        finite = np.isfinite(pencil).all(axis=(1, 2))
        if not finite.any():  # the reason of the last resample
            if np.isnan(t[-1]).all():
                raise NotAnEllipseError("degenerate point configuration")
            raise OutOfDomainError("conic pencil of the scan is not finite in double precision")
        try:
            evals, evecs = np.linalg.eig(pencil[finite])
        except np.linalg.LinAlgError as exc:
            raise OutOfDomainError(f"conic pencil of the scan: {exc}") from exc
        return _conic_rows(t[finite], evals, evecs)

    full = scatter(np.arange(n)[None])
    if not np.isfinite(full[0, :9]).all():
        raise OutOfDomainError("scatter of the scan points overflows double precision")
    combos, coef = np.split(conic_fit(full)[0], [4])
    rows = _bootstrap(scatter, conic_fit, 10, n, n_bootstrap, bootstrap_seed)
    return _character(combos.tolist(), _sampson_rms(coef, x, y), _errors(_COMBOS, rows[:, :4]))


def estimate_detector(
    d1: float, c2: float, d1_err: float = 0.0, c2_err: float = 0.0
) -> DetectorEstimate:
    """Detector noise from the two reference readings, with first-order
    error propagation through the closed-form inversion.

    From d1 = exp(-nu) eta and c2 = exp(-nu)(2 - eta) - 1 the sum gives
    exp(-nu) = (c2 + d1 + 1)/2 and eta = 2 d1 / (c2 + d1 + 1); both are
    validated to lie in their physical ranges (else OutOfDomainError).
    The errors propagate through the derivatives of these two forms.  The
    readings and their errors must be finite real numbers (a numpy float
    is; a bool or text is not) and the errors non-negative, else
    OutOfDomainError."""
    d1, c2, d1_err, c2_err = (_finite_real(value, OutOfDomainError, name) for name, value in
                              (("d1", d1), ("c2", c2), ("d1_err", d1_err), ("c2_err", c2_err)))
    if d1_err < 0.0 or c2_err < 0.0:
        raise OutOfDomainError(f"reading errors {d1_err!r} and {c2_err!r} must be non-negative")
    total = c2 + d1 + 1.0
    if total <= 0.0:
        raise OutOfDomainError(f"c2 + d1 + 1 = {total!r} is not positive")
    silence = total / 2.0
    if silence > 1.0 + 1e-12:
        raise OutOfDomainError(f"implied exp(-nu) = {silence!r} exceeds 1")
    eta = 2.0 * d1 / total
    if not 0.0 < eta <= 1.0 + 1e-12:
        raise OutOfDomainError(f"implied eta = {eta!r} outside (0, 1]")
    deta_dd1 = 2.0 * (c2 + 1.0) / total**2
    deta_dc2 = -2.0 * d1 / total**2
    dnu = 1.0 / total
    return _finite(DetectorEstimate(min(eta, 1.0), -math.log(min(silence, 1.0)),
                                    math.hypot(deta_dd1 * d1_err, deta_dc2 * c2_err),
                                    math.hypot(dnu * d1_err, dnu * c2_err)), {})
