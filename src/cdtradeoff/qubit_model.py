"""Closed-form qubit machinery: Bloch parametrization of two-outcome
measurements, the sheared-ellipse law relating correlation and disturbance,
and the disturbance-maximizing input state.

A two-outcome qubit measurement is the four-vector (b0, b) with effects
E_pm = ((1 pm b0) I pm b . sigma) / 2; positivity requires |b0| + |b| <= 1.
On hardware the device projects along the x-z axis at angle theta with
probability gamma (projectors P_pm(theta)), else reports a coin of bias beta:
its effects gamma P_pm(theta) + (1 - gamma)(1 +- beta)/2 I are exactly
``qubit_povms((1 - gamma) beta, gamma * plane_axis(theta))``, so b0 is
(1 - gamma) beta, and positivity, |b0| + gamma <= 1, is |beta| <= 1.
Scanning the angle theta between probe and target axes with the optimal
input state traces a sheared, squeezed and shifted circle; ``ellipse_map``
is that law, from the probe (a0, |a|) and target (b0, |b|) parameters to
the curve's coefficients, and ``_separate_probe`` its inverse.  Since the
disturbance is a norm, scans are symmetric under theta -> -theta; sin(theta)
enters through its absolute value.

Bloch vectors, measurement parameters and the optimal-state construction
take arrays with leading batch axes ((n, 3) Bloch vectors, (n,) biases), so
a scan builds all of its operators at once; the scalar types are the
unbatched case of the same functions.  ``InstrumentPolicy`` names the
three probe instruments (Lueders and two measure-and-prepare updates) as
configs do, and builds each from a dichotomic probe POVM.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cd_measures import CdValue, check_tradeoff
from .errors import (
    InvalidMeasurementError,
    NonQubitError,
    NotFiniteError,
    NotPsdError,
    ZeroBlochError,
)
from .quantum_core import (
    ATOL,
    DensityMatrix,
    Instrument,
    Povm,
    _as_array,
    _frozen,
    at_index,
    first_bad,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
ID2 = np.eye(2, dtype=complex)
_SIGNS = np.array([1.0, -1.0])[:, None, None]  # outcome signs, effect order


def bloch_matrix(vec) -> np.ndarray:
    """v . sigma for a real 3-vector v, or for each row of a (..., 3) stack.
    The entries are written directly, with the bits (signed zeros included)
    of the sum over the Pauli matrices: x + 0.0 and +-y + 0.0 off the
    diagonal, z + 0.0 and -z + 0.0 on it, and +0.0 imaginary diagonal parts."""
    v = _as_array(vec, float, "Bloch vector")
    if v.ndim == 0 or v.shape[-1] != 3:
        raise InvalidMeasurementError(f"Bloch vector must have 3 components, got {v.shape}")
    x, y, z = np.moveaxis(v, -1, 0) + 0.0
    out = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
    out.real[..., 0, 0] = z
    out.real[..., 1, 1] = 0.0 - z
    out.real[..., 0, 1] = out.real[..., 1, 0] = x
    out.imag[..., 0, 1] = 0.0 - y
    out.imag[..., 1, 0] = y
    return out


def state_from_bloch(vec) -> DensityMatrix:
    """Qubit state (I + r . sigma)/2; |r| <= 1 enforced by positivity.  A
    non-finite r raises NotFiniteError before the matrix is formed."""
    matrix = bloch_matrix(vec)
    if not np.isfinite(matrix).all():
        raise NotFiniteError("Bloch vector has a non-finite entry")
    return DensityMatrix((ID2 + matrix) / 2)


def qubit_states(vecs) -> np.ndarray:
    """Validated (..., 2, 2) stack of the states (I + r . sigma)/2, checked
    through their Bloch vectors r as ``check_qubit`` checks measurements:
    finite (else NotFiniteError), with |r| <= 1 + 2 ATOL (else NotPsdError),
    each naming the first bad vector.  For real r the matrix is Hermitian
    with unit trace by construction and has eigenvalues (1 +- |r|)/2, so
    this accepts the stacks ``check_states`` accepts, without an
    eigendecomposition."""
    v = _as_array(vecs, float, "Bloch vectors")
    matrices = bloch_matrix(v)
    index = first_bad(~np.isfinite(v).all(axis=-1))
    if index is not None:
        raise NotFiniteError(f"Bloch vector{at_index(index)} has a non-finite entry")
    length = _lengths(v)[..., 0]
    index = first_bad(~(length <= 1.0 + 2 * ATOL))
    if index is not None:
        raise NotPsdError(
            f"state{at_index(index)} of Bloch length {float(length[index])!r} has "
            f"eigenvalue {(1.0 - length[index]) / 2:.3e} below -{ATOL:g}"
        )
    return (ID2 + matrices) / 2


def plane_axis(theta) -> np.ndarray:
    """Unit vector (cos theta, 0, sin theta) in the x-z measurement plane;
    an array of angles gives a (..., 3) stack."""
    t = np.asarray(theta, dtype=float)
    out = np.zeros(t.shape + (3,))
    out[..., 0] = np.cos(t)
    out[..., 2] = np.sin(t)
    return out


def _lengths(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths over the last axis, keeping it.  Each vector is
    scaled by the power of two of its largest component before squaring, so
    components below about 1e-154 do not square to 0; the scaling is exact,
    so a vector whose squares are normal doubles keeps the bits of
    ``np.sqrt((v * v).sum(axis=-1))``.  A length beyond double precision is
    inf, which check_qubit refuses."""
    _, exponent = np.frexp(np.abs(v).max(axis=-1, keepdims=True))
    scaled = np.ldexp(v, -exponent)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt((scaled * scaled).sum(axis=-1, keepdims=True)), exponent)


def unit_axes(bloch) -> np.ndarray:
    """Directions of nonzero Bloch vectors (..., 3); ZeroBlochError names
    the first zero vector."""
    v = np.asarray(bloch, dtype=float)
    norm = _lengths(v)
    index = first_bad(norm[..., 0] == 0)
    if index is not None:
        raise ZeroBlochError(
            f"unsharp measurement of zero strength{at_index(index)} has no axis"
        )
    return v / norm


def check_qubit(bias, bloch) -> None:
    """Parameters of two-outcome qubit measurements, scalar or stacked
    ((...,) biases, (..., 3) Bloch vectors): finite, with
    |bias| + |bloch| <= 1 so that both effects are positive."""
    b0 = _as_array(bias, float, "measurement bias")
    v = _as_array(bloch, float, "Bloch vector")
    if v.ndim == 0 or v.shape[-1] != 3:
        raise InvalidMeasurementError("Bloch vector must have 3 components")
    total = np.abs(b0) + _lengths(v)[..., 0]
    index = first_bad(~(total <= 1.0 + ATOL))  # NaN fails the comparison too
    if index is None:
        return
    if not np.isfinite(total[index]):
        raise NotFiniteError(f"measurement{at_index(index)} has a non-finite parameter")
    raise InvalidMeasurementError(
        f"|bias| + |bloch|{at_index(index)} = {float(total[index])!r} "
        "exceeds 1: effects would not be positive"
    )


def _effect_pairs(bias, bloch) -> np.ndarray:
    """Effects ((1 +- b0) I +- b . sigma)/2 stacked as (..., 2, 2, 2)."""
    m = np.asarray(bias, dtype=float)[..., None, None] * ID2 + bloch_matrix(bloch)
    return (ID2 + _SIGNS * m[..., None, :, :]) / 2


def qubit_povms(bias, bloch) -> np.ndarray:
    """Validated (..., 2, 2, 2) effect stacks, labels (+1, -1) in effect
    order, of the measurements (bias, bloch): |b0| + |b| <= 1 + ATOL keeps
    their eigenvalues (1 +- b0 +- |b|)/2 within ATOL/2 of [0, 1]."""
    check_qubit(bias, bloch)
    return _effect_pairs(bias, bloch)


@dataclass(frozen=True, eq=False)
class QubitMeasurement:
    """Two-outcome qubit measurement parametrized by bias and Bloch vector."""

    bias: float
    bloch: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.bloch, dtype=float)
        if v.shape != (3,):
            raise InvalidMeasurementError("Bloch vector must have 3 components")
        check_qubit(self.bias, v)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "bloch", _frozen(v))

    @property
    def strength(self) -> float:
        """Bloch-vector length (sharpness)."""
        return float(_lengths(self.bloch)[0])

    @property
    def axis(self) -> np.ndarray:
        return unit_axes(self.bloch)

    def observable(self) -> np.ndarray:
        return self.bias * ID2 + bloch_matrix(self.bloch)

    def effects(self) -> np.ndarray:
        """The (2, 2, 2) stack of the effects, labels (+1, -1)."""
        return _effect_pairs(self.bias, self.bloch)

    def to_povm(self) -> Povm:
        return Povm(self.effects())


def measurement_from_povm(povm: Povm) -> QubitMeasurement:
    """Recover the (bias, Bloch) parametrization of a dichotomic qubit POVM."""
    if povm.dim != 2:
        raise NonQubitError(f"expected a qubit POVM, got dim {povm.dim}")
    if sorted(povm.labels) != [-1.0, 1.0]:
        raise InvalidMeasurementError("POVM labels must be +1/-1")
    plus = povm.matrices[povm.labels.index(1.0)]
    bias = np.trace(plus).real - 1.0
    bloch = np.array([np.trace(plus @ s).real for s in PAULI])
    return QubitMeasurement(bias, bloch)


class InstrumentPolicy(enum.Enum):
    """Post-measurement-state conventions for a dichotomic qubit probe, as
    named in configs; ``instrument`` builds the probe of each.

    ``LUEDERS`` applies the square-root update; ``EIGENSTATE`` re-prepares
    the projector eigenstate along the probe axis; ``MIXED`` re-prepares
    the mixed state with Bloch vector +/- gamma times the probe axis.
    """

    LUEDERS = "lueders"
    EIGENSTATE = "eigenstate"
    MIXED = "mixed"

    def instrument(self, povm: Povm) -> Instrument:
        """The probe instrument of this policy for a +1/-1 labelled POVM.
        The measure-and-prepare policies re-prepare the state with Bloch
        vector label * b on the outcome labelled +/-1, b the probe's axis
        (``EIGENSTATE``) or its Bloch vector (``MIXED``)."""
        if self is InstrumentPolicy.LUEDERS:
            return Instrument.lueders(povm)
        probe = measurement_from_povm(povm)
        bloch = probe.axis if self is InstrumentPolicy.EIGENSTATE else probe.bloch
        states = qubit_states(np.array(povm.labels)[:, None] * bloch)
        return Instrument.measure_and_prepare(povm, states)


@dataclass(frozen=True)
class EllipseCharacter:
    """Derived probe parameters shaping the correlation-disturbance curve."""

    shift: float          # a0 * b0, displacement along the correlation axis
    scale_major: float    # |a| * |b|
    scale_minor: float    # s * |b|
    shear: float          # delta
    squeeze: float        # s
    u_plus: float
    u_minus: float
    probe_strength: float
    probe_bias: float


def ellipse_map(a0, na, b0=0.0, nb=1.0) -> tuple:
    """The sheared-ellipse law, for numbers or broadcasting arrays.  A probe
    of bias a0 and strength |a| = ``na`` and a target of bias b0 and
    strength |b| = ``nb``, scanned over the angle theta between their axes
    on the optimal state, trace

        C = c0 + P cos(theta) + Q |sin(theta)|,   D = S |sin(theta)|,

    with u_pm = sqrt((1 pm a0)^2 - |a|^2), squeeze s = 1 - (u_+ + u_-)/2,
    shear delta = (u_+ - u_-)/2, and c0 = a0 b0, P = |a||b|, Q = delta |b|,
    S = s |b|.  Returns (u_+, u_-, s, delta, c0, P, Q, S); a probe that
    violates positivity raises InvalidMeasurementError.  Only P, Q, S and c0
    are identifiable from a scan; ``_separate_probe`` inverts the map given
    |b|.
    """
    # Python floats are not converted: their squares stay libm pow, whose
    # last bit can differ from the x * x of an array, so the scalar
    # functions keep their floats
    up_sq = (1.0 + a0) ** 2 - na**2
    um_sq = (1.0 - a0) ** 2 - na**2
    if (np.minimum(up_sq, um_sq) < -ATOL).any():
        raise InvalidMeasurementError("probe violates positivity")
    u_plus, u_minus = np.sqrt(np.maximum(up_sq, 0.0)), np.sqrt(np.maximum(um_sq, 0.0))
    s = 1.0 - (u_plus + u_minus) / 2
    delta = (u_plus - u_minus) / 2
    return u_plus, u_minus, s, delta, a0 * b0, na * nb, delta * nb, s * nb


def _separate_probe(p, q, s_strength, target_strength):
    """Inverse of ``ellipse_map`` given the target strength |b|: the probe
    parameters (|a|, a0, s, delta) of the combinations (P, Q, S), using
    a0 = delta (1 - s), since u_+^2 - u_-^2 = 4 a0."""
    squeeze = s_strength / target_strength
    shear = q / target_strength
    probe_bias = shear * (1.0 - squeeze)
    probe_sharpness = p / target_strength
    return probe_sharpness, probe_bias, squeeze, shear


def ellipse_character(
    probe: QubitMeasurement, target: QubitMeasurement | None = None
) -> EllipseCharacter:
    """Squeeze and shear parameters of a probe measurement (``ellipse_map``).

    ``target`` supplies the bias and strength entering the shift and scale
    fields; when omitted a sharp unbiased target is assumed, so those
    fields reduce to the probe-only quantities.
    """
    b0, nb = (0.0, 1.0) if target is None else (target.bias, target.strength)
    u_plus, u_minus, s, delta, c0, p, _, s_strength = ellipse_map(
        probe.bias, probe.strength, b0, nb)
    return EllipseCharacter(*map(float, (c0, p, s_strength, delta, s, u_plus, u_minus)),
                            probe_strength=probe.strength, probe_bias=probe.bias)


def cd_parametric(
    probe: QubitMeasurement, target_gamma: float, target_bias: float, theta: float
) -> CdValue:
    """Closed-form correlation and disturbance at axis angle ``theta`` for
    the disturbance-maximizing input state (``ellipse_map``).

    Must agree with the full density-matrix pipeline on the optimal state.
    ``theta`` is folded onto [0, pi] (the disturbance is a norm).  A target
    that is not a valid measurement of strength >= 0 raises
    InvalidMeasurementError, a non-finite target or ``theta`` NotFiniteError.
    """
    check_qubit(target_bias, (target_gamma, 0.0, 0.0))
    if target_gamma < 0.0:
        raise InvalidMeasurementError(f"target strength {target_gamma!r} is negative")
    if not math.isfinite(theta):
        raise NotFiniteError(f"theta {theta!r} is not finite")
    *_, c0, p, q, s_strength = ellipse_map(probe.bias, probe.strength, target_bias, target_gamma)
    sin_t = abs(math.sin(theta))
    corr, dist = float(c0 + p * math.cos(theta) + q * sin_t), float(s_strength * sin_t)
    check_tradeoff(corr, dist)
    return CdValue(corr, dist)


def optimal_bloch(probe_axis, target_axis) -> np.ndarray:
    """Unit Bloch vector maximizing the disturbance: the component of the
    target axis perpendicular to the probe axis, normalized.  Axis stacks
    (..., 3) give one vector per row.

    For parallel axes the disturbance vanishes for every state; a fixed
    perpendicular direction (probe axis crossed with the first
    non-parallel basis vector) is returned for reproducibility.
    """
    a = np.asarray(probe_axis, dtype=float)
    b = np.asarray(target_axis, dtype=float)
    r = b - np.einsum("...i,...i->...", a, b)[..., None] * a
    norm = _lengths(r)
    parallel = norm < 1e-12
    if parallel.any():
        a = np.broadcast_to(a, r.shape)
        perp = np.cross(a[..., None, :], np.eye(3))  # a x e_k for k = x, y, z
        perp_norm = _lengths(perp)
        first = np.argmax(perp_norm > 1e-6, axis=-2)[..., None]
        r = np.where(parallel, np.take_along_axis(perp, first, axis=-2)[..., 0, :], r)
        norm = np.where(parallel, np.take_along_axis(perp_norm, first, axis=-2)[..., 0, :], norm)
    return r / norm


def optimal_state(probe: QubitMeasurement, target: QubitMeasurement) -> DensityMatrix:
    """Pure disturbance-maximizing input state for a probe/target pair."""
    return state_from_bloch(optimal_bloch(probe.axis, target.axis))
