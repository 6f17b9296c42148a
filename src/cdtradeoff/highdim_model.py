"""Two-outcome randomized measurements in d-dimensional Hilbert space.

A randomized dichotomic measurement mixes a rank-one projector with white
noise: E_+ = gamma * P_+ + (1 - gamma) * I / 2.  When the probe is sharp
(gamma = 1) and the state is the top eigenvector of the disturbance
operator, correlation and disturbance depend only on the projector overlap
c^2 = tr(P_a P_b):

    C = gamma * (2 c^2 - 1),   D = 2 gamma * sqrt((1 - c^2) c^2),

so the scan lies on the circle C^2 + D^2 = gamma^2 in any dimension.

Overlaps and the circle law take stacks of kets (n, d); the projector
checks, the POVM construction and the optimal states take stacks (n, d, d)
of projectors.  An overlap scan is evaluated with these array kernels; the
scalar types are the unbatched case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cd_measures import CdValue, check_tradeoff
from .errors import (
    DimensionMismatchError,
    InvalidDimError,
    InvalidMeasurementError,
    ProbeNotSharpError,
)
from .quantum_core import (Povm, _as_array, _finite_real, _frozen, _integer, at_index,
                           check_effects, check_povms, dagger, first_bad, unit_kets)

# Idempotency / rank-one tolerance for the projectors.
PROJECTOR_TOL = 1e-9

# Below this top eigenvalue the disturbance operator is treated as zero
# (parallel or orthogonal projectors) and the probe ket is returned.
DEGENERACY_TOL = 1e-12


def projectors(kets) -> np.ndarray:
    """Rank-one projectors |k><k| (..., d, d) of (automatically normalized)
    kets (..., d)."""
    k = unit_kets(kets)
    return k[..., :, None] * k[..., None, :].conj()


def check_projectors(proj) -> None:
    """Each matrix of a stack (..., d, d) is an idempotent of unit trace."""
    p = _as_array(proj, None, "projectors")
    index = first_bad(np.abs(p @ p - p).max(axis=(-2, -1)) > PROJECTOR_TOL)
    if index is not None:
        raise InvalidMeasurementError(f"projector{at_index(index)} is not idempotent")
    index = first_bad(np.abs(np.trace(p, axis1=-2, axis2=-1).real - 1.0) > PROJECTOR_TOL)
    if index is not None:
        raise InvalidMeasurementError(f"projector{at_index(index)} must have rank one")


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= _finite_real(gamma, InvalidMeasurementError, "gamma") <= 1.0:
        raise InvalidMeasurementError(f"gamma {gamma!r} is not a number in [0, 1]")


def randomized_povms(gamma: float, proj) -> np.ndarray:
    """Validated (..., 2, d, d) effect stacks gamma * P + (1 - gamma) I/2
    and their complements, labels (+1, -1).

    The noise part is taken proportional to the identity; any other noise
    operator would leave the disturbance unchanged, so the canonical choice
    keeps simulations reproducible.
    """
    _check_gamma(gamma)
    p = _as_array(proj, complex, "projectors")
    eye = np.eye(p.shape[-1], dtype=complex)
    e_plus = gamma * p + (1 - gamma) * eye / 2
    return check_povms(np.stack([e_plus, eye - e_plus], axis=-3))


@dataclass(frozen=True, eq=False)
class RandomizedDichotomic:
    """Projector-plus-noise two-outcome measurement in dimension ``dim``;
    ``projector_plus`` is the read-only (dim, dim) rank-one projector P_+."""

    dim: int
    gamma: float
    projector_plus: np.ndarray

    def __post_init__(self):
        if not _integer(self.dim) >= 2:
            raise InvalidDimError(f"dimension {self.dim!r} is not an integer >= 2")
        _check_gamma(self.gamma)
        p = check_effects(self.projector_plus)
        if p.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"projector shape {p.shape} does not match dim {self.dim}")
        check_projectors(p)
        object.__setattr__(self, "projector_plus", _frozen(p))

    @classmethod
    def from_ket(cls, ket, gamma: float) -> "RandomizedDichotomic":
        k = np.ravel(ket)
        return cls(k.size, gamma, projectors(k))

    def to_povm(self) -> Povm:
        """Effects gamma * P + (1 - gamma) I/2 and its complement, labels
        +1/-1 (see ``randomized_povms``)."""
        return Povm(randomized_povms(self.gamma, self.projector_plus))


@dataclass(frozen=True, eq=False)
class OverlapGeometry:
    """Projector-pair geometry: overlap, disturbance spectral radius (per
    unit strength), and the disturbance-maximizing ket."""

    c_squared: float
    lam: float
    psi_plus: np.ndarray


def _phase_fixed(kets: np.ndarray) -> np.ndarray:
    """Kets (..., d) scaled so that their largest-magnitude entry is real
    and positive."""
    idx = np.argmax(np.abs(kets), axis=-1)[..., None]
    top = np.take_along_axis(kets, idx, axis=-1)
    return kets / (top / np.abs(top))


def overlaps(kets_a, kets_b) -> np.ndarray:
    """Overlaps c^2 = |<a|b>|^2 = tr(P_a P_b) of stacked ket pairs (..., d),
    clipped to [0, 1]; memory grows with d, not d^2."""
    a, b = unit_kets(kets_a), unit_kets(kets_b)
    return np.clip(np.abs(np.einsum("...i,...i->...", a.conj(), b)) ** 2, 0.0, 1.0)


def optimal_kets(proj_a, proj_b) -> np.ndarray:
    """Disturbance-maximizing kets (..., d) of stacked sharp-probe/target
    projector pairs (..., d, d), from one batched ``eigh``.  Where the
    geometry is degenerate (c^2 of 0 or 1) the disturbance vanishes for
    every state and the probe ket is returned."""
    pa, pb = np.broadcast_arrays(*(_as_array(p, None, "projectors") for p in (proj_a, proj_b)))
    # Disturbance operator of the sharp probe acting on the target
    # projector direction, up to the overall strength factor.
    ab = pa @ pb
    geom = ab + dagger(ab) - 2.0 * ab @ pa
    w, v = np.linalg.eigh((geom + dagger(geom)) / 2)
    psi = v[..., -1]
    degenerate = w[..., -1] <= DEGENERACY_TOL
    if degenerate.any():
        psi = np.where(degenerate[..., None], np.linalg.eigh(pa)[1][..., -1], psi)
    return _phase_fixed(psi)


def _radius(c2):
    """Spectral radius 2 sqrt((1 - c^2) c^2) of the sharp-probe
    disturbance operator, per unit target strength."""
    return 2.0 * np.sqrt((1.0 - c2) * c2)


def overlap(pa: RandomizedDichotomic, pb: RandomizedDichotomic) -> OverlapGeometry:
    """Overlap geometry of a sharp probe and a target projector.

    Returns c^2 = tr(P_a P_b), the spectral radius lam = 2 sqrt((1-c^2)c^2)
    of the sharp-probe disturbance operator, and its top eigenvector (the
    optimal input state).  For degenerate geometry (c^2 of 0 or 1) the
    disturbance vanishes everywhere and the probe ket is returned.
    """
    if pa.dim != pb.dim:
        raise DimensionMismatchError(f"dimension mismatch: {pa.dim} vs {pb.dim}")
    if abs(pa.gamma - 1.0) > 1e-12:
        raise ProbeNotSharpError(f"probe gamma {pa.gamma!r} is not 1")
    proj_a = pa.projector_plus
    proj_b = pb.projector_plus
    c2 = float(np.clip(np.trace(proj_a @ proj_b).real, 0.0, 1.0))
    return OverlapGeometry(c2, float(_radius(c2)), _frozen(optimal_kets(proj_a, proj_b)))


def circle_law(gamma: float, c2) -> tuple[np.ndarray, np.ndarray]:
    """C = gamma (2 c^2 - 1) and D = 2 gamma sqrt((1 - c^2) c^2) of a sharp
    probe followed by a randomized target of strength ``gamma``, on the
    optimal state, for one overlap or an array of them; an overlap outside
    [0, 1] (or NaN) raises InvalidMeasurementError naming the first one."""
    _check_gamma(gamma)
    c2 = _as_array(c2, float, "overlaps")
    index = first_bad(~((0.0 <= c2) & (c2 <= 1.0)))
    if index is not None:
        raise InvalidMeasurementError(f"overlap c^2{at_index(index)} = {float(c2[index])!r} "
                                      "lies outside [0, 1]")
    corr, dist = gamma * (2.0 * c2 - 1.0), gamma * _radius(c2)
    check_tradeoff(corr, dist)
    return corr, dist


def cd_highdim(pa: RandomizedDichotomic, pb: RandomizedDichotomic) -> CdValue:
    """Closed-form correlation and disturbance of a sharp probe followed by
    a randomized target, evaluated on the optimal state."""
    corr, dist = circle_law(pb.gamma, overlap(pa, pb).c_squared)
    return CdValue(float(corr), float(dist))
