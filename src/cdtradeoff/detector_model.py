"""Binary (on-off) single-photon detector noise model and the
correlation/disturbance protocol that estimates its efficiency and dark
counts without tomography.

The detector stays silent on an n-photon input with probability
exp(-nu) * (1 - eta)^n, so its no-click effect is diagonal in photon
number.  The estimation scenario lives on the three-dimensional space
spanned by {vacuum, one H photon, one V photon}: the reference measurement
heralds polarization by a negative (no-click) detection that absorbs the V
photon, the device under test watches the V mode, and the input is the
diagonally polarized single photon.  Two reference settings - sharp, and
fully biased (every photon passed as H) - yield

    D_sharp  = exp(-nu) * eta        (correlation zero)
    C_biased = exp(-nu) * (2 - eta) - 1   (disturbance zero)

from which (eta, nu) invert in closed form.  The reference is a heralding
``Instrument`` with a non-Hermitian Kraus operator; its tables and its
correlation and disturbance come from the same functions as every other
probe's (``scenario_tables``, ``cd_tables``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cd_measures import CdValue, cd_tables
from .errors import (
    InvalidMeasurementError,
    InvalidNoiseError,
    OutOfDomainError,
)
from .quantum_core import Instrument, _frozen, scenario_tables

# Outcome labels: polarization H/V and detector off/on.  H pairs with off
# (photon routed away from the watched mode should leave the detector
# silent), so the matched pairs are (H, off) and (V, on).
LABELS_POLARIZATION = (-1.0, 1.0)  # (H, V)
LABELS_CLICK = (-1.0, 1.0)  # (off, on)

# Kraus operators (H, V) of the two reference settings on (vacuum, 1H, 1V).
# Sharp: no click on the heralding detector -> outcome H, photon passes;
# click -> outcome V, the V photon is absorbed and vacuum travels on
# (K_V = |vac><1V|, not Hermitian).  Fully biased: every photon passes,
# reported as H.
_HERALDS = {
    "sharp": (np.diag([1.0, 1.0, 0.0]), np.outer(np.eye(3)[0], np.eye(3)[2])),
    "fully_biased": (np.eye(3), np.zeros((3, 3))),
}
# The input: the diagonally polarized photon (|1H> + |1V>)/sqrt(2), which
# maximizes the disturbance.
_PHOTON = np.asarray(np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0), dtype=complex)
_DIAGONAL_PHOTON = _frozen(np.outer(_PHOTON, _PHOTON.conj()))


@dataclass(frozen=True)
class DetectorNoise:
    """Detection efficiency eta in [0, 1] and dark-count exponent nu >= 0.

    A zero-efficiency (never-clicking) detector is representable, although
    its parameters cannot be recovered by ``estimate_noise``.
    """

    eta: float
    nu: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidNoiseError(f"eta {self.eta!r} outside [0, 1]")
        if not self.nu >= 0.0:  # NaN fails the comparison too
            raise InvalidNoiseError(f"nu {self.nu!r} negative or NaN")

    @property
    def silence(self) -> float:
        """No-dark-count probability exp(-nu)."""
        return math.exp(-self.nu)


def _herald(reference: str) -> Instrument:
    if reference not in _HERALDS:
        raise InvalidMeasurementError(
            f"reference must be one of {tuple(_HERALDS)}, got {reference!r}"
        )
    return Instrument(_HERALDS[reference], LABELS_POLARIZATION)


def scenario_distributions(
    noise: DetectorNoise, reference: str
) -> tuple[np.ndarray, np.ndarray]:
    """Joint polarization/click table and detector-alone distribution.

    Rows are reference outcomes (H, V), columns are detector outcomes
    (off, on).  Everything is computed from the truncated-space operators,
    not from the closed forms.
    """
    inst = _herald(reference)
    silence = noise.silence
    # No-click effect of a detector watching the V mode: photon number in
    # V is 0 on vacuum and on the H photon, 1 on the V photon.
    e_off = np.diag([silence, silence, silence * (1.0 - noise.eta)])
    target = np.stack([e_off, np.eye(3) - e_off])
    return scenario_tables(_DIAGONAL_PHOTON, inst, target)


def scenario_cd(noise: DetectorNoise, reference: str) -> CdValue:
    """Correlation and disturbance of one reference setting, from first
    principles on the truncated space."""
    joint, alone = scenario_distributions(noise, reference)
    corr, dist = cd_tables(joint, alone, _herald(reference), LABELS_CLICK)
    return CdValue(float(corr), float(dist))


def estimate_noise(d1: float, c2: float) -> DetectorNoise:
    """Invert the two reference readings into detector parameters.

    From d1 = exp(-nu) eta and c2 = exp(-nu)(2 - eta) - 1 the sum gives
    exp(-nu) = (c2 + d1 + 1)/2 and eta = 2 d1 / (c2 + d1 + 1); both are
    validated to lie in their physical ranges.
    """
    total = c2 + d1 + 1.0
    if total <= 0.0:
        raise OutOfDomainError(f"c2 + d1 + 1 = {total!r} is not positive")
    silence = total / 2.0
    if silence > 1.0 + 1e-12:
        raise OutOfDomainError(f"implied exp(-nu) = {silence!r} exceeds 1")
    eta = 2.0 * d1 / total
    if not 0.0 < eta <= 1.0 + 1e-12:
        raise OutOfDomainError(f"implied eta = {eta!r} outside (0, 1]")
    return DetectorNoise(min(eta, 1.0), -math.log(min(silence, 1.0)))
