"""Seeded Monte Carlo emulation of the two-arm experiment: finite-shot
count records drawn from the tables of any probe ``Instrument``, plug-in
estimators for correlation and disturbance, and the config names of the
three qubit probe instruments (``InstrumentPolicy``).

Reproducibility contract: all randomness comes from the counter-based
Philox 4x64 bit generator (``numpy.random.Philox``) keyed by the 64-bit
seed, consumed as uniform doubles through the generator's native 53-bit
conversion.  Categorical draws are inverse-CDF lookups against the
cumulative distribution ``edge``: outcome ``i`` is drawn when
``edge[i-1] <= u < edge[i]`` (with ``edge[-1] = 0``; the last outcome takes
every ``u`` at or above its lower edge).  Uniforms are used in stream
order, in fixed blocks; the joint arm is drawn before the alone arm from
the same stream.  Identical (scenario, seed) pairs yield bit-identical
records on any platform, and the bits are unchanged from 0.1.0.  This
algorithm is part of the package contract and must not change silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import qubit_model
from .errors import EmptyRecordError, InvalidShotsError, LabelMismatchError, NotNormalizedError
from .quantum_core import DensityMatrix, Instrument, Povm, _frozen, scenario_tables


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
        """The probe instrument of this policy for a +1/-1 labelled POVM."""
        return _POLICY_INSTRUMENTS[self](povm)


def _reprepare(povm: Povm, unit: bool) -> Instrument:
    """Measure-and-prepare instrument re-preparing the state with Bloch
    vector label * b on the outcome labelled +/-1, b the probe's Bloch
    vector (``unit``: its axis)."""
    probe = qubit_model.measurement_from_povm(povm)
    bloch = probe.axis if unit else probe.bloch
    states = qubit_model.qubit_states(np.array(povm.labels)[:, None] * bloch)
    return Instrument.measure_and_prepare(povm, states)


_POLICY_INSTRUMENTS = {
    InstrumentPolicy.LUEDERS: Instrument.lueders,
    InstrumentPolicy.EIGENSTATE: lambda povm: _reprepare(povm, unit=True),
    InstrumentPolicy.MIXED: lambda povm: _reprepare(povm, unit=False),
}


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Counts from one joint run and one probe-off run.

    ``joint_counts[i, j]`` pairs probe outcome i with target outcome j in
    effect order; estimators match outcomes by equal index, which
    ``sample`` guarantees by requiring identical label sequences.
    """

    joint_counts: np.ndarray
    alone_counts: np.ndarray
    shots_joint: int
    shots_alone: int
    seed: int

    def __post_init__(self):
        jc = np.asarray(self.joint_counts, dtype=np.int64)
        ac = np.asarray(self.alone_counts, dtype=np.int64)
        if jc.sum() != self.shots_joint or ac.sum() != self.shots_alone:
            raise InvalidShotsError("counts do not add up to the shot totals")
        object.__setattr__(self, "joint_counts", _frozen(jc))
        object.__setattr__(self, "alone_counts", _frozen(ac))


@dataclass(frozen=True)
class CdEstimate:
    """Plug-in estimates with one-sigma statistical errors."""

    c_hat: float
    d_hat: float
    c_err: float
    d_err: float


# Uniforms are drawn this many at a time, so a draw's memory is bounded by
# the block and not by the shot count.
_BLOCK = 1 << 16


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _categorical(rng: np.random.Generator, probs, shots: int) -> np.ndarray:
    """Multinomial counts via inverse-CDF on uniform doubles.

    Negative entries are clipped to zero and the rest normalized.  Each
    block of uniforms is counted against every cumulative edge but the
    last; the counts are the differences of those tallies.
    """
    raw = np.asarray(probs, dtype=float).ravel()
    p = np.clip(raw, 0.0, None)
    total = p.sum()
    if not (np.isfinite(raw).all() and 0.0 < total < np.inf):
        raise NotNormalizedError("probabilities must be finite with a positive sum")
    edges = np.cumsum(p / total)[:-1]
    below = [0] * edges.size  # draws with u < edges[i]
    for start in range(0, shots, _BLOCK):
        u = rng.random(min(_BLOCK, shots - start))
        for i, edge in enumerate(edges):
            below[i] += np.count_nonzero(u < edge)
    return np.diff(np.array([0, *below, shots], dtype=np.int64))


def sample_distributions(
    joint, alone, shots_joint: int, shots_alone: int, seed: int
) -> ShotRecord:
    """Draw a shot record from explicit joint and alone distributions."""
    if shots_joint <= 0 or shots_alone <= 0:
        raise InvalidShotsError("shot counts must be positive")
    joint = np.asarray(joint, dtype=float)
    rng = _stream(seed)
    jc = _categorical(rng, joint.ravel(), shots_joint).reshape(joint.shape)
    ac = _categorical(rng, alone, shots_alone)
    return ShotRecord(jc, ac, shots_joint, shots_alone, seed)


def sample(
    rho: DensityMatrix,
    inst_a: Instrument,
    povm_b: Povm,
    shots_joint: int,
    shots_alone: int,
    seed: int,
) -> ShotRecord:
    """Simulate the two-arm experiment: ``shots_joint`` runs with the probe
    on and registered, ``shots_alone`` runs with the probe off."""
    if list(inst_a.labels) != list(povm_b.labels):
        raise LabelMismatchError(
            "probe and target label sequences must be identical for matching"
        )
    joint, alone = scenario_tables(rho.matrix, inst_a, povm_b.matrices)
    return sample_distributions(joint, alone, shots_joint, shots_alone, seed)


def estimate_cd(rec: ShotRecord) -> CdEstimate:
    """Plug-in estimators from recorded intensities.

    For dichotomic records: c = 2 (I(+,+) + I(-,-)) / sum(I) - 1 and
    d = 2 |Ialone(+)/sum(Ialone) - (I(+,+) + I(-,+))/sum(I)|, with
    binomial one-sigma errors (the two arms of d are independent and add
    in quadrature).  Records with more outcomes use the rescaled
    coincidence/distance forms with delta-method errors.
    """
    n_joint = int(rec.joint_counts.sum())
    n_alone = int(rec.alone_counts.sum())
    if n_joint == 0 or n_alone == 0:
        raise EmptyRecordError("cannot estimate from empty record")
    q = rec.joint_counts / n_joint
    if q.shape[0] != q.shape[1]:
        raise LabelMismatchError("joint record is not square")
    n = q.shape[0]
    scale = n / (n - 1)
    p_match = float(np.trace(q))
    c_hat = scale * (p_match - 1.0 / n)
    c_err = scale * np.sqrt(p_match * (1.0 - p_match) / n_joint)

    p_alone = rec.alone_counts / n_alone
    p_tilde = q.sum(axis=0)
    if n == 2:
        d_hat = 2.0 * abs(p_alone[0] - p_tilde[0])
        d_err = 2.0 * np.sqrt(
            p_alone[0] * (1.0 - p_alone[0]) / n_alone
            + p_tilde[0] * (1.0 - p_tilde[0]) / n_joint
        )
    else:
        diff = p_alone - p_tilde
        norm = np.linalg.norm(diff)
        k = np.sqrt(scale)
        d_hat = k * norm
        cov_alone = (np.diag(p_alone) - np.outer(p_alone, p_alone)) / n_alone
        cov_tilde = (np.diag(p_tilde) - np.outer(p_tilde, p_tilde)) / n_joint
        if norm > 0:
            var = (diff @ (cov_alone + cov_tilde) @ diff) * (k / norm) ** 2
        else:
            var = scale * np.trace(cov_alone + cov_tilde)
        d_err = float(np.sqrt(max(var, 0.0)))
    return CdEstimate(float(c_hat), float(d_hat), float(c_err), float(d_err))
