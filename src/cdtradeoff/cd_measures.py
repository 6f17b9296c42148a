"""Correlation and disturbance of sequential measurements, their operator
forms, and the tradeoff between them.

For an n-outcome pair with identical label sets, the correlation is the
rescaled coincidence probability

    C = n/(n-1) * (p(a = b) - 1/n),

and the disturbance is the rescaled Euclidean distance between the target's
outcome distribution with the probe unperformed and with the probe performed
but unregistered,

    D = sqrt(n/(n-1)) * || p(b) - p~(b) ||_2.

For dichotomic measurements these reduce to C = 2 p(a=b) - 1 and
D = 2 |p(+) - p~(+)|, and C^2 + D^2 <= 1 for every state and every
minimal-back-action measurement pair with two outcomes on each arm.  The
kernels take stacks of tables with leading batch axes, so a scan is
evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LabelMismatchError,
    NegativeDisturbanceError,
    NotDichotomicError,
    NotNormalizedError,
    TradeoffViolationError,
)
from .quantum_core import (
    ATOL,
    DensityMatrix,
    Instrument,
    Povm,
    _as_array,
    _as_square,
    _check_dims,
    at_index,
    dual_channel,
    first_bad,
    scenario_tables,
)


# Slack allowed on the exact tradeoff inequality.
INEQ_TOL = 1e-9


@dataclass(frozen=True)
class CdValue:
    """One exact correlation/disturbance pair.

    The tradeoff C^2 + D^2 <= 1 is a theorem, checked by ``check_tradeoff``,
    for square-root instruments with two outcomes on each arm only; other
    updates and more outcomes can leave the disc.  Finite-shot estimates
    live in CdEstimate.
    """

    correlation: float
    disturbance: float

    def __post_init__(self):
        if self.disturbance < 0:
            raise NegativeDisturbanceError(f"disturbance {self.disturbance!r} is negative")


def check_tradeoff(corr, dist) -> None:
    """Require C^2 + D^2 <= 1 (within INEQ_TOL), the theorem for square-root
    instruments with two outcomes on each arm; raises TradeoffViolationError
    naming the first point outside the disc (NaN included)."""
    c, d = np.asarray(corr), np.asarray(dist)
    index = first_bad(~(c * c + d * d <= 1.0 + INEQ_TOL))  # NaN fails the comparison too
    if index is not None:
        raise TradeoffViolationError(
            f"({float(c[index])!r}, {float(d[index])!r}){at_index(index)} violates the "
            "correlation-disturbance tradeoff"
        )


def _check_distributions(probs: np.ndarray, what: str) -> None:
    """Each distribution (..., k) lies in [0, 1] and sums to one; NaN fails
    both conditions."""
    index = first_bad(~((probs >= -ATOL) & (probs <= 1.0 + ATOL)).all(axis=-1))
    if index is not None:
        raise NotNormalizedError(f"{what}{at_index(index)} has a probability outside [0, 1]")
    total = probs.sum(axis=-1)
    index = first_bad(~(np.abs(total - 1.0) <= ATOL))
    if index is not None:
        raise NotNormalizedError(f"{what}{at_index(index)} sums to {float(total[index])!r}, not 1")


def _matched_label_sets(labels_a, labels_b) -> None:
    la, lb = tuple(labels_a), tuple(labels_b)
    if len(set(la)) != len(la) or len(set(lb)) != len(lb):
        raise LabelMismatchError("outcome labels must be distinct")
    if set(la) != set(lb):
        raise LabelMismatchError(f"label sets differ: {sorted(la)} vs {sorted(lb)}")


def correlation(joint, labels_a, labels_b):
    """Rescaled coincidence probability of a joint outcome table.

    ``joint[i, j]`` is the probability of probe outcome ``labels_a[i]``
    followed by target outcome ``labels_b[j]``; outcomes match when their
    labels are equal.  A stack of tables (..., i, j) gives an array of
    correlations; one table gives a float.
    """
    table = _as_array(joint, float, "joint table")
    la = tuple(float(x) for x in labels_a)
    lb = tuple(float(x) for x in labels_b)
    if table.shape[-2:] != (len(la), len(lb)):
        raise LabelMismatchError(
            f"table shape {table.shape} does not match label counts"
        )
    _matched_label_sets(la, lb)
    total = table.sum(axis=(-2, -1))
    index = first_bad(~(np.abs(total - 1.0) <= ATOL))  # NaN fails the comparison too
    if index is not None:
        raise NotNormalizedError(
            f"joint table{at_index(index)} sums to {float(total[index])!r}, not 1")
    n = len(la)
    p_match = (table * np.equal.outer(la, lb)).sum(axis=(-2, -1))
    corr = n / (n - 1) * (p_match - 1.0 / n)
    return float(corr) if corr.ndim == 0 else corr


def _distance(p_alone: np.ndarray, p_tilde: np.ndarray) -> np.ndarray:
    n = p_alone.shape[-1]
    return np.sqrt(n / (n - 1)) * np.linalg.norm(p_alone - p_tilde, axis=-1)


def cd_tables(joint, alone, inst_a: Instrument, labels_b) -> tuple[np.ndarray, np.ndarray]:
    """Correlations and disturbances of the joint tables (..., ka, kb) and
    probe-off target distributions (..., kb) of ``scenario_tables``.

    Every table must sum to one, and the probe-off and probe-on target
    distributions must be probability vectors; the first bad point is named.
    The bound C^2 + D^2 <= 1 is checked where it is a theorem: a probe the
    square-root constructor built, with two outcomes on each arm.
    """
    table = _as_array(joint, float, "joint tables")
    alone = _as_array(alone, float, "probe-off distributions")
    corr = np.asarray(correlation(table, inst_a.labels, labels_b))
    tilde = table.sum(axis=-2)
    _check_distributions(alone, "probe-off distribution")
    _check_distributions(tilde, "probe-on distribution")
    dist = _distance(alone, tilde)
    if inst_a.square_root and table.shape[-2:] == (2, 2):
        check_tradeoff(corr, dist)
    return corr, dist


def cd_from_scenario(rho: DensityMatrix, inst_a: Instrument, povm_b: Povm) -> CdValue:
    """Exact correlation and disturbance of a state/probe/target scenario."""
    joint, alone = scenario_tables(rho.matrix, inst_a, povm_b.matrices)
    corr, dist = cd_tables(joint, alone, inst_a, povm_b.labels)
    return CdValue(float(corr), float(dist))


def disturbance_operator(inst_a: Instrument, observable_b) -> np.ndarray:
    """Observable shift caused by the unregistered probe:
    M_b - sum_am K_am^dagger M_b K_am.

    Its expectation value is the signed disturbance; the optimal state
    (largest-eigenvalue eigenvector) makes it nonnegative.
    """
    m = _as_square(observable_b, "observable")
    _check_dims(inst_a.dim, m.shape[0])
    return m - dual_channel(inst_a, m)


def correlation_operator(inst_a: Instrument, observable_b) -> np.ndarray:
    """Observable whose expectation value equals the correlation, for a
    two-outcome probe with labels +1/-1:
    sum_a label_a sum_m K_am^dagger M_b K_am."""
    m = _as_square(observable_b, "observable")
    _check_dims(inst_a.dim, m.shape[0])
    if sorted(inst_a.labels) != [-1.0, 1.0]:
        raise NotDichotomicError(f"probe labels {inst_a.labels} are not a +1/-1 pair")
    return np.tensordot(inst_a.labels, inst_a.dual(m), axes=1)


def dissipator(effect_sqrt, target) -> np.ndarray:
    """Double-commutator part of the measurement back-action on an
    observable: (1/2) [E^(1/2), [E^(1/2), M]].

    Subtracting it from the anticommutator term (1/2){E, M} gives the
    square-root update E^(1/2) M E^(1/2); summed over the outcomes of a
    probe it gives the disturbance operator.
    """
    k = _as_square(effect_sqrt, "effect square root")
    m = _as_square(target, "target observable")
    _check_dims(k.shape[0], m.shape[0])
    inner = k @ m - m @ k
    return 0.5 * (k @ inner - inner @ k)
