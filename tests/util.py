"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np

from cdtradeoff.calibration import CdScan
from cdtradeoff.cd_measures import cd_from_scenario, cd_tables
from cdtradeoff.errors import FitError, OutOfDomainError
from cdtradeoff.quantum_core import (
    DensityMatrix,
    Instrument,
    LuedersInstrument,
    Povm,
    scenario_tables,
)
from cdtradeoff.qubit_model import (
    QubitMeasurement,
    optimal_bloch,
    optimal_state,
    plane_axis,
    qubit_povms,
    qubit_states,
    unit_axes,
)
from cdtradeoff.shot_sampler import estimate_cd, estimate_columns, sample, sample_tables


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, dim) -> DensityMatrix:
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.from_ket(ket)


def random_two_outcome_povm(rng, dim) -> Povm:
    """Random dichotomic POVM with labels (+1, -1)."""
    u = random_unitary(rng, dim)
    e_plus = (u * rng.uniform(0.0, 1.0, size=dim)) @ u.conj().T
    e_plus = (e_plus + e_plus.conj().T) / 2
    return Povm([e_plus, np.eye(dim) - e_plus], (1.0, -1.0))


def random_povm(rng, dim, n_outcomes) -> Povm:
    """Random n-outcome POVM by whitening random PSD operators."""
    gs = []
    for _ in range(n_outcomes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gs.append(a @ a.conj().T)
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    whiten = (v / np.sqrt(w)) @ v.conj().T
    effects = [whiten @ g @ whiten.conj().T for g in gs]
    return Povm(effects, tuple(float(k) for k in range(n_outcomes)))


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_qubit_measurement(rng, min_strength=0.05, max_bias=0.6) -> QubitMeasurement:
    bias = rng.uniform(-max_bias, max_bias)
    strength = rng.uniform(min_strength, 1.0 - abs(bias))
    return QubitMeasurement(bias, strength * random_axis(rng))


def random_rotation(rng):
    """Haar-ish random proper rotation of Bloch space."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def loop_matmul(a, b):
    """Plain-Python matrix product, independent of the library code path."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def loop_trace(a) -> complex:
    return sum(a[i, i] for i in range(a.shape[0]))


def apply_instrument(inst, rho: DensityMatrix, outcome: int):
    """Subnormalized post-measurement state sum_m K_am rho K_am^dagger of
    one outcome, summed over that outcome's Kraus operators one by one, and
    its trace (the outcome probability)."""
    m = inst.per_outcome
    out = sum(k @ rho.matrix @ k.conj().T for k in inst.matrices[outcome * m:(outcome + 1) * m])
    return out, float(out.trace().real)


def unregistered_channel(inst, rho: DensityMatrix) -> DensityMatrix:
    """State after the probe with its outcome discarded, sum over every
    Kraus operator of K rho K^dagger; ``DensityMatrix`` checks that it is a
    state."""
    return DensityMatrix(sum(k @ rho.matrix @ k.conj().T for k in inst.matrices))


def oracle_joint_table(kraus, rho, effects):
    """Brute-force joint probabilities tr(K rho Kdag E) via explicit loops."""
    table = np.empty((len(kraus), len(effects)))
    for i, k in enumerate(kraus):
        post = loop_matmul(loop_matmul(k, rho), k.conj().T)
        for j, e in enumerate(effects):
            table[i, j] = loop_trace(loop_matmul(post, e)).real
    return table


PAULI_LIST = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def qubit_sqrt(m):
    """Closed-form square root of a 2x2 PSD matrix,
    (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)), independent of the
    eigendecomposition in the library."""
    s = np.sqrt(max(np.linalg.det(m).real, 0.0))
    return (m + s * np.eye(2)) / np.sqrt(m.trace().real + 2 * s)


def oracle_qubit_cd(policy, probe, target, state_bloch):
    """(C, D) of a qubit probe/target pair (each ``(bias, bloch)``) on the
    state with Bloch vector ``state_bloch``, from explicit loops: Kraus
    operators by ``qubit_sqrt`` for ``"lueders"``, re-prepared states
    +/- axis (``"eigenstate"``) or +/- bloch (``"mixed"``) otherwise."""
    eye = np.eye(2, dtype=complex)

    def pair(bias, bloch):
        m = bias * eye + sum(c * s for c, s in zip(bloch, PAULI_LIST))
        return [(eye + m) / 2, (eye - m) / 2]

    rho = (eye + sum(c * s for c, s in zip(state_bloch, PAULI_LIST))) / 2
    probe_effects, target_effects = pair(*probe), pair(*target)
    if policy == "lueders":
        table = oracle_joint_table([qubit_sqrt(e) for e in probe_effects], rho, target_effects)
    else:
        b = np.asarray(probe[1], dtype=float)
        if policy == "eigenstate":
            b = b / np.sqrt(sum(x * x for x in b))
        table = np.empty((2, 2))
        for a, sign in enumerate((1.0, -1.0)):
            p_a = loop_trace(loop_matmul(rho, probe_effects[a])).real
            sigma = (eye + sign * sum(c * s for c, s in zip(b, PAULI_LIST))) / 2
            for j, e in enumerate(target_effects):
                table[a, j] = max(p_a, 0.0) * loop_trace(loop_matmul(sigma, e)).real
    alone_plus = loop_trace(loop_matmul(rho, target_effects[0])).real
    corr = 2 * (table[0, 0] + table[1, 1]) - 1
    dist = 2 * abs(alone_plus - (table[0, 0] + table[1, 0]))
    return corr, dist


def scenario(rho: DensityMatrix, probe: QubitMeasurement, target: QubitMeasurement):
    return rho, LuedersInstrument(probe.to_povm()), target.to_povm()


def scan_scenarios(probe: QubitMeasurement, target_strength, target_bias, thetas,
                   rotation=None):
    """(state, probe instrument, target POVM) of each point of a scan, built
    point by point from the scalar types: the target at strength
    ``target_strength`` along ``plane_axis(theta)`` and the optimal state
    of the pair; an optional common rotation is applied to both axes.  The
    per-point reference of ``forward_scan_oracle``."""
    for theta in thetas:
        axis_a = probe.axis
        axis_b = plane_axis(theta)
        if rotation is not None:
            axis_a, axis_b = rotation @ axis_a, rotation @ axis_b
        probe_i = QubitMeasurement(probe.bias, probe.strength * axis_a)
        target = QubitMeasurement(target_bias, target_strength * axis_b)
        yield scenario(optimal_state(probe_i, target), probe_i, target)


def forward_scan(
    probe: QubitMeasurement,
    target_strength,
    target_bias,
    thetas,
    shots=None,
    seed=0,
    rotation=None,
) -> CdScan:
    """Scan points from the full pipeline on the optimal state, exact or
    finite-shot; an optional common rotation is applied to all axes.

    The scan is built as the CLI builds a slice of a grid: one Lueders
    probe instrument, and stacks of target effects (``qubit_povms``),
    optimal states (``optimal_bloch``, ``qubit_states``) and joint tables
    (``scenario_tables``).  Only the probe-off tables are summed point by
    point, as ``np.einsum`` gives them other last bits in a stack than for
    one point (``forward_scan_oracle``'s).  The stacks then go through
    one ``cd_tables`` call (exact) or one ``sample_tables`` and
    ``estimate_columns`` call (point ``i`` on the Philox stream
    ``seed ^ i``)."""
    axis_a, axes_b = probe.axis, plane_axis(thetas)
    if rotation is not None:  # axis by axis, as scan_scenarios rotates (same bits)
        axis_a, axes_b = rotation @ axis_a, np.array([rotation @ axis for axis in axes_b])
    probe_bloch, target_bloch = probe.strength * axis_a, target_strength * axes_b
    inst = Instrument.lueders(Povm(qubit_povms(probe.bias, probe_bloch)))
    effects = qubit_povms(target_bias, target_bloch)
    states = qubit_states(optimal_bloch(unit_axes(probe_bloch), unit_axes(target_bloch)))
    joint, _ = scenario_tables(states, inst, effects)
    alone = np.array([scenario_tables(rho, inst, povm)[1] for rho, povm in zip(states, effects)])
    if shots is None:
        return CdScan(thetas, *cd_tables(joint, alone, inst, inst.labels))
    return CdScan(thetas, *estimate_columns(*sample_tables(joint, alone, shots, seed)))


def forward_scan_oracle(probe, target_strength, target_bias, thetas, shots=None, seed=0,
                        rotation=None) -> np.ndarray:
    """The (4, points) columns c, d, c_err, d_err of ``forward_scan`` with
    one library call per point: ``cd_from_scenario`` (exact; zero errors)
    or ``estimate_cd(*sample(...))`` on the Philox stream ``seed ^ i``."""
    columns = np.zeros((4, len(thetas)))
    points = scan_scenarios(probe, target_strength, target_bias, thetas, rotation)
    for i, args in enumerate(points):
        if shots is None:
            value = cd_from_scenario(*args)
            columns[:2, i] = value.correlation, value.disturbance
        else:
            est = estimate_cd(*sample(*args, shots, shots, seed ^ i))
            columns[:, i] = est.c_hat, est.d_hat, est.c_err, est.d_err
    return columns


def philox(key):
    """The README's stream of ``key`` as numpy opens it, a ``Generator`` on a
    fresh ``Philox(key=key)``, so oracles do not read the sampler's own
    stream helper."""
    return np.random.Generator(np.random.Philox(key=key))


def categorical_oracle(rng, probs, shots):
    """Multinomial counts by inverse-CDF lookup of one full-length array of
    uniforms (``searchsorted`` + ``bincount``), independent of the blocked
    edge counting in the library sampler."""
    p = np.clip(np.asarray(probs, dtype=float).ravel(), 0.0, None)
    p = p / p.sum()
    edges = np.cumsum(p)
    draws = np.searchsorted(edges, rng.random(shots), side="right")
    draws = np.minimum(draws, p.size - 1)
    return np.bincount(draws, minlength=p.size).astype(np.int64)


def bootstrap_oracle(fit, scan, names, n_bootstrap, seed, **kwargs):
    """Bootstrap errors of the result fields ``names`` of the public fit
    ``fit``, run with ``n_bootstrap=0`` on each resampled scan.  Each
    resample draws its indices with one ``random(n)`` call on the Philox
    stream of ``seed``; a resample on which the fit raises ``FitError``, or
    the ``OutOfDomainError`` of a conic scatter or pencil that overflows, is
    skipped.  Returns ({name: sample std}, resamples kept); the dict is
    empty below two kept resamples."""
    rng = philox(seed)
    n = len(scan)
    rows = []
    for _ in range(n_bootstrap):
        idx = np.minimum((rng.random(n) * n).astype(np.int64), n - 1)
        columns = [None if col is None else col[idx]
                   for col in (scan.theta, scan.c, scan.d, scan.c_err, scan.d_err)]
        try:
            result = fit(CdScan(*columns), n_bootstrap=0, **kwargs)
        except FitError:
            continue
        except OutOfDomainError as exc:
            if not str(exc).startswith(("scatter of the scan", "conic pencil of the scan")):
                raise
            continue
        rows.append([getattr(result, name) for name in names])
    if len(rows) < 2:
        return {}, len(rows)
    return dict(zip(names, map(float, np.array(rows).std(axis=0, ddof=1)))), len(rows)


def dichotomic_estimate_oracle(joint_counts, alone_counts):
    """(c, d, c_err, d_err) of one dichotomic record with Python floats and
    ``math.sqrt``, in the operation order of the README estimator formulas."""
    n_joint, n_alone = int(np.sum(joint_counts)), int(np.sum(alone_counts))
    (q_pp, q_pm), (q_mp, q_mm) = [[int(x) / n_joint for x in row] for row in joint_counts]
    p_match, p_tilde, p_alone = q_pp + q_mm, q_pp + q_mp, int(alone_counts[0]) / n_alone
    return (
        2.0 * (p_match - 0.5),
        2.0 * abs(p_alone - p_tilde),
        2.0 * math.sqrt(p_match * (1.0 - p_match) / n_joint),
        2.0 * math.sqrt(p_alone * (1.0 - p_alone) / n_alone + p_tilde * (1.0 - p_tilde) / n_joint),
    )


def conic_row_oracle(t, evals, evecs):
    """Row of (c0, P, Q, S) and the six conic coefficients of one resample,
    or None when it is dropped, with the scalar arithmetic of the 0.1.0
    unknown-theta fit: the first real eigenvector of the reduced problem
    (``evals``, ``evecs`` of one 3x3 pencil) that satisfies
    4 A C - B^2 > 0, completed by ``t @ vec``, and its conic decomposed
    with Python floats; None also when no eigenvector is an ellipse, or
    when a squared semi-axis is not positive and finite."""
    for i in range(3):
        vec = evecs[:, i].real
        if abs(evals[i].imag) <= 1e-9 and 4.0 * vec[0] * vec[2] - vec[1] * vec[1] > 0:
            break
    else:
        return None
    coef = np.concatenate([vec, t @ vec])
    a, b, c, d, e, f = (float(v) for v in coef)
    disc = b * b - 4.0 * a * c
    cx = (2.0 * c * d - b * e) / disc
    cy = (2.0 * a * e - b * d) / disc
    f_centered = a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f
    kappa = -b / (2.0 * a)
    p_sq = -f_centered / a
    s_sq = -f_centered / (c - a * kappa * kappa)
    if not (p_sq > 0 and s_sq > 0 and math.isfinite(p_sq) and math.isfinite(s_sq)):
        return None
    s_strength = math.sqrt(s_sq)
    return [cx, math.sqrt(p_sq), kappa * s_strength, s_strength, *coef]
