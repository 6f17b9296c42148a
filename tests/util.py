"""Shared generators and independent oracles for the test suite."""

import numpy as np

from cdtradeoff.calibration import CdScan
from cdtradeoff.cd_measures import cd_from_scenario
from cdtradeoff.errors import FitError
from cdtradeoff.quantum_core import DensityMatrix, LuedersInstrument, Povm
from cdtradeoff.qubit_model import QubitMeasurement, optimal_state, plane_axis
from cdtradeoff.shot_sampler import _stream, estimate_cd, sample


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
    finite-shot; an optional common rotation is applied to all axes."""
    columns = np.zeros((4, len(thetas)))
    for i, theta in enumerate(thetas):
        axis_a = probe.axis
        axis_b = plane_axis(theta)
        if rotation is not None:
            axis_a, axis_b = rotation @ axis_a, rotation @ axis_b
        probe_i = QubitMeasurement(probe.bias, probe.strength * axis_a)
        target = QubitMeasurement(target_bias, target_strength * axis_b)
        args = scenario(optimal_state(probe_i, target), probe_i, target)
        if shots is None:
            value = cd_from_scenario(*args)
            columns[:2, i] = value.correlation, value.disturbance
        else:
            est = estimate_cd(sample(*args, shots, shots, seed ^ i))
            columns[:, i] = est.c_hat, est.d_hat, est.c_err, est.d_err
    return CdScan(thetas, *columns)


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
    stream of ``seed``; a resample on which the fit raises ``FitError`` is
    skipped.  Returns ({name: sample std}, resamples kept); the dict is
    empty below two kept resamples."""
    rng = _stream(seed)
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
        rows.append([getattr(result, name) for name in names])
    if len(rows) < 2:
        return {}, len(rows)
    return dict(zip(names, map(float, np.array(rows).std(axis=0, ddof=1)))), len(rows)
