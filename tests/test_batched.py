"""Batched scan path: CLI rows against independent oracles, shot-mode bytes
against a per-point reference, and the batched checks against the scalar
constructors."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from cdtradeoff import cli
from cdtradeoff.cli import CSV_HEADER, main
from cdtradeoff.errors import (
    CdTradeoffError,
    DimensionMismatchError,
    InvalidMeasurementError,
    InvalidStateError,
    NotFiniteError,
    NotHermitianError,
    NotPsdError,
    ZeroBlochError,
)
from cdtradeoff.highdim_model import (
    RandomizedDichotomic,
    check_projectors,
    optimal_kets,
    overlap,
    projectors,
)
from cdtradeoff.quantum_core import (
    ATOL,
    DensityMatrix,
    Effect,
    LuedersInstrument,
    Povm,
    check_effects,
    check_povms,
    check_states,
    psd_sqrt,
)
from cdtradeoff.qubit_model import (
    InstrumentPolicy,
    QubitMeasurement,
    cd_parametric,
    check_qubit,
    optimal_bloch,
    optimal_state,
    plane_axis,
    qubit_povms,
    unit_axes,
)
from cdtradeoff.shot_sampler import estimate_cd, sample

from util import oracle_qubit_cd, random_unitary

PROBE = {"bias": 0.1, "gamma": 0.8, "theta": 0.0}
TARGET = {"bias": 0.05, "gamma": 0.9}
# eight points over a full turn: the grid holds theta = 0 and pi, where the
# optimal state falls back to a fixed direction perpendicular to both axes
GRID = {"start": 0.0, "stop": 2 * math.pi, "points": 8}


def angles(spec):
    return np.linspace(spec["start"], spec["stop"], spec["points"], endpoint=False)


def run_scan(tmp_path, **entries):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": 1, **entries}), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    return out


def exact_rows(**entries):
    """Unrounded rows of the batched scan path (the CSV keeps 9 digits)."""
    config = {"schema": 1, **entries}
    rows = cli._highdim_rows if config["mode"] == "highdim" else cli._scan_rows
    theta, columns = rows(config, cli._parse(config))
    return np.column_stack([theta, *columns])


def rows_of(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def fmt(value):
    v = float(value)
    return f"{0.0 if v == 0.0 else v:.9g}"


def csv_text(rows):
    lines = [CSV_HEADER]
    for theta, c, d, c_err, d_err in rows:
        lines.append(",".join(fmt(v) for v in (theta, c, d, c_err, d_err, c * c + d * d)))
    return "\n".join(lines) + "\n"


def qubit(spec, theta=None):
    angle = spec.get("theta", 0.0) if theta is None else theta
    return spec["bias"], spec["gamma"] * plane_axis(angle)


class TestExactRowsAgainstOracles:
    def test_grid_holds_parallel_axes(self):
        theta = angles(GRID)
        assert theta[0] == 0.0 and theta[4] == pytest.approx(math.pi, abs=1e-15)

    def test_lueders_optimal_state_matches_closed_form(self, tmp_path):
        rows = exact_rows(mode="scan", probe=PROBE, state="optimal",
                          target={**TARGET, "theta_grid": GRID})
        probe = QubitMeasurement(*qubit(PROBE))
        for row, theta in zip(rows, angles(GRID)):
            value = cd_parametric(probe, TARGET["gamma"], TARGET["bias"], theta)
            assert row[1] == pytest.approx(value.correlation, abs=1e-9)
            assert row[2] == pytest.approx(value.disturbance, abs=1e-9)

    @pytest.mark.parametrize("policy", ["lueders", "mixed", "eigenstate"])
    def test_fixed_state_matches_loop_oracle(self, policy):
        state = [0.3, 0.2, 0.6]
        rows = exact_rows(mode="scan", policy=policy, probe=PROBE,
                          state={"bloch": state}, target={**TARGET, "theta_grid": GRID})
        for row, theta in zip(rows, angles(GRID)):
            corr, dist = oracle_qubit_cd(policy, qubit(PROBE), qubit(TARGET, theta), state)
            assert row[1] == pytest.approx(corr, abs=1e-9)
            assert row[2] == pytest.approx(dist, abs=1e-9)

    def test_eigenstate_rows_may_leave_the_disc(self):
        probe = {"gamma": 0.3, "bias": 0.6}
        rows = exact_rows(mode="scan", policy="eigenstate", probe=probe,
                          state={"bloch": [0, 0, 1]},
                          target={"gamma": 1, "theta_grid": {"points": 16}})
        assert rows[0, 1] ** 2 + rows[0, 2] ** 2 == pytest.approx(1.36, abs=1e-9)
        for row, theta in zip(rows, angles({"start": 0.0, "stop": 2 * math.pi, "points": 16})):
            corr, dist = oracle_qubit_cd("eigenstate", (0.6, 0.3 * plane_axis(0.0)),
                                         (0.0, plane_axis(theta)), [0, 0, 1])
            assert row[1] == pytest.approx(corr, abs=1e-9)
            assert row[2] == pytest.approx(dist, abs=1e-9)

    def test_search_optimal_matches_closed_form(self):
        rows = exact_rows(mode="search-optimal", phi_grid=GRID)
        phi = angles(GRID)
        assert np.abs(rows[:, 1] - 1 / math.sqrt(2)).max() <= 1e-9
        assert np.abs(rows[:, 2] - np.abs(np.sin(phi) - np.cos(phi)) / 2).max() <= 1e-9

    @pytest.mark.parametrize("shots", [None, 4000])
    def test_highdim_circle_law_with_degenerate_overlaps(self, tmp_path, shots):
        gamma, grid = 0.7, {"start": 0.0, "stop": 1.25, "points": 5}
        entries = {"shots": shots, "seed": 3} if shots else {}
        out = run_scan(tmp_path, mode="highdim", dim=4, gamma=gamma, c2_grid=grid,
                       **entries)
        rows = exact_rows(mode="highdim", dim=4, gamma=gamma, c2_grid=grid, **entries)
        assert rows_of(out)[:, :5] == pytest.approx(rows, rel=5e-9, abs=1e-12)  # 9 digits
        c2 = angles(grid)
        assert c2[0] == 0.0 and c2[-1] == 1.0
        corr, dist = gamma * (2 * c2 - 1), 2 * gamma * np.sqrt((1 - c2) * c2)
        if shots is None:
            assert np.abs(rows[:, 0] - np.arccos(2 * c2 - 1)).max() <= 1e-9
            assert np.abs(rows[:, 1] - corr).max() <= 1e-9
            assert np.abs(rows[:, 2] - dist).max() <= 1e-9
        else:
            assert np.all(np.abs(rows[:, 1] - corr) <= 5 * rows[:, 3] + 1e-12)
            assert np.all(np.abs(rows[:, 2] - dist) <= 5 * rows[:, 4] + 1e-12)


def reference_qubit_csv(policy, grid, shots, seed):
    """Shot CSV from the scalar pipeline, one point at a time."""
    probe = QubitMeasurement(*qubit(PROBE))
    inst = InstrumentPolicy(policy).instrument(probe.to_povm())
    rows = []
    for index, theta in enumerate(angles(grid)):
        target = QubitMeasurement(*qubit(TARGET, theta))
        est = estimate_cd(*sample(optimal_state(probe, target), inst, target.to_povm(),
                                  shots, shots, seed ^ index))
        rows.append((theta, est.c_hat, est.d_hat, est.c_err, est.d_err))
    return csv_text(rows)


def reference_highdim_csv(dim, gamma, grid, shots, seed):
    rows = []
    for index, c2 in enumerate(angles(grid)):
        ket_b = np.zeros(dim)
        ket_b[0], ket_b[1] = math.sqrt(c2), math.sqrt(1.0 - c2)
        pa = RandomizedDichotomic.from_ket(np.eye(dim)[0], 1.0)
        pb = RandomizedDichotomic.from_ket(ket_b, gamma)
        rho = DensityMatrix.from_ket(overlap(pa, pb).psi_plus)
        est = estimate_cd(*sample(rho, LuedersInstrument(pa.to_povm()), pb.to_povm(),
                                  shots, shots, seed ^ index))
        angle = math.acos(min(1.0, max(-1.0, 2.0 * c2 - 1.0)))
        rows.append((angle, est.c_hat, est.d_hat, est.c_err, est.d_err))
    return csv_text(rows)


class TestShotBytesMatchPerPointReference:
    @pytest.mark.parametrize("seed", [0, 41, 2**64 - 1])
    @pytest.mark.parametrize("policy", ["lueders", "mixed"])
    def test_qubit_scan(self, tmp_path, seed, policy):
        grid = {"start": 0.1, "stop": 0.1 + 2 * math.pi, "points": 12}
        out = run_scan(tmp_path, mode="scan", policy=policy, shots=3000, seed=seed,
                       probe=PROBE, state="optimal", target={**TARGET, "theta_grid": grid})
        assert out.read_text(encoding="utf-8") == reference_qubit_csv(policy, grid, 3000, seed)

    @pytest.mark.parametrize("seed", [0, 41, 2**64 - 1])
    def test_highdim_scan(self, tmp_path, seed):
        grid = {"start": 0.0, "stop": 1.25, "points": 5}
        out = run_scan(tmp_path, mode="highdim", dim=3, gamma=0.6, c2_grid=grid,
                       shots=3000, seed=seed)
        assert out.read_text(encoding="utf-8") == reference_highdim_csv(3, 0.6, grid, 3000, seed)

    def test_highdim_scan_across_batches(self, tmp_path):
        dim, grid = 64, {"start": 0.0, "stop": 1.0, "points": 20}
        assert cli._BATCH_ENTRIES // dim**2 < grid["points"]
        out = run_scan(tmp_path, mode="highdim", dim=dim, gamma=0.6, c2_grid=grid,
                       shots=500, seed=5)
        assert out.read_text(encoding="utf-8") == reference_highdim_csv(dim, 0.6, grid, 500, 5)


SLICED_GRID = {"start": 0.3, "stop": 6.9, "points": 23}
SLICED_C2 = {"start": 0.0, "stop": 1.0, "points": 23}


class TestOutputDoesNotDependOnSlices:
    """A grid is evaluated and written a slice at a time; the bytes are
    those of one slice, for one point per slice (4 entries), slices with an
    uneven tail (28 entries: 7 qubit points, 3 shot-mode points at dim 3)
    and one slice for the whole grid."""

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "scan", "policy": "lueders", "probe": PROBE,
             "target": {**TARGET, "theta_grid": SLICED_GRID}},
            {"mode": "scan", "policy": "mixed", "probe": PROBE,
             "target": {**TARGET, "theta_grid": SLICED_GRID}},
            {"mode": "scan", "policy": "eigenstate", "probe": PROBE,
             "target": {**TARGET, "theta_grid": SLICED_GRID}},
            {"mode": "search-optimal", "phi_grid": SLICED_GRID},
            {"mode": "scan", "shots": 1000, "seed": 11, "probe": PROBE,
             "target": {**TARGET, "theta_grid": SLICED_GRID}},
            {"mode": "highdim", "dim": 3, "gamma": 0.7, "c2_grid": SLICED_C2},
            {"mode": "highdim", "dim": 3, "gamma": 0.7, "shots": 500, "seed": 5,
             "c2_grid": SLICED_C2},
        ],
        ids=["lueders", "mixed", "eigenstate", "search", "shots", "highdim", "highdim_shots"],
    )
    def test_bytes_equal_across_slice_sizes(self, tmp_path, monkeypatch, entries):
        texts = []
        for batch in (4, 28, 2**20):
            monkeypatch.setattr(cli, "_BATCH_ENTRIES", batch)
            texts.append(run_scan(tmp_path, **entries).read_bytes())
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].count(b"\n") == 1 + SLICED_GRID["points"]

    @pytest.mark.parametrize("batch", [4, 28, 2**20])
    def test_failure_names_its_grid_point(self, tmp_path, monkeypatch, capsys, batch):
        """A check that fails in a later slice names the point's index in
        the grid, not in its slice: here a target axis made non-finite at
        grid point 9."""
        bad = angles(SLICED_GRID)[9]
        axis = cli.plane_axis
        monkeypatch.setattr(cli, "plane_axis", lambda t: np.where(
            np.asarray(t)[..., None] == bad, np.nan, axis(t)))
        monkeypatch.setattr(cli, "_BATCH_ENTRIES", batch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": 1, "mode": "scan",
                                      "target": {**TARGET, "theta_grid": SLICED_GRID}}),
                          encoding="utf-8")
        assert main(["--config", str(config), "--out", str(tmp_path / "out.csv")]) == 3
        assert "measurement at index 9 has a non-finite parameter" in capsys.readouterr().err


def highdim_peak(dim, points, shots=None):
    config = {"schema": 1, "mode": "highdim", "dim": dim, "gamma": 0.5, "seed": 1,
              "c2_grid": {"stop": 1.0, "points": points}}
    if shots:
        config["shots"] = shots
    tracemalloc.start()
    try:
        cli._highdim_rows(config, cli._parse(config))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHighdimMemory:
    """Exact highdim scans hold (points, dim) kets, and shot scans batches of
    at most ``_BATCH_ENTRIES`` matrix entries, never (points, dim, dim)."""

    def test_exact_mode_holds_kets_only(self):
        dim, points = 256, 64
        assert highdim_peak(dim, points) < points * dim * dim * 16 / 8

    def test_shot_mode_peak_does_not_grow_with_points(self):
        dim = 32
        assert cli._BATCH_ENTRIES // dim**2 == 4
        assert highdim_peak(dim, 32, shots=10) < 1.5 * highdim_peak(dim, 4, shots=10)


def stack_with(bad, good, n=7, at=4):
    """``n`` copies of ``good`` with ``bad`` at index ``at``."""
    out = np.array([good] * n, dtype=complex)
    out[at] = bad
    return out


RHO = np.diag([0.75, 0.25]).astype(complex)
EFFECT = np.diag([0.6, 0.2]).astype(complex)


class TestBadPointInBatch:
    """The batched check raises the class the scalar constructor raises,
    naming the first bad index."""

    @pytest.mark.parametrize(
        "check, scalar, good, bad, error",
        [
            (check_states, DensityMatrix, RHO, np.diag([1.2, -0.2]), NotPsdError),
            (check_states, DensityMatrix, RHO, np.diag([0.6, 0.6]), InvalidStateError),
            (check_states, DensityMatrix, RHO, [[0.5, 0.3], [0.1, 0.5]], NotHermitianError),
            (check_states, DensityMatrix, RHO, np.diag([np.nan, 0.5]), NotFiniteError),
            (check_effects, Effect, EFFECT, np.diag([1.3, 0.2]), InvalidMeasurementError),
            (check_effects, Effect, EFFECT, np.diag([0.5, -0.1]), NotPsdError),
            (check_effects, Effect, EFFECT, np.diag([np.inf, 0.2]), NotFiniteError),
            (psd_sqrt, psd_sqrt, EFFECT, np.diag([0.5, -0.1]), NotPsdError),
        ],
    )
    def test_matrix_checks(self, check, scalar, good, bad, error):
        with pytest.raises(error):
            scalar(np.asarray(bad, dtype=complex))
        with pytest.raises(error, match="index 4"):
            check(stack_with(bad, good))
        check(stack_with(good, good))

    def test_povm_completeness(self):
        good = np.stack([EFFECT, np.eye(2) - EFFECT])
        bad = np.stack([EFFECT, np.eye(2) - 0.5 * EFFECT])
        with pytest.raises(InvalidMeasurementError):
            Povm(list(bad))
        with pytest.raises(InvalidMeasurementError, match="index 4"):
            check_povms(stack_with(bad, good))
        assert check_povms(stack_with(good, good)).shape == (7, 2, 2, 2)

    def test_qubit_parameters(self):
        bias = np.full(7, 0.1)
        bloch = np.tile([0.5, 0.0, 0.0], (7, 1))
        bloch[4] = [0.95, 0.0, 0.0]
        with pytest.raises(InvalidMeasurementError):
            QubitMeasurement(0.1, np.array([0.95, 0.0, 0.0]))
        with pytest.raises(InvalidMeasurementError, match="index 4"):
            check_qubit(bias, bloch)
        bias[2] = np.nan
        with pytest.raises(NotFiniteError):
            QubitMeasurement(np.nan, np.array([0.5, 0.0, 0.0]))
        with pytest.raises(NotFiniteError, match="index 2"):
            check_qubit(bias, bloch)

    def test_zero_axis(self):
        bloch = np.tile([0.5, 0.0, 0.0], (7, 1))
        bloch[4] = 0.0
        with pytest.raises(ZeroBlochError):
            QubitMeasurement(0.0, np.zeros(3)).axis
        with pytest.raises(ZeroBlochError, match="index 4"):
            unit_axes(bloch)

    def test_projectors(self):
        proj = np.stack([np.diag([1.0, 0.0])] * 7).astype(complex)
        proj[4] = np.diag([1.0, 1.0])
        with pytest.raises(InvalidMeasurementError):
            RandomizedDichotomic(2, 1.0, Effect(np.eye(2)))
        with pytest.raises(InvalidMeasurementError, match="index 4"):
            check_projectors(proj)

    def test_non_square_stack(self):
        with pytest.raises(DimensionMismatchError):
            check_states(np.zeros((3, 2, 3)))


class TestScalarIsTheUnbatchedCase:
    def test_optimal_bloch_rows_match_single_calls(self):
        rng = np.random.default_rng(8)
        probe = unit_axes(rng.normal(size=3))
        targets = unit_axes(rng.normal(size=(6, 3)))
        targets[2] = probe
        targets[4] = -probe
        batch = optimal_bloch(probe, targets)
        for row, target in zip(batch, targets):
            np.testing.assert_array_equal(row, optimal_bloch(probe, target))
        assert abs(batch[2] @ probe) <= 1e-12 and abs(np.linalg.norm(batch[2]) - 1) <= 1e-12

    def test_psd_sqrt_rows_match_single_calls(self):
        stack = np.stack([np.diag([0.3, 0.7]), np.eye(2) / 2, np.diag([1.0, 0.0])])
        batch = psd_sqrt(stack)
        for row, m in zip(batch, stack):
            np.testing.assert_array_equal(row, psd_sqrt(m))


class TestEachSliceCheckedOnce:
    """A scan slice proves its operators valid once.  Qubit targets are
    checked through their parameters (``check_qubit``), which implies the
    spectrum and completeness ``check_povms`` tests, qubit states through
    their Bloch lengths (``qubit_states``), and the optimal states of a
    highdim slice are rank-one projectors of unit kets."""

    @pytest.mark.parametrize("points", [1024, 2048, 3072])
    def test_exact_scan_runs_one_eigvalsh_per_slice(self, monkeypatch, points):
        # two for the probe's effects; the states are checked by Bloch length
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        config = {"schema": 1, "mode": "scan", "probe": PROBE,
                  "target": {**TARGET, "theta_grid": {"points": points}}}
        cli._scan_rows(config, cli._parse(config))
        assert len(calls) == 2

    @staticmethod
    def boundary_cases():
        """(bias, bloch) pairs with |bias| + |bloch| at and just beyond 1, in
        random directions and splits, with |bias| near 1, zero Bloch
        vectors, and NaN and infinite entries."""
        rng = np.random.default_rng(21)
        for total in (1.0 - 1e-9, 1.0, 1.0 + ATOL / 2, 1.0 + ATOL, 1.0 + 2 * ATOL):
            for share in (0.0, *rng.uniform(size=12), 0.5, 1.0 - 1e-12, 1.0 - 1e-15, 1.0):
                for sign in (1.0, -1.0):
                    direction = rng.normal(size=3)
                    direction /= np.linalg.norm(direction)
                    yield sign * share * total, (1.0 - share) * total * direction
        for bad in (np.nan, np.inf, -np.inf):
            yield bad, np.array([0.5, 0.0, 0.0])
            yield 0.1, np.array([0.5, bad, 0.0])

    def test_parameter_check_implies_the_povm_check(self):
        accepted, refused = [], 0
        for bias, bloch in self.boundary_cases():
            try:
                check_qubit(bias, bloch)
            except CdTradeoffError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    qubit_povms(bias, bloch)
                refused += 1
                continue
            check_povms(qubit_povms(bias, bloch))
            accepted.append((bias, bloch))
        # three of the five totals are inside, 1 + 2 ATOL is outside
        assert len(accepted) >= 3 * 34 and refused >= 34 + 6
        bias, bloch = map(np.array, zip(*accepted))
        check_povms(qubit_povms(bias, bloch))

    def test_optimal_highdim_states_are_states(self):
        rng = np.random.default_rng(22)
        for dim in rng.integers(2, 65, size=12):
            c2 = np.concatenate([[0.0, 1.0, 1e-15, 1.0 - 1e-15], rng.uniform(size=4)])
            basis = random_unitary(rng, dim)
            kets_b = np.sqrt(c2)[:, None] * basis[:, 0] + np.sqrt(1.0 - c2)[:, None] * basis[:, 1]
            proj_a = projectors(basis[:, 0])
            check_states(projectors(optimal_kets(proj_a, projectors(kets_b))))
