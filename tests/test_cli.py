import json

import numpy as np
import pytest

from cdtradeoff.cli import CSV_HEADER, main, read_scan_csv


def write_config(path, **entries):
    config = {"schema": 1}
    config.update(entries)
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def scan_config(tmp_path, name="scan.json", **overrides):
    entries = {
        "mode": "scan",
        "seed": 7,
        "shots": "exact",
        "probe": {"bias": 0.0, "gamma": 1.0, "theta": 0.0},
        "target": {
            "bias": 0.0,
            "gamma": 1.0,
            "theta_grid": {"start": 0.0, "stop": 2 * np.pi, "points": 9},
        },
        "state": "optimal",
    }
    entries.update(overrides)
    return write_config(tmp_path / name, **entries)


class TestScanMode:
    def test_sharp_pair_unit_circle(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("--config", scan_config(tmp_path), "--out", out) == 0
        rows = read_rows(out)
        assert rows.shape == (9, 6)
        assert np.abs(rows[:, 5] - 1.0).max() <= 1e-9  # c2d2 column
        assert np.abs(rows[:, 3:5]).max() == 0.0  # exact mode: zero errors

    def test_weak_target_constant_radius(self, tmp_path):
        config = scan_config(
            tmp_path,
            target={
                "bias": 0.0,
                "gamma": 0.233,
                "theta_grid": {"start": 0.0, "stop": 2 * np.pi, "points": 32},
            },
        )
        out = tmp_path / "weak.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert np.abs(rows[:, 5] - 0.054289).max() <= 1e-9

    def test_sidecar_written_with_hash(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("--config", scan_config(tmp_path), "--out", out)
        sidecar = json.loads((tmp_path / "scan.meta.json").read_text())
        assert sidecar["rows"] == 9
        assert len(sidecar["config_sha256"]) == 64
        assert sidecar["config"]["mode"] == "scan"

    def test_sidecar_never_clobbers_config(self, tmp_path):
        # config scan.json + output scan.csv must leave the config intact
        config = scan_config(tmp_path)  # written to scan.json
        before = (tmp_path / "scan.json").read_bytes()
        out = tmp_path / "scan.csv"
        assert run_cli("--config", config, "--out", out) == 0
        assert (tmp_path / "scan.json").read_bytes() == before
        assert run_cli("--config", config, "--out", out) == 0  # rerun works

    def test_shot_mode_deterministic_bytes(self, tmp_path):
        config = scan_config(tmp_path, shots=10_000)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("--config", config, "--out", out1) == 0
        assert run_cli("--config", config, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (
            tmp_path / "b.meta.json"
        ).read_bytes()

    def test_exact_flag_overrides_shots(self, tmp_path):
        config = scan_config(tmp_path, shots=500)
        out = tmp_path / "exact.csv"
        assert run_cli("--config", config, "--out", out, "--exact") == 0
        rows = read_rows(out)
        assert np.abs(rows[:, 3:5]).max() == 0.0

    def test_explicit_state_and_single_theta(self, tmp_path):
        config = scan_config(
            tmp_path,
            target={"bias": 0.0, "gamma": 1.0, "theta": np.pi / 2},
            state={"bloch": [0.0, 0.0, 1.0]},
        )
        out = tmp_path / "one.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert rows.shape == (1, 6)
        assert rows[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-9)


class TestSearchOptimalMode:
    def test_default_search_figure(self, tmp_path):
        config = write_config(
            tmp_path / "search.json",
            mode="search-optimal",
            probe={"bias": 0.0, "gamma": 1.0, "theta": np.pi / 4},
            target={"bias": 0.0, "gamma": 1.0, "theta": 0.0},
            phi_grid={"start": 0.0, "stop": 2 * np.pi, "points": 64},
        )
        out = tmp_path / "search.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert rows.shape == (64, 6)
        assert np.abs(rows[:, 1] - np.sqrt(0.5)).max() <= 1e-9  # constant C
        top = np.flatnonzero(rows[:, 2] >= rows[:, 2].max() - 1e-9)
        assert list(top) == [24, 56]  # phi = 3pi/4 and 7pi/4

    def test_bare_config_defaults_reproduce_search_setting(self, tmp_path):
        config = write_config(tmp_path / "bare.json", mode="search-optimal")
        out = tmp_path / "bare.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert rows.shape == (64, 6)
        assert np.abs(rows[:, 1] - np.sqrt(0.5)).max() <= 1e-9
        top = np.flatnonzero(rows[:, 2] >= rows[:, 2].max() - 1e-9)
        assert list(top) == [24, 56]

    def test_compatible_pair_no_disturbance(self, tmp_path):
        config = write_config(
            tmp_path / "flat.json",
            mode="search-optimal",
            probe={"bias": 0.0, "gamma": 1.0, "theta": 0.0},
            target={"bias": 0.0, "gamma": 1.0, "theta": 0.0},
            phi_grid={"start": 0.0, "stop": 2 * np.pi, "points": 16},
        )
        out = tmp_path / "flat.csv"
        assert run_cli("--config", config, "--out", out) == 0
        assert np.abs(read_rows(out)[:, 2]).max() <= 1e-9

    def test_argmax_matches_optimal_state_direction(self, tmp_path):
        from cdtradeoff.qubit_model import optimal_bloch, plane_axis

        rng = np.random.default_rng(55)
        points = 64
        for _ in range(5):
            theta_a = rng.uniform(0.0, np.pi)
            theta_b = theta_a + rng.uniform(0.3, np.pi - 0.3)
            config = write_config(
                tmp_path / "rand.json",
                mode="search-optimal",
                probe={"bias": 0.0, "gamma": 1.0, "theta": theta_a},
                target={"bias": 0.0, "gamma": 1.0, "theta": theta_b},
                phi_grid={"start": 0.0, "stop": 2 * np.pi, "points": points},
            )
            out = tmp_path / "rand.csv"
            assert run_cli("--config", config, "--out", out) == 0
            rows = read_rows(out)
            phi_hat = rows[np.argmax(rows[:, 2]), 0]
            r_opt = optimal_bloch(plane_axis(theta_a), plane_axis(theta_b))
            phi_star = np.arctan2(r_opt[0], r_opt[2]) % (2 * np.pi)
            # both +/- the optimal direction maximize the disturbance
            gaps = [
                abs((phi_hat - target + np.pi) % (2 * np.pi) - np.pi)
                for target in (phi_star, phi_star + np.pi)
            ]
            assert min(gaps) <= 2 * np.pi / points + 1e-12


class TestCalibrateMode:
    def make_scan(self, tmp_path, gamma=0.731, points=32):
        config = scan_config(
            tmp_path,
            name="gen.json",
            target={
                "bias": 0.0,
                "gamma": gamma,
                "theta_grid": {"start": 0.0, "stop": 2 * np.pi, "points": points},
            },
        )
        out = tmp_path / "gen.csv"
        assert run_cli("--config", config, "--out", out) == 0
        return out

    def test_circle_fit_report(self, tmp_path):
        scan_path = self.make_scan(tmp_path)
        config = write_config(
            tmp_path / "cal.json",
            mode="calibrate",
            scan_file=str(scan_path),
            fit="circle",
        )
        out = tmp_path / "report.json"
        assert run_cli("--config", config, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["result"]["target_strength"] == pytest.approx(0.731, abs=1e-9)

    def test_circle_fit_unit_radius(self, tmp_path):
        scan_path = self.make_scan(tmp_path, gamma=1.0, points=16)
        config = write_config(
            tmp_path / "cal_unit.json",
            mode="calibrate",
            scan_file=str(scan_path),
            fit="circle",
        )
        out = tmp_path / "unit.json"
        assert run_cli("--config", config, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["result"]["target_strength"] == pytest.approx(1.0, abs=1e-9)

    def test_ellipse_known_theta_report(self, tmp_path):
        probe = {"bias": 0.5, "gamma": 0.5, "theta": 0.0}
        config = scan_config(
            tmp_path,
            name="gen2.json",
            probe=probe,
            target={
                "bias": 0.0,
                "gamma": 1.0,
                "theta_grid": {"start": 0.0, "stop": 2 * np.pi, "points": 12},
            },
        )
        scan_out = tmp_path / "gen2.csv"
        assert run_cli("--config", config, "--out", scan_out) == 0
        cal = write_config(
            tmp_path / "cal2.json",
            mode="calibrate",
            scan_file=str(scan_out),
            fit="ellipse-known-theta",
            target_strength=1.0,
        )
        out = tmp_path / "report2.json"
        assert run_cli("--config", cal, "--out", out) == 0
        result = json.loads(out.read_text())["result"]
        assert result["identifiability"] == "full"
        assert result["squeeze"] == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-6)
        assert result["shear"] == pytest.approx(np.sqrt(2) / 2, abs=1e-6)

    def test_ellipse_unknown_theta_report(self, tmp_path):
        probe = {"bias": 0.5, "gamma": 0.5, "theta": 0.0}
        config = scan_config(
            tmp_path,
            name="gen3.json",
            probe=probe,
            target={
                "bias": 0.0,
                "gamma": 1.0,
                "theta_grid": {"start": 0.05, "stop": 2 * np.pi, "points": 12},
            },
        )
        scan_out = tmp_path / "gen3.csv"
        assert run_cli("--config", config, "--out", scan_out) == 0
        cal = write_config(
            tmp_path / "cal3.json",
            mode="calibrate",
            scan_file=str(scan_out),
            fit="ellipse-unknown-theta",
        )
        out = tmp_path / "report3.json"
        assert run_cli("--config", cal, "--out", out) == 0
        result = json.loads(out.read_text())["result"]
        assert result["shear_ratio"] == pytest.approx(1 + np.sqrt(2), abs=1e-5)
        assert result["squeeze_strength"] == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-5)

    def test_fit_failure_exit_code(self, tmp_path):
        scan_path = tmp_path / "tiny.csv"
        scan_path.write_text(CSV_HEADER + "\n1,0.5,0.5,0,0,0.5\n")
        config = write_config(
            tmp_path / "cal4.json",
            mode="calibrate",
            scan_file=str(scan_path),
            fit="circle",
        )
        assert run_cli("--config", config, "--out", tmp_path / "r.json") == 4

    @pytest.mark.parametrize("fit", ["circle", "ellipse-known-theta", "ellipse-unknown-theta"])
    @pytest.mark.parametrize("column,literal", [(0, "nan"), (1, "nan"), (1, "inf"), (2, "-inf")],
                             ids=["theta_nan", "c_nan", "c_inf", "d_minus_inf"])
    def test_non_finite_scan_file_is_config_error(self, tmp_path, fit, column, literal):
        scan_path = self.make_scan(tmp_path, gamma=0.5, points=16)
        lines = scan_path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = literal
        lines[3] = ",".join(fields)
        scan_path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path / "cal.json", mode="calibrate",
                              scan_file=str(scan_path), fit=fit, bootstrap=10)
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("strength", [None, 1.0], ids=["combos_only", "full"])
    def test_zero_squeeze_strength_reports_null_shear_ratio(self, tmp_path, strength):
        thetas = np.linspace(0.1, 2 * np.pi, 16, endpoint=False)
        scan_path = tmp_path / "flat.csv"
        scan_path.write_text(CSV_HEADER + "\n" + "".join(
            f"{t:.17g},{np.cos(t):.17g},0,0,0,{np.cos(t) ** 2:.17g}\n" for t in thetas))
        entries = {"target_strength": strength} if strength else {}
        config = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=str(scan_path),
                              fit="ellipse-known-theta", **entries)
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 0

        def reject(name):
            raise AssertionError(f"report holds {name}")

        result = json.loads(out.read_text(), parse_constant=reject)["result"]
        assert result["shear_ratio"] is None
        assert result["squeeze_strength"] == 0.0
        assert result["identifiability"] == ("full" if strength else "combos_only")

    def test_scan_roundtrip_reader(self, tmp_path):
        scan_path = self.make_scan(tmp_path, gamma=0.5, points=8)
        scan = read_scan_csv(str(scan_path))
        assert len(scan) == 8
        assert scan.theta[0] == pytest.approx(0.0)


class TestDetectorMode:
    def test_exact_simulate_invert(self, tmp_path):
        config = write_config(
            tmp_path / "det.json",
            mode="detector",
            detector={"eta": 0.9, "nu": 0.05},
        )
        out = tmp_path / "det_report.json"
        assert run_cli("--config", config, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["estimate"]["eta"] == pytest.approx(0.9, abs=1e-10)
        assert report["estimate"]["nu"] == pytest.approx(0.05, abs=1e-10)
        assert report["readings"]["d1"] == pytest.approx(
            np.exp(-0.05) * 0.9, abs=1e-12
        )

    def test_ideal_detector_readings(self, tmp_path):
        config = write_config(
            tmp_path / "ideal.json", mode="detector", detector={"eta": 1.0, "nu": 0.0}
        )
        out = tmp_path / "ideal_report.json"
        assert run_cli("--config", config, "--out", out) == 0
        readings = json.loads(out.read_text())["readings"]
        assert readings["d1"] == pytest.approx(1.0, abs=1e-12)
        assert readings["c2"] == pytest.approx(0.0, abs=1e-12)

    def test_shot_mode_within_three_sigma(self, tmp_path):
        config = write_config(
            tmp_path / "dshot.json",
            mode="detector",
            seed=5,
            shots=1_000_000,
            detector={"eta": 0.8, "nu": 0.1},
        )
        out = tmp_path / "dshot_report.json"
        assert run_cli("--config", config, "--out", out) == 0
        report = json.loads(out.read_text())
        estimate = report["estimate"]
        assert estimate["eta_err"] > 0
        assert abs(estimate["eta"] - 0.8) <= 3 * estimate["eta_err"]
        assert abs(estimate["nu"] - 0.1) <= 3 * estimate["nu_err"]

    def test_inversion_path(self, tmp_path):
        config = write_config(
            tmp_path / "inv.json",
            mode="detector",
            detector={"d1": 0.5, "c2": -0.1, "d1_err": 0.01, "c2_err": 0.01},
        )
        out = tmp_path / "inv_report.json"
        assert run_cli("--config", config, "--out", out) == 0
        estimate = json.loads(out.read_text())["estimate"]
        assert estimate["eta"] == pytest.approx(1 / 1.4, abs=1e-9)
        assert estimate["eta_err"] > 0

    def test_out_of_domain_is_fit_failure(self, tmp_path):
        config = write_config(
            tmp_path / "bad.json", mode="detector", detector={"d1": 0.5, "c2": 0.9}
        )
        assert run_cli("--config", config, "--out", tmp_path / "x.json") == 4


class TestHighdimMode:
    def test_single_overlap_point(self, tmp_path):
        config = write_config(
            tmp_path / "hd.json", mode="highdim", dim=4, gamma=0.6, c2=0.8
        )
        out = tmp_path / "hd.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert rows[0, 1] == pytest.approx(0.36, abs=1e-9)
        assert rows[0, 2] == pytest.approx(0.48, abs=1e-9)

    def test_grid_lies_on_circle(self, tmp_path):
        config = write_config(
            tmp_path / "hdg.json",
            mode="highdim",
            dim=3,
            gamma=0.75,
            c2_grid={"start": 0.05, "stop": 0.95, "points": 10},
        )
        out = tmp_path / "hdg.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert np.abs(rows[:, 5] - 0.75**2).max() <= 1e-9

    def test_shot_mode(self, tmp_path):
        config = write_config(
            tmp_path / "hds.json",
            mode="highdim",
            dim=3,
            gamma=0.6,
            c2=0.5,
            shots=100_000,
            seed=2,
        )
        out = tmp_path / "hds.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert abs(rows[0, 2] - 0.6) <= 5 * rows[0, 4]


class TestErrorsAndOverrides:
    def test_missing_config(self, tmp_path):
        assert run_cli("--config", tmp_path / "none.json", "--out", tmp_path / "o") == 2

    def test_unwritable_output_is_config_error(self, tmp_path):
        config = scan_config(tmp_path)
        missing_dir = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert run_cli("--config", config, "--out", missing_dir) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("--config", path, "--out", tmp_path / "o") == 2

    def test_unknown_key_rejected(self, tmp_path):
        config = write_config(
            tmp_path / "weird.json", mode="scan", theta_degrees=90
        )
        assert run_cli("--config", config, "--out", tmp_path / "o") == 2

    def test_infeasible_measurement_is_physics_error(self, tmp_path):
        config = scan_config(
            tmp_path,
            target={
                "bias": 0.6,
                "gamma": 0.8,
                "theta_grid": {"start": 0.0, "stop": 1.0, "points": 4},
            },
        )
        assert run_cli("--config", config, "--out", tmp_path / "o.csv") == 3

    def test_seed_override_changes_output(self, tmp_path):
        config = scan_config(tmp_path, shots=2000)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run_cli("--config", config, "--out", out1) == 0
        assert run_cli("--config", config, "--out", out2, "--seed", 99) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_mode_override(self, tmp_path):
        config = write_config(
            tmp_path / "m.json",
            mode="scan",
            probe={"bias": 0.0, "gamma": 1.0, "theta": np.pi / 4},
            target={"bias": 0.0, "gamma": 1.0, "theta": 0.0},
            phi_grid={"start": 0.0, "stop": 2 * np.pi, "points": 8},
        )
        out = tmp_path / "m.csv"
        assert run_cli("--config", config, "--out", out, "--mode", "search-optimal") == 0
        assert read_rows(out).shape == (8, 6)


class TestBoolIsNotAnInteger:
    """JSON ``true`` loads as ``bool``, a subclass of ``int``; every field
    that needs an integer rejects it as a config error."""

    @pytest.mark.parametrize(
        "entries",
        [
            {"shots": True},
            {"shots": 100, "seed": True},
            {"target": {"gamma": 1.0, "theta_grid": {"points": True}}},
        ],
        ids=["shots", "seed", "theta_grid.points"],
    )
    def test_scan(self, tmp_path, entries):
        config = scan_config(tmp_path, **entries)
        assert run_cli("--config", config, "--out", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "search-optimal", "phi_grid": {"points": True}},
            {"mode": "highdim", "dim": True},
            {"mode": "highdim", "dim": 3, "c2_grid": {"points": True}},
        ],
        ids=["phi_grid.points", "dim", "c2_grid.points"],
    )
    def test_other_modes(self, tmp_path, entries):
        config = write_config(tmp_path / "b.json", **entries)
        assert run_cli("--config", config, "--out", tmp_path / "o.csv") == 2

    def test_bootstrap(self, tmp_path):
        scan_path = tmp_path / "gen.csv"
        assert run_cli("--config", scan_config(tmp_path), "--out", scan_path) == 0
        config = write_config(
            tmp_path / "cal.json",
            mode="calibrate",
            scan_file=str(scan_path),
            fit="circle",
            bootstrap=True,
        )
        assert run_cli("--config", config, "--out", tmp_path / "r.json") == 2


class TestMeasureAndPrepareLeavesTheDisc:
    def test_eigenstate_config_writes_rows_outside_the_disc(self, tmp_path):
        config = write_config(
            tmp_path / "eig.json",
            mode="scan",
            policy="eigenstate",
            probe={"gamma": 0.3, "bias": 0.6},
            state={"bloch": [0, 0, 1]},
            target={"gamma": 1, "theta_grid": {"points": 16}},
        )
        out = tmp_path / "eig.csv"
        assert run_cli("--config", config, "--out", out) == 0
        rows = read_rows(out)
        assert rows.shape == (16, 6)
        assert rows[0, 1:3].tolist() == [1.0, 0.6]
        assert rows[0, 5] == pytest.approx(1.36, abs=1e-9)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [2**64, 2**128, -1])
    def test_out_of_range_seed_is_config_error(self, tmp_path, seed):
        config = scan_config(tmp_path, shots=100, seed=seed)
        assert run_cli("--config", config, "--out", tmp_path / "o.csv") == 2

    def test_largest_seed_runs(self, tmp_path):
        config = scan_config(tmp_path, shots=100, seed=2**64 - 1)
        assert run_cli("--config", config, "--out", tmp_path / "o.csv") == 0


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_bias_and_theta(self, tmp_path, literal):
        for target in (
            '{"bias": %s, "gamma": 0.5, "theta_grid": {"points": 4}}' % literal,
            '{"gamma": 1.0, "theta": %s}' % literal,
        ):
            path = tmp_path / "nf.json"
            path.write_text(
                '{"schema": 1, "mode": "scan", "probe": {"gamma": 1.0}, '
                '"target": %s}' % target,
                encoding="utf-8",
            )
            out = tmp_path / "nf.csv"
            assert run_cli("--config", path, "--out", out) == 2
            assert not out.exists()


class TestOutputNeverReplacesConfig:
    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "detector", "detector": {"d1": 0.6, "c2": 0.3}},
            {"mode": "calibrate", "scan_file": "missing.csv", "fit": "circle"},
        ],
        ids=["detector", "calibrate"],
    )
    def test_report_modes(self, tmp_path, entries):
        config = write_config(tmp_path / "c.json", **entries)
        before = (tmp_path / "c.json").read_bytes()
        alias = tmp_path / "sub" / ".." / "c.json"
        (tmp_path / "sub").mkdir()
        for out in (config, alias):
            assert run_cli("--config", config, "--out", out) == 2
            assert (tmp_path / "c.json").read_bytes() == before

    def test_scan_sidecar(self, tmp_path):
        config = scan_config(tmp_path, name="s.meta.json")
        before = (tmp_path / "s.meta.json").read_bytes()
        assert run_cli("--config", config, "--out", tmp_path / "s.csv") == 2
        assert (tmp_path / "s.meta.json").read_bytes() == before
        assert not (tmp_path / "s.csv").exists()


SHARP = {"gamma": 1.0, "theta_grid": {"points": 4}}


class TestConfigNumbers:
    """Every config number must be a JSON number that fits a double; any
    other value is a config error (exit 2), never a traceback."""

    @pytest.mark.parametrize(
        "entries",
        [
            {"probe": {"bias": "x"}},
            {"probe": {"bias": None}},
            {"probe": {"bias": 10**400}},
            {"probe": {"gamma": True}},
            {"probe": {"theta": "0.5"}},
            {"probe": {"bloch": [1, "a", 0]}},
            {"probe": {"bloch": [1, 0]}},
            {"target": "abc"},
            {"target": {"gamma": 1.0, "theta": "abc"}},
            {"target": {"gamma": 1.0, "theta_grid": {"start": "0", "points": 4}}},
            {"target": {"gamma": 1.0, "theta_grid": {"stop": None, "points": 4}}},
            {"target": SHARP, "state": {"bloch": [0, 0, "q"]}},
            {"mode": "search-optimal", "target": {"bias": False}},
            {"mode": "highdim", "dim": 3, "gamma": "x"},
            {"mode": "highdim", "dim": 3, "c2": [0.5]},
            {"mode": "detector", "detector": {"eta": "x", "nu": 0.0}},
            {"mode": "detector", "detector": {"eta": 0.9, "nu": 10**400}},
            {"mode": "detector", "detector": {"d1": 0.5, "c2": "0.1"}},
            {"mode": "detector", "detector": {"d1": 0.5, "c2": 0.1, "d1_err": True}},
        ],
        ids=[
            "bias_string", "bias_null", "bias_400_digits", "gamma_true", "theta_string",
            "bloch_string", "bloch_short", "target_string", "target_theta_string",
            "grid_start_string", "grid_stop_null", "state_bloch_string",
            "search_bias_false", "highdim_gamma", "highdim_c2_list", "detector_eta",
            "detector_nu_400_digits", "detector_c2_string", "detector_d1_err_true",
        ],
    )
    def test_non_numbers_are_config_errors(self, tmp_path, entries):
        config = scan_config(tmp_path, **entries)
        out = tmp_path / "o.csv"
        assert run_cli("--config", config, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("scan_file", [["a"], 5, None], ids=["list", "integer", "null"])
    def test_scan_file_must_be_a_string(self, tmp_path, scan_file):
        config = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=scan_file)
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("strength", ["x", 10**400, True],
                             ids=["string", "400_digits", "true"])
    def test_target_strength(self, tmp_path, strength):
        scan_path = tmp_path / "gen.csv"
        assert run_cli("--config", scan_config(tmp_path), "--out", scan_path) == 0
        config = write_config(
            tmp_path / "cal.json",
            mode="calibrate",
            scan_file=str(scan_path),
            fit="ellipse-known-theta",
            target_strength=strength,
            bootstrap=0,
        )
        assert run_cli("--config", config, "--out", tmp_path / "r.json") == 2
