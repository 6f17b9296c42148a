import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdtradeoff import cli, shot_sampler
from cdtradeoff.cd_measures import CdValue
from cdtradeoff.cli import CSV_HEADER, main, read_scan_csv
from cdtradeoff.detector_model import DetectorNoise, scenario_cd, scenario_distributions
from cdtradeoff.shot_sampler import estimate_cd, sample_distributions


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

    def test_run_records_its_config_file(self, tmp_path):
        # a sidecar and a report record the config file's object as written,
        # defaults not filled in, and the SHA-256 of its sorted compact dump
        scan = tmp_path / "scan.csv"
        config = scan_config(tmp_path, shots=100)
        assert run_cli("--config", config, "--out", scan) == 0
        calibrate = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=str(scan),
                                 bootstrap=5)
        assert run_cli("--config", calibrate, "--out", tmp_path / "report.json") == 0
        for path, record in ((config, "scan.meta.json"), (calibrate, "report.json")):
            written = json.loads(Path(path).read_text(encoding="utf-8"))
            recorded = json.loads((tmp_path / record).read_text(encoding="utf-8"))
            assert recorded["config"] == written
            dump = json.dumps(written, sort_keys=True, separators=(",", ":")).encode()
            assert recorded["config_sha256"] == hashlib.sha256(dump).hexdigest()

    def test_sidecar_never_clobbers_config(self, tmp_path):
        # config scan.json + output scan.csv must leave the config intact
        config = scan_config(tmp_path)  # written to scan.json
        before = (tmp_path / "scan.json").read_bytes()
        out = tmp_path / "scan.csv"
        assert run_cli("--config", config, "--out", out) == 0
        assert (tmp_path / "scan.json").read_bytes() == before
        assert run_cli("--config", config, "--out", out) == 0  # rerun works

    @pytest.mark.parametrize("link", [None, "symlink_to", "hardlink_to"])
    def test_calibration_never_clobbers_its_scan(self, tmp_path, monkeypatch, link):
        # a report that names the scan file exits 2 before reading it
        scan = tmp_path / "scan.csv"
        assert run_cli("--config", scan_config(tmp_path), "--out", scan) == 0
        out = tmp_path / "report.json" if link else scan
        if link:
            getattr(out, link)(scan)
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        config = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=str(scan),
                              fit="circle")
        monkeypatch.setattr(cli, "read_scan_csv", lambda path: pytest.fail("scan file read"))
        assert run_cli("--config", config, "--out", out) == 2
        files[tmp_path / "cal.json"] = (tmp_path / "cal.json").read_bytes()
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_shot_mode_deterministic_bytes(self, tmp_path):
        config = scan_config(tmp_path, shots=10_000)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("--config", config, "--out", out1) == 0
        assert run_cli("--config", config, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (
            tmp_path / "b.meta.json"
        ).read_bytes()

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

    def scaled_scan(self, tmp_path, scale, errors):
        """A 16-point ellipse scan with C and D, and errors of 1% when
        ``errors``, multiplied by ``scale``."""
        thetas = np.linspace(0.1, 2 * np.pi, 16, endpoint=False)
        c = (0.1 + 0.5 * np.cos(thetas) + 0.2 * np.abs(np.sin(thetas))) * scale
        d = 0.4 * np.abs(np.sin(thetas)) * scale
        err = 0.01 * scale if errors else 0.0
        path = tmp_path / "scaled.csv"
        path.write_text(CSV_HEADER + "\n" + "".join(
            f"{t!r},{x!r},{y!r},{err!r},{err!r},0\n" for t, x, y in zip(thetas.tolist(), c.tolist(), d.tolist())))
        return path

    @pytest.mark.parametrize("errors", [False, True], ids=["no_errors", "errors"])
    @pytest.mark.parametrize("fit", ["circle", "ellipse-known-theta", "ellipse-unknown-theta"])
    def test_huge_scan_values_are_out_of_domain(self, tmp_path, fit, errors):
        # finite values whose squares overflow double precision
        config = write_config(tmp_path / "cal.json", mode="calibrate", fit=fit, bootstrap=20,
                              scan_file=str(self.scaled_scan(tmp_path, 1e200, errors)))
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 4
        assert not out.exists()

    def test_overflowing_scatter_exits_fit_code(self, tmp_path):
        # a 16-point circle of radius 1e80: its squares are finite, the
        # fourth powers summed in the conic's scatter overflow
        thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False).tolist()
        scan_path = tmp_path / "huge.csv"
        scan_path.write_text(CSV_HEADER + "\n" + "".join(
            f"{t!r},{1e80 * math.cos(t)!r},{abs(1e80 * math.sin(t))!r},0,0,1e160\n" for t in thetas))
        config = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=str(scan_path),
                              fit="ellipse-unknown-theta")
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 4
        assert not out.exists()

    @pytest.mark.parametrize("errors", [False, True], ids=["no_errors", "errors"])
    @pytest.mark.parametrize("fit, code", [("circle", 0), ("ellipse-known-theta", 0),
                                           ("ellipse-unknown-theta", 4)])
    def test_tiny_scan_values_give_finite_reports(self, tmp_path, fit, code, errors):
        # squares underflow to zero: the conic fit degenerates, the others
        # report finite numbers
        config = write_config(tmp_path / "cal.json", mode="calibrate", fit=fit, bootstrap=20,
                              scan_file=str(self.scaled_scan(tmp_path, 1e-200, errors)))
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == code
        assert out.exists() == (code == 0)
        if out.exists():
            result = json.loads(out.read_text(), parse_constant=reject_constant)["result"]
            numbers = [v for v in result.values() if isinstance(v, float)]
            numbers += list(result.get("errors", {}).values())
            assert numbers and all(map(math.isfinite, numbers))

    @pytest.mark.parametrize("strength", [None, 0.9], ids=["combos_only", "full"])
    @pytest.mark.parametrize("err, code", [("1e-308", 0), ("1e-310", 0), ("1e-320", 0)])
    def test_subnormal_errors_known_theta(self, tmp_path, err, code, strength):
        # errors whose inverse overflows double precision still weight the
        # fit: they are scaled by a power of two first
        target = {"bias": 0.0, "gamma": 0.9,
                  "theta_grid": {"start": 0.1, "stop": 0.1 + 2 * np.pi, "points": 12}}
        config = scan_config(tmp_path, name="gen.json", target=target,
                             probe={"bias": 0.1, "gamma": 0.7, "theta": 0.0})
        scan_path = tmp_path / "gen.csv"
        assert run_cli("--config", config, "--out", scan_path) == 0
        header, *lines = scan_path.read_text().splitlines()
        fields = [line.split(",") for line in lines]
        scan_path.write_text("\n".join([header] + [",".join(f[:3] + [err, err] + f[5:])
                                                   for f in fields]) + "\n")
        entries = {"target_strength": strength} if strength else {}
        config = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=str(scan_path),
                              fit="ellipse-known-theta", bootstrap=20, **entries)
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("fit", ["circle", "ellipse-known-theta"])
    @pytest.mark.parametrize("err", ["1e-200", "1e-310"])
    def test_tiny_errors_weight_like_larger_ones(self, tmp_path, fit, err):
        # a noisy 12-point scan, once with errors of 0.01 and once with ``err``
        numbers = []
        for scale in ("0.01", err):
            path = tmp_path / f"{scale}.csv"
            path.write_text(CSV_HEADER + "\n" + "".join(
                f"{t!r},{0.8 * math.cos(t) + 0.01 * math.sin(7 * t)!r},"
                f"{0.8 * abs(math.sin(t)) + 0.01 * math.cos(5 * t)!r},{scale},{scale},0\n"
                for t in np.linspace(0.1, 2 * np.pi, 12, endpoint=False).tolist()))
            config = write_config(tmp_path / "cal.json", mode="calibrate", fit=fit,
                                  scan_file=str(path), bootstrap=20)
            out = tmp_path / f"{scale}.json"
            assert run_cli("--config", config, "--out", out) == 0
            result = json.loads(out.read_text(), parse_constant=reject_constant)["result"]
            result.update({f"{k}_err": v for k, v in result.pop("errors", {}).items()})
            numbers.append({k: v for k, v in result.items() if isinstance(v, float)})
        assert numbers[1] == pytest.approx(numbers[0], rel=1e-9)

    @staticmethod
    def scan_text(rows, width=6, edits=None):
        """A scan file of ``rows`` rows of ``width`` fields, 0.01 apart in
        theta; ``edits`` maps a row number (from 1) to {field index: text}."""
        lines = [CSV_HEADER]
        for number in range(1, rows + 1):
            fields = [f"{0.01 * number!r}", "0.5", "0.25", "0.01", "0.02", "0.3125"]
            fields = (fields * 2)[:width]
            for index, text in (edits or {}).get(number, {}).items():
                fields[index] = text
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "text, message",
        [(None, "scan"), ("", "scan"), ("theta,c,d\n", "scan"),
         (CSV_HEADER + "\n0.1,0.5,0.5,0,0\n", "scan"),
         (CSV_HEADER + "\n0.1,0.5,x,0,0,0.5\n", "scan"),
         # rows of 7 or 12 fields everywhere: 12 fields would fill two rows
         # of 6 if the fields were not counted row by row
         (scan_text(1000, width=7), "malformed scan row: '0.01,0.5,0.25,0.01,0.02,0.3125,0.01'"),
         (scan_text(1000, width=12), "malformed scan row: '0.01,0.5,0.25,0.01,0.02,0.3125,"
                                     "0.01,0.5,0.25,0.01,0.02,0.3125'"),
         (scan_text(1000, edits={1000: {2: "x"}}),
          "non-numeric scan row: '10.0,0.5,x,0.01,0.02,0.3125'"),
         # the first of two bad rows is named
         (scan_text(1000, edits={500: {1: "inf"}, 700: {3: "-0.01"}}),
          "scan row 500 holds a non-finite number: '5.0,inf,0.25,0.01,0.02,0.3125'")],
        ids=["missing", "empty", "header", "short_row", "non_numeric", "seven_fields",
             "twelve_fields", "non_numeric_last_row", "non_finite_before_negative_error"])
    def test_bad_scan_file_is_config_error(self, tmp_path, text, message, capsys):
        scan_path = tmp_path / "scan.csv"
        if text is not None:
            scan_path.write_text(text)
        config = write_config(tmp_path / "cal.json", mode="calibrate",
                              scan_file=str(scan_path), fit="circle")
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_fields_parse_as_float_does(self, tmp_path):
        # underscores, non-ASCII digits and spaces around a field, which
        # float accepts, next to rows of plain decimals
        scan_path = tmp_path / "scan.csv"
        scan_path.write_text(self.scan_text(8, edits={3: {0: " 0.0_3", 1: "\u0660.5 ",
                                                          2: "\u00a00.25"}}), encoding="utf-8")
        scan = read_scan_csv(str(scan_path))
        assert scan.theta.tolist() == [0.01 * k for k in range(1, 9)]
        assert (scan.c == 0.5).all() and (scan.d == 0.25).all()
        assert (scan.c_err == 0.01).all() and (scan.d_err == 0.02).all()

    def test_untidy_file_reads_as_the_tidy_one(self, tmp_path):
        # CRLF endings, spaces and tabs around each line, and blank and
        # whitespace-only lines, the first before the header
        lines = self.scan_text(8).splitlines()
        untidy = "\r\n \t\r\n" + "".join(f" {line}\t\r\n" if k % 2 else f"{line}  \r\n\r\n"
                                         for k, line in enumerate(lines)) + "   "
        (tmp_path / "tidy.csv").write_text(self.scan_text(8), encoding="utf-8")
        (tmp_path / "untidy.csv").write_bytes(untidy.encode())
        tidy, scan = (read_scan_csv(str(tmp_path / name)) for name in ("tidy.csv", "untidy.csv"))
        assert len(scan) == 8
        for column in ("theta", "c", "d", "c_err", "d_err"):
            assert getattr(scan, column).tolist() == getattr(tidy, column).tolist(), column

    @pytest.mark.parametrize("column", ["c_err", "d_err", "both"])
    @pytest.mark.parametrize("fit", ["circle", "ellipse-known-theta"])
    def test_negative_errors_are_config_error(self, tmp_path, fit, column, capsys):
        # a 12-point scan whose errors are negated, in one column or both:
        # the circle fit would weight by their magnitude, the known-theta fit
        # would drop the weights
        negate = {"c_err": [3], "d_err": [4], "both": [3, 4]}[column]
        lines = [CSV_HEADER]
        for t in np.linspace(0.1, 2 * np.pi, 12, endpoint=False).tolist():
            fields = [repr(t), repr(0.8 * math.cos(t)), repr(0.8 * abs(math.sin(t))), "0.01",
                      "0.02", "0"]
            for k in negate:
                fields[k] = "-" + fields[k]
            lines.append(",".join(fields))
        scan_path = tmp_path / "negated.csv"
        scan_path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path / "cal.json", mode="calibrate", fit=fit,
                              scan_file=str(scan_path), bootstrap=20)
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 2
        assert not out.exists()
        assert "scan row 1 holds a negative c_err or d_err" in capsys.readouterr().err

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

    @pytest.mark.parametrize("shots", [None, 1000, 100_000], ids=["exact", "chunk", "block"])
    def test_readings_equal_one_call_per_reference(self, tmp_path, monkeypatch, shots):
        """Each simulated reading equals its reference's own value: the
        exact ``scenario_cd``, or one ``sample_distributions`` record on the
        stream ``seed ^ k`` (k = 0 sharp, 1 fully biased).  The seed is odd
        and above 2**32, so ``seed ^ 1`` is not ``seed + 1``; the 1e5-shot
        records are counted a block of words at a time on two workers."""
        monkeypatch.setattr(shot_sampler, "_workers", lambda points: min(2, points))
        seed, noise = 2**33 + 5, DetectorNoise(0.7, 0.05)
        entries = {"mode": "detector", "seed": seed, "detector": {"eta": 0.7, "nu": 0.05}}
        if shots is not None:
            entries["shots"] = shots
        out = tmp_path / "det_report.json"
        assert run_cli("--config", write_config(tmp_path / "det.json", **entries),
                       "--out", out) == 0
        expected = {}
        for k, ref in enumerate(("sharp", "fully_biased")):
            n = k + 1
            if shots is None:
                value = scenario_cd(noise, ref)
                expected |= {f"c{n}": value.correlation, f"d{n}": value.disturbance}
            else:
                est = estimate_cd(*sample_distributions(*scenario_distributions(noise, ref),
                                                        shots, shots, seed ^ k))
                expected |= {f"c{n}": est.c_hat, f"c{n}_err": est.c_err,
                             f"d{n}": est.d_hat, f"d{n}_err": est.d_err}
        assert json.loads(out.read_text())["readings"] == expected

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

    @pytest.mark.parametrize("key", ["d1_err", "c2_err"])
    @pytest.mark.parametrize("error, code", [(-1.0, 2), (-5e-324, 2), (0.0, 0), (0.1, 0)])
    def test_errors_must_be_non_negative(self, tmp_path, key, error, code, capsys):
        readings = {"d1": 0.6, "c2": 0.2, "d1_err": 0.1, "c2_err": 0.1, key: error}
        config = write_config(tmp_path / "inv.json", mode="detector", detector=readings)
        out = tmp_path / "x.json"
        assert run_cli("--config", config, "--out", out) == code
        assert out.exists() == (code == 0)
        if code:
            assert f"detector.{key} must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("readings", [
        {"d1": 0.01, "c2": 0.0, "d1_err": 1.7976931348623157e308},
        {"d1": 0.1, "c2": -0.9, "c2_err": 1e308},
    ], ids=["d1_err", "c2_err"])
    def test_overflowing_error_is_fit_failure(self, tmp_path, readings):
        # the propagated error overflows: exit 4, never an Infinity in a report
        config = write_config(tmp_path / "big.json", mode="detector", detector=readings)
        out = tmp_path / "x.json"
        assert run_cli("--config", config, "--out", out) == 4
        assert not out.exists()


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

    def test_unknown_policy_rejected(self, tmp_path, capsys):
        config = scan_config(tmp_path, policy="bogus")
        assert run_cli("--config", config, "--out", tmp_path / "o.csv") == 2
        assert "unknown policy 'bogus'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("shots", ["exact", 1000])
    @pytest.mark.parametrize("length, code", [(1.0 + 1e-9, 0), (1.1, 3)], ids=["within", "over"])
    def test_state_bloch_length_is_checked(self, tmp_path, shots, length, code):
        # a state just within the tolerance runs; an overlong one is a
        # physics error (exit 3) that writes nothing
        config = scan_config(tmp_path, shots=shots, state={"bloch": [length, 0, 0]})
        out = tmp_path / "o.csv"
        assert run_cli("--config", config, "--out", out) == code
        assert out.exists() == (code == 0)

    def test_tiny_probe_bloch_vector_has_an_axis(self, tmp_path):
        config = write_config(tmp_path / "tiny.json", mode="scan",
                              probe={"bloch": [1e-200, 0, 0]}, target={"theta": 0.3})
        out = tmp_path / "tiny.csv"
        assert run_cli("--config", config, "--out", out) == 0
        assert np.isfinite(read_rows(out)).all()

    def test_seed_changes_output(self, tmp_path):
        # two configs that differ only in seed
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        config = scan_config(tmp_path, name="s1.json", shots=2000)
        assert run_cli("--config", config, "--out", out1) == 0
        config = scan_config(tmp_path, name="s2.json", shots=2000, seed=99)
        assert run_cli("--config", config, "--out", out2) == 0
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("flag", [["--mode", "search-optimal"], ["--seed", "5"], ["--exact"]],
                             ids=" ".join)
    def test_mode_flag_is_refused(self, tmp_path, capsys, flag):
        # a run is its config file: a scan config that carries a
        # search-optimal key exits 2, and no flag edits the config
        config = write_config(
            tmp_path / "m.json",
            mode="scan",
            probe={"bias": 0.0, "gamma": 1.0, "theta": np.pi / 4},
            target={"bias": 0.0, "gamma": 1.0, "theta": 0.0},
            phi_grid={"start": 0.0, "stop": 2 * np.pi, "points": 8},
        )
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", config, "--out", out, *flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert run_cli("--config", config, "--out", out) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["m.json"]


# config bytes (None: a calibrate config of the scan file) and scan file
# bytes of inputs that ended in a traceback: bytes that are not UTF-8 raise
# UnicodeDecodeError, a ValueError and no OSError; json.load raises
# RecursionError on deep nesting, and ValueError on an integer literal of
# more digits than int converts (4300 by default)
MALFORMED = {
    "config_not_utf8": (b'{"schema": 1, "mode": "scan", "x": "\xff"}', None),
    "scan_file_not_utf8": (None, CSV_HEADER.encode() + b"\n0,\xff,0,0,0,0\n"),
    "deep_nesting": (b"[" * 100_000 + b"]" * 100_000, None),
    "long_integer": (b'{"schema": 1, "mode": "scan", "seed": ' + b"9" * 5000 + b"}", None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_exits_2_and_writes_nothing(tmp_path, capsys, case):
    config_bytes, scan_bytes = MALFORMED[case]
    config = tmp_path / "c.json"
    if scan_bytes is None:
        config.write_bytes(config_bytes)
    else:
        (tmp_path / "s.csv").write_bytes(scan_bytes)
        write_config(config, mode="calibrate", scan_file=str(tmp_path / "s.csv"))
    files = sorted(tmp_path.iterdir())
    assert run_cli("--config", config, "--out", tmp_path / "o.json") == 2
    assert sorted(tmp_path.iterdir()) == files
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


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
        if entries.get("mode", "scan") == "scan":
            config = scan_config(tmp_path, **entries)
        else:
            config = write_config(tmp_path / "c.json", **entries)
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


def reference_fmt(x) -> str:
    """The per-value CSV formatting of 0.1.0: 9 significant digits, no
    negative zero."""
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.9g}"


def reject_constant(name):
    raise AssertionError(f"report holds {name}")


class TestCsvWriter:
    """The writer, one ``%`` formatting a slice, prints the text of the
    per-value one and of formatting each row alone."""

    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -3.0, 7.0, 1e9,
               123456789.0, 1234567885.0, 1234567895.0, 0.1234567885, 2.5e-7,
               1.5, 1e16, -2.0**52, 4294967296.0, 0.30000000000000004]

    def written_rows(self, tmp_path, columns):
        out = tmp_path / "w.csv"
        cli._write_scan(str(out), columns[0], np.array(columns[1:5]), {"schema": 1, "mode": "scan"})
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        return lines[1:]

    def reference_rows(self, columns):
        theta, c, d, c_err, d_err = columns
        c2d2 = c * c + d * d
        return [",".join(map(reference_fmt, row))
                for row in zip(theta, c, d, c_err, d_err, c2d2)]

    def test_special_values_and_integers(self, tmp_path):
        values = np.array(self.SPECIAL)
        columns = [np.roll(values, k) for k in range(5)]
        assert self.written_rows(tmp_path, columns) == self.reference_rows(columns)

    def test_random_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 4096
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-320, 150, size=n)
                   for _ in range(5)]
        pick = rng.integers(0, len(self.SPECIAL), size=(5, n))
        for col, idx in zip(columns, pick):
            mask = rng.random(n) < 0.2
            col[mask] = np.array(self.SPECIAL)[idx[mask]]
        columns = [np.where(np.isfinite(col), col, 0.0) for col in columns]
        assert self.written_rows(tmp_path, columns) == self.reference_rows(columns)

    def test_one_format_per_slice_equals_per_row_join(self, tmp_path):
        # two full slices and a tail; -0.0, subnormals, the largest doubles
        # and integers among random values
        rng = np.random.default_rng(13)
        n = 2 * (cli._BATCH_ENTRIES // 4) + 37
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 3.0, -17.0,
                            2.0**53, 123456789.0])
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n) for _ in range(5)]
        for col in columns:
            mask = rng.random(n) < 0.3
            col[mask] = special[rng.integers(0, len(special), mask.sum())]
        # c and d stay small enough for c^2 + d^2 to be finite
        columns[1:3] = [np.where(np.abs(col) < 1e150, col, rng.normal(size=n)) for col in columns[1:3]]
        theta, c, d, c_err, d_err = columns
        expected = "".join(cli._CSV_ROW % row for row in zip(*(
            (col + 0.0).tolist() for col in (theta, c, d, c_err, d_err, c * c + d * d))))
        out = tmp_path / "w.csv"
        cli._write_scan(str(out), theta, np.array(columns[1:]), {"schema": 1, "mode": "scan"})
        assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n" + expected


class TestTargetStrengthRange:
    """A known-theta calibration takes target strengths in (0, 1]; any other
    value, or one so small that the separated parameters overflow, ends in
    an error exit and no report, never in a report with non-finite numbers."""

    @pytest.mark.parametrize("strength, code", [(0, 2), (1e-320, 4), (-1, 2), (1.5, 2), (1.0, 0)],
                             ids=["zero", "subnormal", "negative", "above_one", "one"])
    def test_exit_code_and_finite_report(self, tmp_path, strength, code):
        scan_path = tmp_path / "gen.csv"
        target = {"bias": 0.0, "gamma": 1.0,
                  "theta_grid": {"start": 0.1, "stop": 0.1 + 2 * np.pi, "points": 12}}
        config = scan_config(tmp_path, target=target,
                             probe={"bias": 0.1, "gamma": 0.7, "theta": 0.0})
        assert run_cli("--config", config, "--out", scan_path) == 0
        config = write_config(tmp_path / "cal.json", mode="calibrate", scan_file=str(scan_path),
                              fit="ellipse-known-theta", target_strength=strength, bootstrap=20)
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == code
        assert out.exists() == (code == 0)
        if out.exists():
            report = json.loads(out.read_text(), parse_constant=reject_constant)
            numbers = [v for v in report["result"].values() if isinstance(v, float)]
            numbers += list(report["result"]["errors"].values())
            assert all(map(math.isfinite, numbers))
            assert report["result"]["probe_sharpness"] == pytest.approx(0.7, abs=1e-6)


def traced_exit(tmp_path, name, **entries):
    """Exit code of a config, written to ``name``.json with its output in
    ``name``.csv, and the peak traced allocation of the run."""
    config = write_config(tmp_path / f"{name}.json", **entries)
    tracemalloc.start()
    try:
        code = run_cli("--config", config, "--out", tmp_path / f"{name}.csv")
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def highdim_exit(tmp_path, **entries):
    """Exit code of a highdim config and the peak traced allocation of the run."""
    return traced_exit(tmp_path, "hd", mode="highdim", gamma=0.5, **entries)


class TestHighdimSizeCap:
    """``dim`` and the grid are capped by the memory model in cli.py: a
    refused config exits 2 before any array of its size is allocated."""

    def test_caps_follow_the_memory_model(self):
        assert cli.HIGHDIM_ENTRIES * 64 == cli._HIGHDIM_BYTES
        dim = cli.HIGHDIM_SHOT_DIM
        assert dim**2 * 320 <= cli._HIGHDIM_BYTES < (dim + 1) ** 2 * 320

    @pytest.mark.parametrize(
        "entries",
        [
            {"dim": 100_000, "shots": 10},
            {"dim": cli.HIGHDIM_SHOT_DIM + 1, "shots": 10},
            {"dim": cli.HIGHDIM_ENTRIES + 1},
            {"dim": 2**40, "c2": 0.5},
            {"dim": 4096, "c2_grid": {"stop": 1.0, "points": cli.HIGHDIM_ENTRIES // 4096 + 1}},
            {"dim": 2, "c2_grid": {"stop": 1.0, "points": 10**15}},
        ],
        ids=["dim_1e5_shots", "shot_dim", "exact_dim", "dim_2e40", "exact_grid", "huge_grid"],
    )
    def test_refused_before_allocation(self, tmp_path, entries):
        code, peak = highdim_exit(tmp_path, **entries)
        assert code == 2
        assert peak < 2**20
        assert not (tmp_path / "hd.csv").exists()

    @pytest.mark.parametrize("dim, points, shots", [(200, 2, 10), (4096, 64, None), (8, 4096, None)])
    def test_model_bounds_the_peak(self, tmp_path, dim, points, shots):
        entries = {"dim": dim, "c2_grid": {"stop": 1.0, "points": points}}
        if shots:
            entries["shots"] = shots
        code, peak = highdim_exit(tmp_path, **entries)
        assert code == 0
        batch = max(dim * dim, cli._BATCH_ENTRIES) if shots else 0
        assert peak <= 64 * points * dim + 320 * batch + 2**20


class TestGridSizeCap:
    """Every grid is capped by the memory model in cli.py: a refused grid
    exits 2 before any array of its size is allocated."""

    THETA = {"gamma": 0.9, "bias": 0.05}
    PROBE = {"gamma": 0.8, "bias": 0.1}
    SPAN = {"points": 4, "start": 1e308, "stop": -1e308}

    def test_cap_follows_the_memory_model(self):
        assert cli.SCAN_POINTS * cli._GRID_POINT_BYTES <= cli._HIGHDIM_BYTES
        assert (cli.SCAN_POINTS + 1) * cli._GRID_POINT_BYTES > cli._HIGHDIM_BYTES

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "scan", "target": {**THETA, "theta_grid": {"points": 10**12}}},
            {"mode": "scan", "shots": 10,
             "target": {**THETA, "theta_grid": {"points": cli.SCAN_POINTS + 1}}},
            {"mode": "search-optimal", "phi_grid": {"points": 10**12}},
            {"mode": "search-optimal", "phi_grid": {"points": cli.SCAN_POINTS + 1}},
            {"mode": "highdim", "dim": 2, "c2_grid": {"stop": 1.0, "points": cli.SCAN_POINTS + 1}},
        ],
        ids=["scan_1e12", "scan_shots", "search_1e12", "search", "highdim_dim2"],
    )
    def test_refused_before_allocation(self, tmp_path, entries):
        code, peak = traced_exit(tmp_path, "grid", **entries)
        assert code == 2
        assert peak < 2**20
        assert not (tmp_path / "grid.csv").exists()

    @staticmethod
    def grid_entries(kind, points):
        """A scan ("policy/shots"), search-optimal or exact highdim (dim 2)
        config of ``points`` grid points."""
        if kind == "search-optimal":
            return {"mode": kind, "phi_grid": {"points": points}}
        if kind == "highdim":
            return {"mode": kind, "dim": 2, "gamma": 0.5,
                    "c2_grid": {"stop": 1.0, "points": points}}
        policy, shots = kind.split("/")
        return {"mode": "scan", "policy": policy, "shots": "exact" if shots == "exact" else 10,
                "seed": 1, "probe": TestGridSizeCap.PROBE,
                "target": {**TestGridSizeCap.THETA, "theta_grid": {"points": points}}}

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        """``traced(kind)``: the (exit code, peak traced allocation) of the
        kind's runs at 2^12, 2^15 and again 2^12 points, in that order.
        Each kind is traced once, when a test first asks for it."""
        runs = {}

        def traced(kind):
            if kind not in runs:
                path = tmp_path_factory.mktemp("grid")
                runs[kind] = [traced_exit(path, "grid", **self.grid_entries(kind, points))
                              for points in (2**12, 2**15, 2**12)]
            return runs[kind]

        return traced

    @pytest.mark.parametrize("policy", ["lueders", "mixed", "eigenstate"])
    @pytest.mark.parametrize("shots", ["exact", 10])
    def test_model_bounds_the_peak(self, traced, policy, shots):
        points = 2**12
        code, peak = traced(f"{policy}/{shots}")[0]
        assert code == 0
        assert peak <= cli._GRID_POINT_BYTES * points + 2**20

    @pytest.mark.parametrize("policy", ["lueders", "mixed", "eigenstate"])
    @pytest.mark.parametrize("shots", ["exact", 10])
    def test_peak_grows_by_at_most_150_bytes_per_point(self, traced, policy, shots):
        """A grid is evaluated in slices, so only its columns grow with it
        (40 bytes per point measured, 17 on the first 10-shot scan, whose
        2^12 run holds first-use allocations); a whole-grid batch took 504
        to 1272."""
        (code_small, small), (code_large, large), _ = traced(f"{policy}/{shots}")
        assert code_small == code_large == 0
        assert large - small <= 150 * (2**15 - 2**12)

    @pytest.mark.parametrize("kind", [
        *(f"{policy}/{shots}" for policy in ("lueders", "mixed", "eigenstate")
          for shots in ("exact", 10)),
        "search-optimal",
        "highdim",
    ])
    def test_peak_grows_by_the_columns_alone(self, traced, kind):
        """Per point a run holds only the grid and the four estimate
        columns, five float64 columns of 40 bytes (40 measured); the bound
        is 10% over them.  Copying the columns into a scan object took 47
        to 74 bytes, and 85 on highdim.  The 2^12 run compared is the one
        after the 2^15 run, so first-use allocations fall outside both."""
        _, (code_large, large), (code_small, small) = traced(kind)
        assert code_large == code_small == 0
        assert large - small <= 44 * (2**15 - 2**12)

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "scan", "target": {**THETA, "theta_grid": SPAN}},
            {"mode": "search-optimal", "phi_grid": SPAN},
            {"mode": "highdim", "dim": 2, "c2_grid": SPAN},
        ],
        ids=["theta_grid", "phi_grid", "c2_grid"],
    )
    def test_overflowing_span_refused(self, tmp_path, entries, capsys):
        # stop - start is -inf: linspace, cos and sin would warn and yield
        # non-finite points
        code, _ = traced_exit(tmp_path, "grid", **entries)
        assert code == 2
        assert "span" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()


class TestBootstrapCap:
    """The bootstrap resample count is capped by the memory model in cli.py:
    a larger count exits 2 before anything is drawn."""

    FITS = ("circle", "ellipse-known-theta", "ellipse-unknown-theta")

    def scan_file(self, tmp_path, points):
        config = scan_config(tmp_path, name="gen.json", shots=1000,
                             probe=TestGridSizeCap.PROBE, target={
                                 **TestGridSizeCap.THETA, "theta_grid": {"points": points}})
        assert run_cli("--config", config, "--out", tmp_path / "gen.csv") == 0
        return str(tmp_path / "gen.csv")

    def test_cap_follows_the_memory_model(self):
        assert cli.BOOTSTRAP_LIMIT * cli._RESAMPLE_BYTES <= cli._HIGHDIM_BYTES
        assert (cli.BOOTSTRAP_LIMIT + 1) * cli._RESAMPLE_BYTES > cli._HIGHDIM_BYTES

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("count", ["limit", 10**12])
    def test_refused_before_drawing(self, tmp_path, fit, count):
        entries = {"target_strength": 0.9} if fit == "ellipse-known-theta" else {}
        code, peak = traced_exit(
            tmp_path, "cal", mode="calibrate", scan_file=self.scan_file(tmp_path, 12), fit=fit,
            bootstrap=cli.BOOTSTRAP_LIMIT + 1 if count == "limit" else count, **entries)
        assert code == 2
        assert peak < 2**20
        assert not (tmp_path / "cal.csv").exists()

    @pytest.mark.parametrize("fit", ["circle", "ellipse-unknown-theta"])
    def test_model_bounds_the_peak(self, tmp_path, fit):
        # at 2049 points a draw block holds 8192 // 2049 = 3 resamples
        self.check_peak(tmp_path, fit, 2049)

    @pytest.mark.parametrize("fit", ["circle", "ellipse-unknown-theta"])
    def test_model_bounds_the_one_resample_peak(self, tmp_path, fit):
        # over 4096 points every resample is a block of its own
        self.check_peak(tmp_path, fit, 4097)

    def check_peak(self, tmp_path, fit, points):
        resamples = 4000
        scan_file = self.scan_file(tmp_path, points)
        code, peak = traced_exit(tmp_path, "cal", mode="calibrate", scan_file=scan_file,
                                 fit=fit, bootstrap=resamples)
        assert code == 0
        assert peak <= cli._RESAMPLE_BYTES * resamples + 2**20


class TestNegativeDisturbance:
    def test_typed_error_maps_to_physics_exit(self, tmp_path, monkeypatch):
        # the column path fails as a negative disturbance does
        monkeypatch.setattr(cli, "_columns", lambda *args: CdValue(0.5, -0.1))
        config = write_config(tmp_path / "det.json", mode="detector",
                              detector={"eta": 0.9, "nu": 0.01})
        assert run_cli("--config", config, "--out", tmp_path / "r.json") == 3


SCAN_BASE = {"mode": "scan", "target": {"gamma": 1.0, "theta_grid": {"points": 4}}}
CIRCLE_BASE = {"mode": "calibrate", "fit": "circle", "bootstrap": 10}


class TestOneKeySetPerMode:
    """Each mode takes its own config keys, a branch refuses the keys it
    never reads, and an explicit null is no value: the base config of each
    case runs, and the same config with the extra keys exits 2 and writes
    nothing."""

    CASES = {
        "scan_with_other_modes_keys": (
            SCAN_BASE, {"dim": 7, "fit": "circle", "c2": 3.0, "phi_grid": {"points": -1}}),
        "highdim_with_policy_and_probe": (
            {"mode": "highdim", "dim": 3, "c2": 0.5},
            {"policy": "eigenstate", "probe": {"gamma": 1.0}}),
        "circle_with_strength_shots_detector": (
            CIRCLE_BASE, {"target_strength": 5, "shots": 3, "detector": 7}),
        "inversion_with_shots_and_policy": (
            {"mode": "detector", "detector": {"d1": 0.5, "c2": -0.1}},
            {"shots": -5, "policy": "bogus"}),
        "search_with_state": (
            {"mode": "search-optimal", "phi_grid": {"points": 4}},
            {"state": {"bloch": [9, 9, 9]}}),
        "bloch_beside_gamma_theta_beside_grid": (
            SCAN_BASE, {"probe": {"bloch": [1, 0, 0], "gamma": "x"},
                        "target": {"gamma": 1.0, "theta": "zz", "theta_grid": {"points": 4}}}),
        "bloch_beside_theta": (SCAN_BASE, {"probe": {"bloch": [1, 0, 0], "theta": 0.5}}),
        "theta_beside_grid": (
            SCAN_BASE, {"target": {"gamma": 1.0, "theta": 0.5, "theta_grid": {"points": 4}}}),
        "c2_beside_grid": (
            {"mode": "highdim", "dim": 3, "c2_grid": {"stop": 1.0, "points": 4}}, {"c2": 0.5}),
        "unknown_theta_with_strength": (
            {**CIRCLE_BASE, "fit": "ellipse-unknown-theta"}, {"target_strength": 0.9}),
        # a bloch target is one fixed axis, which a theta grid would not turn
        "bloch_beside_theta_grid": (
            SCAN_BASE, {"probe": {"gamma": 1.0},
                        "target": {"bloch": [0, 0, 0.9], "theta_grid": {"points": 4}}}),
        "null_state": (SCAN_BASE, {"state": None}),
        "null_target_strength": (
            {**CIRCLE_BASE, "fit": "ellipse-known-theta"}, {"target_strength": None}),
    }

    @staticmethod
    def with_scan_file(tmp_path, entries):
        """``entries``, given a scan file when they calibrate."""
        if entries["mode"] != "calibrate":
            return entries
        scan_file = tmp_path / "gen.csv"
        assert run_cli("--config", scan_config(tmp_path, name="gen.json"), "--out", scan_file) == 0
        return {**entries, "scan_file": str(scan_file)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ignored_keys_exit_2_and_write_nothing(self, tmp_path, case):
        base, extra = self.CASES[case]
        base = self.with_scan_file(tmp_path, base)
        codes = []
        for name, entries in (("base", base), ("extra", {**base, **extra})):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / f"{name}.json", **entries)
            codes.append(run_cli("--config", config, "--out", tmp_path / name / "out.csv"))
        assert codes == [0, 2]
        assert not any((tmp_path / "extra").iterdir())

    @pytest.mark.parametrize("entries", [CIRCLE_BASE, CASES["inversion_with_shots_and_policy"][0]],
                             ids=["calibrate", "detector_inversion"])
    def test_exact_shots_where_no_shots_are_drawn(self, tmp_path, entries):
        entries = self.with_scan_file(tmp_path, entries)
        config = write_config(tmp_path / "c.json", **entries)
        assert run_cli("--config", config, "--out", tmp_path / "ok.json") == 0
        config = write_config(tmp_path / "e.json", **entries, shots="exact")
        out = tmp_path / "r.json"
        assert run_cli("--config", config, "--out", out) == 2
        assert not out.exists()


class TestDrawCap:
    """Shot-mode runs are capped by the time model in cli.py: a run of more
    than DRAW_LIMIT draws (points times both arms' shots) exits 2 before any
    table is built, and one at the cap reaches the sampler."""

    DETECTOR = {"mode": "detector", "detector": {"eta": 0.7, "nu": 0.05}}

    def test_cap_follows_the_time_model(self):
        assert cli.DRAW_LIMIT * cli._WORD_NS <= cli._DRAW_SECONDS * 1e9
        assert (cli.DRAW_LIMIT + 1) * cli._WORD_NS > cli._DRAW_SECONDS * 1e9
        # the benchmark's largest job, a 1e7-shot detector simulation
        assert 2 * 2 * 10**7 < cli.DRAW_LIMIT // 10**4

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "scan", "target": {"theta": 0.3}, "shots": cli.DRAW_LIMIT // 2 + 1},
            {"mode": "scan", "target": {"theta_grid": {"points": 1000}},
             "shots": cli.DRAW_LIMIT // 2000 + 1},
            {"mode": "scan", "target": {"theta": 0.3}, "shots": 10**23},
            {"mode": "search-optimal", "shots": cli.DRAW_LIMIT // 128 + 1},
            {"mode": "highdim", "shots": cli.DRAW_LIMIT // 2 + 1},
            {"mode": "highdim", "dim": 3, "c2_grid": {"stop": 1.0, "points": 64},
             "shots": cli.DRAW_LIMIT // 128 + 1},
            {**DETECTOR, "shots": cli.DRAW_LIMIT // 4 + 1},
            {**DETECTOR, "shots": 2**63 - 1},
        ],
        ids=["scan", "scan_grid", "scan_1e23", "search", "highdim", "highdim_grid",
             "detector", "detector_2e63"],
    )
    def test_refused_before_any_table(self, tmp_path, entries):
        code, peak = traced_exit(tmp_path, "draws", **entries)
        assert code == 2
        assert peak < 2**20
        assert not (tmp_path / "draws.csv").exists()

    class Drawn(Exception):
        pass

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "scan", "target": {"theta": 0.3}, "shots": cli.DRAW_LIMIT // 2},
            {"mode": "highdim", "shots": cli.DRAW_LIMIT // 2},
            {**DETECTOR, "shots": cli.DRAW_LIMIT // 4},
        ],
        ids=["scan", "highdim", "detector"],
    )
    def test_cap_itself_is_drawn(self, tmp_path, monkeypatch, entries):
        def sample_tables(joint, alone, shots, *seed):
            assert len(joint) * 2 * shots <= cli.DRAW_LIMIT
            raise self.Drawn

        monkeypatch.setattr(cli, "sample_tables", sample_tables)
        config = write_config(tmp_path / "c.json", **entries)
        with pytest.raises(self.Drawn):
            run_cli("--config", config, "--out", tmp_path / "o.csv")
