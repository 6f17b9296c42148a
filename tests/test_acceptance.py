"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import time

import numpy as np

from cdtradeoff.calibration import fit_ellipse_known_theta
from cdtradeoff.cd_measures import (
    cd_from_scenario,
    correlation_operator,
    disturbance_operator,
)
from cdtradeoff.cli import main
from cdtradeoff.detector_model import (
    DetectorNoise,
    estimate_noise,
    scenario_cd,
    scenario_distributions,
)
from cdtradeoff.highdim_model import RandomizedDichotomic, cd_highdim, overlap
from cdtradeoff.quantum_core import DensityMatrix, LuedersInstrument
from cdtradeoff.qubit_model import (
    QubitMeasurement,
    cd_parametric,
    ellipse_character,
    optimal_state,
    plane_axis,
)
from cdtradeoff.shot_sampler import estimate_cd, sample, sample_distributions

from util import (
    forward_scan,
    random_pure,
    random_qubit_measurement,
    random_rotation,
    random_two_outcome_povm,
    random_unitary,
    scenario,
)


def report(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_tradeoff_inequality():
    rng = np.random.default_rng(10_001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 5))
        rho = random_pure(rng, dim)
        inst = LuedersInstrument(random_two_outcome_povm(rng, dim))
        povm = random_two_outcome_povm(rng, dim)
        value = cd_from_scenario(rho, inst, povm)
        worst = max(worst, value.correlation**2 + value.disturbance**2)
        assert value.correlation**2 + value.disturbance**2 <= 1.0 + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"C^2+D^2 <= 1+1e-9 on 10^4 random scenarios "
              f"(max {worst:.12f}, {elapsed:.1f}s)")


def test_criterion_02_sharp_probe_circle():
    probe = QubitMeasurement(0.0, plane_axis(0.0))
    thetas = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    for gamma in (0.233, 0.485, 0.731):
        for theta in thetas:
            target = QubitMeasurement(0.0, gamma * plane_axis(theta))
            value = cd_from_scenario(*scenario(optimal_state(probe, target), probe, target))
            assert abs(value.correlation**2 + value.disturbance**2 - gamma**2) <= 1e-9
    hits = total = 0
    for gamma in (0.233, 0.485, 0.731):
        for i, theta in enumerate(thetas):
            target = QubitMeasurement(0.0, gamma * plane_axis(theta))
            args = scenario(optimal_state(probe, target), probe, target)
            exact = cd_from_scenario(*args)
            est = estimate_cd(*sample(*args, 100_000, 100_000, seed=20_000 + i))
            total += 1
            if (
                abs(est.c_hat - exact.correlation) <= 5 * est.c_err
                and abs(est.d_hat - exact.disturbance) <= 5 * est.d_err
            ):
                hits += 1
    assert hits >= 0.95 * total
    report(2, f"circle radii exact to 1e-9; shot mode within 5 sigma at "
              f"{hits}/{total} points")


def test_criterion_03_ellipse_law():
    rng = np.random.default_rng(30_003)
    pairs = []
    for gamma, bias in ((0.5, 0.0), (0.75, 0.0), (0.5, 0.5), (0.75, 0.25)):
        for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            pairs.append(
                (
                    QubitMeasurement(bias, gamma * plane_axis(0.0)),
                    QubitMeasurement(0.0, plane_axis(theta)),
                )
            )
    while len(pairs) < 500:
        pairs.append((random_qubit_measurement(rng), random_qubit_measurement(rng)))
    worst = 0.0
    for probe, target in pairs:
        theta = float(np.arccos(np.clip(probe.axis @ target.axis, -1.0, 1.0)))
        predicted = cd_parametric(probe, target.strength, target.bias, theta)
        simulated = cd_from_scenario(
            *scenario(optimal_state(probe, target), probe, target)
        )
        worst = max(
            worst,
            abs(predicted.correlation - simulated.correlation),
            abs(predicted.disturbance - simulated.disturbance),
        )
        assert abs(predicted.correlation - simulated.correlation) <= 1e-9
        assert abs(predicted.disturbance - simulated.disturbance) <= 1e-9
    report(3, f"parametric ellipse matches simulation on {len(pairs)} pairs "
              f"(worst gap {worst:.2e})")


def test_criterion_04_covariance_of_calibration():
    rng = np.random.default_rng(40_004)
    thetas = np.linspace(0.1, 2 * np.pi, 12, endpoint=False)
    probe = QubitMeasurement(0.4, 0.45 * plane_axis(0.0))
    names = (
        "center_shift", "target_strength_product", "shear_strength",
        "squeeze_strength", "probe_sharpness", "probe_bias", "squeeze", "shear",
    )
    base = fit_ellipse_known_theta(
        forward_scan(probe, 0.8, 0.15, thetas), target_strength=0.8, n_bootstrap=0
    )
    worst = 0.0
    for _ in range(10):
        rotated_scan = forward_scan(
            probe, 0.8, 0.15, thetas, rotation=random_rotation(rng)
        )
        rotated = fit_ellipse_known_theta(rotated_scan, target_strength=0.8, n_bootstrap=0)
        for name in names:
            gap = abs(getattr(rotated, name) - getattr(base, name))
            worst = max(worst, gap)
            assert gap <= 1e-6
    report(4, f"recovered parameters invariant under common rotations "
              f"(worst shift {worst:.2e})")


def test_criterion_05_highdim_circle():
    rng = np.random.default_rng(50_005)
    gammas = (0.25, 0.5, 0.75, 1.0)
    for trial in range(500):
        dim = int(rng.integers(2, 7))
        gamma = gammas[trial % 4]
        u = random_unitary(rng, dim)
        c2 = rng.uniform(0.02, 0.98)
        ket_a = u[:, 0]
        ket_b = np.sqrt(c2) * u[:, 0] + np.sqrt(1 - c2) * u[:, 1]
        pa = RandomizedDichotomic.from_ket(ket_a, 1.0)
        pb = RandomizedDichotomic.from_ket(ket_b, gamma)
        geom = overlap(pa, pb)
        value = cd_highdim(pa, pb)
        simulated = cd_from_scenario(
            DensityMatrix.from_ket(geom.psi_plus),
            LuedersInstrument(pa.to_povm()),
            pb.to_povm(),
        )
        assert abs(simulated.correlation**2 + simulated.disturbance**2 - gamma**2) <= 1e-9
        assert abs(simulated.correlation - value.correlation) <= 1e-9
        assert abs(simulated.disturbance - value.disturbance) <= 1e-9
        amp = np.abs(geom.psi_plus.conj() @ pa.projector_plus.matrix @ geom.psi_plus)
        assert abs(np.sqrt(amp) - 1 / np.sqrt(2)) <= 1e-9
        mean_a = (geom.psi_plus.conj() @ pa.to_povm().observable() @ geom.psi_plus).real
        assert abs(mean_a) <= 1e-9
    report(5, "d-dimensional circle law, optimal-state overlap and zero probe "
              "mean hold on 500 pairs")


def test_criterion_06_optimal_state_search(tmp_path):
    config = {
        "schema": 1,
        "mode": "search-optimal",
        "probe": {"bias": 0.0, "gamma": 1.0, "theta": np.pi / 4},
        "target": {"bias": 0.0, "gamma": 1.0, "theta": 0.0},
        "phi_grid": {"start": 0.0, "stop": 2 * np.pi, "points": 64},
    }
    config_path = tmp_path / "search.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "search.csv"
    assert main(["--config", str(config_path), "--out", str(out)]) == 0
    rows = np.array(
        [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
    )
    assert np.abs(rows[:, 1] - 1 / np.sqrt(2)).max() <= 1e-9
    top = np.flatnonzero(rows[:, 2] >= rows[:, 2].max() - 1e-9)
    assert list(top) == [24, 56]
    report(6, "disturbance peaks at phi = 3pi/4 and 7pi/4 with constant "
              "correlation 1/sqrt(2)")


def test_criterion_07_detector_round_trip():
    worst = 0.0
    for eta in np.linspace(0.05, 1.0, 20):
        for nu in np.linspace(0.0, 0.5, 20):
            truth = DetectorNoise(eta, nu)
            d1 = scenario_cd(truth, "sharp").disturbance
            c2 = scenario_cd(truth, "fully_biased").correlation
            recovered = estimate_noise(d1, c2)
            worst = max(worst, abs(recovered.eta - eta), abs(recovered.nu - nu))
            assert abs(recovered.eta - eta) <= 1e-10
            assert abs(recovered.nu - nu) <= 1e-10
    truth = DetectorNoise(0.8, 0.1)
    joint_s, alone_s = scenario_distributions(truth, "sharp")
    joint_b, alone_b = scenario_distributions(truth, "fully_biased")
    est_s = estimate_cd(*sample_distributions(joint_s, alone_s, 1_000_000, 1_000_000, 700))
    est_b = estimate_cd(*sample_distributions(joint_b, alone_b, 1_000_000, 1_000_000, 701))
    from cdtradeoff.calibration import estimate_detector

    est = estimate_detector(est_s.d_hat, est_b.c_hat, est_s.d_err, est_b.c_err)
    assert abs(est.noise.eta - 0.8) <= 3 * est.eta_err
    assert abs(est.noise.nu - 0.1) <= 3 * est.nu_err
    report(7, f"20x20 grid inverts exactly (worst {worst:.2e}); "
              f"10^6-shot recovery within 3 sigma")


def test_criterion_08_calibration_round_trip():
    rng = np.random.default_rng(80_008)
    thetas = np.linspace(0.1, 2 * np.pi, 12, endpoint=False)

    def random_devices():
        bias_a = rng.uniform(-0.5, 0.5)
        strength_a = rng.uniform(0.15, 1.0 - abs(bias_a))
        bias_b = rng.uniform(-0.5, 0.5)
        strength_b = rng.uniform(0.15, 1.0 - abs(bias_b))
        return QubitMeasurement(bias_a, strength_a * plane_axis(0.0)), bias_b, strength_b

    worst = 0.0
    for _ in range(200):
        probe, bias_b, strength_b = random_devices()
        char = ellipse_character(probe)
        truth = {
            "center_shift": probe.bias * bias_b,
            "target_strength_product": probe.strength * strength_b,
            "shear_strength": char.shear * strength_b,
            "squeeze_strength": char.squeeze * strength_b,
        }
        fitted = fit_ellipse_known_theta(
            forward_scan(probe, strength_b, bias_b, thetas), n_bootstrap=0
        )
        for name, value in truth.items():
            gap = abs(getattr(fitted, name) - value)
            worst = max(worst, gap)
            assert gap <= 1e-6

    def resolvable_devices():
        # at 1e5 shots the per-point noise is ~5e-3; combinations below
        # ~10x that floor are not identifiable at this budget (and the
        # folded |.| disturbance estimator biases them upward)
        while True:
            probe, bias_b, strength_b = random_devices()
            char = ellipse_character(probe)
            if (
                char.squeeze * strength_b >= 0.05
                and probe.strength * strength_b >= 0.05
            ):
                return probe, bias_b, strength_b

    shot_thetas = np.linspace(0.1, 2 * np.pi, 32, endpoint=False)
    passed = trials = 0
    for trial in range(200):
        probe, bias_b, strength_b = resolvable_devices()
        char = ellipse_character(probe)
        truth = {
            "center_shift": probe.bias * bias_b,
            "target_strength_product": probe.strength * strength_b,
            "shear_strength": char.shear * strength_b,
            "squeeze_strength": char.squeeze * strength_b,
        }
        scan = forward_scan(
            probe, strength_b, bias_b, shot_thetas, shots=100_000,
            seed=90_000 + (trial << 8),
        )
        fitted = fit_ellipse_known_theta(scan, bootstrap_seed=trial)
        trials += 1
        if all(
            abs(getattr(fitted, name) - value) <= 3 * fitted.errors[name]
            for name, value in truth.items()
        ):
            passed += 1
    assert passed >= 0.95 * trials
    report(8, f"noiseless round trip exact to 1e-6 (worst {worst:.2e}); "
              f"shot mode inside 3-sigma bootstrap in {passed}/{trials} trials")


def test_criterion_09_operator_consistency():
    rng = np.random.default_rng(90_009)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        rho = random_pure(rng, dim)
        povm_a = random_two_outcome_povm(rng, dim)
        povm_b = random_two_outcome_povm(rng, dim)
        inst = LuedersInstrument(povm_a)
        value = cd_from_scenario(rho, inst, povm_b)
        observable = povm_b.observable()
        c_op = correlation_operator(inst, observable)
        d_op = disturbance_operator(inst, observable)
        assert abs(np.trace(rho.matrix @ c_op).real - value.correlation) <= 1e-9
        assert abs(abs(np.trace(rho.matrix @ d_op).real) - value.disturbance) <= 1e-9
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m + m.conj().T
        from cdtradeoff.cd_measures import dissipator

        for k, e in zip(inst.kraus, povm_a.effects):
            anti = 0.5 * (e.matrix @ m + m @ e.matrix)
            assert np.abs(k @ m @ k - (anti - dissipator(k, m))).max() <= 1e-10
    report(9, "operator expectations reproduce statistics and the channel "
              "decomposition holds on 10^3 scenarios")


def test_criterion_10_determinism(tmp_path):
    config = {
        "schema": 1,
        "mode": "scan",
        "seed": 4242,
        "shots": 10_000,
        "probe": {"bias": 0.0, "gamma": 1.0, "theta": 0.0},
        "target": {"bias": 0.0, "gamma": 0.6,
                   "theta_grid": {"start": 0.0, "stop": 2 * np.pi, "points": 16}},
        "state": "optimal",
    }
    config_path = tmp_path / "det.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.csv"
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
        outputs.append(
            (out.read_bytes(), (tmp_path / f"{run}.meta.json").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    detector_config = {
        "schema": 1, "mode": "detector", "seed": 11, "shots": 100_000,
        "detector": {"eta": 0.85, "nu": 0.07},
    }
    config_path.write_text(json.dumps(detector_config))
    reports = []
    for run in range(2):
        out = tmp_path / f"det_report_{run}.json"
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report(10, "identical config and seed reproduce byte-identical CSV and "
               "JSON outputs")
