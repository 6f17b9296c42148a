import numpy as np
import pytest

from cdtradeoff.calibration import (
    CdScan,
    estimate_detector,
    fit_circle_sharp_probe,
    fit_ellipse_known_theta,
    fit_ellipse_unknown_theta,
)
from cdtradeoff.detector_model import DetectorNoise, scenario_cd, scenario_distributions
from cdtradeoff.errors import (
    InsufficientPointsError,
    NotAnEllipseError,
    RankDeficientError,
)
from cdtradeoff.qubit_model import QubitMeasurement, ellipse_character, plane_axis
from cdtradeoff.shot_sampler import estimate_cd, sample_distributions

from util import bootstrap_oracle, forward_scan, random_rotation

S_HALF_BIASED = 1.0 - np.sqrt(2.0) / 2
DELTA_HALF_BIASED = np.sqrt(2.0) / 2

THETAS_12 = np.linspace(0.15, 2 * np.pi, 12, endpoint=False)
THETAS_16 = np.linspace(0.1, 2 * np.pi, 16, endpoint=False)


def sharp_probe():
    return QubitMeasurement(0.0, plane_axis(0.0))


def circle_scan(radius, n=16):
    thetas = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return CdScan(thetas, radius * np.cos(thetas), np.abs(radius * np.sin(thetas)))


def noisy(scan, rng, sigma=0.01):
    """``scan`` with Gaussian noise of ``sigma`` on C and D, stated as
    their errors."""
    n = len(scan)
    return CdScan(scan.theta, scan.c + rng.normal(0.0, sigma, n),
                  scan.d + rng.normal(0.0, sigma, n), np.full(n, sigma), np.full(n, sigma))


class TestCdScan:
    def test_columns_are_read_only_float64_copies(self):
        c = [0.5, 0.25, 0.125]
        theta = np.array([0.0, 1.0, 2.0])
        scan = CdScan(theta, c, np.zeros(3), c_err=np.full(3, 0.1))
        for column in (scan.theta, scan.c, scan.d, scan.c_err, scan.d_err):
            assert column.dtype == np.float64 and column.shape == (3,)
            assert not column.flags.writeable
        theta[0] = 9.0
        assert scan.theta[0] == 0.0
        assert len(scan) == 3
        assert scan.d_err.tolist() == [0.0, 0.0, 0.0]

    def test_unknown_theta_stays_none(self):
        assert CdScan(None, [0.1, 0.2], [0.3, 0.4]).theta is None

    @pytest.mark.parametrize(
        "columns",
        [
            ([0.0, 1.0], [0.5, 0.5, 0.5], [0.1, 0.1, 0.1]),
            (None, [0.5, 0.5], [0.1, 0.1, 0.1]),
            (None, [0.5, 0.5], [0.1, 0.1], [0.01]),
            (None, 0.5, 0.1),
        ],
        ids=["theta", "d", "c_err", "scalar"],
    )
    def test_columns_of_other_lengths_rejected(self, columns):
        with pytest.raises(InsufficientPointsError):
            CdScan(*columns)


class TestBootstrapBits:
    """The bootstrap errors of every fit equal those of one ``random(n)``
    draw per resample from the seed's stream, resample by resample."""

    SEEDS = (0, 2**63 + 7)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [16, 1100, 5000])
    def test_circle(self, seed, n):
        # 1100 and 5000 points: the indices span several draw blocks
        scan = noisy(circle_scan(0.6, n), np.random.default_rng(1))
        fit = fit_circle_sharp_probe(scan, bootstrap_seed=seed)
        expected, kept = bootstrap_oracle(fit_circle_sharp_probe, scan, ("strength",), 200, seed)
        assert kept == 200
        assert fit.strength_err == expected["strength"]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("target_strength", [None, 0.85])
    @pytest.mark.parametrize("degenerate", [False, True], ids=["distinct", "repeated_theta"])
    def test_known_theta(self, seed, target_strength, degenerate):
        # six points on three settings: many resamples hold fewer than three
        thetas = np.repeat([0.3, 1.2, 2.0], 2) if degenerate else THETAS_12
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = noisy(forward_scan(probe, 0.85, 0.1, thetas), np.random.default_rng(2))
        fit = fit_ellipse_known_theta(scan, target_strength, bootstrap_seed=seed)
        expected, kept = bootstrap_oracle(fit_ellipse_known_theta, scan, tuple(fit.errors),
                                          200, seed, target_strength=target_strength)
        assert (kept < 200) == degenerate
        assert len(fit.errors) == (8 if target_strength else 4)
        assert fit.errors == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unknown_theta(self, seed):
        # seven points: resamples with repeated points can leave no ellipse
        thetas = np.linspace(0.2, 2 * np.pi, 7, endpoint=False)
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = noisy(forward_scan(probe, 0.85, 0.1, thetas), np.random.default_rng(3))
        fit = fit_ellipse_unknown_theta(scan, bootstrap_seed=seed)
        expected, kept = bootstrap_oracle(fit_ellipse_unknown_theta, scan, tuple(fit.errors),
                                          200, seed)
        assert kept < 200
        assert len(fit.errors) == 4
        assert fit.errors == expected


class TestCircleFit:
    def test_exact_radius(self):
        fit = fit_circle_sharp_probe(circle_scan(0.731))
        assert fit.strength == pytest.approx(0.731, abs=1e-12)
        assert fit.strength_err == pytest.approx(0.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_unit_radius(self):
        assert fit_circle_sharp_probe(circle_scan(1.0)).strength == pytest.approx(
            1.0, abs=1e-12
        )

    def test_full_pipeline_exact(self):
        scan = forward_scan(sharp_probe(), 0.485, 0.0, THETAS_16)
        fit = fit_circle_sharp_probe(scan)
        assert fit.strength == pytest.approx(0.485, abs=1e-9)

    def test_noisy_scan_within_three_sigma(self):
        scan = forward_scan(sharp_probe(), 0.485, 0.0, THETAS_16, shots=100_000, seed=21)
        fit = fit_circle_sharp_probe(scan)
        assert fit.strength_err > 0
        assert abs(fit.strength - 0.485) <= 3 * fit.strength_err

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_circle_sharp_probe(CdScan([0.0], [1.0], [0.0]))


class TestKnownThetaFit:
    def test_biased_probe_full_identifiability(self):
        probe = QubitMeasurement(0.5, 0.5 * plane_axis(0.0))
        scan = forward_scan(probe, 1.0, 0.0, THETAS_12)
        character = fit_ellipse_known_theta(scan, target_strength=1.0)
        assert character.identifiability == "full"
        assert character.squeeze == pytest.approx(S_HALF_BIASED, abs=1e-6)
        assert character.shear == pytest.approx(DELTA_HALF_BIASED, abs=1e-6)
        assert character.center_shift == pytest.approx(0.0, abs=1e-6)
        assert character.probe_sharpness == pytest.approx(0.5, abs=1e-6)
        assert character.probe_bias == pytest.approx(0.5, abs=1e-6)

    def test_sharp_probe(self):
        scan = forward_scan(sharp_probe(), 1.0, 0.0, THETAS_12)
        character = fit_ellipse_known_theta(scan, target_strength=1.0)
        assert character.squeeze == pytest.approx(1.0, abs=1e-6)
        assert character.shear == pytest.approx(0.0, abs=1e-6)
        assert character.center_shift == pytest.approx(0.0, abs=1e-6)

    def test_biased_both_center_shift(self):
        probe = QubitMeasurement(0.35, 0.5 * plane_axis(0.0))
        scan = forward_scan(probe, 0.5, 0.35, THETAS_12)
        character = fit_ellipse_known_theta(scan)
        assert character.center_shift == pytest.approx(0.1225, abs=1e-6)
        assert character.identifiability == "combos_only"
        assert character.probe_sharpness is None

    def test_probe_consistency_through_u_formulas(self):
        probe = QubitMeasurement(0.25, 0.6 * plane_axis(0.0))
        scan = forward_scan(probe, 0.8, 0.1, THETAS_12)
        character = fit_ellipse_known_theta(scan, target_strength=0.8)
        recovered = QubitMeasurement(
            character.probe_bias, character.probe_sharpness * plane_axis(0.0)
        )
        rechar = ellipse_character(recovered)
        assert rechar.squeeze == pytest.approx(character.squeeze, abs=1e-6)
        assert rechar.shear == pytest.approx(character.shear, abs=1e-6)

    def test_requires_theta_on_every_point(self):
        scan = CdScan(None, [1.0, 0.8, 0.5, 0.1], [0.0, 0.4, 0.8, 0.9])
        with pytest.raises(InsufficientPointsError):
            fit_ellipse_known_theta(scan)

    def test_rank_deficient_grid(self):
        scan = CdScan(np.full(6, 0.4), np.full(6, 0.9), np.full(6, 0.4))
        with pytest.raises(RankDeficientError):
            fit_ellipse_known_theta(scan)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_ellipse_known_theta(circle_scan(1.0, n=3))

    @pytest.mark.parametrize("target_strength", [None, 1.0])
    def test_zero_squeeze_strength_has_no_shear_ratio(self, target_strength):
        scan = CdScan(THETAS_16, np.cos(THETAS_16), np.zeros(16))
        character = fit_ellipse_known_theta(scan, target_strength)
        assert character.squeeze_strength == 0.0
        assert character.shear_ratio is None


class TestUnknownThetaFit:
    def test_biased_probe_combos(self):
        probe = QubitMeasurement(0.5, 0.5 * plane_axis(0.0))
        scan = forward_scan(probe, 1.0, 0.0, THETAS_12)
        character = fit_ellipse_unknown_theta(scan)
        assert character.identifiability == "combos_only"
        assert character.shear_ratio == pytest.approx(
            DELTA_HALF_BIASED / S_HALF_BIASED, abs=1e-5
        )
        assert character.squeeze_strength == pytest.approx(S_HALF_BIASED, abs=1e-5)
        assert character.target_strength_product == pytest.approx(0.5, abs=1e-5)
        assert character.center_shift == pytest.approx(0.0, abs=1e-5)
        assert character.residual <= 1e-9

    def test_circle_input(self):
        character = fit_ellipse_unknown_theta(circle_scan(0.7, n=12))
        assert character.shear_ratio == pytest.approx(0.0, abs=1e-9)
        assert character.target_strength_product == pytest.approx(0.7, abs=1e-9)
        assert character.squeeze_strength == pytest.approx(0.7, abs=1e-9)

    def test_agrees_with_known_theta_fit(self):
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = forward_scan(probe, 0.85, 0.1, THETAS_16)
        known = fit_ellipse_known_theta(scan)
        unknown = fit_ellipse_unknown_theta(scan)
        for name in (
            "center_shift",
            "target_strength_product",
            "shear_strength",
            "squeeze_strength",
        ):
            assert getattr(unknown, name) == pytest.approx(
                getattr(known, name), abs=1e-5
            )

    def test_noisy_scan_within_three_sigma_bootstrap(self):
        probe = QubitMeasurement(0.5, 0.5 * plane_axis(0.0))
        scan = forward_scan(probe, 1.0, 0.0, THETAS_16, shots=100_000, seed=4)
        character = fit_ellipse_unknown_theta(scan)
        truth = {
            "center_shift": 0.0,
            "target_strength_product": 0.5,
            "shear_strength": DELTA_HALF_BIASED,
            "squeeze_strength": S_HALF_BIASED,
        }
        for name, value in truth.items():
            err = character.errors[name]
            assert err > 0
            assert abs(getattr(character, name) - value) <= 3 * err

    def test_collinear_points_rejected(self):
        i = np.arange(8)
        with pytest.raises(NotAnEllipseError):
            fit_ellipse_unknown_theta(CdScan(None, 0.1 * i, 0.2 * i))

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_ellipse_unknown_theta(circle_scan(1.0, n=5))


class TestRoundTrip:
    def test_random_device_pairs_noiseless(self):
        rng = np.random.default_rng(314)
        for _ in range(30):
            bias_a = rng.uniform(-0.5, 0.5)
            strength_a = rng.uniform(0.1, 1.0 - abs(bias_a))
            bias_b = rng.uniform(-0.5, 0.5)
            strength_b = rng.uniform(0.1, 1.0 - abs(bias_b))
            probe = QubitMeasurement(bias_a, strength_a * plane_axis(0.0))
            char = ellipse_character(probe)
            scan = forward_scan(probe, strength_b, bias_b, THETAS_12)
            fitted = fit_ellipse_known_theta(scan, n_bootstrap=0)
            assert fitted.center_shift == pytest.approx(bias_a * bias_b, abs=1e-6)
            assert fitted.target_strength_product == pytest.approx(
                strength_a * strength_b, abs=1e-6
            )
            assert fitted.shear_strength == pytest.approx(
                char.shear * strength_b, abs=1e-6
            )
            assert fitted.squeeze_strength == pytest.approx(
                char.squeeze * strength_b, abs=1e-6
            )

    def test_rotation_invariance_of_recovered_parameters(self):
        rng = np.random.default_rng(2718)
        probe = QubitMeasurement(0.4, 0.45 * plane_axis(0.0))
        base = fit_ellipse_known_theta(
            forward_scan(probe, 0.8, 0.15, THETAS_12), n_bootstrap=0
        )
        for _ in range(5):
            rotated_scan = forward_scan(
                probe, 0.8, 0.15, THETAS_12, rotation=random_rotation(rng)
            )
            rotated = fit_ellipse_known_theta(rotated_scan, n_bootstrap=0)
            for name in (
                "center_shift",
                "target_strength_product",
                "shear_strength",
                "squeeze_strength",
            ):
                assert abs(getattr(rotated, name) - getattr(base, name)) <= 1e-6


class TestEstimateDetector:
    def test_exact_inversion(self):
        truth = DetectorNoise(0.9, 0.05)
        d1 = scenario_cd(truth, "sharp").disturbance
        c2 = scenario_cd(truth, "fully_biased").correlation
        est = estimate_detector(d1, c2)
        assert est.noise.eta == pytest.approx(0.9, abs=1e-10)
        assert est.noise.nu == pytest.approx(0.05, abs=1e-10)
        assert est.eta_err == 0.0
        assert est.nu_err == 0.0

    def test_ideal_zero_errors(self):
        est = estimate_detector(1.0, 0.0)
        assert est.noise.eta == pytest.approx(1.0)
        assert est.noise.nu == pytest.approx(0.0)
        assert est.eta_err == 0.0 and est.nu_err == 0.0

    def test_shot_sampled_recovery_within_three_sigma(self):
        truth = DetectorNoise(0.8, 0.1)
        joint_s, alone_s = scenario_distributions(truth, "sharp")
        joint_b, alone_b = scenario_distributions(truth, "fully_biased")
        est_s = estimate_cd(sample_distributions(joint_s, alone_s, 1_000_000, 1_000_000, 70))
        est_b = estimate_cd(sample_distributions(joint_b, alone_b, 1_000_000, 1_000_000, 71))
        est = estimate_detector(est_s.d_hat, est_b.c_hat, est_s.d_err, est_b.c_err)
        assert est.eta_err > 0 and est.nu_err > 0
        assert abs(est.noise.eta - 0.8) <= 3 * est.eta_err
        assert abs(est.noise.nu - 0.1) <= 3 * est.nu_err
