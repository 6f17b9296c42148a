import numpy as np
import pytest

from cdtradeoff import detector_model
from cdtradeoff.calibration import estimate_detector
from cdtradeoff.detector_model import (
    DetectorNoise,
    scenario_cd,
    scenario_distributions,
)
from cdtradeoff.errors import (
    InvalidMeasurementError,
    InvalidNoiseError,
    OutOfDomainError,
)
from cdtradeoff.quantum_core import scenario_tables


class TestDetectorNoise:
    def test_rejects_eta_above_one(self):
        with pytest.raises(InvalidNoiseError):
            DetectorNoise(1.2, 0.0)

    def test_rejects_negative_nu(self):
        with pytest.raises(InvalidNoiseError):
            DetectorNoise(0.5, -0.1)

    def test_rejects_nan_nu(self):
        # NaN fails "nu < 0" too, and would surface only from the tables
        with pytest.raises(InvalidNoiseError, match="nu nan"):
            DetectorNoise(0.5, float("nan"))

    def test_silence(self):
        assert DetectorNoise(0.5, 0.2).silence == pytest.approx(np.exp(-0.2))


class TestScenarioCd:
    def test_ideal_sharp(self):
        value = scenario_cd(DetectorNoise(1.0, 0.0), "sharp")
        assert value.correlation == pytest.approx(0.0, abs=1e-15)
        assert value.disturbance == pytest.approx(1.0, abs=1e-15)

    def test_noisy_sharp(self):
        value = scenario_cd(DetectorNoise(0.9, 0.05), "sharp")
        assert value.correlation == pytest.approx(0.0, abs=1e-12)
        assert value.disturbance == pytest.approx(0.8561064820506425, abs=1e-12)

    def test_noisy_fully_biased(self):
        value = scenario_cd(DetectorNoise(0.9, 0.05), "fully_biased")
        assert value.correlation == pytest.approx(0.0463523669507854, abs=1e-12)
        assert value.disturbance == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_consistency_grid(self):
        for eta in np.linspace(0.05, 1.0, 12):
            for nu in np.linspace(0.0, 0.5, 9):
                noise = DetectorNoise(eta, nu)
                sharp = scenario_cd(noise, "sharp")
                biased = scenario_cd(noise, "fully_biased")
                silence = np.exp(-nu)
                assert abs(sharp.disturbance - silence * eta) <= 1e-12
                assert abs(sharp.correlation) <= 1e-12
                assert abs(biased.correlation - (silence * (2 - eta) - 1)) <= 1e-12
                assert abs(biased.disturbance) <= 1e-12
                assert sharp.correlation**2 + sharp.disturbance**2 <= 1 + 1e-12
                assert biased.correlation**2 + biased.disturbance**2 <= 1 + 1e-12

    def test_distributions_are_normalized(self):
        joint, alone = scenario_distributions(DetectorNoise(0.7, 0.1), "sharp")
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert alone.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_reference(self):
        with pytest.raises(InvalidMeasurementError):
            scenario_cd(DetectorNoise(0.9, 0.0), "diagonal")


class TestEstimateNoise:
    def test_ideal(self):
        noise = estimate_detector(1.0, 0.0)
        assert noise.eta == pytest.approx(1.0, abs=1e-15)
        assert noise.nu == pytest.approx(0.0, abs=1e-15)

    def test_forward_then_invert(self):
        truth = DetectorNoise(0.9, 0.05)
        d1 = scenario_cd(truth, "sharp").disturbance
        c2 = scenario_cd(truth, "fully_biased").correlation
        noise = estimate_detector(d1, c2)
        assert noise.eta == pytest.approx(0.9, abs=1e-10)
        assert noise.nu == pytest.approx(0.05, abs=1e-10)

    def test_half_disturbance_negative_correlation(self):
        noise = estimate_detector(0.5, -0.1)
        assert noise.eta == pytest.approx(1.0 / 1.4, abs=1e-12)
        assert noise.nu == pytest.approx(-np.log(0.7), abs=1e-12)

    def test_round_trip_grid(self):
        for eta in np.linspace(0.05, 1.0, 20):
            for nu in np.linspace(0.0, 0.5, 20):
                truth = DetectorNoise(eta, nu)
                d1 = scenario_cd(truth, "sharp").disturbance
                c2 = scenario_cd(truth, "fully_biased").correlation
                noise = estimate_detector(d1, c2)
                assert abs(noise.eta - eta) <= 1e-10
                assert abs(noise.nu - nu) <= 1e-10

    def test_out_of_domain_silence(self):
        with pytest.raises(OutOfDomainError):
            estimate_detector(0.5, 0.9)  # implied exp(-nu) = 1.2

    def test_out_of_domain_eta(self):
        with pytest.raises(OutOfDomainError):
            estimate_detector(0.9, -0.3)  # implied eta > 1

    def test_out_of_domain_total(self):
        with pytest.raises(OutOfDomainError):
            estimate_detector(0.1, -1.2)


class TestInputState:
    def test_diagonal_photon(self, monkeypatch):
        # the state that scenario_distributions passes to scenario_tables
        states = []

        def spy(rho, *args):
            states.append(rho)
            return scenario_tables(rho, *args)

        monkeypatch.setattr(detector_model, "scenario_tables", spy)
        for reference in ("sharp", "fully_biased"):
            scenario_distributions(DetectorNoise(0.7, 0.1), reference)
        for rho in states:
            assert not rho.flags.writeable  # one constant, shared by every call
            assert np.allclose(rho @ rho, rho, atol=1e-15)  # pure
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
            # no vacuum, equal H and V weight, real coherence between them
            assert np.allclose(rho.diagonal(), [0.0, 0.5, 0.5], atol=1e-15)
            assert rho[1, 2] == pytest.approx(0.5, abs=1e-15)
        assert len(states) == 2
