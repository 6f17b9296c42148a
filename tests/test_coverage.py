"""Coverage of the statistical outputs: seeded trials check that each
one-sigma error covers its true value about 68% of the time, and pin the
biases and the coverage that are known today."""

import math

import numpy as np
import pytest

from cdtradeoff import cli
from cdtradeoff.calibration import (
    CdScan,
    estimate_detector,
    fit_circle_sharp_probe,
    fit_ellipse_known_theta,
    fit_ellipse_unknown_theta,
)
from cdtradeoff.detector_model import DetectorNoise, scenario_distributions
from cdtradeoff.qubit_model import QubitMeasurement, ellipse_map, plane_axis
from cdtradeoff.shot_sampler import estimate_columns, sample_tables

from util import forward_scan

SHOTS = 1000
RECORDS = 20000  # per setting
# the probability that a normal estimate lies within one sigma of its mean,
# and a band of four binomial standard deviations around it
ONE_SIGMA = math.erf(1 / math.sqrt(2))
BAND = 4 * math.sqrt(ONE_SIGMA * (1 - ONE_SIGMA) / RECORDS)
# a joint table with C = 0.5 whose probe-on target distribution is (1/2, 1/2);
# the probe-off distribution (1/2 + D/2, 1/2 - D/2) sets the disturbance D
JOINT = np.array([[0.375, 0.125], [0.125, 0.375]])
C_TRUE = 0.5
D_TRUE = (0.0, 0.1, 0.5)


@pytest.fixture(scope="module")
def estimates():
    """(c, d, c_err, d_err) of RECORDS records for each D, from one
    ``sample_tables`` call: rows of shape (len(D_TRUE), RECORDS)."""
    alone = np.array([[0.5 + d / 2, 0.5 - d / 2] for d in D_TRUE])
    joint = np.broadcast_to(JOINT, (len(D_TRUE) * RECORDS, 2, 2))
    counts = sample_tables(joint, np.repeat(alone, RECORDS, axis=0), SHOTS, seed=2024)
    return estimate_columns(*counts).reshape(4, len(D_TRUE), RECORDS)


class TestPointEstimates:
    """``estimate_columns`` at 1e3 shots per arm."""

    @pytest.mark.parametrize("at", range(len(D_TRUE)), ids=[f"D={d}" for d in D_TRUE])
    def test_one_sigma_errors_cover(self, estimates, at):
        c, d, c_err, d_err = estimates[:, at]
        assert abs(np.mean(np.abs(c - C_TRUE) <= c_err) - ONE_SIGMA) <= BAND
        assert abs(np.mean(np.abs(d - D_TRUE[at]) <= d_err) - ONE_SIGMA) <= BAND

    def test_folded_disturbance_is_biased_up_at_zero(self, estimates):
        """d = 2 |p_alone - p_tilde| folds a mean-zero difference, so at
        D = 0 its mean is sigma_D sqrt(2 / pi), about +0.036, where sigma_D
        is 2 sqrt(2 p (1 - p) / shots) at p = 1/2; C is unbiased."""
        c, d, _, _ = estimates[:, 0]
        sigma_d = 2 * math.sqrt(2 * 0.25 / SHOTS)
        assert np.mean(d) == pytest.approx(sigma_d * math.sqrt(2 / math.pi), abs=1e-3)
        assert np.mean(d) == pytest.approx(0.036, abs=1e-3)
        assert abs(np.mean(c) - C_TRUE) <= 4 * np.std(c) / math.sqrt(RECORDS)
        # away from D = 0 the fold is rare and the mean is unbiased
        _, d_far, _, _ = estimates[:, 2]
        assert abs(np.mean(d_far) - D_TRUE[2]) <= 4 * np.std(d_far) / math.sqrt(RECORDS)


def coverage_band(coverage, trials):
    """Four binomial standard deviations of a coverage over ``trials``
    trials; a coverage of 0 or 1 is taken as one trial off, so that it
    keeps a band."""
    p = min(max(coverage, 1 / trials), 1 - 1 / trials)
    return 4 * math.sqrt(p * (1 - p) / trials)


def covered(estimate, error, truth):
    return abs(estimate - truth) <= error


# The fits' scans come from the CLI scan kernel (one ``sample_tables`` call
# per scan): 1e3 shots per arm over a full turn of the target angle, a
# target of strength 0.485 and the optimal state; trial k draws from the
# seed k << 32, so no two trials share a Philox stream, and resamples from
# the bootstrap seed k.
TARGET_STRENGTH = 0.485
SHARP_PROBE = {"gamma": 1.0}
NOISY_PROBE = {"gamma": 0.8, "bias": 0.1}
COMBOS = ("center_shift", "target_strength_product", "shear_strength", "squeeze_strength")
TRUE_COMBOS = dict(zip(COMBOS, ellipse_map(0.1, 0.8, 0.0, TARGET_STRENGTH)[4:]))


def scan(points, probe, trial):
    config = {"schema": 1, "mode": "scan", "shots": SHOTS, "seed": trial << 32, "probe": probe,
              "target": {"gamma": TARGET_STRENGTH, "theta_grid": {"points": points}}}
    theta, columns = cli._scan_rows(config, cli._parse(config))
    return CdScan(theta, *columns)


def combo_coverage(fit, points, trials):
    """Coverage of each strength combination by its bootstrap error."""
    hits = dict.fromkeys(COMBOS, 0)
    for trial in range(trials):
        result = fit(scan(points, NOISY_PROBE, trial), n_bootstrap=200, bootstrap_seed=trial)
        for name in COMBOS:
            hits[name] += covered(getattr(result, name), result.errors[name], TRUE_COMBOS[name])
    return {name: hits[name] / trials for name in COMBOS}


class TestFitCoverage:
    """Coverage of the fits' 1-sigma bootstrap errors at 1e3 shots, as it
    is today, pinned inside a binomial band."""

    @pytest.mark.parametrize("points, pinned", [(256, 0.47), (1024, 0.23)])
    def test_circle_fit_under_covers_as_points_grow(self, points, pinned):
        """The weights come from the observed c and d, which biases the
        strength low by a fixed amount per point while the error falls as
        1/sqrt(points) (0.47 over 500 trials at 256 points, 0.23 over 300
        at 1024)."""
        trials = 100
        hits = 0
        for trial in range(trials):
            fit = fit_circle_sharp_probe(scan(points, SHARP_PROBE, trial), 200, trial)
            hits += covered(fit.target_strength, fit.target_strength_err, TARGET_STRENGTH)
        assert abs(hits / trials - pinned) <= coverage_band(pinned, trials)

    def test_known_theta_fit_covers_at_64_points(self):
        """Each combination covers about nominally (0.64 to 0.71 over 400
        trials)."""
        trials = 100
        for name, coverage in combo_coverage(fit_ellipse_known_theta, 64, trials).items():
            assert abs(coverage - ONE_SIGMA) <= coverage_band(ONE_SIGMA, trials), name

    def test_unknown_theta_fit_never_covers_at_256_points(self):
        """The direct least-squares conic shrinks a noisy ellipse and
        ignores the point errors: its combinations miss their truth in
        every trial."""
        trials = 60
        coverage = combo_coverage(fit_ellipse_unknown_theta, 256, trials)
        for name in ("center_shift", "target_strength_product", "squeeze_strength"):
            assert coverage[name] <= coverage_band(0.0, trials), name


JITTER_POINTS = 256
JITTER_TRIALS = 40
JITTER_SIGMAS = (0.0, 0.05, 0.1)


@pytest.fixture(scope="module")
def jittered_fits():
    """{sigma: (known-theta hits, unknown-theta z)} over
    JITTER_TRIALS scans of JITTER_POINTS points at 1e3 shots, each point
    measured at its grid angle plus N(0, sigma^2) while the scan records the
    grid angle; hits and z are (trials, combinations) arrays, z the error of
    a combination in units of its bootstrap error (100 resamples).  Trial t
    draws its jitter from ``default_rng(1000 + t)``, its shots from the seed
    t << 32 and its resamples from the bootstrap seed t, so the jitter is
    the only difference between the rows of one trial.  The scans are built
    as the CLI scan kernel builds a slice (``util.forward_scan``)."""
    probe = QubitMeasurement(0.1, 0.8 * plane_axis(0.0))
    grid = np.linspace(0.0, 2 * np.pi, JITTER_POINTS, endpoint=False)
    rows = {}
    for sigma in JITTER_SIGMAS:
        hits, z_unknown = [], []
        for trial in range(JITTER_TRIALS):
            angles = grid + np.random.default_rng(1000 + trial).normal(0.0, sigma, JITTER_POINTS)
            measured = forward_scan(probe, TARGET_STRENGTH, 0.0, angles, SHOTS, trial << 32)
            columns = (measured.c, measured.d, measured.c_err, measured.d_err)
            known = fit_ellipse_known_theta(CdScan(grid, *columns), None, 100, trial)
            unknown = fit_ellipse_unknown_theta(CdScan(None, *columns), 100, trial)
            hits.append([covered(getattr(known, name), known.errors[name], TRUE_COMBOS[name])
                         for name in COMBOS])
            z_unknown.append([(getattr(unknown, name) - TRUE_COMBOS[name]) / unknown.errors[name]
                              for name in COMBOS])
        rows[sigma] = np.array(hits), np.array(z_unknown)
    return rows


class TestAngleJitter:
    """Fits of scans whose recorded angles are off by per-point unitary
    noise: the known-theta fit erodes, the unknown-theta fit does not move
    (it reads no angle), as the tradeoff's covariance says."""

    # measured coverage of center shift, strength product, shear and
    # squeeze strength over the 40 trials
    @pytest.mark.parametrize("sigma, pinned", [
        (0.05, (0.600, 0.700, 0.525, 0.675)),
        (0.1, (0.625, 0.600, 0.450, 0.625)),
    ])
    def test_known_theta_coverage_erodes(self, jittered_fits, sigma, pinned):
        """Each combination's coverage, pinned in its binomial band: 0.53
        to 0.70 at sigma 0.05 and 0.45 to 0.62 at sigma 0.1, from 0.57 to
        0.78 at sigma 0."""
        coverage = jittered_fits[sigma][0].mean(axis=0)
        for name, got, expected in zip(COMBOS, coverage, pinned):
            assert abs(got - expected) <= coverage_band(expected, JITTER_TRIALS), name

    @pytest.mark.parametrize("sigma", JITTER_SIGMAS[1:])
    def test_unknown_theta_mean_z_does_not_move(self, jittered_fits, sigma):
        """The same scans with and without jitter give each combination a
        mean z within four standard errors of its paired difference (it
        moves by at most 0.13 here), while the fit's bias keeps every
        mean z beyond 4 (center +5.8, product -6.1, shear -4.5, squeeze
        -13.9)."""
        z_still, z_moved = jittered_fits[0.0][1], jittered_fits[sigma][1]
        shift = z_moved - z_still
        bound = 4 * shift.std(axis=0, ddof=1) / math.sqrt(JITTER_TRIALS)
        assert np.all(np.abs(shift.mean(axis=0)) <= bound)
        assert np.all(np.abs(z_moved.mean(axis=0)) > 4)


class TestDetectorCoverage:
    def test_delta_method_errors_cover_at_1e4_shots(self):
        """The propagated errors of eta and nu cover nominally: readings of
        the sharp and the fully biased setting from 1e4 shots per arm, one
        ``sample_tables`` call over every trial."""
        trials, shots = 4000, 10**4
        noise = DetectorNoise(0.7, 0.05)
        joint, alone = (np.tile(np.stack(tables), (trials,) + (1,) * tables[0].ndim)
                        for tables in zip(*(scenario_distributions(noise, reference)
                                            for reference in ("sharp", "fully_biased"))))
        c, d, c_err, d_err = estimate_columns(*sample_tables(joint, alone, shots, seed=7))
        hits = np.zeros(2)
        for k in range(0, 2 * trials, 2):  # point k is sharp, k + 1 fully biased
            estimate = estimate_detector(d[k], c[k + 1], d_err[k], c_err[k + 1])
            hits += (covered(estimate.eta, estimate.eta_err, noise.eta),
                     covered(estimate.nu, estimate.nu_err, noise.nu))
        assert np.all(np.abs(hits / trials - ONE_SIGMA) <= coverage_band(ONE_SIGMA, trials))
