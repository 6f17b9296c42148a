import json
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from cdtradeoff import calibration
from cdtradeoff.calibration import (
    CdScan,
    estimate_detector,
    fit_circle_sharp_probe,
    fit_ellipse_known_theta,
    fit_ellipse_unknown_theta,
)
from cdtradeoff.cli import CSV_HEADER, main
from cdtradeoff.detector_model import DetectorNoise, scenario_cd, scenario_distributions
from cdtradeoff.errors import (
    FitError,
    InsufficientPointsError,
    InvalidMeasurementError,
    NotAnEllipseError,
    OutOfDomainError,
    RankDeficientError,
)
from cdtradeoff.qubit_model import QubitMeasurement, ellipse_character, plane_axis
from cdtradeoff.shot_sampler import estimate_cd, sample_distributions

from util import bootstrap_oracle, conic_row_oracle, forward_scan, philox, random_rotation

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


@pytest.fixture
def kept_counts(monkeypatch):
    """Bootstrap rows kept by each fit call, in call order."""
    counts = []
    original = calibration._bootstrap

    def spy(*args):
        rows = original(*args)
        counts.append(len(rows))
        return rows

    monkeypatch.setattr(calibration, "_bootstrap", spy)
    return counts


def resample_indices(n, n_bootstrap, seed):
    """The resample indices of the bootstrap oracle, one ``random(n)`` each."""
    rng = philox(seed)
    return [np.minimum((rng.random(n) * n).astype(np.int64), n - 1) for _ in range(n_bootstrap)]


def rounded_settings(thetas):
    """Distinct theta settings as the fits define them: rounded (cos, |sin|)."""
    return len(set(zip(np.round(np.cos(thetas), 12), np.round(np.abs(np.sin(thetas)), 12))))


class TestBlockFitBits:
    """Branches of the block fits: the known-theta setting ids against the
    one-resample-at-a-time bootstrap oracle, its per-scan weighting, and the
    per-resample solve after a singular resample fails a stack."""

    SEEDS = (0, 2**63 + 7)
    HALF_PI = np.pi / 2
    GRIDS = {
        "wrapped": [0.3, 0.3 + 2 * np.pi, 1.1, 1.1 + 2 * np.pi, 2.0, 2.0 + 2 * np.pi],
        "mirrored": [0.4, -0.4, 1.3, -1.3, 2.2, -2.2],
        # cos rounds to 0.0 at pi/2 and to -0.0 at 3 pi/2
        "signed_zero_cos": [HALF_PI, 3 * HALF_PI, 0.5, 0.5, 2.5, 3 * HALF_PI],
        # each pair lies closer than the rounding, but far enough apart that
        # least squares on two settings would still find full rank
        "below_rounding": [0.3, 0.3 + 1e-13, 1.2, 1.2 + 1e-13, 2.0, 2.0 + 1e-13],
    }

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("target_strength", [None, 0.85])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_known_theta_setting_ids(self, kept_counts, seed, target_strength, grid):
        thetas = np.array(self.GRIDS[grid])
        assert rounded_settings(thetas) == 3
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = noisy(forward_scan(probe, 0.85, 0.1, thetas), np.random.default_rng(4))
        fit = fit_ellipse_known_theta(scan, target_strength, bootstrap_seed=seed)
        kept = kept_counts[0]
        expected, expected_kept = bootstrap_oracle(
            fit_ellipse_known_theta, scan, tuple(fit.errors), 200, seed,
            target_strength=target_strength)
        assert kept == expected_kept < 200
        assert fit.errors == expected

    @pytest.mark.parametrize("grid", GRIDS)
    def test_known_theta_two_settings_rejected(self, grid):
        # the first four angles of each grid form two settings; interleaved
        thetas = np.array(self.GRIDS[grid])[[0, 2, 1, 3]]
        scan = CdScan(thetas, np.cos(thetas) + 0.1, np.abs(np.sin(thetas)))
        with pytest.raises(RankDeficientError, match="at least 3 distinct theta settings"):
            fit_ellipse_known_theta(scan, n_bootstrap=0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_known_theta_weighting_per_scan(self, kept_counts, seed):
        # two points without C errors: the C system of every resample is
        # unweighted, also of those that miss both points, as when the scan
        # carries no C error at all; D stays weighted
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = noisy(forward_scan(probe, 0.85, 0.1, THETAS_12), np.random.default_rng(5))
        c_err = scan.c_err.copy()
        c_err[[2, 7]] = 0.0
        mixed = CdScan(scan.theta, scan.c, scan.d, c_err, scan.d_err)
        assert any((c_err[idx] > 0).all() for idx in resample_indices(12, 200, seed))
        unweighted = CdScan(scan.theta, scan.c, scan.d, np.zeros(12), scan.d_err)
        fit = fit_ellipse_known_theta(mixed, bootstrap_seed=seed)
        assert kept_counts[0] == 200
        assert fit.errors == fit_ellipse_known_theta(unweighted, bootstrap_seed=seed).errors
        assert fit.errors != fit_ellipse_known_theta(scan, bootstrap_seed=seed).errors

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unknown_theta_singular_resample_in_a_block(self, kept_counts, seed):
        # two points at each end of the D = 0 axis, three above it: a
        # resample drawn from the four axis points alone has a singular
        # scatter matrix, and all 200 resamples of 7 points share one block
        t = np.array([0.0, 0.0, np.pi, np.pi, 1.0, 2.0, 2.6])
        c = 0.1 + 0.5 * np.cos(t) + 0.2 * np.abs(np.sin(t))
        d = 0.4 * np.abs(np.sin(t))
        c[2:4], d[:4] = -0.4, 0.0
        scan = CdScan(None, c, d)
        assert any((d[idx] == 0).all() for idx in resample_indices(7, 200, seed))
        fit = fit_ellipse_unknown_theta(scan, bootstrap_seed=seed)
        expected, kept = bootstrap_oracle(fit_ellipse_unknown_theta, scan, tuple(fit.errors),
                                          200, seed)
        assert kept_counts[0] == kept < 200
        assert len(fit.errors) == 4
        assert fit.errors == expected


@pytest.fixture
def singular_counts(monkeypatch):
    """Resamples whose conic ``s3`` is singular, one count per stacked
    solve, in call order."""
    counts = []

    def spy(*args, **kwargs):
        t = _umath_linalg.solve(*args, **kwargs)
        counts.append(int(np.isnan(t).all(axis=(1, 2)).sum()))
        return t

    monkeypatch.setattr(calibration, "_umath_linalg",
                        SimpleNamespace(solve=spy, lstsq=_umath_linalg.lstsq))
    return counts


class TestSingularMask:
    """The conic fit solves each group of resamples with one stacked call,
    drops the resamples whose ``s3`` is singular, and fits the rest with
    one ``eig``: the kept resamples and the errors of the one-resample
    oracle, on small scans whose bootstraps draw singular resamples."""

    PROBE = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
    GRIDS = {
        # points on the D = 0 axis at 0 and pi; the grid's mirrored angles
        # give the same point
        "zero_and_pi_6": np.linspace(0.0, 2 * np.pi, 6, endpoint=False),
        "zero_and_pi_8": np.linspace(0.0, 2 * np.pi, 8, endpoint=False),
        "repeated_7": np.array([0.0, 0.5, 0.5, 1.4, 2.3, 2.3, np.pi]),
        "repeated_9": np.array([0.2, 0.2, 0.2, 1.0, 1.9, 1.9, 2.7, np.pi, np.pi]),
    }

    def scan(self, grid, noise):
        """The unknown-theta scan of ``grid``; with ``noise``, each distinct
        point moves by one Gaussian draw, so repeated points stay repeated."""
        scan = forward_scan(self.PROBE, 0.85, 0.1, self.GRIDS[grid])
        if not noise:
            return CdScan(None, scan.c, scan.d)
        rng = np.random.default_rng(6)
        ids = np.unique(np.round(np.column_stack([scan.c, scan.d]), 12), axis=0,
                        return_inverse=True)[1]
        shift = rng.normal(0.0, 0.01, (ids.max() + 1, 2))[ids]
        errs = np.full(len(scan), 0.01)
        return CdScan(None, scan.c + shift[:, 0], scan.d + shift[:, 1], errs, errs)

    # seeds at which each bootstrap draws a resample with a singular s3
    @pytest.mark.parametrize("grid, noise, seed", [
        ("zero_and_pi_6", False, 0), ("zero_and_pi_6", False, 2**63 + 7),
        ("zero_and_pi_6", True, 7), ("zero_and_pi_6", True, 12345),
        ("zero_and_pi_8", False, 7), ("zero_and_pi_8", True, 0),
        ("zero_and_pi_8", True, 2**63 + 7),
        ("repeated_7", False, 12345), ("repeated_7", True, 11), ("repeated_7", True, 2**63 + 7),
        ("repeated_9", False, 11), ("repeated_9", True, 7), ("repeated_9", True, 12345),
    ])
    def test_small_scans_equal_the_oracle(self, kept_counts, singular_counts, grid, noise,
                                          seed):
        scan = self.scan(grid, noise)
        fit = fit_ellipse_unknown_theta(scan, bootstrap_seed=seed)
        # one solve of the full data, one of the bootstrap's single group
        full, group = singular_counts
        assert full == 0 < group
        expected, kept = bootstrap_oracle(fit_ellipse_unknown_theta, scan, tuple(fit.errors),
                                          200, seed)
        assert kept_counts[0] == kept <= 200 - group
        assert len(fit.errors) == 4
        assert fit.errors == expected

    def test_every_d_zero_is_degenerate(self, tmp_path):
        thetas = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        scan = CdScan(None, 0.1 + 0.5 * np.cos(thetas), np.zeros(8))
        with pytest.raises(NotAnEllipseError, match="^degenerate point configuration$"):
            fit_ellipse_unknown_theta(scan)
        scan_path, config = tmp_path / "flat.csv", tmp_path / "cal.json"
        scan_path.write_text(CSV_HEADER + "\n" + "".join(
            f"{t!r},{c!r},0,0,0,{c * c!r}\n" for t, c in zip(thetas.tolist(), scan.c.tolist())))
        config.write_text(json.dumps({"schema": 1, "mode": "calibrate", "scan_file": str(scan_path),
                                      "fit": "ellipse-unknown-theta"}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["--config", str(config), "--out", str(out)]) == 4
        assert not out.exists()

    # noisy scans near 1e77 whose full data fits, while some resamples of
    # their seed-7 bootstrap overflow the conic pencil or the scatter
    @pytest.mark.parametrize("n, scale, seed, overflow", [
        (6, 1.2e77, 2, "conic pencil"), (9, 1.3e77, 14, "conic pencil"),
        (6, 1.2e77, 0, "scatter"), (9, 1.2e77, 0, "scatter"),
    ])
    def test_overflowing_resamples_are_dropped(self, kept_counts, n, scale, seed, overflow):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        x = scale * (0.1 + 0.5 * np.cos(t) + 0.2 * np.abs(np.sin(t)) + rng.normal(0.0, 0.01, n))
        scan = CdScan(None, x, scale * (0.4 * np.abs(np.sin(t)) + rng.normal(0.0, 0.01, n)))
        fit = fit_ellipse_unknown_theta(scan, bootstrap_seed=7)
        expected, kept = bootstrap_oracle(fit_ellipse_unknown_theta, scan, tuple(fit.errors),
                                          200, 7)
        assert kept_counts[0] == kept
        assert len(fit.errors) == 4
        assert fit.errors == expected
        reasons = []
        for idx in resample_indices(n, 200, 7):
            try:
                fit_ellipse_unknown_theta(CdScan(None, scan.c[idx], scan.d[idx]), n_bootstrap=0)
            except OutOfDomainError as exc:
                reasons.append(str(exc))
            except FitError:
                pass
        assert any(reason.startswith(overflow) for reason in reasons)
        assert kept <= 200 - len(reasons)

    def test_solution_nan_in_part_is_out_of_domain(self, singular_counts):
        # a nonsingular s3 whose solution overflows to NaN in two entries:
        # its pencil is not finite, so the full data is masked out before
        # eig, and the point estimate raises with no resample left
        scan = CdScan(None, np.full(6, 1e58), [0.0, 1e-158, 0.0, 0.0, 2e-157, 0.0])
        with pytest.raises(OutOfDomainError, match="conic pencil"):
            fit_ellipse_unknown_theta(scan, n_bootstrap=0)
        assert singular_counts == [0]


def scatter_oracle(points, idxs):
    """Rows of S1, S2, S3 of each resample as three separate products."""
    sampled = np.take(points, idxs, 0)
    quadratic, linear = sampled[..., :3], sampled[..., 3:]
    products = (quadratic.transpose(0, 2, 1) @ quadratic, quadratic.transpose(0, 2, 1) @ linear,
                linear.transpose(0, 2, 1) @ linear)
    return np.concatenate(products, axis=1).reshape(len(idxs), 27)


class TestScatter:
    """The conic fit takes S1 and S3 from one Gram product of the six
    monomials: a sample of the block heights the bootstrap draws, and the
    full data, give the bits of the three separate products, a resample
    whose S1 overflows keeps it not finite, and the full data raises."""

    OVERFLOW = "scatter of the scan points overflows double precision"

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 7.0, 1e60, 1e76, 1e80, 1e150])
    @pytest.mark.parametrize("n", [6, 7, 16, 1024, 1100, 2500, 4096, 5000])
    def test_every_block_height_equals_three_products(self, n, scale):
        rng = np.random.default_rng(n)
        t = rng.uniform(0.0, 2 * np.pi, n)
        x = scale * (0.1 + 0.5 * np.cos(t) + 0.2 * np.abs(np.sin(t)) + rng.normal(0.0, 0.01, n))
        y = scale * (0.4 * np.abs(np.sin(t)) + rng.normal(0.0, 0.01, n))
        # the smallest and the largest height, the heights of a 200-resample
        # bootstrap's full blocks and tail, and three seeded heights between
        step = max(1, calibration._INDEX_BLOCK // n)
        heights = {1, step, min(step, 200), 200 % step or step, *rng.integers(1, step + 1, 3)}
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.column_stack([x * x, x * y, y * y, x, y, np.ones(n)])
            blocks = [np.arange(n)[None]] + [
                np.minimum((rng.random((height, n)) * n).astype(np.int64), n - 1)
                for height in sorted(heights)]
            for idxs in blocks:
                expected = scatter_oracle(points, idxs)
                got = calibration._scatter(points, idxs)
                finite = np.isfinite(expected[:, :9]).all(axis=1)
                assert np.array_equal(got[finite].view(np.uint64),
                                      expected[finite].view(np.uint64))
                assert not np.isfinite(got[~finite, :9]).all(axis=1).any()

    def test_overflowing_scatter_is_out_of_domain(self):
        # a circle of radius 1e80: the fourth powers in S1 overflow
        with pytest.raises(OutOfDomainError, match=self.OVERFLOW):
            fit_ellipse_unknown_theta(circle_scan(1e80), n_bootstrap=0)


class TestStackedLstsq:
    """The known-theta fit solves a block of resamples with one stacked
    ``gelsd`` call per arm: each resample gets the solution and rank of
    ``np.linalg.lstsq(..., rcond=None)`` on it alone, bit for bit."""

    # six points on three settings: many resamples hold fewer than three
    THETAS = np.repeat([0.3, 1.2, 2.0], 2)

    @staticmethod
    def system(arm, weighted):
        """(design, target, errs) of one arm of a noisy 6-point scan."""
        thetas = TestStackedLstsq.THETAS
        rng = np.random.default_rng(6)
        sin_t = np.abs(np.sin(thetas))
        if arm == "c":
            design = np.column_stack([np.ones(6), np.cos(thetas), sin_t])
            target = 0.1 + 0.5 * np.cos(thetas) + 0.2 * sin_t + rng.normal(0.0, 0.01, 6)
        else:
            design = sin_t[:, None]
            target = 0.4 * sin_t + rng.normal(0.0, 0.01, 6)
        errs = rng.uniform(0.005, 0.02, 6) if weighted else np.zeros(6)
        return design, target, errs

    @pytest.mark.parametrize("stack", [1, 16])
    @pytest.mark.parametrize("arm", ["c", "d"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_each_resample_equals_lstsq_alone(self, stack, arm, weighted):
        design, target, errs = self.system(arm, weighted)
        idxs = np.array(resample_indices(6, 16, 3))
        assert (np.array([rounded_settings(self.THETAS[idx]) for idx in idxs]) < 3).any()
        solve = calibration._lstsq(design, target, errs)
        if weighted:
            w = 1.0 / calibration._unit_scaled(errs)
            design, target = design * w[:, None], target * w
        blocks = [solve(idxs[i:i + stack]) for i in range(0, 16, stack)]
        solutions = np.concatenate([sol for sol, _ in blocks])
        ranks = np.concatenate([rank for _, rank in blocks])
        for idx, sol, rank in zip(idxs, solutions, ranks):
            expected, _, expected_rank, _ = np.linalg.lstsq(design[idx], target[idx], rcond=None)
            assert sol.tobytes() == expected.tobytes()
            assert rank == expected_rank
        if arm == "c":  # resamples on two settings are rank deficient
            assert 0 < (ranks < 3).sum() < 16

    def test_unconverged_solve_raises(self):
        design, target, _ = self.system("c", False)
        design[0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            calibration._lstsq(design, target, np.zeros(6))(np.arange(6)[None])

    def test_block_of_resamples_is_one_stacked_call_per_arm(self, monkeypatch):
        # 256 points: one stacked call per arm for each draw block of the
        # 200 resamples, and one for the full fit
        blocks = -(-200 // (calibration._INDEX_BLOCK // 256))
        calls = {"lstsq": 0, "gelsd": 0}
        lstsq, gufunc = np.linalg.lstsq, np.linalg._umath_linalg.lstsq

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", lstsq))
        monkeypatch.setattr(np.linalg._umath_linalg, "lstsq", counted("gelsd", gufunc))
        thetas = np.linspace(0.1, 2 * np.pi, 256, endpoint=False)
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = noisy(forward_scan(probe, 0.85, 0.1, thetas), np.random.default_rng(7))
        fit_ellipse_known_theta(scan, 0.85, n_bootstrap=200)
        assert calls == {"lstsq": 0, "gelsd": 2 * (blocks + 1)}


class TestBlockCuts:
    """Where the bootstrap cuts its draw blocks and groups changes no bit
    of a fit: every fit gives the same result at a block size of 4096, of
    8192 and of 3000 uniforms (not a power of two), with uneven tails."""

    @pytest.mark.parametrize("n", [256, 1025])
    def test_results_equal_at_every_block_size(self, monkeypatch, n):
        thetas = np.linspace(0.1, 2 * np.pi, n, endpoint=False)
        probe = QubitMeasurement(0.3, 0.55 * plane_axis(0.0))
        scan = noisy(forward_scan(probe, 0.85, 0.1, thetas), np.random.default_rng(8))
        unknown = CdScan(None, scan.c, scan.d, scan.c_err, scan.d_err)
        results = {}
        for block in (4096, 8192, 3000):
            monkeypatch.setattr(calibration, "_INDEX_BLOCK", block)
            results[block] = [repr(fit) for fit in (
                fit_circle_sharp_probe(scan, 200, 7),
                fit_ellipse_known_theta(scan, None, 200, 7),
                fit_ellipse_known_theta(scan, 0.85, 333, 2**63 + 7),
                fit_ellipse_unknown_theta(unknown, 200, 7))]
        assert results[4096] == results[8192] == results[3000]


class TestConicRows:
    """The conic decomposition of a group of resamples against the scalar
    one of each resample: the same rows, bit for bit, and the same
    resamples dropped."""

    @staticmethod
    def pencils(rng, count, kind):
        """``count`` pencils (t, m): random, symmetric (real eigenvalues),
        or from the scatter matrices of resampled noisy scan points."""
        t = rng.normal(size=(count, 3, 3))
        if kind == "scan":
            thetas = rng.uniform(0.0, 2 * np.pi, (count, 8))
            x = 0.1 + 0.6 * np.cos(thetas) + rng.normal(0.0, 0.2, thetas.shape)
            y = 0.5 * np.abs(np.sin(thetas)) + rng.normal(0.0, 0.2, thetas.shape)
            q = np.stack([x * x, x * y, y * y], axis=2)
            lin = np.stack([x, y, np.ones_like(x)], axis=2)
            s2, s3 = q.transpose(0, 2, 1) @ lin, lin.transpose(0, 2, 1) @ lin
            t = -np.linalg.solve(s3, s2.transpose(0, 2, 1))
            m = q.transpose(0, 2, 1) @ q + s2 @ t
            return t, np.stack([m[:, 2] / 2.0, -m[:, 1], m[:, 0] / 2.0], axis=1)
        m = rng.normal(size=(count, 3, 3))
        return t, m + m.transpose(0, 2, 1) if kind == "symmetric" else m

    @pytest.mark.parametrize("kind", ["random", "symmetric", "scan"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_the_scalar_decomposition(self, seed, kind):
        t, m = self.pencils(np.random.default_rng(seed), 400, kind)
        evals, evecs = np.linalg.eig(m)
        # a stack of real eigenvalues alone comes back as real arrays
        assert np.iscomplexobj(evals) == (kind == "random")
        with np.errstate(all="ignore"):
            expected = [conic_row_oracle(*p) for p in zip(t, evals, evecs)]
            rows = calibration._conic_rows(t, evals, evecs)
        kept = [row for row in expected if row is not None]
        assert len(kept) > (0 if kind == "scan" else 100)
        assert len(kept) < len(expected) or kind == "scan"
        assert np.array(kept).tobytes() == rows.tobytes()

    def test_random_pencils_reach_every_branch(self):
        # complex eigenvectors whose real parts pass the ellipse test,
        # pencils without an ellipse eigenvector, and ellipses whose squared
        # semi-axes are not both positive
        t, m = self.pencils(np.random.default_rng(0), 400, "random")
        evals, evecs = np.linalg.eig(m)
        vecs = evecs.real
        passes = 4.0 * vecs[:, 0] * vecs[:, 2] - vecs[:, 1] ** 2 > 0
        assert ((np.abs(evals.imag) > 1e-9) & passes).any()
        no_ellipse = ~((np.abs(evals.imag) <= 1e-9) & passes).any(axis=1)
        assert no_ellipse.any()
        with np.errstate(all="ignore"):
            dropped = [conic_row_oracle(*p) is None for p in zip(t, evals, evecs)]
        assert sum(dropped) > no_ellipse.sum()

    @pytest.mark.parametrize("last, message", [
        ("no_ellipse", "no ellipse solution in the conic pencil"),
        ("imaginary_axes", "conic does not decompose into real semi-axes"),
    ])
    def test_none_kept_names_the_last_resample(self, last, message):
        # the identity's eigenvectors are the unit vectors, none an ellipse;
        # the one ellipse eigenvector of the other pencil, (1, 0, 1), makes
        # the conic x^2 + y^2 + 1 = 0 through the row f of t: no real axes
        identity = np.eye(3)
        imaginary = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        m = np.stack([imaginary, identity] if last == "no_ellipse" else [identity, imaginary])
        t = np.zeros((2, 3, 3))
        t[:, 2, 0] = 1.0
        evals, evecs = np.linalg.eig(m)
        with np.errstate(all="ignore"):
            assert [conic_row_oracle(*p) for p in zip(t, evals, evecs)] == [None, None]
            with pytest.raises(NotAnEllipseError, match=message):
                calibration._conic_rows(t, evals, evecs)


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

    def test_two_settings_split_by_rounding_are_rank_deficient(self):
        # adjacent doubles whose (cos, |sin|) round to two 12-decimal
        # settings: three setting ids, but only two points of the design
        a, b = 1.0003592173943805, 1.0003592173943807
        assert b == np.nextafter(a, 2.0)
        thetas = np.array([0.3, 0.3, a, a, b, b])
        settings = np.round(np.column_stack([np.cos(thetas), np.abs(np.sin(thetas))]), 12)
        assert len(np.unique(settings, axis=0)) == 3
        scan = CdScan(thetas, 0.1 + 0.5 * np.cos(thetas), 0.4 * np.abs(np.sin(thetas)))
        with pytest.raises(RankDeficientError, match="theta grid"):
            fit_ellipse_known_theta(scan, n_bootstrap=0)

    def test_overflowing_weighted_system_is_out_of_domain(self):
        # the inverse errors reach 2 after scaling: C of 1.5e308 overflows
        scan = CdScan(THETAS_12, np.full(12, 1.5e308), np.zeros(12), np.ones(12), np.ones(12))
        with pytest.raises(OutOfDomainError, match="weighted"):
            fit_ellipse_known_theta(scan, n_bootstrap=0)

    @pytest.mark.parametrize("fit", [fit_circle_sharp_probe, fit_ellipse_known_theta])
    @pytest.mark.parametrize("exponent", [-600, -1030, -1070])
    def test_errors_weight_alike_at_any_power_of_two(self, fit, exponent):
        # the weights are invariant under a common power-of-two scale of the
        # errors, down to subnormal errors whose inverse squares overflow and
        # whose products with c and d would round
        thetas = np.linspace(0.1, 2 * np.pi, 12, endpoint=False)
        c = 0.1 + 0.5 * np.cos(thetas) + 0.2 * np.abs(np.sin(thetas))
        d = 0.4 * np.abs(np.sin(thetas))
        errs = 1.0 + np.arange(12) / 16  # exact at every scale tried
        results = [fit(CdScan(thetas, c, d, np.ldexp(errs, k), np.ldexp(errs, k)),
                       n_bootstrap=20) for k in (-4, exponent)]
        assert results[0] == results[1]

    @pytest.mark.parametrize("target_strength", [0.0, -1.0, 1.5, np.nan, np.inf])
    def test_target_strength_outside_unit_interval(self, target_strength):
        scan = forward_scan(QubitMeasurement(0.1, 0.7 * plane_axis(0.0)), 1.0, 0.0, THETAS_12)
        with pytest.raises(InvalidMeasurementError):
            fit_ellipse_known_theta(scan, target_strength, n_bootstrap=0)

    @pytest.mark.parametrize("target_strength", [1e-320, 1e-300])
    @pytest.mark.parametrize("n_bootstrap", [0, 50])
    def test_overflowing_separation_is_out_of_domain(self, target_strength, n_bootstrap):
        scan = forward_scan(QubitMeasurement(0.1, 0.7 * plane_axis(0.0)), 1.0, 0.0, THETAS_12,
                            shots=10_000)
        with pytest.raises(OutOfDomainError):
            fit_ellipse_known_theta(scan, target_strength, n_bootstrap=n_bootstrap)

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

    def test_cluster_below_rounding_has_no_real_semi_axes(self):
        # six points within 2e-8 of (1, 2): the centered constant term of
        # the conic is rounding noise, here of the sign of its quadratic
        # part (the message may differ with the LAPACK build)
        x = [0.9999999898651154, 0.9999999970021807, 1.0000000029668408,
             0.9999999880225066, 1.000000009961053, 0.9999999855780078]
        y = [2.000000001360324, 1.9999999911618398, 2.000000002133874,
             1.9999999798243102, 1.9999999902069667, 1.999999987509441]
        with pytest.raises(NotAnEllipseError):
            fit_ellipse_unknown_theta(CdScan(None, x, y), n_bootstrap=0)

    def test_overflowing_conic_pencil_is_out_of_domain(self):
        # a circle of radius 2.85e76 centered at twice its radius: the
        # scatter is finite, the reduced pencil overflows
        t = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        scan = CdScan(None, 2.85e76 * (2.0 + np.cos(t)), 2.85e76 * np.sin(t))
        with pytest.raises(OutOfDomainError, match="conic pencil"):
            fit_ellipse_unknown_theta(scan, n_bootstrap=0)

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
        est_s = estimate_cd(*sample_distributions(joint_s, alone_s, 1_000_000, 1_000_000, 70))
        est_b = estimate_cd(*sample_distributions(joint_b, alone_b, 1_000_000, 1_000_000, 71))
        est = estimate_detector(est_s.d_hat, est_b.c_hat, est_s.d_err, est_b.c_err)
        assert est.eta_err > 0 and est.nu_err > 0
        assert abs(est.noise.eta - 0.8) <= 3 * est.eta_err
        assert abs(est.noise.nu - 0.1) <= 3 * est.nu_err
