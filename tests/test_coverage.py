"""Coverage of the statistical outputs: seeded trials check that each
one-sigma error covers its true value about 68% of the time, and pin the
biases that are known today."""

import math

import numpy as np
import pytest

from cdtradeoff.shot_sampler import estimate_columns, sample_tables

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
