import hashlib
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdtradeoff import calibration, shot_sampler
from cdtradeoff.calibration import (
    fit_circle_sharp_probe,
    fit_ellipse_known_theta,
    fit_ellipse_unknown_theta,
)
from cdtradeoff.cd_measures import cd_from_scenario
from cdtradeoff.errors import (
    EmptyRecordError,
    InvalidSeedError,
    InvalidShotsError,
    LabelMismatchError,
    NonQubitError,
    NotDichotomicError,
    NotNormalizedError,
)
from cdtradeoff.quantum_core import DensityMatrix, LuedersInstrument, Povm, index_base
from cdtradeoff.qubit_model import (
    InstrumentPolicy,
    QubitMeasurement,
    ellipse_character,
    optimal_state,
    plane_axis,
    state_from_bloch,
)
from cdtradeoff.shot_sampler import (
    _BLOCK,
    _stream,
    _thresholds,
    estimate_cd,
    estimate_columns,
    sample,
    sample_distributions,
    sample_tables,
)

from util import (
    apply_instrument,
    categorical_oracle,
    dichotomic_estimate_oracle,
    forward_scan,
    forward_scan_oracle,
    philox,
    random_rotation,
    scenario,
)


def sharp(theta):
    return QubitMeasurement(0.0, plane_axis(theta))


def sharp_scenario(theta_a, theta_b, gamma_b=1.0):
    probe = sharp(theta_a)
    target = QubitMeasurement(0.0, gamma_b * plane_axis(theta_b))
    return scenario(optimal_state(probe, target), probe, target)


class TestSample:
    def test_deterministic_given_seed(self):
        args = sharp_scenario(0.0, np.pi / 3)
        jc1, ac1 = sample(*args, 5000, 5000, seed=42)
        jc2, ac2 = sample(*args, 5000, 5000, seed=42)
        assert np.array_equal(jc1, jc2)
        assert np.array_equal(ac1, ac2)
        jc3, _ = sample(*args, 5000, 5000, seed=43)
        assert not np.array_equal(jc1, jc3)

    def test_certain_outcome(self):
        z = QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0]))
        jc, ac = sample(
            *scenario(DensityMatrix.from_ket([1.0, 0.0]), z, z), 1000, 1000, seed=0
        )
        assert jc[0, 0] == 1000
        assert ac[0] == 1000

    def test_uniform_joint_within_multinomial_bounds(self):
        args = sharp_scenario(0.0, np.pi / 2)  # all four cells are 1/4
        jc, _ = sample(*args, 1_000_000, 1_000_000, seed=11)
        sigma = np.sqrt(1_000_000 * 0.25 * 0.75)
        assert np.abs(jc - 250_000).max() <= 5 * sigma

    @pytest.mark.parametrize("shots_joint, shots_alone", [
        (0, 100), (1000.0, 100), (100, 2.0), (True, 100), (100, np.True_), (100, "100"),
    ])
    def test_invalid_shots(self, shots_joint, shots_alone):
        with pytest.raises(InvalidShotsError):
            sample(*sharp_scenario(0.0, 1.0), shots_joint, shots_alone, seed=1)

    def test_label_order_must_match(self):
        probe = sharp(0.0)
        flipped = QubitMeasurement(0.0, plane_axis(1.0)).to_povm()
        flipped = type(flipped)(
            flipped.matrices[::-1], (-1.0, 1.0)
        )
        with pytest.raises(LabelMismatchError):
            sample(
                state_from_bloch([0.0, 0.0, 1.0]),
                LuedersInstrument(probe.to_povm()),
                flipped,
                100,
                100,
                seed=1,
            )


class TestEstimateCd:
    def test_perfect_correlation_counts(self):
        est = estimate_cd(np.array([[500, 0], [0, 500]]), np.array([500, 500]))
        assert est.c_hat == pytest.approx(1.0)
        assert est.d_hat == pytest.approx(0.0)

    def test_uniform_counts_maximal_disturbance(self):
        est = estimate_cd(np.array([[250, 250], [250, 250]]), np.array([1000, 0]))
        assert est.c_hat == pytest.approx(0.0)
        assert est.d_hat == pytest.approx(1.0)

    def test_million_shot_sharp_pair(self):
        args = sharp_scenario(0.0, np.pi / 3)
        exact = cd_from_scenario(*args)
        est = estimate_cd(*sample(*args, 1_000_000, 1_000_000, seed=3))
        assert abs(est.c_hat - exact.correlation) <= 5 * est.c_err
        assert abs(est.d_hat - exact.disturbance) <= 5 * est.d_err

    def test_errors_shrink_like_root_n(self):
        args = sharp_scenario(0.0, np.pi / 3)
        small = estimate_cd(*sample(*args, 10_000, 10_000, seed=5))
        large = estimate_cd(*sample(*args, 1_000_000, 1_000_000, seed=5))
        assert small.c_err / large.c_err == pytest.approx(10.0, rel=0.2)
        assert small.d_err / large.d_err == pytest.approx(10.0, rel=0.2)

    def test_empty_record(self):
        with pytest.raises(EmptyRecordError):
            estimate_cd(np.zeros((2, 2), int), np.zeros(2, int))

    def test_consistency_over_repetitions(self):
        args = sharp_scenario(0.0, 1.0, gamma_b=0.7)
        exact = cd_from_scenario(*args)
        hits = 0
        for rep in range(100):
            est = estimate_cd(*sample(*args, 1_000_000, 1_000_000, seed=1000 + rep))
            if (
                abs(est.c_hat - exact.correlation) <= 5 * est.c_err
                and abs(est.d_hat - exact.disturbance) <= 5 * est.d_err
            ):
                hits += 1
        assert hits >= 99

    def test_sample_distributions_entry_point(self):
        jc, _ = sample_distributions(
            np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([0.5, 0.5]), 10_000, 10_000, 7
        )
        assert jc[0, 1] == 0
        assert jc.sum() == 10_000


def post_state(policy, probe, rho, outcome):
    """Normalized post-measurement state of the policy's instrument for one
    probe outcome (index 0 carries label +1, index 1 label -1)."""
    sub, prob = apply_instrument(policy.instrument(probe.to_povm()), rho, outcome)
    return DensityMatrix(sub / prob)


def policy_value(args, policy):
    rho, inst, povm_b = args
    return cd_from_scenario(rho, policy.instrument(inst.povm), povm_b)


class TestPolicies:
    def test_lueders_sharp_probe_reprepares_eigenstate(self):
        probe = sharp(0.0)
        rho = state_from_bloch([0.0, 0.0, 1.0])
        for outcome in (0, 1):
            lueders = post_state(InstrumentPolicy.LUEDERS, probe, rho, outcome)
            eigen = post_state(InstrumentPolicy.EIGENSTATE, probe, rho, outcome)
            assert_allclose(lueders.matrix, eigen.matrix, atol=1e-12)

    def test_mixed_policy_bloch_vector(self):
        probe = QubitMeasurement(0.0, np.array([0.5, 0.0, 0.0]))
        rho = state_from_bloch([0.0, 0.0, 1.0])
        out = post_state(InstrumentPolicy.MIXED, probe, rho, 0)
        assert_allclose(out.matrix, (np.eye(2) + 0.5 * np.array([[0, 1], [1, 0]])) / 2,
                        atol=1e-12)
        out_minus = post_state(InstrumentPolicy.MIXED, probe, rho, 1)
        x = np.trace(out_minus.matrix @ np.array([[0, 1], [1, 0]])).real
        assert x == pytest.approx(-0.5, abs=1e-12)

    def test_non_qubit_rejected(self):
        qutrit = Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        with pytest.raises(NonQubitError):
            InstrumentPolicy.EIGENSTATE.instrument(qutrit)

    def test_lueders_policy_matches_plain_scenario(self):
        args = sharp_scenario(0.3, 1.2, gamma_b=0.6)
        exact = cd_from_scenario(*args)
        via_policy = policy_value(args, InstrumentPolicy.LUEDERS)
        assert via_policy.correlation == pytest.approx(exact.correlation, abs=1e-12)
        assert via_policy.disturbance == pytest.approx(exact.disturbance, abs=1e-12)

    def test_lueders_disturbs_less_than_eigenstate_repreparation(self):
        target = sharp(np.pi / 2)
        for gamma in (0.25, 0.5, 0.75):
            probe = QubitMeasurement(0.0, np.array([gamma, 0.0, 0.0]))
            args = scenario(optimal_state(probe, target), probe, target)
            d_lueders = policy_value(args, InstrumentPolicy.LUEDERS).disturbance
            d_eigen = policy_value(args, InstrumentPolicy.EIGENSTATE).disturbance
            squeeze = ellipse_character(probe).squeeze
            assert d_lueders == pytest.approx(squeeze, abs=1e-9)
            assert d_lueders < d_eigen

    def test_lueders_half_strength_quadrature_value(self):
        probe = QubitMeasurement(0.0, np.array([0.5, 0.0, 0.0]))
        target = sharp(np.pi / 2)
        args = scenario(optimal_state(probe, target), probe, target)
        d = policy_value(args, InstrumentPolicy.LUEDERS).disturbance
        assert d == pytest.approx(1.0 - np.sqrt(0.75), abs=1e-9)

    def test_policy_sampling_deterministic(self):
        probe = QubitMeasurement(0.0, np.array([0.5, 0.0, 0.0]))
        target = sharp(np.pi / 2)
        rho = optimal_state(probe, target)
        mixed = InstrumentPolicy.MIXED.instrument(probe.to_povm())
        jc1, _ = sample(rho, mixed, target.to_povm(), 2000, 2000, seed=9)
        jc2, _ = sample(rho, mixed, target.to_povm(), 2000, 2000, seed=9)
        assert np.array_equal(jc1, jc2)


ORACLE_TABLES = {
    "uniform": [0.25, 0.25, 0.25, 0.25],
    "certain": [0.0, 0.0, 1.0, 0.0],
    "zero_cells": [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],
    "clipped_negative": [0.5, -1e-17, 0.25, 0.25],
    "cumsum_below_one": [0.1] * 10,  # normalized cumsum ends at 1 - 2**-53
    "random_2x2": [0.8006520409183475, 0.19934795908165262, 0.0, 0.0],
    "random_3x3": list(np.random.default_rng(5).dirichlet(np.ones(9))),
}
ORACLE_SHOTS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)


class TestCategoricalOracle:
    """The blocked edge-counting sampler reproduces the full-array
    searchsorted sampler bit for bit and leaves the stream at the same
    position."""

    @pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
    def test_counts_equal_searchsorted(self, name):
        # one record of ``shots`` draws on the joint arm and one on the alone
        # arm: the alone draw checks the position the joint arm left behind
        probs = np.reshape(ORACLE_TABLES[name], (1, -1))
        for shots in ORACLE_SHOTS:
            for seed in range(50):
                counts, after = sample_tables(probs, probs, shots, seed, shots_alone=1)
                rng_oracle = philox(seed)
                expected = categorical_oracle(rng_oracle, probs, shots)
                assert np.array_equal(counts[0], expected), (shots, seed)
                assert counts.dtype == np.int64
                assert np.array_equal(after[0], categorical_oracle(rng_oracle, probs, 1))

    def test_sample_distributions_draws_joint_then_alone(self):
        joint = np.array([[0.4, 0.1], [0.15, 0.35]])
        alone = np.array([0.55, 0.45])
        for seed in range(5):
            jc, ac = sample_distributions(joint, alone, _BLOCK + 1, 3 * _BLOCK + 5, seed)
            rng = philox(seed)
            assert np.array_equal(jc, categorical_oracle(rng, joint, _BLOCK + 1).reshape(2, 2))
            assert np.array_equal(ac, categorical_oracle(rng, alone, 3 * _BLOCK + 5))

    @pytest.mark.parametrize(
        "joint, alone",
        [
            ([[np.nan, 0.5], [0.25, 0.25]], [0.5, 0.5]),
            ([[np.inf, 0.0], [0.0, 0.0]], [0.5, 0.5]),
            ([[-np.inf, 0.5], [0.25, 0.25]], [0.5, 0.5]),
            ([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5]),
            ([[0.5, 0.0], [0.0, 0.5]], [-0.5, 0.0]),
        ],
        ids=["nan", "inf", "minus_inf", "all_zero", "alone_not_positive"],
    )
    def test_bad_probabilities_raise(self, joint, alone):
        with pytest.raises(NotNormalizedError):
            sample_distributions(joint, alone, 100, 100, seed=1)

    def test_memory_bounded_by_block(self):
        joint = np.full((2, 2), 0.25)
        alone = np.array([0.5, 0.5])
        tracemalloc.start()
        try:
            _, ac = sample_distributions(joint, alone, 10**7, 10**7, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ac.sum() == 10**7
        assert peak <= 4 * _BLOCK * np.dtype(float).itemsize


# Joint (2, 2) and alone (2,) tables of a stack, covering zero cells,
# clipped negatives, subnormal cells and edges that reach 1 before the last
# cell (every draw then lands at or before that cell).
STACK_ROWS = [
    ([[0.4, 0.1], [0.15, 0.35]], [0.55, 0.45]),
    ([[0.0, 0.0], [0.0, 1.0]], [1.0, 0.0]),
    ([[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]),
    ([[0.5, 0.5], [0.0, 0.0]], [0.3, 0.7]),
    ([[0.5, -1e-17], [0.25, 0.25]], [0.5, -1e-300]),
    ([[5e-324, 0.0], [0.3, 0.7]], [5e-324, 1.0]),
    ([[0.1, 0.1], [0.1, 0.7]], [0.9, 0.1]),
    ([[0.8006520409183475, 0.19934795908165262], [0.0, 0.0]], [0.25, 0.75]),
]
STACK_JOINT = np.array([joint for joint, _ in STACK_ROWS])
STACK_ALONE = np.array([alone for _, alone in STACK_ROWS])


# Three-outcome tables (joint 3x3, alone 3): inner edges at 0 (leading zero
# cells) and at 1 (trailing zero cells), a certain outcome, a cumulative
# sum that ends below 1, then random rows; 75 points in all.
_three = np.random.default_rng(11)
THREE_ROWS = [
    ([0.0, 0.0, 0.2, 0.1, 0.3, 0.4, 0.0, 0.0, 0.0], [0.0, 0.6, 0.4]),
    ([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    ([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.1] * 9, [0.2, 0.3, 0.5]),
] + list(zip(_three.dirichlet(np.ones(9), 71).tolist(), _three.dirichlet(np.ones(3), 71).tolist()))
THREE_JOINT = np.array([joint for joint, _ in THREE_ROWS]).reshape(-1, 3, 3)
THREE_ALONE = np.array([alone for _, alone in THREE_ROWS])
# (shots, shots_alone) on both sides of the chunk path, whose records hold
# at most _BLOCK words over both arms: chunks of 32, 28, 16 and 2 points
# with a partial last chunk, records of exactly _BLOCK words, and records
# of _BLOCK + 1 words (counted a block at a time); alone arms shorter and
# longer than the joint arm.
CHUNK_SHOTS = [
    (1000, 1000), (300, 2000), (4000, 7), (_BLOCK // 4, _BLOCK // 4),
    (_BLOCK - 9, 9), (9, _BLOCK - 9), (_BLOCK // 2, _BLOCK // 2 + 1), (5, _BLOCK - 4),
]

# Explicit decimal tables whose counts are pinned by SHA-256, for shot pairs
# on the chunk path (one chunk; chunks of two points) and on the block path.
# Each digest hashes the little-endian int64 joint and alone counts of
# seeds 7, 2026 and 2**64 - 1 in turn (first = 3), so it changes with the
# draw order or the word test on any platform.
PIN_JOINT = [
    [[0.4, 0.1], [0.15, 0.35]],
    [[0.0, 0.25], [0.75, 0.0]],
    [[0.3, 0.2], [0.2, 0.3]],
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.05, 0.45], [0.45, 0.05]],
]
PIN_ALONE = [[0.55, 0.45], [0.2, 0.8], [0.5, 0.5], [0.0, 1.0], [0.9, 0.1]]
PIN_SHA256 = {
    (1000, 1000): "980a1cc362b25e439ccaf47cc310eed30ec6d3fb0041ec0b3f6633f799304877",
    (30000, 300): "f60474605f0a375994545c7e6ef96724481bb05b9299fdae7a0aaa2e2e7368ed",
    (40000, 40000): "adb3d0a42c87c3f89605125f887fb2ca79d66bd357bf810f3153aae69bef13f4",
}


class TestSampleTablesOracle:
    """The batched kernel against per-point draws of the searchsorted
    oracle on fresh Philox streams, and the stacked estimator against a
    Python-float oracle, bit for bit."""

    @pytest.mark.parametrize("shots", ORACLE_SHOTS)
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 5])
    def test_counts_equal_per_point_oracle(self, shots, seed, first):
        jc, ac = sample_tables(STACK_JOINT, STACK_ALONE, shots, seed, first)
        assert jc.shape == STACK_JOINT.shape and ac.shape == STACK_ALONE.shape
        assert jc.dtype == ac.dtype == np.int64
        for i, (joint, alone) in enumerate(STACK_ROWS):
            rng = philox(seed ^ (first + i))
            assert np.array_equal(jc[i].ravel(), categorical_oracle(rng, joint, shots)), i
            assert np.array_equal(ac[i], categorical_oracle(rng, alone, shots)), i

    @pytest.mark.parametrize("shots, shots_alone", CHUNK_SHOTS)
    def test_chunks_equal_per_point_oracle(self, shots, shots_alone):
        # five points of the large records keep the oracle quick
        points = len(THREE_ROWS) if shots + shots_alone <= 4096 else 5
        seed, first = 2**127 + 12345, 2**63 - 2
        jc, ac = sample_tables(THREE_JOINT[:points], THREE_ALONE[:points], shots, seed, first,
                               shots_alone)
        assert jc.shape == (points, 3, 3) and ac.shape == (points, 3)
        for i in range(points):
            rng = philox(seed ^ (first + i))
            assert np.array_equal(jc[i].ravel(), categorical_oracle(rng, THREE_JOINT[i], shots)), i
            assert np.array_equal(ac[i], categorical_oracle(rng, THREE_ALONE[i], shots_alone)), i

    @pytest.mark.parametrize("shots, shots_alone", sorted(PIN_SHA256))
    def test_counts_pinned_across_commits(self, shots, shots_alone):
        digest = hashlib.sha256()
        for seed in (7, 2026, 2**64 - 1):
            for counts in sample_tables(PIN_JOINT, PIN_ALONE, shots, seed, 3, shots_alone):
                digest.update(counts.astype("<i8").tobytes())
        assert digest.hexdigest() == PIN_SHA256[shots, shots_alone]

    def test_chunk_memory_bounded_by_block(self):
        joint = np.full((4096, 2, 2), 0.25)
        alone = np.full((4096, 2), 0.5)
        sample_tables(joint[:1], alone[:1], 1000, seed=3)  # lazy imports and caches
        tracemalloc.start()
        try:
            jc, ac = sample_tables(joint, alone, 1000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (jc.sum(axis=(1, 2)) == 1000).all() and (ac.sum(axis=1) == 1000).all()
        assert peak <= 2 * _BLOCK * np.dtype(np.uint64).itemsize + jc.nbytes + ac.nbytes

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_estimates_equal_oracle(self, seed):
        jc, ac = sample_tables(STACK_JOINT, STACK_ALONE, 1000, seed)
        columns = estimate_columns(jc, ac)
        assert columns.shape == (4, len(STACK_ROWS))
        for i in range(len(STACK_ROWS)):
            assert columns[:, i].tolist() == list(dichotomic_estimate_oracle(jc[i], ac[i])), i
            est = estimate_cd(jc[i], ac[i])
            assert [est.c_hat, est.d_hat, est.c_err, est.d_err] == columns[:, i].tolist()

    def test_estimates_on_random_counts(self):
        rng = np.random.default_rng(3)
        jc = rng.integers(0, 40, size=(500, 2, 2))
        ac = rng.integers(0, 40, size=(500, 2))
        jc[:, 0, 0] += 1
        ac[:, 1] += 1
        columns = estimate_columns(jc, ac)
        for i in range(len(jc)):
            assert columns[:, i].tolist() == list(dichotomic_estimate_oracle(jc[i], ac[i])), i
        # whole float counts estimate as their integers do
        assert columns.tobytes() == estimate_columns(jc.astype(float), ac.astype(float)).tobytes()

    def test_one_point_case_is_sample_distributions(self):
        joint, alone = STACK_ROWS[0]
        one_jc, one_ac = sample_distributions(joint, alone, 300, 700, 9 ^ 3)
        jc, ac = sample_tables(STACK_JOINT, STACK_ALONE, 300, 9, first=3, shots_alone=700)
        assert one_jc.shape == (2, 2) and one_ac.shape == (2,)
        assert np.array_equal(one_jc, jc[0])
        assert np.array_equal(one_ac, ac[0])

    def test_empty_stack(self):
        jc, ac = sample_tables(np.zeros((0, 2, 2)), np.zeros((0, 2)), 10, 1)
        assert jc.shape == (0, 2, 2) and ac.shape == (0, 2)
        assert estimate_columns(jc, ac).shape == (4, 0)

    @pytest.mark.parametrize(
        "arm, row, value",
        [("joint", 3, np.nan), ("joint", 6, -np.inf), ("alone", 2, np.inf), ("alone", 7, 0.0)],
    )
    def test_first_bad_point_is_named(self, arm, row, value):
        joint, alone = STACK_JOINT.copy(), STACK_ALONE.copy()
        table = joint if arm == "joint" else alone
        table[row] = value
        if row > 4:  # an earlier bad row in the other arm is named instead
            (alone if arm == "joint" else joint)[4] = -1.0
            row = 4
        with pytest.raises(NotNormalizedError, match=f"at index {10 + row}$"):
            sample_tables(joint, alone, 100, 1, first=10)

    @pytest.mark.parametrize("seed, first", [(-1, 0), (2**128, 0), (3, -1), (3, 2**64),
                                             (1.5, 0), (7.0, 0), (3, 0.5), ("3", 0)])
    def test_seed_out_of_range(self, seed, first):
        with pytest.raises(InvalidSeedError):
            sample_tables(STACK_JOINT, STACK_ALONE, 10, seed, first)

    @pytest.mark.parametrize("joint, alone", [(np.zeros((3, 2, 2)), np.zeros((2, 2))),
                                              (np.zeros((2, 2)), np.zeros(2))],
                             ids=["lengths", "not_stacks"])
    def test_table_stacks_must_pair_up(self, joint, alone):
        with pytest.raises(LabelMismatchError, match="equal length"):
            sample_tables(joint, alone, 10, 1)

    def test_record_estimate_needs_a_dichotomic_record(self):
        with pytest.raises(NotDichotomicError):
            estimate_cd(np.full((3, 3), 10), np.full(3, 30))

    def test_estimator_rejects_empty_and_non_dichotomic_records(self):
        jc = np.full((3, 2, 2), 5)
        ac = np.full((3, 2), 5)
        ac[1] = 0
        with pytest.raises(EmptyRecordError):
            estimate_columns(jc, ac)
        with pytest.raises(LabelMismatchError):
            estimate_columns(np.ones((3, 3, 3)), np.ones((3, 3)))
        # negative, fractional, non-finite and inexact counts: the first bad
        # record is named, in a stack, in a CLI slice and on its own
        for arm, value in [("joint", -1), ("alone", -1), ("joint", 2.7), ("alone", 0.5),
                           ("joint", np.nan), ("alone", np.inf), ("joint", -np.inf),
                           ("joint", 1e30), ("alone", 2.0**53)]:
            jc = np.full((4, 2, 2), 5, dtype=type(value))
            ac = np.full((4, 2), 5, dtype=type(value))
            (jc[2, 1] if arm == "joint" else ac[2])[0] = value
            jc[3, 0, 0] = ac[3, 1] = -2
            with pytest.raises(InvalidShotsError, match="at index 2$"):
                estimate_columns(jc, ac)
            with index_base(10), pytest.raises(InvalidShotsError, match="at index 12$"):
                estimate_columns(jc, ac)
            with pytest.raises(InvalidShotsError, match="at index 0$"):
                estimate_cd(jc[2], ac[2])


def assert_oracle_counts(joint, alone, shots, shots_alone, seed, first=0):
    """``sample_tables`` counts each point as the searchsorted oracle does on
    the fresh stream of the point, joint arm first; returns the counts."""
    jc, ac = sample_tables(joint, alone, shots, seed, first, shots_alone)
    for i in range(len(jc)):
        rng = philox(seed ^ (first + i))
        assert np.array_equal(jc[i].ravel(), categorical_oracle(rng, joint[i], shots)), i
        assert np.array_equal(ac[i], categorical_oracle(rng, alone[i], shots_alone)), i
    return jc, ac


# Rows with zero cells before, between and after the drawn ones: the edges
# of trailing zero cells lie at 1, above every uniform, so an arm counts
# every word against them.
ZERO_ROWS = [
    ([0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0], [0.0, 0.5, 0.5]),
    ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.5]),
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
]
ZERO_JOINT = np.array([joint for joint, _ in ZERO_ROWS]).reshape(-1, 3, 3)
ZERO_ALONE = np.array([alone for _, alone in ZERO_ROWS])


class TestChunkTallyCorners:
    """Corners of the chunk path's count: uint16 row sums of one reused
    bool buffer per arm, against the searchsorted oracle."""

    @pytest.mark.parametrize("shots, shots_alone", [(_BLOCK - 1, 1), (1, _BLOCK - 1)])
    def test_sixteen_bit_ceiling(self, shots, shots_alone):
        # records of exactly one block, one point per chunk; rows 1 and 2
        # draw each arm into one cell, through thresholds of 0 or edges
        # above every uniform
        jc, ac = assert_oracle_counts(STACK_JOINT, STACK_ALONE, shots, shots_alone, 2026)
        assert jc.max() == shots and ac.max() == shots_alone

    @pytest.mark.parametrize("shots, shots_alone", [(1000, 1000), (7, 300), (1, 1)])
    def test_one_outcome_tables(self, shots, shots_alone):
        # no edges: every word lands in the one cell; a one-outcome joint arm
        # still consumes its words before the alone arm draws
        ones = np.ones((40, 1, 1))
        jc, ac = sample_tables(ones, ones[:, 0], shots, 9, 4, shots_alone)
        assert jc.shape == (40, 1, 1) and ac.shape == (40, 1)
        assert (jc == shots).all() and (ac == shots_alone).all()
        alone = THREE_ALONE[:40]
        jc, ac = assert_oracle_counts(ones, alone, shots, shots_alone, 9, 4)
        assert (jc == shots).all()

    @pytest.mark.parametrize("shots, shots_alone",
                             [(1000, 1000), (1, 1), (4000, 7), (_BLOCK // 2, _BLOCK // 2)])
    def test_zero_cells_and_edges_above_every_uniform(self, shots, shots_alone):
        jc, ac = assert_oracle_counts(ZERO_JOINT, ZERO_ALONE, shots, shots_alone, 2**64 - 1, 11)
        assert (jc.reshape(len(jc), -1)[ZERO_JOINT.reshape(len(jc), -1) == 0] == 0).all()
        assert (ac[ZERO_ALONE == 0] == 0).all()
        assert jc[1, 0, 1] == jc[3, 0, 0] == jc[4, 2, 2] == shots

    @pytest.mark.parametrize("points", [17, 31, 33])
    def test_partial_last_chunk(self, points):
        # records of 4000 words: chunks of 16 points, the last one partial
        assert _BLOCK // 4000 == 16
        jc, ac = assert_oracle_counts(THREE_JOINT[:points], THREE_ALONE[:points], 3000, 1000, 5, 2)
        last = points - points % 16
        one_jc, one_ac = sample_tables(THREE_JOINT[last:points], THREE_ALONE[last:points], 3000, 5,
                                       2 + last, 1000)
        assert np.array_equal(jc[last:], one_jc) and np.array_equal(ac[last:], one_ac)

    def test_no_chunk_arm_reaches_two_to_the_sixteen_words(self, monkeypatch):
        # the uint16 row sums rest on this: both arms of a chunk-path record
        # share one block and hold at least one word each
        assert _BLOCK - 1 <= np.iinfo(np.uint16).max
        widths = []
        tally = shot_sampler._tally

        def spy(words, *args):
            widths.append(words.shape[1])
            return tally(words, *args)

        monkeypatch.setattr(shot_sampler, "_tally", spy)
        # records of one block: a chunk of one point each
        pairs = [(1, _BLOCK - 1), (_BLOCK - 1, 1), (_BLOCK // 2, _BLOCK // 2)]
        for shots, shots_alone in pairs:
            sample_tables(STACK_JOINT[:2], STACK_ALONE[:2], shots, 1, 0, shots_alone)
        assert len(widths) == 4 * len(pairs) and max(widths) == _BLOCK - 1
        assert all(a + b == _BLOCK for a, b in zip(widths[::2], widths[1::2]))
        widths.clear()
        for shots, shots_alone in [(_BLOCK, 1), (1, _BLOCK), (_BLOCK // 2 + 1, _BLOCK // 2)]:
            sample_tables(STACK_JOINT[:2], STACK_ALONE[:2], shots, 1, 0, shots_alone)
        assert widths == []  # records over one block are counted a block at a time

    def test_memory_of_one_comparison(self):
        # the CLI's joint arm of 32 points at 1e3 shots, three edges: all of
        # them are counted in the memory one broadcast comparison takes (its
        # bool result and the iterator's buffers), where one comparison of
        # every edge at once held three bools per word
        words = np.random.default_rng(1).integers(0, 2**64, (32, 2000), dtype=np.uint64)[:, :1000]
        (thresholds, above), = _thresholds([np.full((32, 4), 0.25)])
        out = np.empty((32, 4), dtype=np.int64)
        peaks = []
        for count in (lambda: words < thresholds[:, :1],
                      lambda: shot_sampler._tally(words, thresholds, above, out)):
            count()  # lazy imports and caches
            tracemalloc.start()
            try:
                count()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (out.sum(axis=1) == 1000).all()
        assert peaks[1] <= peaks[0] + 4096


class TestThreadedBlockPath:
    """Records of more than one block are counted on worker threads, one
    contiguous span of points each; the counts equal the one-point calls
    for every worker count, within one block of memory."""

    @pytest.mark.parametrize("workers", [None, 1, 2, 3, 5])
    def test_stack_equals_one_point_calls(self, monkeypatch, workers):
        # 5 points split unevenly; None keeps the CPU count of this process
        if workers is not None:
            monkeypatch.setattr(shot_sampler, "_workers", lambda points: min(workers, points))
        seed, first = 2027, 3
        jc, ac = sample_tables(STACK_JOINT[:5], STACK_ALONE[:5], 40000, seed, first)
        for i in range(5):
            one_jc, one_ac = sample_tables(STACK_JOINT[i:i + 1], STACK_ALONE[i:i + 1], 40000,
                                           seed, first + i)
            assert np.array_equal(jc[i], one_jc[0]) and np.array_equal(ac[i], one_ac[0]), i

    @pytest.mark.parametrize("workers", [None, 4])
    def test_memory_bounded_by_one_block(self, monkeypatch, workers):
        if workers is not None:
            monkeypatch.setattr(shot_sampler, "_workers", lambda points: min(workers, points))
        joint = np.full((6, 2, 2), 0.25)
        alone = np.full((6, 2), 0.5)
        sample_tables(joint, alone, 10**5, seed=3)  # lazy imports and caches
        tracemalloc.start()
        try:
            jc, ac = sample_tables(joint, alone, 10**6, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (jc.sum(axis=(1, 2)) == 10**6).all() and (ac.sum(axis=1) == 10**6).all()
        assert peak <= 4 * _BLOCK * np.dtype(float).itemsize

    @pytest.mark.parametrize("bad", [0, 4], ids=["calling_thread", "worker_thread"])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, bad):
        count = shot_sampler._count
        seed = 7

        def failing(bitgen, *args):
            if int(bitgen.state["state"]["key"][0]) == seed ^ bad:
                raise RuntimeError(f"point {bad}")
            return count(bitgen, *args)

        monkeypatch.setattr(shot_sampler, "_count", failing)
        monkeypatch.setattr(shot_sampler, "_workers", lambda points: min(2, points))
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match=f"point {bad}$"):
            sample_tables(STACK_JOINT[:5], STACK_ALONE[:5], 40000, seed)
        assert threading.active_count() == baseline

    def test_worker_count_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(shot_sampler.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert [shot_sampler._workers(n) for n in (0, 1, 2, 3, 1000)] == [1, 1, 2, 3, 3]
        monkeypatch.delattr(shot_sampler.os, "sched_getaffinity")
        monkeypatch.setattr(shot_sampler.os, "cpu_count", lambda: None)
        assert shot_sampler._workers(1000) == 1
        monkeypatch.setattr(shot_sampler.os, "cpu_count", lambda: 4)
        assert shot_sampler._workers(1000) == 4


def test_cli_import_leaves_the_thread_pool_unimported():
    # only records of more than one block start threads; the pool's module
    # is imported there, not by every process
    src = str(Path(shot_sampler.__file__).resolve().parents[1])
    code = "import sys, cdtradeoff.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "False"


class TestForwardScanOracle:
    """The test suite's scan helper builds a whole scan from stacked qubit
    kernels and draws it with one ``cd_tables`` or ``sample_tables`` call;
    its columns equal one library call per point, bit for bit, on the chunk
    path (1e3 shots), the block path (4e4 and 1e5 shots), with and without
    a common rotation (criterion 04's among them), on criterion 08's exact
    grid, on an exact grid one point longer than the CLI's 1024-point
    qubit slice (a point's table does not depend on its stack's size or
    its place in it), and on seeds whose ``seed ^ i`` differs from
    ``seed + i``."""

    PROBE = QubitMeasurement(0.1, 0.7 * plane_axis(0.3))
    THETAS = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    NAMES = ("plane", "rotated", "criterion04-0", "criterion04-1", "criterion04-2", "criterion08")
    DRAWS = ((None, 0), (1000, 0), (1000, 2**40 + 3), (40_000, 0), (40_000, 2**40 + 3),
             (100_000, 90_000 + (3 << 8)))

    def geometry(self, name):
        """The (rotation, thetas) of a named case: criterion 04's rotations
        are the first ones its generator draws, and criterion 08's grid is
        its exact scans' grid."""
        if name == "criterion08":
            return None, np.linspace(0.1, 2 * np.pi, 12, endpoint=False)
        if name == "points1025":
            return None, np.linspace(0.0, 2.0 * np.pi, 1025, endpoint=False)
        rng = np.random.default_rng(40_004)
        rotations = {"plane": None, "rotated": random_rotation(np.random.default_rng(11)),
                     "criterion04-0": random_rotation(rng), "criterion04-1": random_rotation(rng),
                     "criterion04-2": random_rotation(rng)}
        return rotations[name], self.THETAS

    @pytest.mark.parametrize("shots, seed, name", [
        *((*draw, name) for draw, name in itertools.product(DRAWS, NAMES)),
        (None, 0, "points1025"),
    ])
    def test_columns_equal_per_point_calls(self, shots, seed, name):
        rotation, thetas = self.geometry(name)
        args = (self.PROBE, 0.8, 0.15, thetas, shots, seed, rotation)
        scan = forward_scan(*args)
        columns = np.stack([scan.c, scan.d, scan.c_err, scan.d_err])
        assert columns.tobytes() == forward_scan_oracle(*args).tobytes()


@pytest.fixture
def stream_keys(monkeypatch):
    """Keys of the streams that the sampler and the calibration bootstrap
    open or re-key through ``_stream``, in call order."""
    keys = []

    def spy(key, bitgen=None):
        keys.append(key)
        return _stream(key, bitgen)

    monkeypatch.setattr(shot_sampler, "_stream", spy)
    monkeypatch.setattr(calibration, "_stream", spy)
    return keys


class TestKeyLayout:
    """The v1 key layout: point i of ``sample_tables(seed=s, first=f)``
    reads the stream keyed s ^ (f + i), and a fit's bootstrap with seed s
    the stream keyed s.  A new sampling contract changes this on purpose."""

    SEEDS = (5, 2**63 + 7, 2**127 + 12345)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("first", [0, 3, 2**63 - 2])
    def test_chunk_path_keys(self, stream_keys, seed, first):
        sample_tables(STACK_JOINT, STACK_ALONE, 100, seed, first)
        assert stream_keys == [seed ^ (first + i) for i in range(len(STACK_JOINT))]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_path_keys(self, stream_keys, seed):
        # records of more than one block: the worker spans key their points
        # in any interleaving, each point once
        first = 3
        sample_tables(STACK_JOINT[:5], STACK_ALONE[:5], 40000, seed, first)
        assert sorted(stream_keys) == sorted(seed ^ (first + i) for i in range(5))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fit", [fit_circle_sharp_probe, fit_ellipse_known_theta,
                                     fit_ellipse_unknown_theta])
    def test_bootstrap_key(self, stream_keys, seed, fit):
        probe = sharp(0.0) if fit is fit_circle_sharp_probe else QubitMeasurement(
            0.3, 0.55 * plane_axis(0.0))
        scan = forward_scan(probe, 0.85, 0.1, np.linspace(0.2, 3.0, 9))
        fit(scan, n_bootstrap=20, bootstrap_seed=seed)
        assert stream_keys == [seed]


class TestRawWordThresholds:
    @pytest.mark.parametrize("key", [0, 7, 2**63 + 5, 2**64 - 1, 2**64, 2**128 - 1])
    def test_rekeyed_state_yields_fresh_philox_words(self, key):
        bitgen = np.random.Philox(key=12345)
        bitgen.random_raw(3)  # leave a partly used buffer behind
        assert _stream(key, bitgen) is bitgen
        fresh = np.random.Philox(key=key)
        for opened in (bitgen, _stream(key)):
            assert repr(opened.state) == repr(fresh.state)
        assert np.array_equal(bitgen.random_raw(1001), fresh.random_raw(1001))

    @pytest.mark.parametrize(
        "edge",
        [0.0, 5e-324, 2.0**-60, 0.1, 0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0**-52,
         1.0 - 2.0**-53, 1.0],
    )
    def test_word_test_equals_uniform_test(self, edge):
        """x < threshold (every x for an edge marked above) holds for
        exactly the words whose uniform (x >> 11) * 2**-53 lies below the
        edge, around the threshold and at both ends of the word range."""
        assert edge + (1.0 - edge) == 1.0  # the table is normalized as it stands
        (thresholds, above), = _thresholds([np.array([[edge, 1.0 - edge]])])
        assert thresholds.shape == above.shape == (1, 1) and thresholds.dtype == np.uint64
        threshold, above = int(thresholds[0, 0]), bool(above[0, 0])
        steps = int(np.ceil(edge * 2.0**53))
        words = {0, 2**64 - 1}
        for m in (steps - 1, steps, steps + 1):
            if 0 <= m < 2**53:
                words.update({m << 11, (m << 11) + 2047})
        for x in sorted(words):
            uniform_below = (x >> 11) * 2.0**-53 < edge
            assert uniform_below == (above or x < threshold), (edge, x)
        assert above == (edge == 1.0)
        xs = np.array(sorted(words), dtype=np.uint64)  # the sampler's uint64 comparison
        assert ((xs < thresholds[0, 0]) | above).tolist() == [
            (x >> 11) * 2.0**-53 < edge for x in sorted(words)]
