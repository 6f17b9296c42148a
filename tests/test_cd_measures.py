from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdtradeoff.cd_measures import (
    INEQ_TOL,
    CdValue,
    cd_from_scenario,
    cd_tables,
    check_tradeoff,
    correlation,
    correlation_operator,
    dissipator,
    disturbance_operator,
)
from cdtradeoff.errors import (
    CdTradeoffError,
    InvalidMeasurementError,
    InvalidStateError,
    LabelMismatchError,
    NegativeDisturbanceError,
    NotDichotomicError,
    NotNormalizedError,
    TradeoffViolationError,
)
from cdtradeoff.quantum_core import (
    DensityMatrix,
    Instrument,
    LuedersInstrument,
    Povm,
    check_effects,
    check_states,
    scenario_tables,
)
from cdtradeoff.qubit_model import (
    SIGMA_X,
    SIGMA_Z,
    InstrumentPolicy,
    QubitMeasurement,
    check_qubit,
    optimal_state,
    plane_axis,
)

from util import (
    random_pure,
    random_qubit_measurement,
    random_two_outcome_povm,
    unregistered_channel,
)

PM = (1.0, -1.0)


def sharp(theta):
    return QubitMeasurement(0.0, plane_axis(theta))


def scenario(theta_a, theta_b, gamma_b=1.0, bias_b=0.0):
    probe = sharp(theta_a)
    target = QubitMeasurement(bias_b, gamma_b * plane_axis(theta_b))
    rho = optimal_state(probe, target)
    return rho, LuedersInstrument(probe.to_povm()), target.to_povm()


def covariant_radius2(phases, gamma_probe, gamma_target, kets):
    """C^2 + D^2 of a covariant square-root pair at n = d = len(phases), for
    each of the pure states ``kets`` (..., n) (normalized here): target
    effects F_b = gamma_t |b><b| + (1 - gamma_t) I/n, probe effects
    E_a = gamma_p U|a><a|U^dagger + (1 - gamma_p) I/n with U = F^dagger
    diag(exp(i phases)) F for the Fourier matrix F, the probe's Lueders
    instrument, and labels 0 ... n-1 on both arms."""
    n = len(phases)
    labels = tuple(range(n))
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    u = fourier.conj().T @ (np.exp(1j * np.asarray(phases))[:, None] * fourier)
    noise = np.eye(n) / n
    probe = Instrument.lueders(Povm(gamma_probe * np.einsum("ia,ja->aij", u, u.conj())
                                    + (1.0 - gamma_probe) * noise, labels))
    target = Povm(gamma_target * np.einsum("ai,aj->aij", np.eye(n), np.eye(n))
                  + (1.0 - gamma_target) * noise, labels)
    kets = np.asarray(kets, dtype=complex)
    kets = kets / np.linalg.norm(kets, axis=-1, keepdims=True)
    rho = np.einsum("...i,...j->...ij", kets, kets.conj())
    corr, dist = cd_tables(*scenario_tables(rho, probe, target.matrices), probe, labels)
    return corr * corr + dist * dist


class TestCorrelation:
    def test_perfectly_correlated(self):
        assert correlation([[0.5, 0.0], [0.0, 0.5]], PM, PM) == pytest.approx(1.0)

    def test_uniform(self):
        assert correlation(np.full((2, 2), 0.25), PM, PM) == pytest.approx(0.0)

    def test_sharp_pair_gives_cosine(self):
        rho, inst, povm = scenario(0.0, np.pi / 3)
        joint, _ = scenario_tables(rho.matrix, inst, povm.matrices)
        assert correlation(joint, PM, PM) == pytest.approx(0.5, abs=1e-12)

    def test_label_value_matching_not_positional(self):
        # same joint, second device labels listed in swapped order
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert correlation(joint[:, ::-1], PM, (-1.0, 1.0)) == pytest.approx(1.0)

    def test_label_set_mismatch(self):
        with pytest.raises(LabelMismatchError):
            correlation(np.full((2, 2), 0.25), PM, (0.0, 1.0))

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            correlation(np.full((2, 2), 0.3), PM, PM)

    def test_table_shape_must_match_labels(self):
        with pytest.raises(LabelMismatchError, match="label counts"):
            correlation(np.full((2, 3), 1 / 6), PM, PM)

    def test_labels_must_be_distinct(self):
        with pytest.raises(LabelMismatchError, match="distinct"):
            correlation(np.full((2, 2), 0.25), (1.0, 1.0), (1.0, 1.0))


def measure_and_prepare():
    """A probe whose values cd_tables does not hold to C^2 + D^2 <= 1."""
    povm = sharp(0.0).to_povm()
    return Instrument.measure_and_prepare(povm, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def disturbance_of(p_alone, p_tilde, labels=PM):
    """D from cd_tables of the probe-off distribution ``p_alone`` and a
    joint table whose columns sum to the probe-on distribution ``p_tilde``."""
    joint = np.outer([0.5, 0.5], p_tilde)
    return float(cd_tables(joint, np.asarray(p_alone), measure_and_prepare(), labels)[1])


class TestDisturbance:
    def test_identical_distributions(self):
        assert disturbance_of((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_complementary_sharp_pair(self):
        assert disturbance_of((1.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_sharp_pair_gives_sine(self):
        # the probe-on distribution that cd_tables takes from the joint-table
        # column sums equals the one built through the channel
        rho, inst, povm = scenario(0.0, np.pi / 3)
        joint, alone = scenario_tables(rho.matrix, inst, povm.matrices)
        after = unregistered_channel(inst, rho)
        p_tilde = [np.trace(after.matrix @ e).real for e in povm.matrices]
        assert_allclose(joint.sum(axis=0), p_tilde, atol=1e-12)
        d = float(cd_tables(joint, alone, inst, PM)[1])
        assert d == pytest.approx(np.sin(np.pi / 3), abs=1e-12)

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatchError):
            disturbance_of((0.5, 0.5), (0.5, 0.5), labels=(0.0, 1.0))

    @pytest.mark.parametrize("p_alone, message", [((1.5, -0.5), "outside"), ((0.3, 0.3), "sums")])
    def test_probe_off_distribution_is_checked(self, p_alone, message):
        with pytest.raises(NotNormalizedError, match=message):
            disturbance_of(p_alone, (0.5, 0.5))

    def test_dichotomic_reduction(self):
        # general rescaled-norm form equals 2 |delta p| for two outcomes
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0)
            q = rng.uniform(0.0, 1.0)
            d = disturbance_of((p, 1 - p), (q, 1 - q))
            assert d == pytest.approx(2 * abs(p - q), abs=1e-14)

    def test_dichotomic_correlation_reduction(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            raw = rng.uniform(0.0, 1.0, size=4)
            joint = (raw / raw.sum()).reshape(2, 2)
            c = correlation(joint, PM, PM)
            assert c == pytest.approx(2 * (joint[0, 0] + joint[1, 1]) - 1, abs=1e-14)


class TestCdFromScenario:
    def test_compatible_pair(self):
        value = cd_from_scenario(*scenario(0.0, 0.0))
        assert value.correlation == pytest.approx(1.0, abs=1e-12)
        assert value.disturbance == pytest.approx(0.0, abs=1e-12)

    def test_complementary_pair(self):
        value = cd_from_scenario(*scenario(0.0, np.pi / 2))
        assert value.correlation == pytest.approx(0.0, abs=1e-12)
        assert value.disturbance == pytest.approx(1.0, abs=1e-12)

    def test_sharp_probe_circle_gamma_0485(self):
        for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            value = cd_from_scenario(*scenario(0.0, theta, gamma_b=0.485))
            r2 = value.correlation**2 + value.disturbance**2
            assert r2 == pytest.approx(0.485**2, abs=1e-9)

    def test_tradeoff_inequality_random_scenarios(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            dim = int(rng.integers(2, 5))
            rho = random_pure(rng, dim)
            inst = LuedersInstrument(random_two_outcome_povm(rng, dim))
            povm = random_two_outcome_povm(rng, dim)
            value = cd_from_scenario(rho, inst, povm)
            assert value.correlation**2 + value.disturbance**2 <= 1.0 + 1e-9

    def test_negative_disturbance_is_a_typed_error(self):
        with pytest.raises(NegativeDisturbanceError, match="negative") as info:
            CdValue(0.5, -1e-12)
        assert isinstance(info.value, CdTradeoffError)
        assert CdValue(0.5, 0.0).disturbance == 0.0

    def test_tradeoff_checked_on_square_root_path_only(self):
        # measure-and-prepare values may leave the disc, so CdValue holds them
        assert CdValue(0.9, 0.9).correlation == 0.9
        with pytest.raises(TradeoffViolationError):
            check_tradeoff(0.9, 0.9)
        with pytest.raises(TradeoffViolationError, match="index 2"):
            check_tradeoff(np.array([0.0, 0.6, 0.9]), np.array([1.0, 0.8, 0.9]))
        check_tradeoff(np.array([0.6, 1.0]), np.array([0.8, 0.0]))

    @pytest.mark.parametrize("corr, dist, where", [
        (np.nan, 0.0, ""),
        (0.0, np.nan, ""),
        (np.array([0.6, np.nan, 0.0]), np.array([0.8, 0.0, np.nan]), " at index 1"),
    ])
    def test_tradeoff_check_refuses_nan(self, corr, dist, where):
        # NaN fails every comparison, so "c^2 + d^2 > 1" alone lets it through
        with pytest.raises(TradeoffViolationError, match=f"\\){where} violates"):
            check_tradeoff(corr, dist)

    def test_cd_tables_check_follows_the_constructor(self):
        # (C, D) = (1, 0.6): outside the disc
        joint, alone = np.array([[0.8, 0.0], [0.0, 0.2]]), np.array([0.5, 0.5])
        povm = sharp(0.0).to_povm()
        with pytest.raises(TradeoffViolationError):
            cd_tables(joint, alone, Instrument.lueders(povm), povm.labels)
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        corr, dist = cd_tables(joint, alone, Instrument.measure_and_prepare(povm, states),
                               povm.labels)
        assert (float(corr), float(dist)) == pytest.approx((1.0, 0.6), abs=1e-12)

    def test_three_outcome_lueders_pair_may_leave_the_disc(self):
        """C^2 + D^2 <= 1 is a theorem for two outcomes on each arm only: a
        sharp computational-basis Lueders probe, a target basis rotated by
        R01(pi/6) R12(pi/6), and the state (1, -1, -1) give C^2 + D^2 of
        1.12, and the value is returned, not refused."""
        def rotation(i, j, t):
            r = np.eye(3)
            r[[i, i, j, j], [i, j, i, j]] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
            return r

        basis = rotation(0, 1, np.pi / 6) @ rotation(1, 2, np.pi / 6)
        labels = (0, 1, 2)
        probe = LuedersInstrument(Povm([np.diag(row) for row in np.eye(3)], labels))
        target = Povm([np.outer(column, column) for column in basis.T], labels)
        value = cd_from_scenario(DensityMatrix.from_ket([1, -1, -1]), probe, target)
        assert (value.correlation, value.disturbance) == pytest.approx((0.53125, 0.91672),
                                                                       abs=1e-5)
        assert value.correlation**2 + value.disturbance**2 == pytest.approx(1.1226, abs=1e-4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_covariant_square_root_pairs_stay_in_the_disc(self, n):
        """The paper's relation C^2 + D^2 <= 1 holds for covariant square-root
        pairs (``covariant_radius2``) with n outcomes, where the pair above
        leaves the disc: over seeded random phases, strengths and pure
        states, along a hill-climb on C^2 + D^2 from 8 starts, and at the
        boundary point U = I, gamma = 1, where it equals 1."""
        rng = np.random.default_rng(36 + n)

        def kets(*shape):
            return rng.normal(size=(*shape, n)) + 1j * rng.normal(size=(*shape, n))

        radii = [covariant_radius2(rng.uniform(0, 2 * np.pi, n), *rng.uniform(0, 1, 2),
                                   kets(64)) for _ in range(20)]
        assert np.max(radii) <= 1.0 + INEQ_TOL

        def radius2(x):  # x: phases (n), strengths (2), real and imaginary ket parts (2n)
            return float(covariant_radius2(x[:n], *x[n:n + 2], x[n + 2:2 * n + 2]
                                           + 1j * x[2 * n + 2:]))

        for _ in range(8):
            x = np.concatenate([rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, 2),
                                rng.normal(size=2 * n)])
            value = radius2(x)
            for _ in range(150):
                step = x + 0.1 * rng.normal(size=x.shape)
                step[n:n + 2] = np.clip(step[n:n + 2], 0.0, 1.0)
                if (stepped := radius2(step)) > value:
                    x, value = step, stepped
                assert value <= 1.0 + INEQ_TOL
        boundary = covariant_radius2(np.zeros(n), 1.0, 1.0, kets(16))
        assert np.abs(boundary - 1.0).max() <= INEQ_TOL


class TestNanTables:
    """NaN fails every comparison, so a check phrased as "outside [0, 1]"
    or "does not sum to 1" lets a NaN table through, to (nan, nan) or to a
    misleading TradeoffViolationError on the square-root probe."""

    POLICIES = ["lueders", "eigenstate", "mixed"]
    GOOD = np.array([[0.5, 0.0], [0.0, 0.5]])
    NAN = np.array([[np.nan, 0.5], [0.0, 0.5]])

    def tables(self, policy, joint, alone):
        """cd_tables of a two-point stack whose first point is valid, with
        the probe that ``policy`` builds for an unsharp x measurement."""
        probe = InstrumentPolicy(policy).instrument(QubitMeasurement(0.0, [0.8, 0.0, 0.0]).to_povm())
        return cd_tables(np.stack([self.GOOD, joint]), np.stack([[0.5, 0.5], alone]), probe, PM)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_nan_joint_table_refused(self, policy):
        with pytest.raises(NotNormalizedError, match=r"joint table at index 1 sums to \S*nan"):
            self.tables(policy, self.NAN, [0.5, 0.5])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_nan_probe_off_distribution_refused(self, policy):
        with pytest.raises(NotNormalizedError,
                           match="probe-off distribution at index 1 has a probability outside"):
            self.tables(policy, self.GOOD, [np.nan, 0.5])

    def test_correlation_refuses_nan(self):
        with pytest.raises(NotNormalizedError, match=r"joint table sums to \S*nan"):
            correlation(self.NAN, PM, PM)

    # the refusals print the offending number as a Python float, never as
    # the repr of a numpy scalar
    @pytest.mark.parametrize("refuse, error, message", [
        (partial(correlation, np.stack([GOOD, NAN]), PM, PM), NotNormalizedError,
         "joint table at index 1 sums to nan, not 1"),
        (partial(check_tradeoff, [0.5, np.nan], [0.5, 0.5]), TradeoffViolationError,
         "(nan, 0.5) at index 1 violates"),
        (partial(check_qubit, [0.1, 0.5], [[0.0, 0.0, 0.5], [0.0, 0.0, 0.9]]),
         InvalidMeasurementError, "|bias| + |bloch| at index 1 = 1.4 exceeds 1"),
        (partial(check_states, [np.diag([0.6, 0.5])]), InvalidStateError,
         "trace at index 0 1.1 differs from 1"),
        (partial(check_effects, np.diag([1.5, 0.5])), InvalidMeasurementError,
         "eigenvalue 1.5 exceeds 1"),
    ], ids=["joint_table", "tradeoff", "qubit_parameters", "state_trace", "effect_spectrum"])
    def test_messages_print_plain_numbers(self, refuse, error, message):
        with pytest.raises(error) as info:
            refuse()
        assert message in str(info.value)
        assert "np.float64(" not in str(info.value)


class TestOperators:
    def test_disturbance_operator_compatible(self):
        meas = sharp(0.0)
        d_op = disturbance_operator(
            LuedersInstrument(meas.to_povm()), meas.observable()
        )
        assert np.abs(d_op).max() <= 1e-12

    def test_disturbance_operator_full_erasure(self):
        inst = LuedersInstrument(sharp(0.0).to_povm())  # sharp x probe
        assert_allclose(disturbance_operator(inst, SIGMA_Z), SIGMA_Z, atol=1e-12)

    def test_disturbance_operator_spectrum_from_overlap(self):
        # sharp rank-1 pair with overlap c^2: eigenvalues +/- 2 sqrt((1-c^2) c^2)
        c2 = 0.8
        dim = 4
        ket_a = np.zeros(dim)
        ket_a[0] = 1.0
        ket_b = np.zeros(dim)
        ket_b[0], ket_b[1] = np.sqrt(c2), np.sqrt(1 - c2)
        proj = lambda k: np.outer(k, k)
        povm_a = Povm([proj(ket_a), np.eye(dim) - proj(ket_a)], PM)
        povm_b = Povm([proj(ket_b), np.eye(dim) - proj(ket_b)], PM)
        inst = LuedersInstrument(povm_a)
        d_op = disturbance_operator(inst, povm_b.observable())
        w = np.sort(np.linalg.eigvalsh(d_op))
        assert w[-1] == pytest.approx(0.8, abs=1e-12)
        assert w[0] == pytest.approx(-0.8, abs=1e-12)
        assert np.abs(w[1:-1]).max() <= 1e-12

    def test_correlation_operator_repeated_sharp(self):
        meas = QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0]))
        c_op = correlation_operator(
            LuedersInstrument(meas.to_povm()), meas.observable()
        )
        assert_allclose(c_op, np.eye(2), atol=1e-12)

    def test_correlation_operator_anticommuting(self):
        inst = LuedersInstrument(sharp(0.0).to_povm())
        assert np.abs(correlation_operator(inst, SIGMA_Z)).max() <= 1e-12

    def test_correlation_operator_requires_dichotomic_labels(self):
        povm = Povm([np.eye(2) / 3] * 3, (0.0, 1.0, 2.0))
        with pytest.raises(NotDichotomicError):
            correlation_operator(LuedersInstrument(povm), SIGMA_Z)

    def test_operator_statistics_agree_on_random_states(self):
        rng = np.random.default_rng(17)
        probe = random_qubit_measurement(rng)
        target = random_qubit_measurement(rng)
        inst = LuedersInstrument(probe.to_povm())
        povm = target.to_povm()
        c_op = correlation_operator(inst, target.observable())
        for _ in range(100):
            rho = random_pure(rng, 2)
            value = cd_from_scenario(rho, inst, povm)
            assert np.trace(rho.matrix @ c_op).real == pytest.approx(
                value.correlation, abs=1e-9
            )

    def test_operator_statistics_consistency_property(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            rho = random_pure(rng, dim)
            inst = LuedersInstrument(random_two_outcome_povm(rng, dim))
            povm = random_two_outcome_povm(rng, dim)
            value = cd_from_scenario(rho, inst, povm)
            observable = povm.observable()
            c_stat = np.trace(rho.matrix @ correlation_operator(inst, observable)).real
            d_stat = np.trace(rho.matrix @ disturbance_operator(inst, observable)).real
            assert abs(c_stat - value.correlation) <= 1e-9
            assert abs(abs(d_stat) - value.disturbance) <= 1e-9


class TestDissipator:
    def test_identity_target(self):
        k = (np.eye(2) + 0.3 * SIGMA_X) / 2
        assert np.abs(dissipator(k, np.eye(2))).max() <= 1e-14

    def test_channel_decomposition_identity(self):
        # E^(1/2) M E^(1/2) = (1/2){E, M} - dissipator(E^(1/2), M) entrywise
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            povm = random_two_outcome_povm(rng, dim)
            inst = LuedersInstrument(povm)
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = m + m.conj().T
            for k, e in zip(inst.matrices, povm.matrices):
                updated = k @ m @ k
                anti = 0.5 * (e @ m + m @ e)
                assert np.abs(updated - (anti - dissipator(k, m))).max() <= 1e-10

    def test_sharp_x_outcome_parts_sum_to_disturbance_operator(self):
        inst = LuedersInstrument(sharp(0.0).to_povm())
        parts = [dissipator(k, SIGMA_Z) for k in inst.matrices]
        for part in parts:
            assert_allclose(part, SIGMA_Z / 2, atol=1e-12)
        assert_allclose(sum(parts), disturbance_operator(inst, SIGMA_Z), atol=1e-12)
