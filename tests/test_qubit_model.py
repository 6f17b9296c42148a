import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdtradeoff.cd_measures import cd_from_scenario
from cdtradeoff.errors import (
    InvalidMeasurementError,
    NotFiniteError,
    NotPsdError,
    ZeroBlochError,
)
from cdtradeoff.quantum_core import ATOL, Povm, check_states, index_base
from cdtradeoff.qubit_model import (
    ID2,
    PAULI,
    SIGMA_X,
    SIGMA_Z,
    InstrumentPolicy,
    QubitMeasurement,
    _separate_probe,
    bloch_matrix,
    cd_parametric,
    check_qubit,
    ellipse_character,
    ellipse_map,
    measurement_from_povm,
    optimal_state,
    plane_axis,
    qubit_povms,
    qubit_states,
    state_from_bloch,
)

from util import random_axis, random_qubit_measurement, random_rotation, scenario

S_HALF_BIASED = 1.0 - np.sqrt(2.0) / 2  # squeeze of probe (|a|=0.5, a0=0.5)
DELTA_HALF_BIASED = np.sqrt(2.0) / 2


def simulate(probe, target, rho=None):
    rho = optimal_state(probe, target) if rho is None else rho
    return cd_from_scenario(*scenario(rho, probe, target))


def convex_mix(theta, gamma, coin_bias):
    """Effects of the hardware device built by hand: with probability gamma
    the projectors P_pm(theta) along (cos theta, 0, sin theta), otherwise a
    coin reporting +-1 with probabilities (1 +- coin_bias)/2."""
    axis = math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Z
    return [gamma * (ID2 + sign * axis) / 2 + (1.0 - gamma) * (1.0 + sign * coin_bias) / 2 * ID2
            for sign in (1.0, -1.0)]


class TestHardwareDevice:
    """The projector-plus-coin device of the hardware is the measurement
    (b0, gamma * plane_axis(theta)) with b0 = (1 - gamma) times the coin's
    bias, through ``qubit_povms`` and ``QubitMeasurement`` alike."""

    @pytest.mark.parametrize("theta, gamma, coin_bias, b0",
                             [(0.0, 1.0, 0.0, 0.0), (np.pi / 2, 0.5, 0.0, 0.0),
                              (0.3, 0.5, 0.7, 0.35)],
                             ids=["sharp_x", "half_strength_z", "biased"])
    def test_effects_equal_convex_mix(self, theta, gamma, coin_bias, b0):
        expected = convex_mix(theta, gamma, coin_bias)
        bloch = gamma * plane_axis(theta)
        meas = QubitMeasurement(b0, bloch)
        for effects in (qubit_povms(b0, bloch), meas.effects(), meas.to_povm().matrices):
            assert_allclose(effects, expected, atol=1e-15)
        for effect in expected:
            assert np.linalg.eigvalsh(effect)[0] >= -1e-12
        back = measurement_from_povm(Povm(expected))
        assert back.strength == pytest.approx(gamma, abs=1e-12)
        assert back.bias == pytest.approx(b0, abs=1e-12)


class TestMeasurementFromPovm:
    def test_labels_must_be_plus_minus_one(self):
        povm = Povm(QubitMeasurement(0.0, plane_axis(0.3)).effects(), (0.0, 1.0))
        with pytest.raises(InvalidMeasurementError, match="labels"):
            measurement_from_povm(povm)

    def test_measurement_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            meas = random_qubit_measurement(rng)
            back = measurement_from_povm(meas.to_povm())
            assert back.bias == pytest.approx(meas.bias, abs=1e-12)
            assert_allclose(back.bloch, meas.bloch, atol=1e-12)


class TestEllipseCharacter:
    def test_sharp_probe(self):
        char = ellipse_character(QubitMeasurement(0.0, plane_axis(0.2)))
        assert char.squeeze == pytest.approx(1.0, abs=1e-15)
        assert char.shear == pytest.approx(0.0, abs=1e-15)

    def test_unbiased_half_strength(self):
        char = ellipse_character(QubitMeasurement(0.0, 0.5 * plane_axis(0.0)))
        assert char.u_plus == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert char.u_minus == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert char.squeeze == pytest.approx(1.0 - np.sqrt(3) / 2, abs=1e-12)
        assert char.shear == pytest.approx(0.0, abs=1e-15)
        # analytic disturbance against the full pipeline at theta = pi/2
        probe = QubitMeasurement(0.0, 0.5 * plane_axis(0.0))
        target = QubitMeasurement(0.0, plane_axis(np.pi / 2))
        value = simulate(probe, target)
        assert value.disturbance == pytest.approx(char.squeeze, abs=1e-9)

    def test_biased_half_strength(self):
        probe = QubitMeasurement(0.5, 0.5 * plane_axis(0.0))
        char = ellipse_character(probe)
        assert char.u_plus == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert char.u_minus == pytest.approx(0.0, abs=1e-12)
        assert char.squeeze == pytest.approx(S_HALF_BIASED, abs=1e-12)
        assert char.shear == pytest.approx(DELTA_HALF_BIASED, abs=1e-12)
        target = QubitMeasurement(0.0, plane_axis(np.pi / 2))
        value = simulate(probe, target)
        assert value.disturbance == pytest.approx(char.squeeze, abs=1e-9)
        assert value.correlation == pytest.approx(char.shear, abs=1e-9)

    def test_target_scaling(self):
        probe = QubitMeasurement(0.25, 0.5 * plane_axis(0.0))
        target = QubitMeasurement(0.1, 0.6 * plane_axis(1.0))
        char = ellipse_character(probe, target)
        assert char.shift == pytest.approx(0.025, abs=1e-15)
        assert char.scale_major == pytest.approx(0.3, abs=1e-15)
        assert char.scale_minor == pytest.approx(char.squeeze * 0.6, abs=1e-15)


class TestCdParametric:
    def test_sharp_sharp_circle_point(self):
        value = cd_parametric(QubitMeasurement(0.0, plane_axis(0.0)), 1.0, 0.0, np.pi / 4)
        assert value.correlation == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert value.disturbance == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_sharp_probe_circle(self):
        probe = QubitMeasurement(0.0, plane_axis(0.0))
        for gamma in (0.233, 0.485, 0.731, 1.0):
            for theta in np.linspace(0, 2 * np.pi, 32, endpoint=False):
                value = cd_parametric(probe, gamma, 0.0, theta)
                assert value.correlation**2 + value.disturbance**2 == pytest.approx(
                    gamma**2, abs=1e-9
                )

    def test_biased_probe_sharp_target_quadrature(self):
        probe = QubitMeasurement(0.5, 0.5 * plane_axis(0.0))
        value = cd_parametric(probe, 1.0, 0.0, np.pi / 2)
        assert value.correlation == pytest.approx(DELTA_HALF_BIASED, abs=1e-12)
        assert value.disturbance == pytest.approx(S_HALF_BIASED, abs=1e-12)
        sim = simulate(probe, QubitMeasurement(0.0, plane_axis(np.pi / 2)))
        assert sim.correlation == pytest.approx(value.correlation, abs=1e-9)
        assert sim.disturbance == pytest.approx(value.disturbance, abs=1e-9)

    def test_infeasible_target(self):
        with pytest.raises(InvalidMeasurementError):
            cd_parametric(QubitMeasurement(0.0, plane_axis(0.0)), 0.8, 0.3, 0.1)

    @pytest.mark.parametrize("gamma, bias, theta, error", [
        (0.5, 0.0, math.inf, NotFiniteError),
        (0.5, 0.0, -math.inf, NotFiniteError),
        (0.5, 0.0, math.nan, NotFiniteError),
        (math.nan, 0.0, 0.1, NotFiniteError),
        (math.inf, 0.0, 0.1, NotFiniteError),
        (0.5, math.nan, 0.1, NotFiniteError),
        (-0.5, 0.0, 0.1, InvalidMeasurementError),
        (-1e-300, 0.0, 0.1, InvalidMeasurementError),
    ])
    def test_bad_target_or_angle_raises_typed_error(self, gamma, bias, theta, error):
        with pytest.raises(error):
            cd_parametric(QubitMeasurement(0.0, plane_axis(0.0)), gamma, bias, theta)

    def test_matches_simulation_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            probe = random_qubit_measurement(rng)
            target = random_qubit_measurement(rng)
            theta = float(np.arccos(np.clip(probe.axis @ target.axis, -1.0, 1.0)))
            value = cd_parametric(probe, target.strength, target.bias, theta)
            sim = simulate(probe, target)
            assert abs(sim.correlation - value.correlation) <= 1e-9
            assert abs(sim.disturbance - value.disturbance) <= 1e-9

    def test_fig4_settings(self):
        # unbiased gamma 0.5 / 0.75 and biased (0.5, a0=0.5), (0.75, a0=0.25)
        settings = [(0.5, 0.0), (0.75, 0.0), (0.5, 0.5), (0.75, 0.25)]
        for gamma, bias in settings:
            probe = QubitMeasurement(bias, gamma * plane_axis(0.0))
            for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                target = QubitMeasurement(0.0, plane_axis(theta))
                value = cd_parametric(probe, 1.0, 0.0, theta)
                sim = simulate(probe, target)
                assert abs(sim.correlation - value.correlation) <= 1e-9
                assert abs(sim.disturbance - value.disturbance) <= 1e-9


class TestOptimalState:
    def test_x_probe_z_target(self):
        probe = QubitMeasurement(0.0, np.array([1.0, 0.0, 0.0]))
        target = QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0]))
        rho = optimal_state(probe, target)
        assert_allclose(rho.matrix, np.diag([1.0, 0.0]).astype(complex), atol=1e-12)

    def test_tilted_probe_x_target_ket(self):
        # probe axis at pi/4 in the x-z plane, target along x:
        # optimal ket is sin(pi/8)|0> + cos(pi/8)|1>
        probe = QubitMeasurement(0.0, plane_axis(np.pi / 4))
        target = QubitMeasurement(0.0, plane_axis(0.0))
        ket = np.array([np.sin(np.pi / 8), np.cos(np.pi / 8)])
        assert_allclose(
            optimal_state(probe, target).matrix, np.outer(ket, ket), atol=1e-12
        )

    def test_maximizes_disturbance_over_bloch_samples(self):
        rng = np.random.default_rng(8)
        probe = random_qubit_measurement(rng)
        target = random_qubit_measurement(rng)
        best = simulate(probe, target).disturbance
        _, inst, povm = scenario(None, probe, target)  # built once, not per state
        grid_max = 0.0
        for _ in range(10_000):
            r = random_axis(rng)
            value = cd_from_scenario(state_from_bloch(r), inst, povm)
            grid_max = max(grid_max, value.disturbance)
        assert best >= grid_max - 1e-4

    def test_probe_expectation_equals_bias(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            probe = random_qubit_measurement(rng)
            target = random_qubit_measurement(rng)
            rho = optimal_state(probe, target)
            mean_a = np.trace(rho.matrix @ probe.observable()).real
            assert mean_a == pytest.approx(probe.bias, abs=1e-12)

    def test_parallel_axes_deterministic_fallback(self):
        probe = QubitMeasurement(0.0, np.array([1.0, 0.0, 0.0]))
        target = QubitMeasurement(0.0, np.array([0.7, 0.0, 0.0]))
        rho = optimal_state(probe, target)
        bloch = np.array([np.trace(rho.matrix @ s).real for s in (SIGMA_X, SIGMA_Z)])
        assert abs(bloch[0]) <= 1e-12  # perpendicular to the probe axis
        assert simulate(probe, target, rho=rho).disturbance == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e-310, 5e-324])
    def test_tiny_bloch_probe_keeps_its_axis(self, scale):
        # the squares of the components underflow to 0
        probe = QubitMeasurement(0.0, np.array([scale, 0.0, 0.0]))
        assert probe.axis.tolist() == [1.0, 0.0, 0.0]
        target = QubitMeasurement(0.0, plane_axis(0.3))
        sharp = QubitMeasurement(0.0, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(optimal_state(probe, target).matrix,
                              optimal_state(sharp, target).matrix)

    @pytest.mark.parametrize("bloch, strength", [
        ([1e-200, 0.0, 0.0], 1e-200),
        ([0.0, 5e-324, 0.0], 5e-324),
        ([math.ldexp(3.0, -700), 0.0, math.ldexp(-4.0, -700)], math.ldexp(5.0, -700)),
    ])
    def test_tiny_bloch_vector_keeps_its_strength(self, bloch, strength):
        # the squares of the components underflow to 0
        assert QubitMeasurement(0.0, np.array(bloch)).strength == strength

    def test_zero_bloch_probe(self):
        probe = QubitMeasurement(0.0, np.zeros(3))
        target = QubitMeasurement(0.0, plane_axis(0.0))
        with pytest.raises(ZeroBlochError):
            optimal_state(probe, target)


def amplitude_phase(a0, na, b0, nb):
    """(R, phi) of C - c0 = R cos(theta - phi) on [0, pi]: the polar form
    of the ``ellipse_map`` coefficients (P, Q)."""
    *_, p, q, _ = ellipse_map(a0, na, b0, nb)
    return math.hypot(p, q), math.atan2(q, p)


class TestAmplitudePhase:
    def test_unbiased_probe(self):
        amplitude, phase = amplitude_phase(0.0, 0.4, 0.0, 0.9)
        assert phase == pytest.approx(0.0, abs=1e-15)
        assert amplitude == pytest.approx(0.4 * 0.9, abs=1e-12)

    def test_sharp_probe(self):
        amplitude, phase = amplitude_phase(0.0, 1.0, 0.0, 0.6)
        assert amplitude == pytest.approx(0.6, abs=1e-12)
        assert phase == pytest.approx(0.0, abs=1e-15)

    def test_biased_half_strength_values(self):
        amplitude, phase = amplitude_phase(0.5, 0.5, 0.0, 1.0)
        assert amplitude == pytest.approx(0.8660254037844386, abs=1e-12)
        assert phase == pytest.approx(0.9553166181245093, abs=1e-12)

    def test_reproduces_parametric_correlation(self):
        probe = QubitMeasurement(0.3, 0.45 * plane_axis(0.0))
        target_gamma, target_bias = 0.7, 0.2
        amplitude, phase = amplitude_phase(probe.bias, probe.strength, target_bias, target_gamma)
        for theta in np.linspace(0.0, np.pi, 40):
            value = cd_parametric(probe, target_gamma, target_bias, theta)
            expected = probe.bias * target_bias + amplitude * np.cos(theta - phase)
            assert value.correlation == pytest.approx(expected, abs=1e-12)


def ellipse_grid():
    """Valid (a0, |a|, |b|) on a grid that includes |a| = 0 and
    |a0| + |a| = 1, as three arrays."""
    rows = [(a0, na, nb)
            for a0 in np.linspace(-1.0, 1.0, 9)
            for na in np.linspace(0.0, 1.0 - abs(a0), 5)
            for nb in (0.1, 0.485, 1.0)]
    return np.array(rows).T


def scalar_ellipse(a0, na, b0, nb):
    """u_pm, s, delta and (c0, P, Q, S) in Python floats and ``math``, in
    the operation order of the 0.1.0 scalar functions."""
    u_plus = math.sqrt(max((1.0 + a0) ** 2 - na**2, 0.0))
    u_minus = math.sqrt(max((1.0 - a0) ** 2 - na**2, 0.0))
    s, delta = 1.0 - (u_plus + u_minus) / 2, (u_plus - u_minus) / 2
    return u_plus, u_minus, s, delta, a0 * b0, na * nb, delta * nb, s * nb


def hexes(values):
    return [float(v).hex() for v in values]


class TestEllipseMap:
    def test_inverse_of_forward(self):
        a0, na, nb = ellipse_grid()
        _, _, s, delta, _, p, q, s_strength = ellipse_map(a0, na, 0.0, nb)
        recovered = _separate_probe(p, q, s_strength, nb)
        for got, want in zip(recovered, (na, a0, s, delta)):
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_forward_of_inverse(self):
        a0, na, nb = ellipse_grid()
        mapped = np.array(ellipse_map(a0, na, 0.0, nb))
        na_back, a0_back, _, _ = _separate_probe(*mapped[5:], nb)
        again = np.array(ellipse_map(a0_back, na_back, 0.0, nb))
        # u_pm = sqrt((1 pm a0)^2 - |a|^2) has infinite slope where it
        # vanishes (|a0| + |a| = 1): a parameter one ulp off moves u_pm, Q
        # and S by up to sqrt(eps) there, and by rounding elsewhere
        edge = np.isclose(np.abs(a0) + na, 1.0, rtol=0, atol=1e-12)
        assert_allclose(again[:, ~edge], mapped[:, ~edge], rtol=0, atol=1e-12)
        assert_allclose(again[:, edge], mapped[:, edge], rtol=0, atol=1e-7)
        assert_allclose(again[5], mapped[5], rtol=0, atol=1e-12)  # P = |a||b|

    def test_scalar_functions_keep_their_floats(self):
        for a0, na, nb in ellipse_grid().T.tolist():
            probe = QubitMeasurement(a0, na * plane_axis(0.3))
            b0 = (1.0 - nb) / 2
            target = QubitMeasurement(b0, nb * plane_axis(1.1))
            a0, na = probe.bias, probe.strength
            u_plus, u_minus, s, delta, c0, p, q, s_strength = scalar_ellipse(
                a0, na, target.bias, target.strength)
            char = ellipse_character(probe, target)
            assert hexes(dataclasses.astuple(char)) == hexes(
                (c0, p, s_strength, delta, s, u_plus, u_minus, na, a0))
            u_plus, u_minus, s, delta, *_ = scalar_ellipse(a0, na, 0.0, 1.0)
            assert hexes(dataclasses.astuple(ellipse_character(probe))) == hexes(
                (a0 * 0.0, na, s, delta, s, u_plus, u_minus, na, a0))
            for theta in (0.0, 0.4, np.pi / 2, 2.5, -2.0):
                value = cd_parametric(probe, nb, b0, theta)
                sin_t = abs(math.sin(theta))
                *_, c0, p, q, s_strength = scalar_ellipse(a0, na, b0, nb)
                assert hexes((value.correlation, value.disturbance)) == hexes(
                    (c0 + p * math.cos(theta) + q * sin_t, s_strength * sin_t))
                assert type(value.correlation) is float

    def test_positivity(self):
        with pytest.raises(InvalidMeasurementError, match="positivity"):
            ellipse_map(np.array([0.0, 0.5]), np.array([0.5, 0.6]))


class TestCovariance:
    def test_inplane_and_general_rotations(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            probe = random_qubit_measurement(rng)
            target = random_qubit_measurement(rng)
            rho_bloch = random_axis(rng)
            reference = simulate(probe, target, rho=state_from_bloch(rho_bloch))
            angle = rng.uniform(0, 2 * np.pi)
            about_y = np.array(
                [
                    [np.cos(angle), 0.0, np.sin(angle)],
                    [0.0, 1.0, 0.0],
                    [-np.sin(angle), 0.0, np.cos(angle)],
                ]
            )
            for rot in (about_y, random_rotation(rng)):
                rotated = simulate(
                    QubitMeasurement(probe.bias, rot @ probe.bloch),
                    QubitMeasurement(target.bias, rot @ target.bloch),
                    rho=state_from_bloch(rot @ rho_bloch),
                )
                assert abs(rotated.correlation - reference.correlation) <= 1e-9
                assert abs(rotated.disturbance - reference.disturbance) <= 1e-9

    def test_each_point_under_its_own_rotation(self):
        # the paper's unitary-noise claim at the level of one point: a random
        # rotation of the probe axis, the target axis and the state leaves
        # C and D as they were, for every probe policy and for mixed states
        rng = np.random.default_rng(79)
        policies = list(InstrumentPolicy)
        for i in range(240):
            probe = random_qubit_measurement(rng)
            target = random_qubit_measurement(rng)
            r = random_axis(rng) * rng.uniform(0.0, 1.0) ** (1 / 3)
            rot = random_rotation(rng)
            policy = policies[i % len(policies)]
            values = [
                cd_from_scenario(state_from_bloch(rot @ r if turned else r),
                                 policy.instrument(QubitMeasurement(
                                     probe.bias, rot @ probe.bloch if turned else probe.bloch
                                 ).to_povm()),
                                 QubitMeasurement(
                                     target.bias, rot @ target.bloch if turned else target.bloch
                                 ).to_povm())
                for turned in (False, True)
            ]
            assert abs(values[1].correlation - values[0].correlation) <= 1e-12, i
            assert abs(values[1].disturbance - values[0].disturbance) <= 1e-12, i

    def test_disturbance_commutator_form(self):
        # D equals |s * |b| * (a x (a x b)) . r| for any state direction r
        rng = np.random.default_rng(78)
        for _ in range(200):
            probe = random_qubit_measurement(rng)
            target = random_qubit_measurement(rng)
            r = random_axis(rng)
            a_hat = probe.axis
            b_hat = target.axis
            squeeze = ellipse_character(probe).squeeze
            predicted = abs(
                squeeze * target.strength * (np.cross(a_hat, np.cross(a_hat, b_hat)) @ r)
            )
            value = simulate(probe, target, rho=state_from_bloch(r))
            assert value.disturbance == pytest.approx(predicted, abs=1e-9)


class TestQubitStates:
    """``qubit_states`` checks Bloch vectors by length; ``check_states`` on
    the matrices (I + r . sigma)/2 is its oracle."""

    @staticmethod
    def oracle(vectors):
        return check_states((ID2 + bloch_matrix(vectors)) / 2)

    @staticmethod
    def outcome(check, vector):
        """The error type ``check`` raises on ``vector``, or None."""
        try:
            check(vector)
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            return type(exc)
        return None

    def test_length_check_accepts_what_check_states_accepts(self):
        # lengths within a few ATOL of the boundary 1 + 2 ATOL, in random
        # directions and along the axes, and exact boundary values
        rng = np.random.default_rng(31)
        directions = rng.normal(size=(12000, 3))
        directions[:300] = np.eye(3)[rng.integers(0, 3, 300)] * rng.choice([-1.0, 1.0], (300, 1))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        lengths = 1.0 + ATOL * rng.uniform(-3.0, 7.0, len(directions))
        lengths[:6] = [1.0, 1.0 + ATOL, 1.0 + 2 * ATOL, 1.0 + 3 * ATOL, 1.0 - ATOL, 0.0]
        vectors = directions * lengths[:, None]
        outcomes = [self.outcome(qubit_states, v) for v in vectors]
        assert outcomes == [self.outcome(self.oracle, v) for v in vectors]
        accepted = np.array([o is None for o in outcomes])
        assert set(outcomes) == {None, NotPsdError}
        assert 0.3 < accepted.mean() < 0.7
        # the accepted vectors as one stack: the same matrices, bit for bit
        assert np.array_equal(qubit_states(vectors[accepted]), self.oracle(vectors[accepted]))

    def test_overlong_vector_names_its_index(self):
        vectors = np.tile([0.6, 0.0, 0.8], (6, 1))
        vectors[3] = [1.1, 0.0, 0.0]
        vectors[5] = [0.0, 2.0, 0.0]
        with pytest.raises(NotPsdError, match=r"at index 3 of Bloch length 1\.1 "):
            qubit_states(vectors)
        with index_base(40), pytest.raises(NotPsdError, match="at index 43 "):
            qubit_states(vectors)
        with pytest.raises(NotPsdError, match="state of Bloch length 1.1 "):
            qubit_states(vectors[3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_names_its_index(self, bad):
        # finiteness is checked first, over the whole stack, as check_states does
        vectors = np.tile([0.6, 0.0, 0.8], (6, 1))
        vectors[2] = [1.1, 0.0, 0.0]
        vectors[4, 1] = bad
        with pytest.raises(NotFiniteError, match="at index 4 "):
            qubit_states(vectors)
        with np.errstate(invalid="ignore"), pytest.raises(NotFiniteError, match="at index 4 "):
            self.oracle(vectors)


class TestBlochMatrix:
    """``bloch_matrix`` writes the entries of v . sigma directly; the sum
    over the Pauli matrices is its oracle, bit for bit."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, 0.3, -0.7]

    @staticmethod
    def assert_pauli_sum_bits(vectors):
        expected = np.einsum("...i,ijk->...jk", np.asarray(vectors, dtype=float), PAULI)
        got = bloch_matrix(vectors)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_special_triples(self):
        # signed zeros, subnormals and the largest doubles in every position
        triples = np.array(list(itertools.product(self.SPECIAL, repeat=3)))
        self.assert_pauli_sum_bits(triples)
        self.assert_pauli_sum_bits(triples.reshape(10, 100, 3))
        for triple in triples:
            self.assert_pauli_sum_bits(triple.tolist())
            self.assert_pauli_sum_bits(triple[None])

    def test_random_vectors(self):
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(100_000, 3)) * 10.0 ** rng.uniform(-300, 300, (100_000, 1))
        self.assert_pauli_sum_bits(vectors)
        self.assert_pauli_sum_bits(vectors.reshape(50, 2000, 3))
        for vector in vectors[:100]:
            self.assert_pauli_sum_bits(vector)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", [0, 1, 2])
    def test_non_finite_vectors_refused_by_every_caller(self, bad, component):
        # the direct entries need not carry the Pauli sum's bits here: each
        # caller refuses the vector before its matrix is used
        vector = [0.1, 0.2, 0.3]
        vector[component] = bad
        for check in (qubit_states, lambda v: check_qubit(0.0, v),
                      lambda v: QubitMeasurement(0.0, v), state_from_bloch):
            with pytest.raises(NotFiniteError):
                check(vector)


class TestStateFromBloch:
    @pytest.mark.parametrize(
        "check, error",
        [(state_from_bloch, InvalidMeasurementError),
         (lambda v: check_qubit(0.0, v), InvalidMeasurementError),
         (lambda v: QubitMeasurement(0.0, v), InvalidMeasurementError)],
        ids=["state_from_bloch", "check_qubit", "QubitMeasurement"])
    @pytest.mark.parametrize("vec", [[1.0, 0.0], 0.5], ids=["two_components", "number"])
    def test_rejects_vectors_of_other_shapes(self, check, error, vec):
        with pytest.raises(error, match="3 components"):
            check(vec)

    def test_measurement_takes_one_vector(self):
        with pytest.raises(InvalidMeasurementError, match="3 components"):
            QubitMeasurement(0.0, np.zeros((2, 3)))

    def test_rejects_overlong_vector(self):
        with pytest.raises(NotPsdError):
            state_from_bloch([1.1, 0.0, 0.0])

    def test_roundtrip(self):
        rho = state_from_bloch([0.3, -0.2, 0.5])
        assert rho.matrix[0, 0].real == pytest.approx(0.75, abs=1e-15)
