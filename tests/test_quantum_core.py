import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdtradeoff.detector_model import _herald
from cdtradeoff.errors import (
    DimensionMismatchError,
    InvalidMeasurementError,
    InvalidStateError,
    NotFiniteError,
    NotHermitianError,
    NotPsdError,
)
from cdtradeoff.quantum_core import (
    DensityMatrix,
    Instrument,
    LuedersInstrument,
    Povm,
    check_effects,
    check_povms,
    check_states,
    dagger,
    dual_channel,
    psd_sqrt,
    scenario_tables,
    unit_kets,
)
from cdtradeoff.highdim_model import projectors, randomized_povms
from cdtradeoff.qubit_model import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    InstrumentPolicy,
    QubitMeasurement,
    plane_axis,
    qubit_povms,
    qubit_states,
)

from util import (
    apply_instrument,
    oracle_joint_table,
    random_povm,
    random_pure,
    random_unitary,
    unregistered_channel,
)

KET0 = np.array([1.0, 0.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def x_povm(gamma):
    return QubitMeasurement(0.0, np.array([gamma, 0.0, 0.0])).to_povm()


class TestPsdSqrt:
    def test_identity(self):
        assert_allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(psd_sqrt(np.diag([0.25, 1.0])), np.diag([0.5, 1.0]), atol=1e-14)

    def test_effect_square_roundtrip(self):
        # unsharp x effect: the square of the root must reproduce it
        e_plus = (ID2 + 0.5 * SIGMA_X) / 2
        root = psd_sqrt(e_plus)
        assert np.abs(root @ root - e_plus).max() <= 1e-10

    def test_projector_has_exact_root(self):
        # zero eigenvalues must not leak sqrt(eps) noise into the root
        proj = np.outer(KET_PLUS, KET_PLUS)
        assert np.abs(psd_sqrt(proj) @ psd_sqrt(proj) - proj).max() <= 1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_psd(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([-1e-6, 1.0]))

    def test_negative_within_tolerance_clamped(self):
        root = psd_sqrt(np.diag([-5e-10, 1.0]))
        assert_allclose(root, np.diag([0.0, 1.0]), atol=1e-12)

    def test_random_psd_square_property(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            u = random_unitary(rng, dim)
            m = (u * rng.uniform(0.0, 2.0, size=dim)) @ u.conj().T
            m = (m + m.conj().T) / 2
            root = psd_sqrt(m)
            assert np.abs(root @ root - m).max() <= 1e-9


class TestTypes:
    def test_density_matrix_requires_unit_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2))

    def test_density_matrix_requires_psd(self):
        with pytest.raises(NotPsdError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_matrix_requires_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NotHermitianError):
            DensityMatrix(m)

    def test_density_matrix_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_effect_spectrum_bound(self):
        with pytest.raises(InvalidMeasurementError):
            check_effects(np.diag([1.2, 0.0]))

    def test_povm_completeness(self):
        with pytest.raises(InvalidMeasurementError):
            Povm([np.eye(2) / 2, np.eye(2) / 4])

    def test_povm_default_labels(self):
        povm = x_povm(1.0)
        assert povm.labels == (1.0, -1.0)
        assert_allclose(povm.observable(), SIGMA_X, atol=1e-15)

    @pytest.mark.parametrize("make", [DensityMatrix, lambda m: Povm([m, m])],
                             ids=["density_matrix", "povm"])
    def test_one_matrix_not_a_stack(self, make):
        with pytest.raises(DimensionMismatchError, match="square"):
            make(np.stack([np.eye(2) / 2] * 2))

    def test_zero_ket(self):
        with pytest.raises(InvalidStateError, match="zero ket"):
            DensityMatrix.from_ket([0.0, 0.0])

    @pytest.mark.parametrize("ket", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf * 1j]])
    def test_non_finite_ket(self, ket):
        with pytest.raises(NotFiniteError, match="ket has a non-finite entry"):
            DensityMatrix.from_ket(ket)
        with pytest.raises(NotFiniteError, match="ket at index 1"):
            unit_kets([[1.0, 0.0], ket])

    @pytest.mark.parametrize("scale", [2.0**-1074, 1e-200, 1e200, 1e308])
    def test_ket_of_any_scale(self, scale):
        rho = DensityMatrix.from_ket(scale * np.array([1.0, 1.0j]))
        assert_allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)

    def test_unit_kets_keep_the_bits_of_the_norm(self):
        rng = np.random.default_rng(11)
        kets = rng.normal(size=(500, 5)) + 1j * rng.normal(size=(500, 5))
        kets *= 10.0 ** rng.uniform(-100, 100, size=(500, 1))
        expected = kets / np.linalg.norm(kets, axis=-1, keepdims=True)
        assert unit_kets(kets).tobytes() == expected.tobytes()

    def test_povm_is_one_checked_stack(self):
        stack = randomized_povms(0.7, projectors(np.array([1.0, 2.0, 0.5j])))
        povm = Povm(list(stack))
        assert povm.matrices.tobytes() == check_povms(stack).tobytes()
        assert not povm.matrices.flags.writeable
        assert Povm.__slots__ == ("labels", "matrices")

    @pytest.mark.parametrize("make", [
        lambda: Povm([np.eye(2) / 2, [[0.5, 0.0], [0.0]]]),
        lambda: DensityMatrix("abc"),
        lambda: Instrument([np.eye(2), [[0.0]]], (1.0, -1.0)),
        lambda: check_states([np.eye(2) / 2, [[1.0]]]),
        lambda: psd_sqrt(np.zeros((0, 0))),
        lambda: Povm(np.zeros((2, 0, 0)), (1.0, -1.0)),
        lambda: Instrument(np.zeros((2, 0, 0)), (1.0, -1.0)),
    ], ids=["ragged_povm", "text_state", "ragged_kraus", "ragged_states",
            "sqrt_0x0", "povm_0x0", "kraus_0x0"])
    def test_malformed_operator(self, make):
        with pytest.raises(DimensionMismatchError):
            make()

    @pytest.mark.parametrize("effects", [[], [np.eye(2)]], ids=["none", "one"])
    def test_povm_needs_two_effects(self, effects):
        with pytest.raises(InvalidMeasurementError, match="two effects"):
            Povm(effects, (1.0,) * len(effects))
        with pytest.raises(InvalidMeasurementError, match="two effects"):
            check_povms(np.reshape(effects, (len(effects), 2, 2)))

    def test_povm_effects_share_one_dimension(self):
        with pytest.raises(DimensionMismatchError, match="mixed dimensions"):
            Povm([np.eye(2) / 2, np.eye(3) / 2])

    def test_povm_needs_one_label_per_effect(self):
        with pytest.raises(InvalidMeasurementError, match="one label per effect"):
            Povm([np.eye(2) / 2, np.eye(2) / 2], (1.0, -1.0, 0.0))

    def test_povm_needs_labels_beyond_two_outcomes(self):
        thirds = [np.eye(2) / 3] * 3
        with pytest.raises(InvalidMeasurementError):
            Povm(thirds)
        assert Povm(thirds, (0.0, 1.0, 2.0)).n_outcomes == 3

    def test_instrument_kraus_reproduce_effects(self):
        inst = LuedersInstrument(x_povm(0.7))
        for k, e in zip(inst.matrices, inst.povm.matrices):
            assert np.abs(k.conj().T @ k - e).max() <= 1e-9
            assert np.abs(k - k.conj().T).max() <= 1e-12  # Hermitian choice


class TestApplyInstrument:
    def test_sharp_z_on_zero(self):
        inst = LuedersInstrument(
            QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0])).to_povm()
        )
        out, prob = apply_instrument(inst, DensityMatrix.from_ket(KET0), 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert_allclose(out, np.outer(KET0, KET0), atol=1e-12)

    def test_sharp_x_on_zero(self):
        inst = LuedersInstrument(x_povm(1.0))
        out, prob = apply_instrument(inst, DensityMatrix.from_ket(KET0), 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert_allclose(out, 0.5 * np.outer(KET_PLUS, KET_PLUS), atol=1e-12)

    def test_unsharp_x_against_closed_form(self):
        # closed-form root in the x eigenbasis: K = sqrt(3)/2 |+x><+x| + 1/2 |-x><-x|
        inst = LuedersInstrument(x_povm(0.5))
        rho = DensityMatrix.from_ket(KET0)
        out, prob = apply_instrument(inst, rho, 0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        k_oracle = (np.sqrt(0.75) * np.outer(KET_PLUS, KET_PLUS)
                    + np.sqrt(0.25) * np.outer(minus, minus))
        expected = k_oracle @ rho.matrix @ k_oracle
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert_allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        inst = LuedersInstrument(x_povm(1.0))
        with pytest.raises(DimensionMismatchError):
            scenario_tables(DensityMatrix(np.eye(3) / 3).matrix, inst, x_povm(1.0).matrices)
        with pytest.raises(DimensionMismatchError):
            scenario_tables(DensityMatrix(np.eye(2) / 2).matrix, inst, np.eye(3)[None])


class TestUnregisteredChannel:
    def test_sharp_z_fixed_point(self):
        inst = LuedersInstrument(
            QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0])).to_povm()
        )
        rho = DensityMatrix(np.eye(2) / 2)
        assert_allclose(unregistered_channel(inst, rho).matrix, rho.matrix, atol=1e-12)

    def test_sharp_x_dephases_zero_ket(self):
        inst = LuedersInstrument(x_povm(1.0))
        out = unregistered_channel(inst, DensityMatrix.from_ket(KET0))
        assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_unsharp_x_shrinks_transverse_bloch(self):
        # z component survives with factor sqrt(1 - gamma^2)
        inst = LuedersInstrument(x_povm(0.5))
        out = unregistered_channel(inst, DensityMatrix.from_ket(KET0))
        z = np.trace(out.matrix @ SIGMA_Z).real
        assert z == pytest.approx(np.sqrt(0.75), abs=1e-12)
        x = np.trace(out.matrix @ SIGMA_X).real
        assert x == pytest.approx(0.0, abs=1e-12)

    def test_preserves_trace_and_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            inst = LuedersInstrument(random_povm(rng, dim, int(rng.integers(2, 4))))
            out = unregistered_channel(inst, random_pure(rng, dim))
            # DensityMatrix construction re-validates trace and positivity
            assert out.dim == dim


class TestJointProbabilities:
    def test_repeated_sharp_z(self):
        meas = QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0]))
        povm = meas.to_povm()
        table, _ = scenario_tables(
            DensityMatrix.from_ket(KET0).matrix, LuedersInstrument(povm), povm.matrices
        )
        assert_allclose(table, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_mutually_unbiased_pair(self):
        z = QubitMeasurement(0.0, np.array([0.0, 0.0, 1.0]))
        table, _ = scenario_tables(
            DensityMatrix.from_ket(KET0).matrix, LuedersInstrument(x_povm(1.0)),
            z.to_povm().matrices,
        )
        assert_allclose(table, np.full((2, 2), 0.25), atol=1e-12)

    def test_tilted_pair_against_loop_oracle(self):
        theta = np.pi / 4
        target = QubitMeasurement(0.0, np.array([np.sin(theta), 0.0, np.cos(theta)]))
        inst = LuedersInstrument(x_povm(1.0))
        rho = DensityMatrix.from_ket(KET0)
        table, _ = scenario_tables(rho.matrix, inst, target.to_povm().matrices)
        oracle = oracle_joint_table(
            inst.matrices, rho.matrix, target.to_povm().matrices
        )
        assert_allclose(table, oracle, atol=1e-12)

    def test_normalization_and_arrow_of_time(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            povm_a = random_povm(rng, dim, int(rng.integers(2, 4)))
            povm_b = random_povm(rng, dim, int(rng.integers(2, 4)))
            rho = random_pure(rng, dim)
            table, alone = scenario_tables(
                rho.matrix, LuedersInstrument(povm_a), povm_b.matrices)
            assert abs(table.sum() - 1.0) <= 1e-9
            marginal = table.sum(axis=1)
            direct = [np.trace(rho.matrix @ e).real for e in povm_a.matrices]
            assert np.abs(marginal - direct).max() <= 1e-9
            target = [np.trace(rho.matrix @ e).real for e in povm_b.matrices]
            assert np.abs(alone - target).max() <= 1e-9


class TestDualChannel:
    def test_unital(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            inst = LuedersInstrument(random_povm(rng, dim, int(rng.integers(2, 4))))
            assert np.abs(dual_channel(inst, np.eye(dim)) - np.eye(dim)).max() <= 1e-9

    def test_sharp_x_erases_z(self):
        inst = LuedersInstrument(x_povm(1.0))
        assert np.abs(dual_channel(inst, SIGMA_Z)).max() <= 1e-12

    def test_unsharp_x_shrinks_z(self):
        inst = LuedersInstrument(x_povm(0.5))
        assert_allclose(dual_channel(inst, SIGMA_Z), np.sqrt(0.75) * SIGMA_Z, atol=1e-12)

    def test_dimension_mismatch(self):
        inst = LuedersInstrument(x_povm(1.0))
        with pytest.raises(DimensionMismatchError):
            dual_channel(inst, np.eye(3))


HERALD = [np.diag([1.0, 1.0, 0.0]), np.outer(np.eye(3)[0], np.eye(3)[2])]  # K_V = |0><2|


def instruments(rng, dim=3):
    """One instrument per constructor: square-root, measure-and-prepare on
    random states, and the hand-built (non-Hermitian) herald."""
    povm = random_povm(rng, dim, 3)
    states = [random_pure(rng, dim).matrix for _ in range(3)]
    return {
        "square_root": Instrument.lueders(povm),
        "measure_and_prepare": Instrument.measure_and_prepare(povm, states),
        "herald": Instrument(HERALD, (-1.0, 1.0)),
    }


class TestInstrument:
    def test_kraus_effects_must_sum_to_identity(self):
        with pytest.raises(InvalidMeasurementError, match="identity"):
            Instrument([np.diag([1.0, 0.0, 0.0]), np.outer(np.eye(3)[0], np.eye(3)[2])])
        with pytest.raises(InvalidMeasurementError):
            Instrument([np.eye(2), np.eye(2)])  # an effect above one
        with pytest.raises(DimensionMismatchError):
            Instrument(np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["square_root", "measure_and_prepare", "herald"])
    def test_dual_is_the_adjoint_channel(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(50):
            inst = instruments(rng)[kind]
            rho = random_pure(rng, 3)
            op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = np.trace(unregistered_channel(inst, rho).matrix @ op)
            rhs = np.trace(rho.matrix @ dual_channel(inst, op))
            assert abs(lhs - rhs) <= 1e-12

    def test_layout_and_tradeoff_flag(self):
        rng = np.random.default_rng(5)
        made = instruments(rng)
        assert [inst.per_outcome for inst in made.values()] == [1, 9, 1]
        assert made["measure_and_prepare"].matrices.shape == (27, 3, 3)
        assert [inst.square_root for inst in made.values()] == [True, False, False]
        same_kraus = Instrument(made["square_root"].matrices, made["square_root"].labels)
        assert not same_kraus.square_root  # recorded by the constructor only
        assert not made["herald"].matrices.flags.writeable

    def test_measure_and_prepare_reprepares(self):
        rng = np.random.default_rng(9)
        povm = random_povm(rng, 3, 3)
        states = [random_pure(rng, 3).matrix for _ in range(3)]
        inst = Instrument.measure_and_prepare(povm, states)
        rho = random_pure(rng, 3)
        for a, (effect, sigma) in enumerate(zip(povm.matrices, states)):
            out, prob = apply_instrument(inst, rho, a)
            assert prob == pytest.approx(np.trace(rho.matrix @ effect).real, abs=1e-12)
            assert_allclose(out, prob * sigma, atol=1e-12)
        with pytest.raises(DimensionMismatchError):
            Instrument.measure_and_prepare(povm, states[:2])

    def test_herald_posts_against_loop_oracle(self):
        inst = Instrument(HERALD, (-1.0, 1.0))
        rho = DensityMatrix.from_ket([0.0, 1.0, 1.0])
        effects = [np.diag([0.9, 0.9, 0.3]), np.diag([0.1, 0.1, 0.7])]
        table, _ = scenario_tables(rho.matrix, inst, Povm(effects).matrices)
        assert_allclose(table, oracle_joint_table(HERALD, rho.matrix, effects), atol=1e-12)
        assert_allclose(table, [[0.45, 0.05], [0.45, 0.05]], atol=1e-12)


def per_matrix_posts(inst, rho):
    """sum_m K_am rho K_am^dagger with one product per state and operator."""
    terms = inst.matrices @ rho[..., None, :, :] @ dagger(inst.matrices)
    shape = terms.shape[:-3] + (inst.n_outcomes, inst.per_outcome, inst.dim, inst.dim)
    return terms.reshape(shape).sum(axis=-3)


class TestPostsBits:
    """``Instrument.posts`` forms the states of a real Kraus stack in
    batched products, and those carry the bits of one product per state
    and operator at every stack size; a complex stack keeps the per-state
    products, whose bits batching would change."""

    SIZES = (1, 2, 3, 1024)

    @staticmethod
    def states(rng, dim, n):
        """n random mixed states; a qubit's Bloch vectors have y components."""
        if dim == 2:
            bloch = rng.normal(size=(n, 3))
            bloch *= rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(bloch, axis=1, keepdims=True)
            return qubit_states(bloch)
        x = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        rho = x @ dagger(x)
        return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]

    def assert_per_matrix_bits(self, inst, rng):
        """Stacks of each size (at most 2^16 entries: 16 states at d = 64)
        and one unbatched state."""
        for n in self.SIZES:
            rho = self.states(rng, inst.dim, min(n, max(1, 2**16 // inst.dim**2)))
            for states in (rho, rho[0]) if n == 1 else (rho,):
                got, want = inst.posts(states), per_matrix_posts(inst, states)
                assert got.shape == want.shape == states.shape[:-2] + (inst.n_outcomes,) + 2 * (inst.dim,)
                assert got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("policy", list(InstrumentPolicy))
    def test_plane_axis_probes(self, policy):
        rng = np.random.default_rng(32)
        for _ in range(20):
            gamma = rng.uniform(0.0, 1.0)
            bias = rng.uniform(gamma - 1.0, 1.0 - gamma)
            bloch = gamma * plane_axis(rng.uniform(0.0, 2.0 * np.pi))
            inst = policy.instrument(Povm(qubit_povms(bias, bloch)))
            assert not inst.matrices.imag.any()
            self.assert_per_matrix_bits(inst, rng)

    @pytest.mark.parametrize("reference", ["sharp", "fully_biased"])
    def test_detector_heralds(self, reference):
        self.assert_per_matrix_bits(_herald(reference), np.random.default_rng(3))

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_highdim_probes(self, dim):
        rng = np.random.default_rng(dim)
        ket = np.zeros(dim)
        ket[0] = 1.0
        for gamma in (1.0, rng.uniform(0.0, 1.0)):
            inst = Instrument.lueders(Povm(randomized_povms(gamma, projectors(ket))))
            assert not inst.matrices.imag.any()
            self.assert_per_matrix_bits(inst, rng)

    def test_hand_built_two_operators_per_outcome(self):
        rng = np.random.default_rng(11)
        ops = rng.normal(size=(4, 3, 3))
        w, v = np.linalg.eigh(np.einsum("kji,kjl->il", ops, ops))
        inst = Instrument((ops @ (v / np.sqrt(w)) @ v.T).reshape(2, 2, 3, 3), (-1.0, 1.0))
        assert inst.per_outcome == 2
        self.assert_per_matrix_bits(inst, rng)

    def test_complex_kraus_keep_per_state_products(self):
        inst = Instrument.lueders(Povm(qubit_povms(0.1, np.array([0.0, 0.7, 0.0]))))
        assert inst.matrices.imag.any()
        self.assert_per_matrix_bits(inst, np.random.default_rng(5))
