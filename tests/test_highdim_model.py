import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdtradeoff import cli
from cdtradeoff.cd_measures import cd_from_scenario
from cdtradeoff.errors import (
    DimensionMismatchError,
    InvalidDimError,
    InvalidMeasurementError,
    InvalidStateError,
    NotFiniteError,
    ProbeNotSharpError,
)
from cdtradeoff.highdim_model import (
    RandomizedDichotomic,
    cd_highdim,
    circle_law,
    optimal_kets,
    overlap,
    overlaps,
    projectors,
    randomized_povms,
)
from cdtradeoff.quantum_core import DensityMatrix, LuedersInstrument, Povm, scenario_tables
from cdtradeoff.shot_sampler import estimate_columns, sample_tables

from util import random_unitary


def ket(dim, *amplitudes):
    v = np.zeros(dim, dtype=complex)
    for i, a in enumerate(amplitudes):
        v[i] = a
    return v / np.linalg.norm(v)


def pair_with_overlap(dim, c2, gamma_b, rng=None):
    """Sharp probe and randomized target with projector overlap c2, in a
    random basis when an rng is supplied."""
    ket_a = ket(dim, 1.0)
    ket_b = ket(dim, np.sqrt(c2), np.sqrt(1.0 - c2))
    if rng is not None:
        u = random_unitary(rng, dim)
        ket_a, ket_b = u @ ket_a, u @ ket_b
    return (
        RandomizedDichotomic.from_ket(ket_a, 1.0),
        RandomizedDichotomic.from_ket(ket_b, gamma_b),
    )


def simulate(pa, pb, psi):
    rho = DensityMatrix.from_ket(psi)
    return cd_from_scenario(rho, LuedersInstrument(pa.to_povm()), pb.to_povm())


class TestValidation:
    def test_rejects_rank_two_projector(self):
        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidMeasurementError):
            RandomizedDichotomic(3, 1.0, proj)

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidMeasurementError):
            RandomizedDichotomic(2, 1.0, np.diag([0.6, 0.4]))

    def test_rejects_projector_of_other_dim(self):
        with pytest.raises(DimensionMismatchError, match="does not match"):
            RandomizedDichotomic(3, 1.0, np.diag([1.0, 0.0]))

    def test_rejects_zero_ket(self):
        with pytest.raises(InvalidStateError, match="zero ket at index 1"):
            projectors(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_non_finite_ket(self):
        with pytest.raises(NotFiniteError, match="ket has a non-finite entry"):
            RandomizedDichotomic.from_ket([np.nan, 1.0], 1.0)

    def test_projector_is_read_only(self):
        meas = RandomizedDichotomic.from_ket(ket(3, 1.0), 1.0)
        assert meas.projector_plus.shape == (3, 3)
        assert not meas.projector_plus.flags.writeable

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidDimError):
            RandomizedDichotomic(1, 1.0, np.eye(1))

    def test_povm_effects(self):
        meas = RandomizedDichotomic.from_ket(ket(3, 1.0), 0.4)
        povm = meas.to_povm()
        expected = 0.4 * np.diag([1.0, 0.0, 0.0]) + 0.6 * np.eye(3) / 2
        assert_allclose(povm.matrices[0], expected, atol=1e-14)


class TestOverlap:
    def test_identical_projectors(self):
        pa, pb = pair_with_overlap(3, 1.0, 1.0)
        geom = overlap(pa, pb)
        assert geom.c_squared == pytest.approx(1.0, abs=1e-12)
        assert geom.lam == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_projectors(self):
        pa = RandomizedDichotomic.from_ket(ket(3, 1.0), 1.0)
        pb = RandomizedDichotomic.from_ket(ket(3, 0.0, 1.0), 1.0)
        geom = overlap(pa, pb)
        assert geom.c_squared == pytest.approx(0.0, abs=1e-12)
        assert geom.lam == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap_maximal_disturbance(self):
        pa, pb = pair_with_overlap(3, 0.5, 1.0)
        geom = overlap(pa, pb)
        assert geom.lam == pytest.approx(1.0, abs=1e-12)

    def test_probe_must_be_sharp(self):
        pa, pb = pair_with_overlap(3, 0.5, 1.0)
        unsharp_probe = RandomizedDichotomic(3, 0.5, pa.projector_plus)
        with pytest.raises(ProbeNotSharpError):
            overlap(unsharp_probe, pb)

    def test_dimension_mismatch(self):
        pa, _ = pair_with_overlap(3, 0.5, 1.0)
        _, pb = pair_with_overlap(4, 0.5, 1.0)
        with pytest.raises(DimensionMismatchError):
            overlap(pa, pb)

    def test_degenerate_geometry_returns_probe_ket(self):
        pa, pb = pair_with_overlap(4, 1.0, 1.0)
        geom = overlap(pa, pb)
        proj = pa.projector_plus
        assert np.abs(proj @ geom.psi_plus - geom.psi_plus).max() <= 1e-9

    def test_optimal_state_facts(self):
        # equal weight on the probe ket, zero probe-observable mean
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            c2 = rng.uniform(0.05, 0.95)
            pa, pb = pair_with_overlap(dim, c2, 1.0, rng)
            geom = overlap(pa, pb)
            proj = pa.projector_plus
            amp = np.sqrt((geom.psi_plus.conj() @ proj @ geom.psi_plus).real)
            assert amp == pytest.approx(1 / np.sqrt(2), abs=1e-9)
            m_a = pa.to_povm().observable()
            mean = (geom.psi_plus.conj() @ m_a @ geom.psi_plus).real
            assert mean == pytest.approx(0.0, abs=1e-9)


class TestCircleLaw:
    def test_complementary(self):
        pa, pb = pair_with_overlap(2, 0.5, 1.0)
        value = cd_highdim(pa, pb)
        assert value.correlation == pytest.approx(0.0, abs=1e-12)
        assert value.disturbance == pytest.approx(1.0, abs=1e-12)

    def test_compatible(self):
        pa, pb = pair_with_overlap(2, 1.0, 1.0)
        value = cd_highdim(pa, pb)
        assert value.correlation == pytest.approx(1.0, abs=1e-12)
        assert value.disturbance == pytest.approx(0.0, abs=1e-12)

    def test_d4_values_and_simulation(self):
        pa, pb = pair_with_overlap(4, 0.8, 0.6)
        value = cd_highdim(pa, pb)
        assert value.correlation == pytest.approx(0.36, abs=1e-12)
        assert value.disturbance == pytest.approx(0.48, abs=1e-12)
        assert value.correlation**2 + value.disturbance**2 == pytest.approx(
            0.36, abs=1e-12
        )
        sim = simulate(pa, pb, overlap(pa, pb).psi_plus)
        assert sim.correlation == pytest.approx(value.correlation, abs=1e-9)
        assert sim.disturbance == pytest.approx(value.disturbance, abs=1e-9)

    def test_circle_law_random_pairs(self):
        rng = np.random.default_rng(123)
        gammas = (0.25, 0.5, 0.75, 1.0)
        for trial in range(500):
            dim = int(rng.integers(2, 7))
            c2 = rng.uniform(0.02, 0.98)
            gamma = gammas[trial % 4]
            pa, pb = pair_with_overlap(dim, c2, gamma, rng)
            value = cd_highdim(pa, pb)
            assert value.correlation**2 + value.disturbance**2 == pytest.approx(
                gamma**2, abs=1e-9
            )
            sim = simulate(pa, pb, overlap(pa, pb).psi_plus)
            assert abs(sim.correlation - value.correlation) <= 1e-9
            assert abs(sim.disturbance - value.disturbance) <= 1e-9

    @pytest.mark.parametrize("c2, where", [
        (2.0, " = 2.0"),
        (-1e-300, " = -1e-300"),
        (np.nan, " = nan"),
        (np.array([0.0, 0.5, 1.0 + 2**-52, 7.0]), " at index 2 = 1.0000000000000002"),
    ])
    def test_circle_law_refuses_overlaps_outside_unit_interval(self, c2, where):
        # refused before the square root, which would warn and give NaN
        with pytest.raises(InvalidMeasurementError, match=f"overlap c\\^2{where} lies outside"):
            circle_law(1.0, c2)


def bloch_length(gamma, dim):
    """Generalized Bloch length |b| of the effect gamma P + (1 - gamma) I/2
    from ``randomized_povms``, written (e0 I + b . sigma)/d in the basis
    normalization tr(sigma_i sigma_j) = d: sqrt(d) times the Frobenius norm
    of its traceless part."""
    effect = randomized_povms(gamma, projectors(ket(dim, 1.0, 0.5j)))[0]
    traceless = effect - np.trace(effect).real / dim * np.eye(dim)
    return np.sqrt(dim) * np.linalg.norm(traceless)


class TestBlochLength:
    """The randomized effects have Bloch length gamma sqrt(d - 1)."""

    def test_qubit_sharp(self):
        assert bloch_length(1.0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_half_strength_dim5(self):
        assert bloch_length(0.5, 5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_strength(self):
        assert bloch_length(0.0, 7) == 0.0

    def test_invalid_dim(self):
        with pytest.raises(InvalidDimError):
            RandomizedDichotomic.from_ket([1.0], 0.5)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidMeasurementError):
            bloch_length(1.5, 3)


# Overlaps of the span test: the ends, subnormal and tiny ones, the double
# below 1, and seeded random ones
SPAN_C2 = np.concatenate([[0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53],
                          np.random.default_rng(35).random(50)])


def span_columns(monkeypatch, dim, gamma, shots, seed):
    """Columns of the CLI's overlap scan of the overlaps SPAN_C2 and, in
    shot mode, the joint and probe-off tables it draws from."""
    config = {"schema": 1, "mode": "highdim", "dim": dim, "gamma": gamma, "seed": seed,
              "c2_grid": {"stop": 1.0, "points": len(SPAN_C2)}}
    if shots:
        config["shots"] = shots
    tables = []

    def recorded(joint, alone, *args):
        tables.append((joint, alone))
        return sample_tables(joint, alone, *args)

    monkeypatch.setattr(cli, "_linspace", lambda *args: SPAN_C2.copy())
    monkeypatch.setattr(cli, "sample_tables", recorded)
    return cli._highdim_rows(config, cli._parse(config))[1], tables


def full_dim_columns(dim, gamma, shots, seed, step):
    """The same columns and tables evaluated in all ``dim`` dimensions with
    the library kernels, from kets of ``dim`` entries, ``step`` points a
    slice."""
    ket_a = np.eye(dim)[0]
    kets_b = np.zeros((len(SPAN_C2), dim))
    kets_b[:, 0], kets_b[:, 1] = np.sqrt(SPAN_C2), np.sqrt(1.0 - SPAN_C2)
    firsts = range(0, len(kets_b), step)
    if shots is None:
        return np.concatenate([circle_law(gamma, overlaps(ket_a, kets_b[first:first + step]))
                               for first in firsts], axis=1), []
    proj_a = projectors(ket_a)
    probe = LuedersInstrument(Povm(randomized_povms(1.0, proj_a)))
    columns, tables = [], []
    for first in firsts:
        proj_b = projectors(kets_b[first:first + step])
        joint, alone = scenario_tables(projectors(optimal_kets(proj_a, proj_b)), probe,
                                       randomized_povms(gamma, proj_b))
        tables.append((joint, alone))
        columns.append(estimate_columns(*sample_tables(joint, alone, shots, seed, first)))
    return np.concatenate(columns, axis=1), tables


class TestScanInTheSpanOfItsKets:
    """The CLI evaluates an overlap scan in the two-dimensional span of its
    kets, all SPAN_C2 in one slice.  Its columns carry the bits of
    evaluation in all ``dim`` dimensions in slices of ``cli._BATCH_ENTRIES``
    entries of (points, dim) kets or (points, dim, dim) stacks, and its
    tables those of the same slice evaluated in all ``dim`` dimensions."""

    @pytest.mark.parametrize("shots", [None, 200], ids=["exact", "shots"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("dim", [3, 5, 8, 16, 33, 64])
    def test_columns_equal_full_dimension(self, monkeypatch, dim, gamma, shots):
        got, tables = span_columns(monkeypatch, dim, gamma, shots, seed=7)
        step = max(1, cli._BATCH_ENTRIES // (dim if shots is None else dim**2))
        want, _ = full_dim_columns(dim, gamma, shots, 7, step)
        assert got.shape == (4, len(SPAN_C2))
        assert np.array_equal(got[:len(want)], want)
        assert not got[len(want):].any()
        _, want_tables = full_dim_columns(dim, gamma, shots, 7, len(SPAN_C2))
        assert len(tables) == len(want_tables) == (shots is not None)
        for got_pair, want_pair in zip(tables, want_tables):
            assert all(map(np.array_equal, got_pair, want_pair))

    def test_exact_columns_of_one_point_slices(self, monkeypatch):
        """Above dim 2048 an exact slice of (points, dim) kets held one point."""
        got, _ = span_columns(monkeypatch, 4097, 0.9, None, seed=0)
        want, _ = full_dim_columns(4097, 0.9, None, 0, 1)
        assert np.array_equal(got[:2], want)
