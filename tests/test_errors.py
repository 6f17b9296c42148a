import ast
import inspect
import warnings
from pathlib import Path

import pytest

import numpy as np

import cdtradeoff
from cdtradeoff import errors
from cdtradeoff.calibration import CdScan, estimate_detector, fit_ellipse_known_theta
from cdtradeoff.cd_measures import CdValue, check_tradeoff, correlation
from cdtradeoff.detector_model import DetectorNoise, scenario_cd, scenario_distributions
from cdtradeoff.highdim_model import (
    RandomizedDichotomic,
    check_projectors,
    circle_law,
    optimal_kets,
    overlaps,
    randomized_povms,
)
from cdtradeoff.quantum_core import DensityMatrix, Instrument, Povm, unit_kets
from cdtradeoff.qubit_model import (
    QubitMeasurement,
    bloch_matrix,
    cd_parametric,
    check_qubit,
    ellipse_character,
    ellipse_map,
    optimal_bloch,
    plane_axis,
    qubit_povms,
    qubit_states,
    unit_axes,
)
from cdtradeoff.shot_sampler import estimate_columns, sample_tables

PACKAGE = Path(errors.__file__).parent


def raised_names():
    """Names of the exceptions that a ``raise`` statement of the package
    names, called (``raise X(...)``) or not (``raise X``)."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised_or_a_base():
    """An error type goes with its last raiser: each class in ``errors`` is
    raised somewhere in the package, or other errors derive from it."""
    classes = [cls for cls in vars(errors).values()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__]
    bases = {base for cls in classes for base in cls.__bases__}
    raised = raised_names()
    orphans = [cls.__name__ for cls in classes if cls.__name__ not in raised and cls not in bases]
    assert classes and not orphans


def test_public_names():
    """The package's public names, listed so that each one retired or added
    shows as a one-line diff."""
    assert cdtradeoff.__all__ == [
        "CdEstimate",
        "CdScan",
        "CdValue",
        "CircleFit",
        "DensityMatrix",
        "DetectorEstimate",
        "DetectorNoise",
        "DeviceCharacter",
        "EllipseCharacter",
        "Instrument",
        "InstrumentPolicy",
        "LuedersInstrument",
        "OverlapGeometry",
        "Povm",
        "QubitMeasurement",
        "RandomizedDichotomic",
        "calibration",
        "cd_from_scenario",
        "cd_highdim",
        "cd_measures",
        "cd_parametric",
        "correlation",
        "correlation_operator",
        "detector_model",
        "dissipator",
        "disturbance_operator",
        "dual_channel",
        "ellipse_character",
        "errors",
        "estimate_cd",
        "estimate_detector",
        "fit_circle_sharp_probe",
        "fit_ellipse_known_theta",
        "fit_ellipse_unknown_theta",
        "highdim_model",
        "measurement_from_povm",
        "optimal_state",
        "overlap",
        "psd_sqrt",
        "quantum_core",
        "qubit_model",
        "sample",
        "scenario_cd",
        "scenario_distributions",
        "shot_sampler",
        "state_from_bloch",
    ]


RAGGED_TABLES = [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0]]]
RAGGED_COUNTS = [[[5, 0], [0, 5]], [[10, 0]]]
PROJECTORS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
PROBE = QubitMeasurement(0.1, [0.8, 0, 0])
NOISE = DetectorNoise(0.8, 0.1)
THETAS = np.linspace(0.0, np.pi, 16)
SCAN = {"theta": THETAS, "c": 0.1 + 0.7 * np.cos(THETAS), "d": 0.5 * np.abs(np.sin(THETAS))}


def scan_with(column, index, value):
    """A call that builds the 16-point theta scan ``SCAN`` with
    ``column[index]`` set to ``value``."""
    columns = {name: values.copy() for name, values in SCAN.items()}
    columns[column][index] = value
    return lambda: CdScan(**columns)


@pytest.mark.parametrize("call", [
    lambda: unit_kets([[1, 0], [1]]),
    lambda: unit_kets("abc"),
    lambda: bloch_matrix("abc"),
    lambda: check_qubit("a", [0, 0, 1]),
    lambda: qubit_states([[0, 0, 1], [0, 1]]),
    lambda: sample_tables(RAGGED_TABLES, [[0.5, 0.5], [1.0, 0.0]], 10, 0),
    lambda: estimate_columns(RAGGED_COUNTS, [[5, 5], [10, 0]]),
    lambda: estimate_columns([[["a", "b"], ["c", "d"]]], [["a", "b"]]),
    lambda: estimate_columns([[[5, 0], [0, 5]]], [[None, 2]]),
    lambda: estimate_columns([[[5, 0], [0, 5]]], [[5 + 0j, 5]]),
    lambda: estimate_columns([[["5", "0"], ["0", "5"]]], [["5", "5"]]),
    lambda: correlation("ab", (1, -1), (1, -1)),
    lambda: circle_law(0.9, "x"),
    lambda: circle_law("x", 0.5),
    lambda: overlaps([1, 0], [[1, 0], [1]]),
    lambda: CdScan(None, ["a"], [0.1]),
    lambda: CdScan(None, [[1, 2], [3]], [0.1, 0.2]),
    lambda: Povm(5),
    lambda: DetectorNoise("0.5", 0.1),
    lambda: DetectorNoise(True, 0.1),
    lambda: DetectorNoise(np.bool_(True), 0.1),
    lambda: DetectorNoise(0.5, np.inf),
    lambda: estimate_detector("0.5", 0.5),
    lambda: estimate_detector(0.6, 0.2, "x", 0),
    lambda: estimate_detector(0.6, 0.2, -0.01, 0.01),
    lambda: estimate_detector(0.6, 0.2, 0.01, np.inf),
    lambda: estimate_detector(0.6, 0.2, np.nan, 0.01),
    lambda: Povm(PROJECTORS, ("a", "b")),
    lambda: Instrument(PROJECTORS, ("a", "b")),
    lambda: Povm(PROJECTORS, 5),
    lambda: Povm(PROJECTORS, (np.nan, 1.0)),
    lambda: cd_parametric(QubitMeasurement(0.0, plane_axis(0.0)), 0.9, 0.0, "x"),
    lambda: plane_axis("x"),
    lambda: unit_axes("x"),
    lambda: optimal_bloch("x", [1, 0, 0]),
    lambda: QubitMeasurement(0.0, "abc"),
    lambda: randomized_povms(0.5, "abc"),
    lambda: correlation(np.eye(2) / 2, "ab", "ab"),
    lambda: cd_parametric(PROBE, "0.9", 0.0, 0.1),
    lambda: RandomizedDichotomic("2", 0.5, np.diag([1, 0])),
    lambda: fit_ellipse_known_theta(CdScan(**SCAN), "0.9"),
    lambda: optimal_kets("ab", np.eye(2)),
    lambda: check_projectors("ab"),
    lambda: check_tradeoff("x", 0.1),
    lambda: randomized_povms(True, np.diag([1, 0])),
    lambda: qubit_povms("0.1", ["0.5", 0, 0]),
    lambda: QubitMeasurement("0.1", [0.5, 0, 0]),
    lambda: DensityMatrix([["0.5", "0"], ["0", "0.5"]]),
    lambda: QubitMeasurement([0.1], [0.5, 0, 0]),
    lambda: bloch_matrix(np.array([0.5j, 0, 0])),
    lambda: CdScan(None, [0.5j, 0.5], [0.1, 0.2]),
    scan_with("theta", 3, np.nan),
    scan_with("theta", 3, np.inf),
    scan_with("c", 5, np.nan),
    scan_with("d", 2, -np.inf),
    lambda: CdValue(np.nan, np.nan),
    lambda: CdValue(0.1, "x"),
    lambda: scenario_cd(NOISE, ["sharp"]),
    lambda: scenario_distributions(NOISE, ["sharp"]),
    lambda: correlation(np.eye(2) / 2, 5, 5),
    lambda: correlation(np.eye(2) / 2, None, None),
    lambda: ellipse_map("0.1", 0.5),
    lambda: ellipse_map(None, 0.5),
    lambda: ellipse_map(0.1, [0.5, "x"]),
    lambda: ellipse_map(np.nan, 0.5),
    lambda: ellipse_map(np.array([0.1, np.nan]), 0.5),
    lambda: ellipse_map(0.1, np.inf),
    lambda: ellipse_map(True, 0.5),
    lambda: ellipse_map(True, 0.0),
    lambda: ellipse_map(0.1, 0.5, np.inf),
    lambda: Povm(PROJECTORS, {2.0, 0.5}),
    lambda: Povm(PROJECTORS, {2.0: 0, 0.5: 1}),
    lambda: Instrument(PROJECTORS, {2.0, 0.5}),
    lambda: Instrument(PROJECTORS, {2.0: 0, 0.5: 1}),
    lambda: correlation(np.diag([0.3, 0.7]), [2.0, 0.5], {2.0, 0.5}),
    lambda: correlation(np.diag([0.3, 0.7]), {2.0: 0, 0.5: 1}, [2.0, 0.5]),
], ids=["unit_kets_ragged", "unit_kets_text", "bloch_matrix_text", "check_qubit_text",
        "qubit_states_ragged", "sample_tables_ragged", "estimate_columns_ragged",
        "estimate_columns_text", "estimate_columns_none", "estimate_columns_complex",
        "estimate_columns_numeric_text",
        "correlation_text", "circle_law_text_overlap", "circle_law_text_gamma",
        "overlaps_ragged", "scan_text", "scan_ragged", "povm_number",
        "detector_noise_text", "detector_noise_bool", "detector_noise_numpy_bool",
        "detector_noise_infinite_nu", "estimate_detector_text_reading",
        "estimate_detector_text_error", "estimate_detector_negative_error",
        "estimate_detector_infinite_error", "estimate_detector_nan_error",
        "povm_text_labels", "instrument_text_labels", "povm_number_labels",
        "povm_nan_label", "cd_parametric_text_theta", "plane_axis_text", "unit_axes_text",
        "optimal_bloch_text", "qubit_measurement_text_bloch", "randomized_povms_text",
        "correlation_text_labels", "cd_parametric_text_strength",
        "randomized_dichotomic_text_dim", "known_theta_text_strength", "optimal_kets_text",
        "check_projectors_text", "check_tradeoff_text", "randomized_povms_bool_gamma",
        "qubit_povms_numeric_text", "qubit_measurement_numeric_text",
        "density_matrix_numeric_text", "qubit_measurement_array_bias", "bloch_matrix_complex",
        "scan_complex", "scan_nan_theta", "scan_inf_theta", "scan_nan_c", "scan_inf_d",
        "cd_value_nan", "cd_value_text", "scenario_cd_list_reference",
        "scenario_distributions_list_reference", "correlation_number_labels",
        "correlation_none_labels", "ellipse_map_text", "ellipse_map_none",
        "ellipse_map_text_in_list", "ellipse_map_nan", "ellipse_map_nan_in_array",
        "ellipse_map_infinite", "ellipse_map_bool", "ellipse_map_bool_sharp",
        "ellipse_map_infinite_target", "povm_set_labels", "povm_dict_labels",
        "instrument_set_labels", "instrument_dict_labels", "correlation_set_labels",
        "correlation_dict_labels"])
def test_malformed_arrays_raise_typed_errors(call):
    """An entry point that takes arrays or numbers refuses non-numeric,
    ragged or non-finite input with a library error, and no numpy warning
    comes first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.CdTradeoffError):
            call()


def bits(values) -> list:
    return np.asarray(values).view(np.uint64).tolist()


def columns(*hexes: str) -> np.ndarray:
    """Estimate columns (c, d, c_err, d_err) of two records, written exactly."""
    return np.array([float.fromhex(h) for h in hexes]).reshape(4, 2)


def test_numbers_of_every_kind_keep_their_bits():
    """What the gates admit keeps its bits: bool and integer counts estimate
    to fixed columns (an integer count as its float does), Python integers
    make the effects of their floats, and real effects the POVM of their
    complex values."""
    estimates = estimate_columns(
        np.array([[[True, False], [False, True]], [[True, True], [False, True]]]),
        np.array([[True, True], [True, False]]))
    assert bits(estimates) == bits(columns(
        "0x1.0000000000000p+0", "0x1.5555555555554p-2", "0x0.0p+0", "0x1.5555555555556p+0",
        "0x0.0p+0", "0x1.16b28f55d72d4p-1", "0x1.0000000000000p+0", "0x1.16b28f55d72d4p-1"))
    counts = [[[3, 1], [2, 4]], [[7, 0], [1, 2]]], [[5, 5], [6, 3]]
    estimates = estimate_columns(*counts)
    assert bits(estimates) == bits(columns(
        "0x1.9999999999998p-2", "0x1.9999999999998p-1", "0x0.0p+0", "0x1.1111111111110p-2",
        "0x1.28c88c9fe9712p-2", "0x1.8494a75f057aep-3", "0x1.c9f25c5bfedd9p-2",
        "0x1.9d1fe50a4f498p-2"))
    assert bits(estimates) == bits(estimate_columns(*(np.array(c, float) for c in counts)))
    assert bits(qubit_povms(0, [1, 0, 0])) == bits(qubit_povms(0.0, np.array([1.0, 0.0, 0.0])))
    real = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert bits(Povm(real).matrices) == bits(Povm(np.array(real, complex)).matrices)


ELLIPSE = ["0x1.b27247aff1490p-1", "0x1.21a1851ff630bp-1", "0x1.2bec333018864p-2",
           "0x1.21a1851ff630ap-3", "0x1.47ae147ae147cp-8", "0x1.428f5c28f5c29p-1",
           "0x1.04aaf7cff72bcp-3", "0x1.0dee2e11afac1p-2"]


def hex_bits(*hexes: str) -> list:
    return bits([float.fromhex(h) for h in hexes])


def flat_bits(values) -> list:
    return bits(np.concatenate([np.ravel(np.asarray(v, float)) for v in values]))


def test_ellipse_map_and_labels_keep_their_bits():
    """The gates of ``ellipse_map`` and of outcome labels move no bit: the
    sheared-ellipse law on a Python float, a numpy float, an integer, a 0-d
    and a 1-D array, the closed forms built on it, and labels given as a
    tuple, a list, an array or a generator."""
    numbers = (0.1, 0.7, 0.05, 0.9)
    for args in (numbers, tuple(map(np.float64, numbers)), tuple(map(np.array, numbers))):
        assert flat_bits(ellipse_map(*args)) == hex_bits(*ELLIPSE)
    assert flat_bits(ellipse_map(0, 0.7, 0, 1)) == hex_bits(
        "0x1.6da4217576971p-1", "0x1.6da4217576971p-1", "0x1.24b7bd1512d1ep-2", "0x0.0p+0",
        "0x0.0p+0", "0x1.6666666666666p-1", "0x0.0p+0", "0x1.24b7bd1512d1ep-2")
    assert flat_bits(ellipse_map(0, 1, 0, 1)) == hex_bits(
        "0x0.0p+0", "0x0.0p+0", "0x1p+0", "0x0.0p+0", "0x0.0p+0", "0x1p+0", "0x0.0p+0", "0x1p+0")
    arrays = np.array([0.1, -0.2]), np.array([0.7, 0.6])
    assert flat_bits(ellipse_map(*arrays, 0.05, 0.9)) == hex_bits(
        "0x1.b27247aff1490p-1", "0x1.0eecc87dbfa56p-1", "0x1.21a1851ff630bp-1",
        "0x1.0a0b02501c79ap+0", "0x1.2bec333018864p-2", "0x1.b9fa65c40ececp-3",
        "0x1.21a1851ff630ap-3", "-0x1.05293c22794dep-2", "0x1.47ae147ae147cp-8",
        "-0x1.47ae147ae147cp-7", "0x1.428f5c28f5c29p-1", "0x1.147ae147ae148p-1",
        "0x1.04aaf7cff72bcp-3", "-0x1.d61705d7a725dp-3", "0x1.0dee2e11afac1p-2",
        "0x1.8dc7c1fd4086ep-3")
    probe = QubitMeasurement(0.1, 0.7 * plane_axis(0.3))
    for target in ((0.9, 0.05, 1.1), tuple(map(np.float64, (0.9, 0.05, 1.1)))):
        value = cd_parametric(probe, *target)
        assert flat_bits([value.correlation, value.disturbance]) == hex_bits(
            "0x1.9de602ce797d9p-2", "0x1.e120be24c5a2cp-3")
    character = ellipse_character(probe, QubitMeasurement(0.05, 0.9 * plane_axis(0.0)))
    assert flat_bits(vars(character).values()) == hex_bits(
        "0x1.47ae147ae147cp-8", "0x1.428f5c28f5c28p-1", "0x1.0dee2e11afac1p-2",
        "0x1.21a1851ff630ap-3", "0x1.2bec333018864p-2", "0x1.b27247aff1491p-1",
        "0x1.21a1851ff630cp-1", "0x1.6666666666665p-1", "0x1.999999999999ap-4")
    joint = [[0.3, 0.1], [0.2, 0.4]]
    for labels in (lambda: (2.0, 0.5), lambda: [2.0, 0.5], lambda: np.array([2.0, 0.5]),
                   lambda: (x for x in (2.0, 0.5))):
        assert flat_bits(Povm(PROJECTORS, labels()).labels) == hex_bits("0x1p+1", "0x1p-1")
        assert flat_bits([correlation(joint, labels(), labels()),
                          correlation(joint, labels(), (0.5, 2.0))]) == hex_bits(
            "0x1.9999999999998p-2", "-0x1.9999999999998p-2")
