import ast
import inspect
import warnings
from pathlib import Path

import pytest

import cdtradeoff
from cdtradeoff import errors
from cdtradeoff.calibration import CdScan
from cdtradeoff.cd_measures import correlation
from cdtradeoff.highdim_model import circle_law, overlaps
from cdtradeoff.quantum_core import Povm, unit_kets
from cdtradeoff.qubit_model import bloch_matrix, check_qubit, qubit_states
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
        "estimate_noise",
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
], ids=["unit_kets_ragged", "unit_kets_text", "bloch_matrix_text", "check_qubit_text",
        "qubit_states_ragged", "sample_tables_ragged", "estimate_columns_ragged",
        "estimate_columns_text", "estimate_columns_none", "estimate_columns_complex",
        "estimate_columns_numeric_text",
        "correlation_text", "circle_law_text_overlap", "circle_law_text_gamma",
        "overlaps_ragged", "scan_text", "scan_ragged", "povm_number"])
def test_malformed_arrays_raise_typed_errors(call):
    """An entry point that takes arrays refuses non-numeric or ragged input
    with a library error, and no numpy warning comes first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.CdTradeoffError):
            call()
