import ast
import inspect
from pathlib import Path

import cdtradeoff
from cdtradeoff import errors

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
