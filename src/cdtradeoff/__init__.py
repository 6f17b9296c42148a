"""Correlation/disturbance tradeoff of sequential quantum measurements:
exact simulation, closed-form laws, shot-noise emulation, and inversion of
measured scans into device parameters."""

__version__ = "0.1.0"

from .calibration import (
    CdScan,
    CircleFit,
    DetectorEstimate,
    DeviceCharacter,
    estimate_detector,
    fit_circle_sharp_probe,
    fit_ellipse_known_theta,
    fit_ellipse_unknown_theta,
)
from .cd_measures import (
    CdValue,
    cd_from_scenario,
    correlation,
    correlation_operator,
    dissipator,
    disturbance_operator,
)
from .detector_model import (
    DetectorNoise,
    scenario_cd,
    scenario_distributions,
)
from .highdim_model import (
    OverlapGeometry,
    RandomizedDichotomic,
    cd_highdim,
    overlap,
)
from .quantum_core import (
    DensityMatrix,
    Instrument,
    LuedersInstrument,
    Povm,
    dual_channel,
    psd_sqrt,
)
from .qubit_model import (
    EllipseCharacter,
    InstrumentPolicy,
    QubitMeasurement,
    cd_parametric,
    ellipse_character,
    measurement_from_povm,
    optimal_state,
    state_from_bloch,
)
from .shot_sampler import (
    CdEstimate,
    estimate_cd,
    sample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
