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
    OutcomeDistribution,
    cd_from_scenario,
    correlation,
    correlation_operator,
    dissipator,
    disturbance,
    disturbance_bound,
    disturbance_operator,
)
from .detector_model import (
    DetectorNoise,
    FockState,
    estimate_noise,
    scenario_cd,
    scenario_distributions,
)
from .highdim_model import (
    OverlapGeometry,
    RandomizedDichotomic,
    bloch_length,
    cd_highdim,
    overlap,
)
from .quantum_core import (
    DensityMatrix,
    Effect,
    Instrument,
    LuedersInstrument,
    Povm,
    apply_instrument,
    dual_channel,
    joint_probabilities,
    psd_sqrt,
    unregistered_channel,
)
from .qubit_model import (
    ConvexPovmSpec,
    EllipseCharacter,
    QubitMeasurement,
    amplitude_phase_form,
    cd_parametric,
    convex_povm,
    ellipse_character,
    measurement_from_povm,
    optimal_state,
    state_from_bloch,
)
from .shot_sampler import (
    CdEstimate,
    InstrumentPolicy,
    ShotRecord,
    estimate_cd,
    sample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
