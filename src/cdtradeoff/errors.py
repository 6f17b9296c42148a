"""Exception hierarchy for the cdtradeoff package."""


class CdTradeoffError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(CdTradeoffError):
    """Operands act on Hilbert spaces of different dimension."""


class NotFiniteError(CdTradeoffError):
    """Matrix or parameter holds a NaN or an infinity."""


class NotHermitianError(CdTradeoffError):
    """Matrix deviates from Hermiticity beyond tolerance."""


class NotPsdError(CdTradeoffError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class InvalidStateError(CdTradeoffError):
    """Density matrix fails the unit-trace requirement."""


class InvalidMeasurementError(CdTradeoffError):
    """Effect, POVM, or measurement parametrization violates positivity
    or completeness."""


class LabelMismatchError(CdTradeoffError):
    """Outcome label sets of the two measurements differ."""


class NotNormalizedError(CdTradeoffError):
    """Probability table does not sum to one within tolerance."""


class TradeoffViolationError(CdTradeoffError):
    """Square-root value, two outcomes on each arm, outside C^2 + D^2 <= 1."""


class NotDichotomicError(CdTradeoffError):
    """Operation requires a two-outcome measurement with +1/-1 labels."""


class NegativeDisturbanceError(CdTradeoffError):
    """Disturbance, a distance between outcome distributions, below zero."""


class ZeroBlochError(CdTradeoffError):
    """Bloch vector of zero length where a direction is required."""


class ProbeNotSharpError(CdTradeoffError):
    """First measurement must be projective (sharpness one)."""


class InvalidDimError(CdTradeoffError):
    """Hilbert-space dimension out of range."""


class InvalidNoiseError(CdTradeoffError):
    """Detector noise parameters out of physical range."""


class OutOfDomainError(CdTradeoffError):
    """Measured values incompatible with any physical parameter set."""


class InvalidShotsError(CdTradeoffError):
    """Shot totals must be positive integers, resample counts integers >= 0,
    and counts whole and non-negative."""


class InvalidSeedError(CdTradeoffError):
    """Sampler seed not an integer in the 128-bit Philox key range."""


class EmptyRecordError(CdTradeoffError):
    """Shot record contains no counts."""


class NonQubitError(CdTradeoffError):
    """Operation defined only for two-dimensional systems."""


class FitError(CdTradeoffError):
    """Base class for calibration-fit failures."""


class InsufficientPointsError(FitError):
    """Scan has too few (or incomplete) points for the requested fit."""


class RankDeficientError(FitError):
    """Scan geometry does not determine the fit parameters."""


class NotAnEllipseError(FitError):
    """Fitted conic is not an ellipse."""


class ConfigError(CdTradeoffError):
    """Command-line configuration cannot be parsed."""


class SchemaError(ConfigError):
    """Configuration or data file violates the published schema."""
