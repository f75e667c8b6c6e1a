"""Exception types shared across the package.

Two broad classes matter to callers (and to the CLI exit-code contract):
configuration problems (bad parameters, bad input files) and numerical
failures inside the random-matrix machinery.
"""


class SpikeOrderError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpikeOrderError):
    """Invalid parameter combination or malformed configuration."""


class IngestionError(ConfigurationError):
    """A spectrum file could not be parsed or validated."""


class NumericalError(SpikeOrderError):
    """A numerical routine failed to reach its tolerance or bracket."""


class SubcriticalSpikeError(ValueError, SpikeOrderError):
    """Spike at or below the phase-transition threshold; no sample limit exists."""


class QuantileAtomError(ValueError, SpikeOrderError):
    """Requested quantile falls inside the point mass at zero (c > 1)."""
