"""Exception types shared across the package.

One class per CLI exit code: a ``ConfigurationError`` (exit 2) is bad input,
whether a parameter, a model, a spectrum file or a config file; a
``NumericalError`` (exit 3) is a failure inside the random-matrix machinery.
"""


class SpikeOrderError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpikeOrderError):
    """Bad input: a parameter, model, spectrum file or configuration."""


class NumericalError(SpikeOrderError):
    """A numerical routine failed to reach its tolerance or bracket."""
