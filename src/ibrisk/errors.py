"""Exception hierarchy shared across the package.

Each class carries the CLI exit code its failures end with.
"""


class IbRiskError(Exception):
    """Base class for all package errors."""

    exit_code = 5


class InputError(IbRiskError):
    """Malformed or unusable input data (files, records, windows)."""

    exit_code = 3


class ParameterError(IbRiskError):
    """A scalar parameter is outside its accepted range."""

    exit_code = 2


class CalibrationError(IbRiskError):
    """Balance-sheet calibration is infeasible for the given network."""

    exit_code = 4


class InvariantError(IbRiskError):
    """An internal consistency check failed."""

    exit_code = 5
