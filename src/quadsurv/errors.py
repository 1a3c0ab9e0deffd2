"""Exception hierarchy shared by the library and the CLI.

Each error class carries the process exit code the CLI maps it to:
2 usage, 3 data, 4 numeric, 5 internal.
"""


class QuadSurvError(Exception):
    exit_code = 5


class UsageError(QuadSurvError):
    """Invalid flags, configuration values, or API preconditions."""

    exit_code = 2


class ContractError(UsageError):
    """An operation was called in a way its contract forbids."""


class InvalidOrderError(UsageError):
    """Quadrature order outside the supported range."""


class DataError(QuadSurvError):
    exit_code = 3


class IngestionError(DataError):
    """Malformed input file (bad schema, missing values, bad types)."""


class DegenerateDataError(DataError):
    """Dataset cannot support fitting (e.g. no events at all)."""


class CalibrationError(DataError):
    """Censoring calibration could not reach the requested rate."""


class HorizonError(DataError):
    """Evaluation horizon outside the censoring-survival support."""


class UndefinedMetricError(DataError):
    """Metric has no comparable pairs; distinct from a value of zero."""


class ShapeError(DataError):
    """Array dimensions disagree with what the operation requires."""


class NumericDomainError(QuadSurvError):
    """Non-finite value produced where a finite one is required."""

    exit_code = 4
