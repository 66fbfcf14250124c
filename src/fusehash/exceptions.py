"""Exception types raised across the toolkit."""


class FusehashError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(FusehashError, ValueError):
    """A scalar argument is outside its documented domain."""


class ShapeError(FusehashError, ValueError):
    """Matrix dimensions or sample counts do not line up."""


class LabelError(FusehashError, ValueError):
    """A sample carries an empty or out-of-range label set."""


class CenterSeparationError(FusehashError, RuntimeError):
    """Center generation could not reach the required average distance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateWeightError(FusehashError, ValueError):
    """A modality weight vector contains a zero entry."""


class EmptyBatchError(FusehashError, ValueError):
    """Every modality of a query batch is missing."""


class NumericalError(FusehashError, RuntimeError):
    """A linear solve failed on a system that should be positive definite,
    or a feature matrix holds a NaN or infinite value."""


class CorruptFileError(FusehashError, ValueError):
    """A data file has a bad magic, a bad checksum, or a truncated payload."""
