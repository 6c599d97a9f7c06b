"""Exception hierarchy shared across the package."""


class SingdistError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(SingdistError):
    """Invalid linear structure or an operation unsupported by it."""


class DimensionMismatchError(SingdistError):
    """Operands have inconsistent shapes."""


class TripletError(SingdistError):
    """Singular triplet computation failed to reach the required residual."""

    def __init__(self, message, achieved_residual=None):
        super().__init__(message)
        self.achieved_residual = achieved_residual


class AllStartsFailed(SingdistError):
    """No start could run: every one was skipped; carries the per-start summaries."""

    def __init__(self, message, starts=None):
        super().__init__(message)
        self.starts = starts if starts is not None else []


class ExtractionError(SingdistError):
    """Cofactor extraction could not be carried out."""


class InputError(SingdistError):
    """Unreadable or malformed user input (files, flags)."""
