"""Shared exception types."""


class InequalityViolated(ValueError):
    """Raised when correlation data admits no local hidden-variable model.

    Carries the offending expression value so callers can report how far
    outside the classical bound the data sits.  construct_lhv_model also sets
    ``sign``, the sign function whose inequality attains that value.
    """

    sign = None

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed a configured size or iteration cap."""
