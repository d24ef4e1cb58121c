"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An input is outside the supported desk-scale range."""


class OutOfHypothesisError(ValueError):
    """The inputs violate the hypothesis of the statement being checked."""


class ExcludedCaseError(ValueError):
    """The input falls in a case the statement explicitly excludes."""


class UnsupportedFamilyError(ValueError):
    """No criterion is available for this character family."""

