"""Exception and warning types shared across the toolkit."""


class TsmlabError(Exception):
    """Base class for toolkit errors."""


class QuadratureError(TsmlabError):
    """A quadrature rule failed its construction-time accuracy check."""


class GridMismatchError(TsmlabError):
    """Two fields that must share a grid were built on incompatible rules."""


class FieldDomainError(TsmlabError):
    """A field evaluation was requested outside the sampled domain."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points


class IllConditionedFitError(TsmlabError):
    """A least-squares fit too ill-conditioned to report silently."""

    def __init__(self, message, condition_number=float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class ConfigError(TsmlabError):
    """Malformed, unknown, or invalid experiment configuration."""


class TranslateTailWarning(UserWarning):
    """A twisted translate moved non-negligible mass off the sampled grid."""


class TruncationTailWarning(UserWarning):
    """A radial integral's truncation tail may exceed the target accuracy."""
