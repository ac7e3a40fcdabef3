"""Exception types shared across the package."""

from typing import Sequence


class SdtaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SdtaError):
    """A document could not be read into the requested model type."""


class ValidationError(SdtaError):
    """Parsed input violates a structural invariant.

    ``violations`` lists one human-readable message per problem when the
    message sums up several; it is empty when the message says it all.
    """

    def __init__(self, message: str, violations: Sequence[str] = ()):
        super().__init__(message)
        self.violations = list(violations)


class UnsupportedNodeType(ValidationError):
    """Node degree pattern falls outside the supported archetypes."""


class ProbabilityMassError(ValidationError):
    """Realization probabilities are not a proper distribution."""


class MonotonicityRequired(ValidationError):
    """Operation needs strictly increasing travel times over time."""


class DegenerateChoiceSet(SdtaError):
    """No alternative has finite utility at some departure step."""


class NonTerminatingTranslation(SdtaError):
    """A policy-to-path walk failed to reach the destination."""


class NotYetReached(SdtaError):
    """Requested cumulative count lies above the recorded curve."""
