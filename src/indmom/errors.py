"""Exception types shared across the package."""


class IndmomError(Exception):
    """Base class for all package errors."""


class CoefficientRangeError(IndmomError):
    """Coefficient requested beyond a source's range: past the data of an
    explicit source, or a power-law coefficient past the float range."""


class CoefficientFileError(IndmomError):
    """Malformed coefficient file; message carries the line number."""


class EvaluationOverflowError(IndmomError):
    """Recurrence values overflowed double precision."""


class NonConvergenceError(IndmomError):
    """A series failed to converge within the truncation cap."""


class BasepointError(IndmomError):
    """Deficiency basepoint not in the open upper half-plane."""


class InconclusiveMembershipError(IndmomError):
    """Membership verdicts disagree between the two basepoints."""


class ZeroOnContourError(IndmomError):
    """A zero is suspected on (or too close to) the counting contour."""


class SupportPointError(IndmomError):
    """Evaluation point collides with the support of the measure."""


class SpecStringError(IndmomError):
    """Malformed combination spec string; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Faults in what a run is given: the CLI's usage errors (exit 2), beside
# ValueError and FileNotFoundError.
USAGE_ERRORS = (BasepointError, CoefficientFileError, CoefficientRangeError,
                SpecStringError)
