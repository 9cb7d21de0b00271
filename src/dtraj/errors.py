"""Error taxonomy shared by every module.

Each class carries the CLI's exit code for it as `exit_code`; library callers catch them directly.
"""


class DtrajError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 3


class ConfigError(DtrajError):
    """Malformed robot configuration or other bad input file."""
    exit_code = 2


class DomainError(DtrajError):
    """Input outside the mathematical domain of an operation."""
    exit_code = 3


class OutOfRange(DomainError):
    """A quantized grid point violates joint or velocity limits."""


class UnknownState(DomainError):
    """A state that is not part of the transition table was referenced."""


class NoFeasibleTransition(DomainError):
    """The planner found no outgoing transition of the required duration."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class BudgetExceeded(DtrajError):
    """A configurable exploration/enumeration budget was exhausted."""
    exit_code = 4


class ResourceLimit(DtrajError):
    """A hard memory/term cap would be exceeded."""
    exit_code = 4


class NumericalOverflow(DtrajError):
    """Numerical failure: a non-finite value, or closed forms that disagree."""
    exit_code = 5
