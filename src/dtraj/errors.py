"""Error taxonomy shared by every module.

The CLI maps these onto process exit codes; library callers catch them directly.
"""


class DtrajError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DtrajError):
    """Malformed robot configuration or other bad input file (CLI exit 2)."""


class DomainError(DtrajError):
    """Input outside the mathematical domain of an operation (CLI exit 3)."""


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
    """A configurable exploration/enumeration budget was exhausted (CLI exit 4)."""


class ResourceLimit(DtrajError):
    """A hard memory/term cap would be exceeded (CLI exit 4)."""


class NumericalOverflow(DtrajError):
    """Numerical failure: a non-finite value, or closed forms that disagree (CLI exit 5)."""
