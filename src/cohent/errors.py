"""Exception hierarchy shared by all cohent modules."""


class CohentError(Exception):
    """Base class for all errors raised by this package.

    A check over columns of states raises for the first state that fails it
    and sets `index` to that state's position (see `indexed`).
    """

    index: int | None = None


def indexed(error: CohentError, index) -> CohentError:
    """`error`, its `index` set to the position of the state it is about."""
    error.index = int(index)
    return error


class DomainError(CohentError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateStateError(CohentError):
    """The squared norm is numerically zero: the four components are dependent."""


class TruncationError(CohentError):
    """Fock-space truncation too small for the requested amplitude."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass


class ConsistencyError(CohentError):
    """An internal cross-check failed (float noise beyond bug threshold)."""


class InputFileError(CohentError):
    """A state or scan document could not be read or parsed, or the output
    file could not be written."""


class GridSizeError(DomainError):
    """Requested scan grid exceeds the hard size limit."""
