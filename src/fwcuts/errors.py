"""Exception types shared across the toolkit."""


class FwcutsError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(FwcutsError, ValueError):
    """Vector dimensions of two coupled arguments disagree."""


class EnumerationCapacityError(FwcutsError, ValueError):
    """Enumeration over {0,1}^k was requested for a k that is too large."""


class InfeasibleOracleError(FwcutsError, RuntimeError):
    """The oracle's feasible set is empty."""


class InfeasibleFixingError(FwcutsError, RuntimeError):
    """Variable fixings imply a negative remaining capacity."""


class UndefinedBoundError(FwcutsError, ValueError):
    """Iteration bound requested for a point at distance zero."""


class NumericalInstabilityError(FwcutsError, RuntimeError):
    """The dual simplex met a singular basis or reached its iteration limit.

    Neither happens in exact arithmetic on a well-formed LP: every pivot
    entry clears a tolerance and every variable is boxed.  Either one means
    the rows are too ill-conditioned for double precision.
    """


class InvalidCutError(FwcutsError, RuntimeError):
    """A cut made the relaxation infeasible; indicates a validity bug."""


class InfeasibleRelaxationError(FwcutsError, RuntimeError):
    """The initial relaxation has no feasible point (bad instance data)."""


class GapUndefinedError(FwcutsError, ValueError):
    """Gap-closed is undefined because the first relaxation was already tight."""


class ParseError(FwcutsError, ValueError):
    """Malformed instance file.

    Carries the index of the offending whitespace-separated token so the
    location in the raw stream can be reported.
    """

    def __init__(self, message: str, token_offset: int):
        super().__init__(f"{message} (at token {token_offset})")
        self.token_offset = token_offset
