"""Exception hierarchy shared by all tricl modules."""


class TriclError(Exception):
    """Base class of every error raised by this library."""


class InvalidVarietyError(TriclError, ValueError):
    """Structurally invalid variety data."""


class EmptyBlockError(InvalidVarietyError):
    """An exponent block contains no variables."""


class NonPositiveExponentError(InvalidVarietyError):
    """An exponent l_ij < 1 was given."""


class DuplicateThetaError(InvalidVarietyError):
    """Two relation coefficients coincide; a zero one raises plain InvalidVarietyError."""


class NotAdjustedError(TriclError):
    """The operation requires the variety in adjusted form."""


class NotRationalError(TriclError):
    """The operation requires a rational variety, i.e. a finitely generated
    divisor class group."""


class FactorialInputError(TriclError):
    """The operation is undefined for factorial varieties."""


class FreeVariablesPresentError(TriclError):
    """The operation requires m = 0 (no free variables)."""


class NotHyperplatonicError(TriclError):
    """The operation requires a hyperplatonic variety."""


class IterationNotAdmittedError(TriclError):
    """The variety does not admit iteration of its total coordinate spaces."""


class OracleMismatchError(TriclError):
    """Two independent computations of the same invariant disagreed.

    This always indicates a bug in the library, never bad user input.
    """


class ResourceLimitError(TriclError):
    """The input is valid but exceeds the size the library handles."""
