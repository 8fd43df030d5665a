"""Exception hierarchy shared across the toolkit.

Grouped by the kind of failure so the command line front end can map them
to stable exit codes: validation problems, numerical non-convergence, and
input parse errors.
"""


class PtContourError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PtContourError):
    """Inputs violate a documented precondition."""


class NumericalError(PtContourError):
    """A numerical procedure failed to converge or is divergent."""


# --- operator algebra -------------------------------------------------------

class NonTerminating(NumericalError):
    """Nested-commutator series still nonzero at the depth cap."""


class NotHermitizable(ValidationError):
    """Im(a^2 c) != 0: no Hermitian equivalent exists for these parameters."""


class NonHermitianRho(ValidationError):
    """Im(b/c) != 0: the similarity transformation would not be Hermitian."""


class PushforwardMismatch(PtContourError):
    """Exact metric transport identity failed (implementation bug)."""


# --- contour geometry -------------------------------------------------------

class BranchUndefined(ValidationError):
    """Square-root branch selection is ambiguous with no prior sample."""


class OnStokesLine(ValidationError):
    """Endpoint direction lies exactly on a wedge boundary."""


# --- spectral ----------------------------------------------------------------

class GridTooCoarse(ValidationError):
    """Grid resolution insufficient for the operator's polynomial degree."""


class NotHermitian(ValidationError):
    """Matrix fails the Hermiticity tolerance required by the solver."""


class NotConverged(NumericalError):
    """An eigensolver failed, or a drift or residual exceeds its bound."""


# --- metric / amplitudes -----------------------------------------------------

class NonIntegrable(NumericalError):
    """Combined exponent passes the overflow sentinel; amplitude diverges."""


# --- command line ------------------------------------------------------------

class ParseError(ValidationError):
    """Bad literal in command-line input."""

    def __init__(self, text: str, position: int, message: str = "invalid complex literal"):
        self.text = text
        self.position = position
        super().__init__(f"{message}: {text!r} at position {position}")


class ConfigParseError(ParseError):
    """Malformed config file; ``position`` is the 1-based line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(path, line, message)
        self.args = (f"{message}: {path!r} line {line}",)
