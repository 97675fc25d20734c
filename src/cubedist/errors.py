"""Exception types shared across the package.

Each class carries the CLI exit code it maps to: 2 for malformed input,
3 for domain errors (degenerate metric, bad tree, out-of-range
parameter), 4 for refused work (budget or cap exceeded), 5 for a failed
internal invariant (a defect in the program, never the input's fault).
"""


class CubedistError(Exception):
    exit_code = 1


class DimensionError(CubedistError):
    """Operands have incompatible shapes."""

    exit_code = 3


class SingularMatrixError(CubedistError):
    """Inverse or solve requested for a matrix with determinant 0."""

    exit_code = 3

    def __init__(self, message="matrix is singular", det=None):
        super().__init__(message)
        self.det = det


class DependenceError(CubedistError):
    """Operation requires a linearly independent point set."""

    exit_code = 3


class IndependenceError(CubedistError):
    """Operation requires a linear dependence, but none exists."""

    exit_code = 3


class DegenerateMetricError(CubedistError):
    """Point list contains a repeated point."""

    exit_code = 3


class InvalidTreeError(CubedistError):
    """Edge list is not a tree in the supported size range."""

    exit_code = 3


class DomainError(CubedistError):
    """Numeric parameter outside its allowed range."""

    exit_code = 3


class NotNegativeTypeError(CubedistError):
    """Strictness query at an exponent where negative type already fails."""

    exit_code = 3


class ParseError(CubedistError):
    """Malformed input file; carries a 1-based line number when known."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetExceededError(CubedistError):
    """Enumeration refused; `required` holds the subset count at stake."""

    exit_code = 4

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


class CapExceededError(CubedistError):
    """No root found below the scan cap."""

    exit_code = 4


class InvariantError(CubedistError):
    """An identity the computation relies on failed to hold.

    Raised instead of `assert`, so the check also runs under `python -O`.
    """

    exit_code = 5
