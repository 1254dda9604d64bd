"""Exception types shared across the package."""


class ViscolabError(Exception):
    """Base class for all viscolab-specific errors."""


class SingularMatrix(ViscolabError):
    """Matrix inversion requested for a (numerically) singular matrix."""


class DomainError(ViscolabError):
    """Constitutive evaluation outside the admissible set (det F <= 0)."""


class DegenerateQ(ViscolabError):
    """Closed-form coercivity constant undefined: det sym(Q0 F0^-1) ~ 0."""


class Unsupported(ViscolabError):
    """Requested a closed-form constant outside the catalogued cases."""


class InvalidConfig(ViscolabError):
    """Grid or solver configuration outside its documented range."""


class BoundaryMismatch(ViscolabError):
    """Supplied initial fields violate the clamped boundary values."""


class Interpenetration(ViscolabError):
    """Initial deformation has cells at or below the determinant floor."""


class PicardDivergence(ViscolabError):
    """Picard refreezing loop increments grew instead of contracting."""


class LinearSolveFailure(ViscolabError):
    """Inner linear solver exceeded its iteration cap at the requested tolerance."""


class MismatchedSampling(ViscolabError):
    """Two time series expected on the same time grid differ."""


class ParseError(ViscolabError):
    """Configuration document violates the key=value grammar."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RangeError(ParseError):
    """A configuration key parsed correctly but lies outside its range."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"key '{key}': {message}")
