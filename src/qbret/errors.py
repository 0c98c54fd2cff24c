"""Exception types raised across the package."""


class QbretError(Exception):
    """Base class for all qbret errors."""


# --- matrix core ---

class DimensionMismatch(QbretError):
    pass


class NotHermitian(QbretError):
    pass


class NoConvergence(QbretError):
    pass


class NotPSD(QbretError):
    pass


class ComplexResidue(QbretError):
    pass


# --- frames ---

class ParseError(QbretError):
    pass


class IllConditioned(QbretError):
    """A frame Gram too ill-conditioned for recoveries to meet the oracle."""


class TooLarge(QbretError):
    """An object would exceed the size the package is willing to allocate."""


class ValidationFailed(QbretError):
    """Carries the name of the first violated frame invariant."""

    def __init__(self, check: str, violation: float, tol: float):
        self.check = check
        self.violation = violation
        self.tol = tol
        super().__init__(f"frame validation failed: {check} "
                         f"(violation {violation:.3e} > tol {tol:.3e})")


# --- Hilbert side ---

class NotUnitary(QbretError):
    pass


class BadAncilla(QbretError):
    pass


class SingularPosterior(QbretError):
    pass


# --- quasiprobability side ---

class RepMismatch(QbretError):
    pass


class OracleMismatch(QbretError):
    """A recovery matrix deviates from the Hilbert-space oracle beyond its gate."""
