"""Exception types shared across the package."""


class QecError(Exception):
    pass


class ZeroInput(QecError):
    """An argument that must be nonzero was zero."""


class PreconditionViolation(QecError):
    """Inputs violate a documented precondition (degrees, goodness, ...)."""


class ParseError(QecError):
    """Malformed expression text.  `pos` is a 0-based offset into the input."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NonSplitSpectrum(QecError):
    """A characteristic polynomial has an irreducible factor of degree >= 2."""


class SearchExhausted(QecError):
    """A bounded search ran out of room.  Carries the bounds that were tried."""

    def __init__(self, message, bounds=None):
        super().__init__(message)
        self.bounds = bounds


class CertificateFailure(QecError):
    """An exact certificate did not hold: the computation is wrong, not the
    input.  Raised in every interpreter mode, unlike an assert."""


class UnknownSuite(QecError):
    """verify_suite was asked for a suite name it does not know."""
