"""Exception hierarchy shared by all arcan modules."""


class ArcanError(Exception):
    """Base class for every error raised by this package."""


# --- jet arithmetic ---------------------------------------------------------

class ZeroDivisor(ArcanError):
    """Division by a jet whose every retained coefficient is zero."""


class OddValuation(ArcanError):
    """Square root of a series whose leading exponent is odd."""


class NegativeLeading(ArcanError):
    """Square root of a series whose leading coefficient is negative."""


class PoleAtOrigin(ArcanError):
    """A Taylor coefficient was requested from a series with a pole at t=0."""


class IrregularBatch(ArcanError):
    """Lanes of a batched jet need the scalar path (caught by the batch's user)."""


# --- expressions ------------------------------------------------------------

class ExprSyntaxError(ArcanError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(ArcanError):
    """A function call with the wrong number or kind of arguments."""


class DomainError(ArcanError):
    """Pointwise evaluation left the function's real domain."""


class ZeroDenominator(DomainError):
    """Division by zero during pointwise evaluation (catchable by guard)."""


class ArcDomainError(ArcanError):
    """Series evaluation along an arc left the function's real domain."""


# --- interpolation ----------------------------------------------------------

class GenericityFailure(ArcanError):
    """No acceptably conditioned node set found within the retry budget."""


class SingularSystem(ArcanError):
    """The interpolation system is singular (degenerate node set)."""


# --- blow-ups and estimates -------------------------------------------------

class BadCenter(ArcanError):
    """Blow-up center of codimension < 2 that is not a point blow-up."""


class PremiseViolated(ArcanError):
    """A check's hypothesis failed on the sampled data."""


class CapExceeded(ArcanError):
    """No exponent up to the configured cap fits the growth bound."""
