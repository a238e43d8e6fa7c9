"""Exception types shared across the package."""


class PadicLFError(Exception):
    """Base class for all library errors."""


class NotAUnit(PadicLFError):
    """Raised when an element expected to be invertible is not coprime to the modulus."""


class NotCoprime(PadicLFError):
    """Raised when two integers required to be coprime are not."""


class NotDivisible(PadicLFError):
    """Raised when a required divisibility (level change, factoring) fails."""


class NotMultipleOfConductor(PadicLFError):
    pass


class UnsupportedOrder(PadicLFError):
    """Raised when a character's order does not divide p - 1."""


class DivisionByZero(PadicLFError, ZeroDivisionError):
    pass


class InsufficientPrecision(PadicLFError):
    """Raised when an operation needs more p-adic digits than are tracked."""


class LevelOrder(PadicLFError):
    """Raised for a negative level, or for refinement levels in the wrong order."""


class LevelTooLow(PadicLFError):
    """Raised when an integration level is below the character's level."""


class CostLimitExceeded(PadicLFError):
    """Raised before a computation whose estimated cost is above a fixed limit."""
