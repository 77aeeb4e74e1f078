"""Exception taxonomy shared by all modules.

Structural failures (a point leaving an open set, a factorization that does
not exist) are reported with dedicated exception types so that callers can
distinguish "the math says no" from genuine numerical breakdown.
"""

from __future__ import annotations


class CentralizerLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CentralizerLabError):
    """Operands live in spaces of different dimension."""


class UnsupportedRank(CentralizerLabError):
    """Matrix size outside the supported range 2 <= n <= 8."""


class NoConvergence(CentralizerLabError):
    """An iterative kernel failed to reach its advertised accuracy."""


class SingularMinor(CentralizerLabError):
    """A leading principal minor is numerically zero, so the no-pivot
    Gauss factorization does not exist.

    ``index`` is the 1-based order of the offending minor.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"leading principal minor {index} is numerically zero")


class NotInXiPlusB(CentralizerLabError):
    """The matrix does not have the companion-plus-upper-triangular shape
    (unit subdiagonal from the regular nilpotent, nothing below it)."""


class NotInV(CentralizerLabError):
    """The point is outside the flow domain: its spectrum does not have
    pairwise distinct real parts, so no chamber normal form exists.  The
    embedding also raises it where the partial products of the root
    coordinates over- or underflow, a domain restriction of floating point."""


class NotInGStar(CentralizerLabError):
    """The group element lies outside the translated big cell, i.e. the
    w0-translated Gauss factorization does not exist.

    ``minor_index`` carries the order of the vanishing minor when known.
    """

    def __init__(self, message: str = "element outside the translated big cell",
                 minor_index: int | None = None):
        self.minor_index = minor_index
        super().__init__(message)


class NotCentralizing(CentralizerLabError):
    """The group element does not stabilize the required algebra element."""


class NotInW(CentralizerLabError):
    """The centralizer point is outside the image of the Toda embedding
    (spectrum with collided real parts, or group part outside the
    translated big cell)."""


class InvalidZPoint(CentralizerLabError):
    """The pair (g, x) violates the universal-centralizer invariants."""
