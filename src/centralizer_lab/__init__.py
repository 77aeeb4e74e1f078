"""centralizer_lab: the Kostant-Toda lattice solved by group factorization,
the integrable system on the universal centralizer of sl_n(C), and the
canonical open embedding between the two, with executable verification
suites for every structural identity.
"""

from .errors import (
    CentralizerLabError,
    DimensionMismatch,
    InvalidZPoint,
    NoConvergence,
    NotCentralizing,
    NotInGStar,
    NotInV,
    NotInW,
    NotInXiPlusB,
    SingularMinor,
    UnsupportedRank,
)
from .lie_core import ChevalleyData, build_chevalley
from .centralizer import CJLPoint, Tangent, ZPoint
from .toda import TodaPoint, make_toda_point

__version__ = "0.1.0"

__all__ = [
    "CentralizerLabError",
    "ChevalleyData",
    "CJLPoint",
    "DimensionMismatch",
    "InvalidZPoint",
    "NoConvergence",
    "NotCentralizing",
    "NotInGStar",
    "NotInV",
    "NotInW",
    "NotInXiPlusB",
    "SingularMinor",
    "Tangent",
    "TodaPoint",
    "UnsupportedRank",
    "ZPoint",
    "build_chevalley",
    "make_toda_point",
    "__version__",
]
