"""Exact symbolic computations for the rank-one free boson, its charge-zero
even subalgebra, the twisted module, and their complete fusion rules.

Everything is computed over exact rationals (optionally extended by a
square root of the squared charge); there is no floating point anywhere.
"""

from .labels import (
    ModuleLabel,
    mlam,
    mminus,
    mplus,
    mtheta_minus,
    mtheta_plus,
)
from .fock import FockVector, Sector
from .scalars import Scalar

__all__ = [
    "FockVector",
    "ModuleLabel",
    "Scalar",
    "Sector",
    "mlam",
    "mminus",
    "mplus",
    "mtheta_minus",
    "mtheta_plus",
]

__version__ = "0.1.0"
