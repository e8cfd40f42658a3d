"""Numerical toolkit for transition densities of Levy processes.

Submodules:

    levy_core      characteristic exponents, built-in model library
    measures       jump-measure variants and radial profiles
    specfun        the Bessel layer: H_nu and J_{nu+k} by one recurrence
    inversion      density computation by Fourier inversion
    rearrangement  sublevel measures and monotone rearrangements
    diagnostics    growth functionals and existence verdicts
    asymptotics    small/large-time behavior of the density at 0
    ratio_limit    large-time ratio limits of the semigroup
    modelio        model file (de)serialization
    cli            command-line frontend
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    IntegrabilityRefusal,
    LevyDensError,
    ModelFormatError,
    NotMonotoneError,
    QuadratureError,
    RangeError,
    UnsupportedModelError,
)
from .levy_core import ModelSpec, builtin_model
from .measures import AtomSpec, MeasureSpec

__all__ = [
    "__version__",
    "AtomSpec",
    "DimensionMismatchError",
    "IntegrabilityRefusal",
    "LevyDensError",
    "MeasureSpec",
    "ModelFormatError",
    "ModelSpec",
    "NotMonotoneError",
    "QuadratureError",
    "RangeError",
    "UnsupportedModelError",
    "builtin_model",
]
