"""Numerical mirror symmetry on a torus fibered over a circle.

The same cohomology is computed on three sides and cross-checked:
theta-type holomorphic sections on the mirror side, an intersection complex
with area-weighted differential, and the de Rham cohomology of twisted
rapidly-decreasing sections (a finite-difference discretization, plus an
analytic count from each lift component's asymptotics).
"""

from .errors import (
    DecayError,
    NumericsError,
    TorusMirrorError,
    TransversalityError,
    UnsupportedError,
    ValidationError,
    WindowError,
)

__all__ = [
    "DecayError",
    "NumericsError",
    "TorusMirrorError",
    "TransversalityError",
    "UnsupportedError",
    "ValidationError",
    "WindowError",
]

__version__ = "0.1.0"
