"""Lines on hypersurfaces through a singular point, over exact fields.

The package computes the variety of lines inside a projective hypersurface
passing through a fixed point of given multiplicity, checks its dimension
and degree two independent ways (Groebner invariants vs point counting),
and exercises the construction on nodal cubics with many isolated singular
points.

The package root re-exports the fields, polynomials, points and ideals;
the pipelines live in their modules (`fanolines.fano`,
`fanolines.voisin`, `fanolines.idealkit`, `fanolines.cli`).
"""

from .field import PrimeField, build_extension, embedding
from .poly import Polynomial, parse_polynomial
from .projgeo import ProjectivePoint
from .idealkit import Ideal
from . import errors

__all__ = [
    "PrimeField",
    "build_extension",
    "embedding",
    "Polynomial",
    "parse_polynomial",
    "ProjectivePoint",
    "Ideal",
    "errors",
    "__version__",
]

__version__ = "0.1.0"
