"""Projective points, coordinate changes and point counts.

Points are stored canonically: the first nonzero coordinate is scaled to 1,
so equality of points is equality of tuples. `scan.variety_scan`
enumerates P^N(F_q) in canonical form.
"""

from __future__ import annotations

from typing import List, Sequence

from .field import Field, FieldElement
from .linalg import Matrix

DEFAULT_BUDGET = 10**8


def projective_count(n_proj: int, q: int) -> int:
    """|P^N(F_q)| = (q^(N+1) - 1)/(q - 1)."""
    return (q ** (n_proj + 1) - 1) // (q - 1)


def exceeds_budget(n_proj: int, q: int, budget: int, k: int = 1) -> bool:
    """Whether |P^N(F_{q^k})| > budget, without building q^k when it is
    huge: for N >= 1 the count is above q^(kN) >= 2^(kN (bits(q) - 1)),
    so a kN (bits(q) - 1) of at least the bit length of the budget
    decides it, and only smaller powers are computed."""
    if not n_proj:
        return budget < 1  # P^0 is one point
    if k * n_proj * (q.bit_length() - 1) >= budget.bit_length():
        return True
    return projective_count(n_proj, q ** k) > budget


class ProjectivePoint:
    """Point of P^N in canonical form (first nonzero coordinate = 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[FieldElement]):
        coords = tuple(coords)
        assert coords, "empty coordinate tuple"
        pivot = None
        for i, c in enumerate(coords):
            if not c.is_zero():
                pivot = i
                break
        if pivot is None:
            raise ValueError("all coordinates zero")
        lead = coords[pivot]
        if lead != 1:
            inv = lead.inverse()
            coords = tuple(c * inv for c in coords)
        self.coords = coords

    @property
    def field(self) -> Field:
        return self.coords[0].field

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def pivot(self) -> int:
        for i, c in enumerate(self.coords):
            if not c.is_zero():
                return i
        raise AssertionError("unreachable: canonical point has a pivot")

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def serialize(self) -> List[str]:
        field = self.field
        return [field.element_str(c.payload) for c in self.coords]

    def __repr__(self):
        return "[" + ":".join(self.serialize()) + "]"


def move_to_base_point(y: ProjectivePoint) -> Matrix:
    """Invertible M with M e0 = y, completing y by standard basis vectors.

    Column 0 is y itself; the remaining columns are the unit vectors e_j
    for j != pivot(y), in ascending j. Substituting f(Mx) then carries the
    local structure of f at y to the base point [1:0:...:0].
    """
    field = y.field
    n = len(y.coords)
    pivot = y.pivot()
    cols = [list(y.coords)]
    for j in range(n):
        if j == pivot:
            continue
        cols.append([field.one() if i == j else field.zero() for i in range(n)])
    # transpose column list into row-major matrix
    return [[cols[j][i] for j in range(n)] for i in range(n)]
