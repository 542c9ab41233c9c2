"""Dense linear algebra over an exact field.

Every elimination in the package goes through `Echelon`, one incremental
row echelon on raw coefficient payloads: the Jacobian ranks of every
certificate (a node's Hessian rank included), the determinant, the
inverse, and FGLM's linear dependences. Sizes stay small (coordinate
changes, Jacobians of a few generators, the quotient algebras of
zero-dimensional charts), so the pivot of a row is simply its first
nonzero entry. A stored row is kept unscaled and made monic, at the cost
of one inverse, only the first time a later row needs it, so the last
row of a rank computation is never inverted.

The matrix functions take and return lists of row lists of FieldElement.
"""

from __future__ import annotations

import random
from typing import Iterable, List

from .field import Field, FieldElement
from .errors import SingularMatrix

Matrix = List[List[FieldElement]]


class Echelon:
    """Incremental row echelon on payload lists over one field.

    An added row is reduced against the rows stored before it and, unless
    its leading `width` entries are then all zero, stored as it is at its
    pivot: its first nonzero entry among those `width`. A stored row is
    scaled monic, and its pivot inverted, the first time a later row has
    a nonzero entry at that pivot; a row nothing reduces against is never
    inverted. Entries after `width` ride along and are never pivots, so a
    caller that appends a unit vector to each row reads, from a row that
    reduces to zero there, the combination of earlier rows that it
    equals.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.pivots: List[int] = []
        # per stored row: [pivot entry, (index, payload) of its nonzero
        # entries after the pivot]; the entries before the pivot are zero,
        # and the pivot entry is None once the row is scaled monic
        self._rows: List[list] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: list) -> list:
        """The row minus the combination of stored rows that clears every
        stored pivot. Rows are taken in the order they were stored: each
        has zeros at the pivots of the rows before it."""
        field = self.field
        sub, mul, is_zero = field._sub, field._mul, field._is_zero
        zero = field._zero_payload()
        w = list(row)
        for pivot, stored in zip(self.pivots, self._rows):
            c = w[pivot]
            if is_zero(c):
                continue
            lead, tail = stored
            if lead is not None:  # first use: scale the row monic
                inv = field._inv(lead)
                tail = stored[1] = [(t, mul(inv, v)) for t, v in tail]
                stored[0] = None
            w[pivot] = zero
            for t, v in tail:
                w[t] = sub(w[t], mul(c, v))
        return w

    def add(self, row: list) -> list:
        """Reduce the row, store it when it is independent of the stored
        rows, and return it reduced."""
        w = self.reduce(row)
        is_zero = self.field._is_zero
        for pivot in range(self.width):
            if not is_zero(w[pivot]):
                self.pivots.append(pivot)
                self._rows.append([w[pivot],
                                   [(t, w[t]) for t in range(pivot + 1, len(w))
                                    if not is_zero(w[t])]])
                break
        return w


def payload_rank(field: Field, width: int, rows: Iterable[list]) -> int:
    """Rank of payload rows whose leading `width` entries are the matrix."""
    echelon = Echelon(field, width)
    for row in rows:
        echelon.add(row)
    return echelon.rank


def _payloads(a: Matrix) -> List[list]:
    return [[x.payload for x in row] for row in a]


def unit_row(field: Field, j: int, size: int) -> list:
    """The payload row e_j of length size."""
    out = [field._zero_payload()] * size
    out[j] = field._one_payload()
    return out


def mat_rank(a: Matrix) -> int:
    if not a:
        return 0
    return payload_rank(a[0][0].field, len(a[0]), _payloads(a))


def mat_det(a: Matrix) -> FieldElement:
    """Product of the unscaled pivots, signed by the parity of the pivot
    columns taken in row order: reducing a row by earlier rows keeps the
    determinant, and the reduced rows, with columns put in pivot order,
    form a triangular matrix."""
    n = len(a)
    assert all(len(row) == n for row in a)
    field = a[0][0].field
    echelon = Echelon(field, n)
    reduced = [echelon.add(row) for row in _payloads(a)]
    if echelon.rank < n:
        return field.zero()
    det = field._one_payload()
    for w, pivot in zip(reduced, echelon.pivots):
        det = field._mul(det, w[pivot])
    pivots = echelon.pivots
    inversions = sum(pivots[j] > pivots[i] for i in range(n) for j in range(i))
    return FieldElement(field, field._neg(det) if inversions % 2 else det)


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse from the echelon of [a | I]: reducing [e_j | 0] leaves
    [0 | -row j of the inverse]. Raises SingularMatrix."""
    n = len(a)
    field = a[0][0].field
    echelon = Echelon(field, n)
    for i, row in enumerate(_payloads(a)):
        echelon.add(row + unit_row(field, i, n))
    if echelon.rank < n:
        raise SingularMatrix("matrix is not invertible")
    zeros = [field._zero_payload()] * n
    return [[FieldElement(field, field._neg(v))
             for v in echelon.reduce(unit_row(field, j, n) + zeros)[n:]]
            for j in range(n)]


def random_invertible(field: Field, n: int, rng: random.Random) -> Matrix:
    """Uniform-ish invertible matrix by rejection sampling."""
    while True:
        a = [[field.sample(rng) for _ in range(n)] for _ in range(n)]
        if not mat_det(a).is_zero():
            return a
