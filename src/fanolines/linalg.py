"""Dense linear algebra over an exact field.

Matrices are lists of row lists of FieldElement. Everything here is plain
Gaussian elimination; sizes stay small (coordinate changes, Gram matrices),
so no pivoting strategy beyond "first nonzero entry" is needed.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .field import Field, FieldElement
from .errors import SingularMatrix

Matrix = List[List[FieldElement]]


def mat_identity(field: Field, n: int) -> Matrix:
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, v: Sequence[FieldElement]) -> List[FieldElement]:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def _eliminate(a: Matrix):
    """Row echelon form in place; returns (rank, det_of_leading_block_sign_adjusted)."""
    if not a:
        return 0, None
    rows, cols = len(a), len(a[0])
    det_factor = a[0][0].field.one()
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det_factor = -det_factor
        inv = a[rank][col].inverse()
        for r in range(rank + 1, rows):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] * inv
            for c in range(col, cols):
                a[r][c] = a[r][c] - factor * a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank, det_factor


def mat_rank(a: Matrix) -> int:
    work = [list(row) for row in a]
    rank, _ = _eliminate(work)
    return rank


def mat_det(a: Matrix) -> FieldElement:
    n = len(a)
    assert all(len(row) == n for row in a)
    field = a[0][0].field
    work = [list(row) for row in a]
    rank, sign = _eliminate(work)
    if rank < n:
        return field.zero()
    det = sign
    for i in range(n):
        det = det * work[i][i]
    return det


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on [a | I]; raises SingularMatrix."""
    n = len(a)
    field = a[0][0].field
    work = [list(row) + list(idrow) for row, idrow in zip(a, mat_identity(field, n))]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not work[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            raise SingularMatrix("matrix is not invertible")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r == col or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_invertible(field: Field, n: int, rng: random.Random) -> Matrix:
    """Uniform-ish invertible matrix by rejection sampling."""
    while True:
        a = [[field.sample(rng) for _ in range(n)] for _ in range(n)]
        if not mat_det(a).is_zero():
            return a
