"""The one elimination kernel, `linalg.Echelon`, through `mat_rank`,
`mat_det` and `mat_inverse`: against sympy's DomainMatrix over prime
fields, and by identities that need no oracle over extension fields."""

import random

import pytest

from fanolines import PrimeField, build_extension
from fanolines.errors import SingularMatrix
from fanolines.linalg import mat_det, mat_inverse, mat_rank, payload_rank

from conftest import mat_identity

SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 4), (4, 2), (3, 5),
          (6, 3)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), row[0].field.zero())
             for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matrices(field, rng):
    """Random matrices of every shape in SHAPES, each with three variants:
    a product through a smaller inner dimension (rank deficient), one
    with a zero row and one with a zero column."""
    out = []
    for rows, cols in SHAPES:
        def draw(r, c):
            return [[field.sample(rng) for _ in range(c)] for _ in range(r)]
        a = draw(rows, cols)
        inner = rng.randrange(min(rows, cols))
        low = (mat_mul(draw(rows, inner), draw(inner, cols)) if inner
               else [[field.zero()] * cols for _ in range(rows)])
        zero_row = [list(row) for row in a]
        zero_row[rng.randrange(rows)] = [field.zero()] * cols
        c = rng.randrange(cols)
        zero_col = [[field.zero() if j == c else x for j, x in enumerate(row)]
                    for row in a]
        out.extend([a, low, zero_row, zero_col])
    return out


@pytest.mark.parametrize("p", [7, 10007])
def test_rank_det_inverse_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    K = sympy.GF(p)
    field = PrimeField(p)
    rng = random.Random(f"linalg-{p}")
    seen = {"deficient": 0, "singular": 0, "invertible": 0}
    for _ in range(6):
        for a in matrices(field, rng):
            rows, cols = len(a), len(a[0])
            dm = DomainMatrix([[K(x.payload) for x in row] for row in a],
                              (rows, cols), K)
            rank = mat_rank(a)
            assert rank == dm.rank()
            seen["deficient"] += rank < min(rows, cols)
            if rows != cols:
                continue
            assert mat_det(a).payload == K.to_int(dm.det()) % p
            if rank < rows:
                seen["singular"] += 1
                with pytest.raises(SingularMatrix):
                    mat_inverse(a)
                continue
            seen["invertible"] += 1
            assert ([[x.payload for x in row] for row in mat_inverse(a)]
                    == [[K.to_int(x) % p for x in row]
                        for row in dm.inv().to_list()])
    assert all(seen.values()), seen


@pytest.mark.parametrize("p,k", [(7, 2), (3, 5)])
def test_inverse_det_rank_identities_over_extensions(p, k):
    field = build_extension(p, k)
    rng = random.Random(f"linalg-{p}^{k}")
    square = [a for a in matrices(field, rng) if len(a) == len(a[0])]
    invertible = 0
    for a in matrices(field, rng):
        assert mat_rank(a) == mat_rank(transpose(a))
    for a in square:
        n = len(a)
        b = rng.choice([b for b in square if len(b) == n])
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)
        if mat_det(a).is_zero():
            assert mat_rank(a) < n
            with pytest.raises(SingularMatrix):
                mat_inverse(a)
            continue
        invertible += 1
        assert mat_rank(a) == n
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == mat_identity(field, n)
        assert mat_mul(inv, a) == mat_identity(field, n)
    assert invertible


@pytest.mark.parametrize("field", [PrimeField(10007), build_extension(7, 3)],
                         ids=str)
def test_full_rank_inverts_every_pivot_but_the_last(field, monkeypatch):
    # Vandermonde rows (1, x_i, x_i^2, ...) with distinct nodes x_i: row i,
    # reduced by the rows before pivot j, holds prod_(l < j) (x_i - x_l) at
    # pivot j, so every stored row but the last is used, and inverted, once
    calls = []
    inv = type(field)._inv

    def counted_inv(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(type(field), "_inv", counted_inv)
    for r in range(1, 7):
        for width in (r, r + 2):
            rows = [[field.from_int(x ** j).payload for j in range(width)]
                    for x in range(1, r + 1)]
            calls.clear()
            assert payload_rank(field, width, rows) == r
            assert len(calls) == r - 1
