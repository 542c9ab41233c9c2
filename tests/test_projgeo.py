"""Projective points, coordinate moves, lines, and exhaustive enumeration."""

import random

import pytest

from fanolines import PrimeField, ProjectivePoint, build_extension
from fanolines.linalg import mat_inverse
from fanolines.projgeo import (exceeds_budget, move_to_base_point,
                               projective_count)
from fanolines.poly import random_homogeneous
from fanolines.errors import BudgetExceeded

from conftest import (base_point, dehomogenize, enumerate_projective_points,
                      line_lies_in, mat_identity, mat_vec, parse, random_point)

F7 = PrimeField(7)
F10007 = PrimeField(10007)


def test_canonical_form_first_nonzero_is_one():
    pt = ProjectivePoint([F7.from_int(3), F7.from_int(6), F7.zero()])
    assert pt.coords[0] == F7.one()
    assert pt.serialize() == ["1", "2", "0"]


def test_scaling_gives_equal_points():
    a = ProjectivePoint([F7.from_int(2), F7.from_int(4), F7.from_int(6)])
    b = ProjectivePoint([F7.one(), F7.from_int(2), F7.from_int(3)])
    assert a == b


def test_enumeration_counts_examples():
    assert projective_count(1, 3) == 4
    assert projective_count(2, 5) == 31
    assert projective_count(5, 7) == 19608
    f3 = PrimeField(3)
    assert len(list(enumerate_projective_points(1, f3))) == 4


def test_budget_check_matches_the_count_without_the_huge_power():
    # every small case agrees with the exact count, at the budget's edge too
    for n in range(4):
        for q in (2, 3, 4, 7, 9, 11, 121, 10007):
            for k in range(1, 5):
                total = projective_count(n, q ** k)
                for budget in (0, 1, total - 1, total, total + 1, 10 ** 8):
                    assert exceeds_budget(n, q, budget, k) == (total > budget)
    # P^3(F_10007^(10^9)) would be a power of some 4 * 10^10 digits
    assert exceeds_budget(3, 10007, 10 ** 8, 10 ** 9)
    assert not exceeds_budget(0, 10007, 1, 10 ** 9)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_count_matches_formula(n, q):
    field = PrimeField(q)
    pts = list(enumerate_projective_points(n, field))
    assert len(pts) == projective_count(n, q) == (q ** (n + 1) - 1) // (q - 1)
    # canonical and duplicate-free
    seen = set()
    for pt in pts:
        key = tuple(pt.serialize())
        assert key not in seen
        seen.add(key)
        assert pt.coords[pt.pivot()] == field.one()
        assert all(c.is_zero() for c in pt.coords[:pt.pivot()])


def test_enumeration_over_extension_field():
    f9 = build_extension(3, 2)
    pts = list(enumerate_projective_points(1, f9))
    assert len(pts) == 10


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceeded):
        list(enumerate_projective_points(5, PrimeField(10007), budget=10**6))


def test_base_point():
    assert base_point(F7, 3).serialize() == ["1", "0", "0", "0"]


def test_move_to_base_point_trivial_cases():
    e0 = base_point(F7, 2)
    assert move_to_base_point(e0) == mat_identity(F7, 3)
    e1 = ProjectivePoint([F7.zero(), F7.one(), F7.zero()])
    m = move_to_base_point(e1)
    image = mat_vec(m, [F7.one(), F7.zero(), F7.zero()])
    assert ProjectivePoint(image) == e1


def test_move_to_base_point_random():
    rng = random.Random(8)
    for _ in range(100):
        y = random_point(F10007, 3, rng)
        m = move_to_base_point(y)
        e0 = [F10007.one()] + [F10007.zero()] * 3
        assert ProjectivePoint(mat_vec(m, e0)) == y
        # invertible, and the inverse undoes the move
        back = mat_vec(mat_inverse(m), mat_vec(m, e0))
        assert ProjectivePoint(back) == ProjectivePoint(e0)


def test_move_transfers_multiplicity_structure():
    # f o M has its low-order terms at e0 exactly when f has them at y
    rng = random.Random(21)
    for trial in range(10):
        y = random_point(F10007, 3, rng)
        m = move_to_base_point(y)
        # manufacture f with a double point at y by pulling back a node at e0
        node = parse("x0*x1^2 + x2^3 + x3^3", 4, F10007)
        f = node.apply_matrix(mat_inverse(m))
        assert f.evaluate(list(y.coords)) == F10007.zero()
        moved = f.apply_matrix(m)
        local = dehomogenize(moved, 0)
        assert min(local.homogeneous_components()) == 2


def test_line_substitution_splits_by_degree():
    # on the representative (u, v*y'), f restricts to sum u^(d-i) v^i f_i(y')
    rng = random.Random(31)
    f = random_homogeneous(F10007, 4, 3, rng)
    yp = [F10007.sample(rng) for _ in range(3)]
    comps = dehomogenize(f, 0).homogeneous_components()
    for _ in range(10):
        u, v = F10007.sample(rng), F10007.sample(rng)
        rep = [u] + [v * c for c in yp]
        lhs = f.evaluate(rep)
        rhs = F10007.zero()
        for i, comp in comps.items():
            rhs = rhs + u ** (3 - i) * v ** i * comp.evaluate(yp)
        assert lhs == rhs


def test_line_in_quadric_iff_all_coefficients_vanish():
    quadric = parse("x0*x3 - x1*x2", 4, F7)
    # rulings of the quadric surface lie in it
    a = ProjectivePoint([F7.one(), F7.zero(), F7.zero(), F7.zero()])
    b = ProjectivePoint([F7.zero(), F7.one(), F7.zero(), F7.zero()])
    assert line_lies_in(quadric, a, b)
    # a chord joining two points of the quadric generally does not
    c = ProjectivePoint([F7.one(), F7.one(), F7.one(), F7.one()])
    d = ProjectivePoint([F7.one(), F7.from_int(2), F7.from_int(3),
                         F7.from_int(6)])
    assert quadric.evaluate(list(c.coords)).is_zero()
    assert quadric.evaluate(list(d.coords)).is_zero()
    assert not line_lies_in(quadric, c, d)


def test_random_point_deterministic():
    a = random_point(F7, 3, random.Random(5))
    b = random_point(F7, 3, random.Random(5))
    assert a == b
