"""Elimination solver vs brute-force enumeration: the two routes must agree.

Every projective solve is cross-checked against a full scan of
P^N(F_q^k) on fields small enough to enumerate, point set for point set,
per extension level.  The solver is never trusted on its own here.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fanolines import Ideal, Polynomial, PrimeField, build_extension
from fanolines.field import FieldElement, embedding
from fanolines.idealkit import (enumerated_points, groebner_of, hilbert_data,
                                solve_report)
from fanolines.fglm import fglm_lex, lex_basis_zero_dim
from fanolines.groebner import groebner_basis
from fanolines.solve import chart_system, empty_charts, solve_projective
from fanolines.poly import LEX, random_homogeneous
from fanolines.errors import BudgetExceeded, NotZeroDimensional

from conftest import (dehomogenize, frobenius_residue_degree,
                      leading_monomial, parse, plain_chart_system)
from test_groebner import seed_585427_rank_drop

PRIMES = [3, 5, 7]


def point_key(pt):
    return (pt.field.degree, tuple(pt.serialize()))


def both_routes(ideal, k_max, seed=0):
    solved = solve_report(ideal, k_max, seed).points
    scanned = enumerated_points(ideal, k_max=k_max)
    return ({point_key(p) for p in solved}, {point_key(p) for p in scanned})


@pytest.mark.parametrize("p", PRIMES)
def test_routes_agree_on_plane_conic_pairs(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for trial in range(6):
        gens = [random_homogeneous(field, 3, 2, rng) for _ in range(2)]
        ideal = Ideal(gens)
        from fanolines.idealkit import hilbert_data
        if hilbert_data(ideal)[0] != 0:
            continue  # degenerate draw: shared component
        solved, scanned = both_routes(ideal, k_max=2, seed=trial)
        assert solved == scanned


@pytest.mark.parametrize("p", PRIMES)
def test_routes_agree_on_space_systems(p):
    field = PrimeField(p)
    rng = random.Random(100 + p)
    gens = [random_homogeneous(field, 4, 1, rng),
            random_homogeneous(field, 4, 2, rng),
            random_homogeneous(field, 4, 2, rng)]
    ideal = Ideal(gens)
    from fanolines.idealkit import hilbert_data
    if hilbert_data(ideal)[0] != 0:
        pytest.skip("degenerate draw")
    solved, scanned = both_routes(ideal, k_max=2)
    assert solved == scanned


def test_routes_agree_with_no_rational_points():
    # x0^2 + x1^2 in P^1 over F_7: -1 is not a square, points appear at k=2
    f7 = PrimeField(7)
    ideal = Ideal([parse("x0^2 + x1^2", 2, f7)])
    s1, e1 = both_routes(ideal, k_max=1)
    assert s1 == e1 == set()
    s2, e2 = both_routes(ideal, k_max=2)
    assert s2 == e2 and len(s2) == 2


def test_routes_agree_minus_one_square_mod_5():
    f5 = PrimeField(5)
    ideal = Ideal([parse("x0^2 + x1^2", 2, f5)])
    solved, scanned = both_routes(ideal, k_max=1)
    assert solved == scanned and len(solved) == 2


def test_counts_by_degree_partition_points():
    f7 = PrimeField(7)
    gens = [parse("x0^2 + x1^2 - x2^2", 3, f7), parse("x0*x1 - x2^2", 3, f7)]
    result = solve_projective(groebner_basis(gens), k_max=4)
    assert sum(result.counts_by_degree.values()) == len(result.points)
    for pt in result.points:
        assert pt.field.degree in result.counts_by_degree


def test_solver_deterministic_across_reruns():
    f7 = PrimeField(7)
    gens = [parse("x0^2 + x1^2 - x2^2", 3, f7), parse("x0*x1 - x2^2", 3, f7)]
    a = solve_projective(groebner_basis(gens), k_max=3, seed=9)
    b = solve_projective(groebner_basis(gens), k_max=3, seed=9)
    assert [p.serialize() for p in a.points] == \
        [p.serialize() for p in b.points]


def test_enumerate_route_respects_budget():
    f7 = PrimeField(7)
    ideal = Ideal([parse("x0^2 + x1^2", 2, f7)])
    with pytest.raises(BudgetExceeded):
        enumerated_points(ideal, k_max=4, budget=10)


def first_chart_in_shape_position(ideal):
    """Whether the chart x0 = 1 has a lex basis {x_i - g_i(x_last)} + {e}:
    one element per variable, the first m - 1 led by x_0, ..., x_{m-2}."""
    chart = [dehomogenize(g, 0) for g in ideal.nonzero_generators()]
    gb = lex_basis_zero_dim(chart)
    m = gb[0].nvars
    leads = {leading_monomial(g, LEX) for g in gb}
    linear = {tuple(int(j == i) for j in range(m)) for i in range(m - 1)}
    return len(gb) == m and linear <= leads


def rootless_cubic(p):
    """x^3 + a*x + b with no root in F_p, hence irreducible."""
    for a in range(p):
        for b in range(1, p):
            if all((x ** 3 + a * x + b) % p for x in range(p)):
                return f"x2^3 + {a}*x0^2*x2 + {b}*x0^3"
    raise AssertionError("no irreducible cubic found")


def non_square(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


# Each generator is a product of factors. On the chart x0 = 1 these set
# x1 = g(x2), with the points' last coordinates the roots of an eliminant
# whose factors have degree 1, 2 or 3 (one squared).
SHAPE_SYSTEMS = {
    "degree2": lambda p: [["x0*x1 - x2^2 - 2*x0*x2"],
                          [f"x2^2 - {non_square(p)}*x0^2", "x2 - 3*x0"]],
    "degree3": lambda p: [["x0*x1 - 2*x2^2 + x0^2"],
                          [rootless_cubic(p), "x2 + x0"]],
    "double_root": lambda p: [["x0*x1 - x2^2"],
                              ["x2 - x0", "x2 - x0",
                               f"x2^2 - {non_square(p)}*x0^2"]],
}

# Points the last coordinate does not tell apart: two rational points or
# two conjugate points over F_p^2 on the line x2 = 2*x0, and a double point;
# then two points over each root x2 of x2^2 = 2 (a non-square mod 3 and 5),
# whose x1 has degree 2 over F_p(x2) (points of residue degree 2 * 2) or
# lies in F_p(x2) (degree 2 * 1, two points per fiber, none read off).
NON_SHAPE_SYSTEMS = {
    "rational_pair": lambda p: [["x1 - x0", "x1 + 2*x0"], ["x2 - 2*x0"]],
    "conjugate_pair": lambda p: [[f"x1^2 - {non_square(p)}*x0^2"],
                                 ["x2 - 2*x0"]],
    "double_point": lambda p: [["x1^2"], ["x2 - 2*x0"]],
    "degree4_sqrt_1_plus_x2": lambda p: [["x2^2 - 2*x0^2"],
                                  ["x1^2 - x0^2 - x0*x2"]],
    "degree4_sqrt_x2": lambda p: [["x2^2 - 2*x0^2"], ["x1^2 - x0*x2"]],
    "degree2_split_fibers": lambda p: [["x2^2 - 2*x0^2"],
                                 ["x1^2 - 3*x1*x2 + 2*x2^2"]],
}

# name: (primes, k_max, points, residue degrees)
NON_SHAPE_CASES = {
    "rational_pair": ((5, 7), 3, 2, {1}),
    "conjugate_pair": ((5, 7), 3, 2, {2}),
    "double_point": ((5, 7), 3, 1, {1}),
    "degree4_sqrt_1_plus_x2": ((3,), 4, 4, {4}),
    "degree4_sqrt_x2": ((5,), 4, 4, {4}),
    "degree2_split_fibers": ((5,), 4, 4, {2}),
}


def product_ideal(system, field):
    gens = []
    for factors in system:
        gen = parse(factors[0], 3, field)
        for factor in factors[1:]:
            gen = gen * parse(factor, 3, field)
        gens.append(gen)
    return Ideal(gens)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name", sorted(SHAPE_SYSTEMS))
def test_routes_agree_on_shape_position_charts(name, p):
    ideal = product_ideal(SHAPE_SYSTEMS[name](p), PrimeField(p))
    assert first_chart_in_shape_position(ideal)
    solved, scanned = both_routes(ideal, k_max=3)
    assert solved == scanned
    degrees = {"degree2": {1, 2}, "degree3": {1, 3}, "double_root": {1, 2}}
    assert {deg for deg, _ in solved} == degrees[name]


@pytest.mark.parametrize("name, p", [(name, p) for name in sorted(NON_SHAPE_CASES)
                                     for p in NON_SHAPE_CASES[name][0]])
def test_routes_agree_on_charts_not_in_shape_position(name, p):
    ideal = product_ideal(NON_SHAPE_SYSTEMS[name](p), PrimeField(p))
    assert not first_chart_in_shape_position(ideal)
    _, k_max, size, degrees = NON_SHAPE_CASES[name]
    solved, scanned = both_routes(ideal, k_max=k_max)
    assert solved == scanned
    assert len(solved) == size
    assert {deg for deg, _ in solved} == degrees


def test_points_over_an_extension_ground_lie_on_the_system():
    # over F_49, x2 = sqrt(t) lies in F_7^4 and x1 = sqrt(x2) in F_7^8: the
    # chart x2 = 1 has a degree-4 eliminant over F_49 and every fibre is
    # read off; a fibre solved over F_7^4 is the next test's
    field = build_extension(7, 2)
    x0, x1, x2 = (Polynomial.variable(field, 3, i) for i in range(3))
    gens = [x2 ** 2 - x0 ** 2 * Polynomial.constant(field, 3, field.generator()),
            x1 ** 2 - x0 * x2]
    result = solve_projective(groebner_basis(gens), k_max=4)
    assert result.counts_by_degree == {4: 4}
    assert len(set(result.points)) == 4
    for pt in result.points:
        coords = list(pt.coords)
        assert frobenius_residue_degree(coords, field, 4) == 4
        assert all(g.evaluate(coords).is_zero() for g in gens)


def test_fibre_points_over_a_larger_field_are_points_of_the_system():
    # over G = F_49 the eliminant's roots lie in F_7^4, and each fibre is a
    # quadratic solved over F_7^4 with points in F_7^8. They are points of
    # the system embedded directly from G because the map of G into F_7^8
    # through F_7^4 is G's own: embeddings compose
    field = build_extension(7, 2)
    x0, x1, x2 = (Polynomial.variable(field, 3, i) for i in range(3))
    a, c, d = (Polynomial.constant(field, 3, FieldElement(field, v))
               for v in ((6, 3), (0, 2), (4, 3)))
    gens = [x1 ** 2 + a * x1 * x2 + a * x2 ** 2,
            x0 ** 2 - c * x1 * x2 - d * x2 ** 2]
    mid, top = build_extension(7, 4), build_extension(7, 8)
    gen = field.generator()
    assert embedding(mid, top)(embedding(field, mid)(gen)) == embedding(
        field, top)(gen)
    result = solve_projective(groebner_basis(gens), k_max=4)
    assert result.counts_by_degree == {4: 4}
    for pt in result.points:
        embed = embedding(field, pt.field)
        assert all(g.map_coefficients(pt.field, embed).evaluate(
            pt.coords).is_zero() for g in gens)


@pytest.mark.parametrize("q", [9, 25])
def test_routes_agree_over_a_quadratic_ground(q):
    # the solver over F_(p^2), as for a node over F_(p^2), against the
    # scan of every point over F_(q^k). Its orbits are orbits of x -> x^q:
    # the coefficients lie outside F_p, so x -> x^p does not map points of
    # the system to points of it. Random conic pairs are read off; on
    # x2^2 = c x0^2, (x1 - c x2)(x1 - (c + 1) x2) = 0 with c a non-square
    # (so not in F_p) two points lie over each root x2, so every fibre
    # goes through its own lex basis
    ground = build_extension({9: 3, 25: 5}[q], 2)
    rng = random.Random(f"quadratic-ground-{q}")
    degrees = set()
    for trial in range(3):
        gens = [random_homogeneous(ground, 3, 2, rng) for _ in range(2)]
        ideal = Ideal(gens)
        if hilbert_data(ideal)[0] != 0:
            continue
        solved, scanned = both_routes(ideal, k_max=2, seed=trial)
        assert solved == scanned
        degrees |= {deg for deg, _ in solved}
    assert degrees == {2, 4}  # over F_p: rational and quadratic points
    c = next(e for e in map(ground.element_from_code, range(q))
             if e ** ((q - 1) // 2) == ground.from_int(-1))
    c, c1 = (Polynomial.constant(ground, 3, e) for e in (c, c + 1))
    x0, x1, x2 = (Polynomial.variable(ground, 3, i) for i in range(3))
    ideal = Ideal([x2 ** 2 - c * x0 ** 2, (x1 - c * x2) * (x1 - c1 * x2)])
    assert not first_chart_in_shape_position(ideal)
    solved, scanned = both_routes(ideal, k_max=2)
    assert solved == scanned and {deg for deg, _ in solved} == {4}
    assert len(solved) == 4


CHART_FIELDS = {"5": lambda: PrimeField(5), "7": lambda: PrimeField(7),
                "10007": lambda: PrimeField(10007),
                "7^2": lambda: build_extension(7, 2)}


def coordinate_product_systems(field, rng):
    """Zero-dimensional homogeneous systems whose points include some on
    x_N = 0 and on x_{N-1} = x_N = 0: random forms times the last
    coordinates, so the lower charts are not all empty."""
    def var(nvars, i):
        return Polynomial.variable(field, nvars, i)

    shapes = [(3, lambda: [var(3, 2) * random_homogeneous(field, 3, 1, rng),
                           var(3, 1) * random_homogeneous(field, 3, 1, rng)]),
              (3, lambda: [var(3, 2) * random_homogeneous(field, 3, 2, rng),
                           random_homogeneous(field, 3, 2, rng)]),
              (4, lambda: [var(4, 3) * random_homogeneous(field, 4, 1, rng),
                           var(4, 2) * random_homogeneous(field, 4, 1, rng),
                           random_homogeneous(field, 4, 2, rng)])]
    out = []
    while len(out) < 6:
        nvars, draw = shapes[len(out) % len(shapes)]
        gens = draw()
        if hilbert_data(Ideal(gens))[0] == 0:
            out.append((nvars, gens))
    return out


@pytest.mark.parametrize("name", sorted(CHART_FIELDS))
def test_charts_read_off_the_grevlex_basis_match_per_chart_buchberger(name):
    field = CHART_FIELDS[name]()
    rng = random.Random(f"charts-{name}")
    nonempty = set()
    for nvars, gens in coordinate_product_systems(field, rng):
        basis = groebner_of(Ideal(gens))
        for last in range(1, nvars):
            chart = chart_system(basis, last)
            oracle = lex_basis_zero_dim(chart_system(gens, last))
            if any(g.degree() <= 0 for g in chart):
                assert len(oracle) == 1 and oracle[0].degree() <= 0
            else:
                assert fglm_lex(chart) == oracle
                nonempty.add((nvars, last))
    assert nonempty == {(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(7), PrimeField(10007),
                        build_extension(3, 2), build_extension(10007, 3)]),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_chart_system_matches_plain_route(seed, field, nvars):
    # dense polynomials, so terms that differ only in x_last meet at one
    # key; the last one cancels to zero on its chart
    rng = random.Random(seed)
    last = rng.randrange(nvars)
    polys = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randrange(40)):
            mono = tuple(rng.randrange(4) for _ in range(nvars))
            terms[mono] = field.sample(rng)
        polys.append(Polynomial(field, nvars, terms))
    c = field.sample(rng)
    polys.append(Polynomial(field, nvars, {
        tuple(int(i == last) for i in range(nvars)): c,
        tuple(2 * int(i == last) for i in range(nvars)): -c}))
    assert chart_system(polys, last) == plain_chart_system(polys, last)


@pytest.mark.parametrize("field", [build_extension(3, 2),
                                   build_extension(10007, 3)], ids=str)
def test_chart_system_at_the_packer_bound(field):
    # 64 terms meet at the key of x0 on chart 1, each coefficient with
    # every digit p - 1
    t = field.generator()
    c = -sum((t ** i for i in range(field.degree)), field.zero())
    f = Polynomial(field, 3, {(1, e, 0): c for e in range(64)})
    assert chart_system([f], 1) == plain_chart_system([f], 1)
    assert chart_system([f], 1) == [parse("64*x0", 1, field) * c]


def form_through(field, points, rng):
    """A product of random linear forms, one through each of points."""
    out = Polynomial.constant(field, len(points[0]), 1)
    for point in points:
        coeffs = [field.sample(rng) for _ in point]
        i = next(i for i, c in enumerate(point) if c)
        rest = sum((c * x for j, (c, x) in enumerate(zip(coeffs, point))
                    if j != i), field.zero())
        coeffs[i] = -rest / point[i]
        out = out * Polynomial.linear(field, coeffs)
    return out


def zero_dimensional(draw):
    """The first list draw() gives whose ideal is zero-dimensional."""
    while True:
        gens = draw()
        if hilbert_data(Ideal(gens))[0] == 0:
            return gens


def empty_chart_systems(field, rng):
    """Random zero-dimensional systems, systems through points planted on
    coordinate subspaces ([1:0:0], [0:1:0], [0:0:1] and points
    [1:a:0:0:0], where the singular points of an r = 2 rank-drop ideal
    lie), the systems of `coordinate_product_systems`, an ideal with no
    projective point and the unit ideal."""
    out = []
    for nvars in (2, 3, 3, 4, 4):
        degrees = [rng.randrange(1, 4) for _ in range(nvars - 1 + nvars % 2)]
        out.append(zero_dimensional(lambda: [
            random_homogeneous(field, nvars, d, rng) for d in degrees]))
    one, zero = field.one(), field.zero()
    plants = [[[one, zero, zero], [zero, one, zero], [zero, zero, one]],
              [[zero, one, zero], [zero, zero, one]],
              [[one, zero, zero, zero, zero], [zero, one, zero, zero, zero]]]
    plants.append([[one, field.sample(rng), zero, zero, zero]
                   for _ in range(3)])
    for points in plants:
        out.append(zero_dimensional(lambda: [
            form_through(field, points, rng) for _ in points[0]]))
    out += [gens for _, gens in coordinate_product_systems(field, rng)]
    out.append([parse(t, 3, field) for t in ("x0^2", "x1", "x2")])
    out.append([Polynomial.constant(field, 3, 1)])
    return out


@pytest.mark.parametrize("name", sorted(CHART_FIELDS))
def test_empty_charts_are_the_charts_with_a_constant(name):
    # the leading-monomial test against the restriction itself, chart by
    # chart
    field = CHART_FIELDS[name]()
    rng = random.Random(f"empty-charts-{name}")
    seen = set()
    for gens in empty_chart_systems(field, rng):
        basis = groebner_of(Ideal(gens))
        empty = empty_charts(basis)
        for last in range(basis[0].nvars):
            constant = any(g.degree() <= 0 for g in chart_system(basis, last))
            assert (last in empty) == constant
            seen.add((last, constant))
    assert {constant for _, constant in seen} == {False, True}
    assert {last for last, constant in seen if not constant} >= {0, 1, 2, 3}


def test_rank_drop_points_restrict_one_chart(monkeypatch):
    # the rank-drop basis of `voisin-demo 2 --seed 585427`: its three
    # singular points are [1:a:0:0:0] with a != 0, so charts 0, 2, 3 and 4
    # are empty, and their leading monomials say so before any restriction
    from fanolines import solve
    basis = groebner_basis(seed_585427_rank_drop())
    assert len(basis) == 33 and empty_charts(basis) == {0, 2, 3, 4}
    restricted = []

    def counted(polys, last):
        restricted.append(last)
        return chart_system(polys, last)

    monkeypatch.setattr(solve, "chart_system", counted)
    points = solve_projective(basis, 3, seed=585427).points
    assert restricted == [1]
    assert [pt.serialize() for pt in points] == [
        ["1", "3485", "0", "0", "0"], ["1", "4047*t + 4331", "0", "0", "0"],
        ["1", "5960*t + 6795", "0", "0", "0"]]


@pytest.mark.parametrize("text", ["x0^2 + x1^2 - x2^2", "x2"])
def test_positive_dimensional_basis_raises(text):
    basis = groebner_basis([parse(text, 3, PrimeField(7))])
    with pytest.raises(NotZeroDimensional):
        solve_projective(basis, k_max=1)


def test_points_come_in_the_documented_order():
    # [0:...:0:1] first, then by pivot
    f5 = PrimeField(5)
    gens = [parse(t, 3, f5) for t in ("x1*x2", "x0*x2", "x0*x1")]
    result = solve_projective(groebner_basis(gens), k_max=1)
    assert [p.serialize() for p in result.points] == [
        ["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
