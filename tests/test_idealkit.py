"""Ideal-level toolkit: point finding, singularity scan, slices, reports."""

import itertools
import random

import pytest

from fanolines import (Ideal, Polynomial, PrimeField, ProjectivePoint,
                       build_extension, embedding)
from fanolines.idealkit import (add_jacobian_certificates,
                                complete_intersection_report,
                                certify_reduced_point, enumerated_points,
                                groebner_of, hilbert_data,
                                is_complete_intersection, jacobian_rank_at,
                                matched, random_slice, rational_points,
                                sample_smooth_points,
                                singular_points, slice_degree, solve_report,
                                variety_report)
from fanolines.linalg import mat_rank
from fanolines.projgeo import projective_count
from fanolines.scan import singular_scan, variety_scan
from fanolines.unipoly import distinct_degree_factorization
from fanolines.poly import random_homogeneous
from fanolines.errors import BudgetExceeded, Inconclusive, InvalidParameters

from conftest import (jacobian_rank_oracle, leading_monomial, mono_divides,
                      parse, per_level_points, random_point)

F7 = PrimeField(7)
F11 = PrimeField(11)
F10007 = PrimeField(10007)


def test_rational_points_coordinate_axes():
    ideal = Ideal([parse("x0", 3, F7), parse("x1", 3, F7)])
    pts = rational_points(ideal, k_max=1)
    assert [p.serialize() for p in pts] == [["0", "0", "1"]]


def test_rational_points_conic_split_cases():
    # -1 is a square mod 5 but not mod 7
    f5 = PrimeField(5)
    assert len(rational_points(Ideal([parse("x0^2 + x1^2", 2, f5)]),
                               k_max=1)) == 2
    assert len(rational_points(Ideal([parse("x0^2 + x1^2", 2, F7)]),
                               k_max=1)) == 0


def test_remark_fixture_four_points_within_k2():
    ideal = Ideal([parse("x0^2 + x1^2 - x2^2", 3, F10007),
                   parse("x0*x1 - x2^2", 3, F10007)])
    pts = rational_points(ideal, k_max=2)
    assert len(pts) == 4
    for pt in pts:
        assert certify_reduced_point(ideal, [pt], codim=2) == [True]


@pytest.mark.parametrize("p", [3, 5, 10007])
def test_fat_point_is_not_certified_reduced(p):
    # (x1^2, x2) is a double point at [1:0:0]: degree 2 on one point, and
    # Jacobian rank 1 < 2 there
    field = PrimeField(p)
    ideal = Ideal([parse("x1^2", 3, field), parse("x2", 3, field)])
    point = ProjectivePoint([field.one(), field.zero(), field.zero()])
    assert hilbert_data(ideal) == (0, 2)
    assert certify_reduced_point(ideal, [point], codim=2) == [False]


def test_rational_points_enumerates_within_budget_and_solves_beyond(
        monkeypatch):
    ideal = Ideal([parse("x0^2 + x1^2 - x2^2", 3, F7),
                   parse("x0*x1 - x2^2", 3, F7)])
    expected = [p.serialize() for p in enumerated_points(ideal, k_max=2)]
    assert len(expected) == 4

    def wrong_route(*args, **kwargs):
        raise AssertionError("the other route was taken")
    # P^2(F_49) has 2451 points
    with monkeypatch.context() as patch:
        patch.setattr("fanolines.idealkit.solve_report", wrong_route)
        within = rational_points(ideal, k_max=2, budget=2451)
    with monkeypatch.context() as patch:
        patch.setattr("fanolines.idealkit.variety_scan", wrong_route)
        beyond = rational_points(ideal, k_max=2, budget=2450)
    assert [p.serialize() for p in within] == expected
    assert sorted(p.serialize() for p in beyond) == sorted(expected)


def no_table(*args, **kwargs):
    raise AssertionError("a table was built")


def test_budget_counts_the_scan_tables_before_building_any(monkeypatch):
    # P^0 over F_10007^4 is one point, but its log tables would hold about
    # 11 * 10^16 entries
    monkeypatch.setattr("fanolines.scan.VectorContext._build_logs", no_table)
    monkeypatch.setattr("fanolines.idealkit.subfield_table", no_table)
    ideal = Ideal([parse("x0", 1, F10007)])
    with pytest.raises(BudgetExceeded, match="log tables of F_10007\\^4"):
        enumerated_points(ideal, k_max=4)
    assert rational_points(ideal, k_max=4) == []
    # P^1(F_7^3) has 344 points, its tables 11 * 343 = 3773 entries
    line = Ideal([parse("x0*x1", 2, F7)])
    with pytest.raises(BudgetExceeded, match="more than 3772 entries"):
        enumerated_points(line, k_max=3, budget=3772)


@pytest.mark.parametrize("p,k_max", [(3, 2), (3, 4), (5, 3), (7, 2), (7, 3)])
def test_solver_keeps_the_scan_order_on_the_line(p, k_max, monkeypatch):
    # binary forms whose points fit the budget but whose scan tables do
    # not are solved, and the solver's order on P^1 is the scan's
    field = PrimeField(p)
    q = p ** k_max
    rng = random.Random(p * k_max)
    forms = [parse("x0^2*x1 - 2*x0*x1^2", 2, field)] + [
        random_homogeneous(field, 2, d, rng) for d in (2, 3, 4, 5, 6)]
    for f in forms:
        ideal = Ideal([f])
        scanned = [pt.serialize() for pt in enumerated_points(ideal, k_max)]
        with monkeypatch.context() as patch:
            patch.setattr("fanolines.idealkit.variety_scan", no_table)
            solved = rational_points(ideal, k_max, budget=q + 1)
        assert [pt.serialize() for pt in solved] == scanned


def test_solve_report_counts():
    ideal = Ideal([parse("x0^2 + x1^2 - x2^2", 3, F10007),
                   parse("x0*x1 - x2^2", 3, F10007)])
    result = solve_report(ideal, k_max=2)
    assert sum(result.counts_by_degree.values()) == len(result.points) == 4


def test_singular_points_smooth_quadric_empty():
    ideal = Ideal([parse("x0*x3 - x1*x2", 4, F11)])
    assert singular_points(ideal, k_max=1) == []


def test_singular_points_nodal_cubic_finds_node():
    ideal = Ideal([parse("x0*x1^2 + x2^3 + x3^3", 4, F11)])
    pts = singular_points(ideal, k_max=2)
    assert [p.serialize() for p in pts] == [["1", "0", "0", "0"]]


def test_singular_points_of_several_generators_match_the_oracle():
    # a curve in P^3 cut by two quadrics: the scan's several-generator
    # branch against every enumerated point filtered by the direct rank
    gens = [parse("x1^2 + x2^2 - x3^2", 4, F7),
            parse("x0*x1 + x2*x3 + x1^2", 4, F7)]
    ideal = Ideal(gens)
    dim, _ = hilbert_data(ideal)
    codim = ideal.ambient_proj_dim - dim
    points = enumerated_points(ideal, k_max=2)
    expected = [p.serialize() for p in points
                if jacobian_rank_oracle(gens, p) < codim]
    got = [p.serialize() for p in singular_points(ideal, k_max=2)]
    assert len(points) == 49
    assert got == expected == [["1", "0", "0", "0"]]


def irreducible_binary_form(ground, degree, rng):
    """x1^degree h(x0/x1) for a random monic h of that degree irreducible
    over the ground field: its zeros are one Frobenius orbit of points of
    residue degree `degree`."""
    while True:
        h = [ground.sample(rng) for _ in range(degree)] + [ground.one()]
        if degree == 1 or (not h[0].is_zero() and not
                           distinct_degree_factorization(h, ground,
                                                         degree // 2)):
            return Polynomial(ground, 2, {(i, degree - i): c
                                          for i, c in enumerate(h) if c})


def level_systems(ground, k_max, rng):
    """(points ideal, singular ideal) pairs with points spread over the
    levels up to k_max: on P^1, a product of irreducible forms of degrees
    1, 1, 1, 2, 2, 3, 4, with its square singular on its zeros; on P^2,
    where P^2(F_{q^k_max}) has under 10^6 points, the conic
    x0 x2 - x1^2 and a conic meeting it at [1:t:t^2] for the roots t of
    (t - a)(t - b) times an irreducible quadratic, with their product
    singular there."""
    forms = [irreducible_binary_form(ground, d, rng)
             for d in (1, 1, 1, 2, 2, 3, 4)]
    f = forms[0]
    for g in forms[1:]:
        f = f * g
    systems = [(Ideal([f]), Ideal([f * f]))]
    if projective_count(2, ground.order() ** k_max) < 10 ** 6:
        h = (irreducible_binary_form(ground, 1, rng)
             * irreducible_binary_form(ground, 1, rng)
             * irreducible_binary_form(ground, 2, rng))
        # g2(1, t, t^2) = h(t, 1): x0^2, x0 x1, x1^2, x1 x2, x2^2 take h's
        # coefficients of t^0 .. t^4
        slots = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        g1 = parse("x0*x2 - x1^2", 3, ground)
        g2 = Polynomial(ground, 3, {slots[i]: c for (i, _), c
                                    in h.terms.items()})
        systems.append((Ideal([g1, g2]), Ideal([g1 * g2])))
    return systems


@pytest.mark.parametrize("p,k,k_max", [
    (5, 1, 2), (5, 1, 3), (5, 1, 4), (3, 2, 2), (3, 2, 3), (3, 2, 4)])
def test_levels_read_off_the_top_scan_match_the_per_level_oracle(p, k, k_max):
    # only F_{q^k_max} and the levels dividing no larger one are scanned:
    # at k_max = 3 level 2 is scanned on its own, at k_max = 4 it is read
    # off F_{q^4}; over F_9 the codes of F_9 embedded in F_81 are out of
    # order, so each level must be put back in its own scan order
    ground = PrimeField(p) if k == 1 else build_extension(p, k)
    levels = set()
    for points, singular in level_systems(ground, k_max,
                                          random.Random(10 * p + k)):
        want = per_level_points(points, k_max, variety_scan)
        assert [pt.coords for pt in enumerated_points(points, k_max)] == \
            [pt.coords for pt in want]
        dim, _ = hilbert_data(singular)
        codim = singular.ambient_proj_dim - dim
        want_singular = per_level_points(
            singular, k_max,
            lambda gens, ext: singular_scan(gens, codim, ext))
        assert [pt.coords for pt in singular_points(singular, k_max)] == \
            [pt.coords for pt in want_singular]
        assert want_singular
        levels.update(pt.field.degree // ground.degree for pt in want)
    assert levels == set(range(1, k_max + 1))


def test_jacobian_rank_values():
    gens = [parse("x0*x1^2 + x2^3 + x3^3", 4, F11)]
    node = rational_points(Ideal([parse("x1", 4, F11), parse("x2", 4, F11),
                                  parse("x3", 4, F11)]), k_max=1)[0]
    assert jacobian_rank_at(gens, [node]) == [0]
    smooth = rational_points(Ideal([parse("x0", 4, F11), parse("x2", 4, F11),
                                    parse("x1 + x3", 4, F11)]), k_max=1)[0]
    assert jacobian_rank_at(gens, [smooth]) == [1]


def test_jacobian_rank_at_extension_points_matches_mapped_generators():
    # partials over the ground field, evaluated at F_49 points, against
    # generators mapped into F_49 and differentiated there
    f49 = build_extension(7, 2)
    embed = embedding(F7, f49)
    rng = random.Random(8)
    for _ in range(10):
        gens = [random_homogeneous(F7, 4, d, rng) for d in (2, 2, 3)]
        pt = random_point(f49, 3, rng)
        mapped = [g.map_coefficients(f49, embed) for g in gens]
        rows = [[g.partial_derivative(i).evaluate(list(pt.coords))
                 for i in range(4)] for g in mapped]
        assert jacobian_rank_at(gens, [pt]) == [mat_rank(rows)]
    # the node of a cubic over F_7, and a smooth point, as F_49 points
    cubic = [parse("x0*x1^2 + x2^3 + x3^3", 4, F7)]
    zero, one, t = f49.zero(), f49.one(), f49.generator()
    assert jacobian_rank_at(cubic, [ProjectivePoint([one, zero, zero, zero])]) == [0]
    assert jacobian_rank_at(cubic, [ProjectivePoint([one, t, zero, zero])]) == [1]


def dependent_generators(field, nvars, rng):
    """Random f and g over `field`, a combination a*f + b*g (whose row
    depends on theirs, so the three have rank at most 2) and the monomial
    x0*x1*x_last (whose row vanishes at every coordinate point)."""
    f = random_homogeneous(field, nvars, 2, rng)
    g = random_homogeneous(field, nvars, 3, rng)
    combo = f * field.sample(rng) + g * field.sample(rng)
    xs = [Polynomial.variable(field, nvars, i) for i in range(nvars)]
    return [f, g, combo, xs[0] * xs[1] * xs[nvars - 1]]


def special_points(field, nvars, rng):
    """Coordinate points, points with zero coordinates, random points."""
    zero, one = field.zero(), field.one()
    points = [ProjectivePoint([one if j == i else zero for j in range(nvars)])
              for i in range(nvars)]
    for _ in range(4):
        coords = [field.sample(rng) for _ in range(nvars)]
        coords[rng.randrange(nvars)] = zero
        coords[0] = one
        points.append(ProjectivePoint(coords))
    points.extend(random_point(field, nvars - 1, rng) for _ in range(6))
    return points


# the 33-bit prime of the packed-product tests: over F_(p^2) the packed
# Jacobian entries need slots wider than 64 bits
BIG_PRIME = 4294967311

# (generators' field, points' field): prime fields, F_p generators at
# F_(p^k) points for k = 2..6, and F_(p^2) generators lifted into F_(p^4)
# and F_(p^6)
JACOBIAN_FIELDS = (
    [(PrimeField(7), PrimeField(7)), (PrimeField(10007), PrimeField(10007)),
     (PrimeField(7), build_extension(7, 3)),
     (build_extension(7, 2), build_extension(7, 4)),
     (PrimeField(3), PrimeField(3))]
    + [(PrimeField(p), build_extension(p, k))
       for p in (3, 10007) for k in range(2, 7)]
    + [(build_extension(7, 2), build_extension(7, 6)),
       (build_extension(10007, 2), build_extension(10007, 4)),
       (PrimeField(BIG_PRIME), build_extension(BIG_PRIME, 2))])


@pytest.mark.parametrize(
    "ground,point_field", JACOBIAN_FIELDS,
    ids=["F7", "F10007", "F7-F343", "F49-F2401", "F3"]
    + [f"F{p}-F{p}^{k}" for p in (3, 10007) for k in range(2, 7)]
    + ["F49-F7^6", "F10007^2-F10007^4", "Fbig-Fbig^2"])
def test_jacobian_rank_at_matches_partials_then_evaluate(ground, point_field):
    # the packed kernel against the oracle, point by point, in one call per
    # point list
    rng = random.Random(ground.order())
    for _ in range(3):
        gens = dependent_generators(ground, 4, rng)
        points = special_points(point_field, 4, rng)
        for subset in (gens, gens[:1], gens[2:], gens[:3]):
            assert jacobian_rank_at(subset, points) == \
                [jacobian_rank_oracle(subset, pt) for pt in points]


def dead_pattern_generators(field, nvars, dead, rng):
    """Generators over `field` whose terms carry every pattern of
    exponents at the coordinates `dead` (one or two of them): x_d times a
    form free of dead coordinates, x_d^2 times one, x_d x_e times one,
    x_d^p times one (p the characteristic, when it is small), and terms
    free of dead coordinates with exponents p divides. The first two
    generators are sums of x_d times such forms alone, so at a point with
    every x_d = 0 their rows sit in the dead columns only."""
    p = field.characteristic()
    live = [i for i in range(nvars) if i not in dead]
    xs = [Polynomial.variable(field, nvars, i) for i in range(nvars)]
    zero = Polynomial.zero(field, nvars)

    def form(degree):
        out = zero
        for combo in itertools.combinations_with_replacement(live, degree):
            term = Polynomial.constant(field, nvars, field.sample(rng))
            for i in combo:
                term = term * xs[i]
            out = out + term
        return out

    d, e = dead[0], dead[-1]
    single = [sum((xs[k] * form(2) for k in dead), zero) for _ in range(2)]
    rest = xs[d] ** 2 * form(1) + xs[d] * xs[e] * form(1) + form(3)
    if p <= 7:
        rest = rest + xs[d] ** p * form(1) + xs[live[0]] ** p * form(1) \
            + xs[d] * xs[live[-1]] ** p
    return single + [rest + xs[e] * form(2), xs[d] ** 2 * xs[e] + form(2)]


def points_with_zeros(field, nvars, dead, rng, count=6):
    """Random points whose coordinates at `dead` are 0."""
    points = []
    while len(points) < count:
        coords = [field.zero() if i in dead else field.sample(rng)
                  for i in range(nvars)]
        if any(coords):
            points.append(ProjectivePoint(coords))
    return points


@pytest.mark.parametrize(
    "ground,point_field", JACOBIAN_FIELDS,
    ids=["F7", "F10007", "F7-F343", "F49-F2401", "F3"]
    + [f"F{p}-F{p}^{k}" for p in (3, 10007) for k in range(2, 7)]
    + ["F49-F7^6", "F10007^2-F10007^4", "Fbig-Fbig^2"])
def test_pruned_jacobian_at_points_on_a_coordinate_subspace(ground,
                                                            point_field):
    # every point lies on x_d = 0 for d in dead, so whole columns of
    # coordinates are 0 and the kernel prunes the generators' terms
    # before lowering them; the ranks must still be the oracle's, point
    # by point
    rng = random.Random(f"dead-{ground.order()}-{point_field.order()}")
    for dead in ((4,), (3, 4), (0, 2)):
        gens = dead_pattern_generators(ground, 5, dead, rng)
        points = points_with_zeros(point_field, 5, dead, rng)
        for subset in (gens, gens[:2], gens[2:]):
            expected = [jacobian_rank_oracle(subset, pt) for pt in points]
            assert jacobian_rank_at(subset, points) == expected
        if len(dead) == 2:
            # x_d times a form feeds d/dx_d alone: rank 2 where the forms
            # are independent at the point
            assert max(jacobian_rank_oracle(gens[:2], pt)
                       for pt in points) == 2


def test_jacobian_ranks_come_in_point_order():
    # the node of x0*x1^2 + x2^3 + x3^3 has rank 0, points off it rank 1;
    # over F_11 and as F_121 points
    gens = [parse("x0*x1^2 + x2^3 + x3^3", 4, F11)]
    for field in (F11, build_extension(11, 2)):
        zero, one = field.zero(), field.one()
        node = ProjectivePoint([one, zero, zero, zero])
        smooth = [ProjectivePoint([one, zero, -one, one]),
                  ProjectivePoint([zero, one, zero, zero]),
                  ProjectivePoint([one, one, one, field.from_int(9)])]
        points = [smooth[0], node, smooth[1], node, node, smooth[2]]
        assert jacobian_rank_at(gens, points) == [1, 0, 1, 0, 0, 1]
        assert jacobian_rank_at(gens, points[::-1]) == [1, 0, 0, 1, 0, 1]
        assert jacobian_rank_at(gens, []) == []


def test_jacobian_ranks_of_mixed_fields_come_in_point_order():
    # F_p and F_(p^2) points interleaved, ranked in one call: each point
    # gets the rank the oracle gives it, in input order
    for p in (7, 10007):
        ground, quadratic = PrimeField(p), build_extension(p, 2)
        rng = random.Random(p)
        gens = dependent_generators(ground, 4, rng)
        pools = {1: iter(special_points(ground, 4, rng)),
                 2: iter(special_points(quadratic, 4, rng))}
        points = [next(pools[k]) for k in [1, 2, 1, 2, 2, 1] * 2]
        expected = [jacobian_rank_oracle(gens, pt) for pt in points]
        assert len(set(expected)) > 1
        assert jacobian_rank_at(gens, points) == expected
        assert jacobian_rank_at(gens, points[::-1]) == expected[::-1]


def conjugate(point, j):
    """The point with x -> x^(p^j) applied to every coordinate."""
    return ProjectivePoint([point.field.frobenius(c, j) for c in point.coords])


def test_jacobian_ranks_follow_the_ground_frobenius_not_the_prime_one():
    # generators over F_49 with the coefficient t, which is not in F_7, at
    # points over F_(7^4). The gradient of (x1 - t x0)^2 x2 vanishes where
    # x1 = t x0, so P = [1 : t : s] has rank 1 and so has sigma(P) = P^49,
    # sigma fixing t; but P^7 has x1 = t^7 != t x0 and rank 2. Random
    # points come with all their conjugates under x -> x^7
    f49, f2401 = build_extension(7, 2), build_extension(7, 4)
    t = Polynomial.constant(f49, 3, f49.generator())
    x0, x1, x2 = (Polynomial.variable(f49, 3, i) for i in range(3))
    gens = [(x1 - t * x0) ** 2 * x2, x0 * x1 + t * x2 ** 2]
    rng = random.Random("ground-frobenius")
    s = next(e for e in iter(lambda: f2401.sample(rng), None)
             if f2401.frobenius(e, 2) != e)
    lift = embedding(f49, f2401)
    on = ProjectivePoint([f2401.one(), lift(f49.generator()), s])
    points = [conjugate(on, j) for j in range(4)]
    for pt in special_points(f2401, 3, rng)[3:]:
        points += [conjugate(pt, j) for j in range(4)]
    rng.shuffle(points)
    expected = [jacobian_rank_oracle(gens, pt) for pt in points]
    assert [jacobian_rank_oracle(gens, conjugate(on, j))
            for j in range(4)] == [1, 2, 1, 2]
    assert jacobian_rank_at(gens, points) == expected


def test_jacobian_ranks_of_a_shuffled_orbit_list(monkeypatch):
    # over F_7: a rational point, an orbit over F_(7^3) on the locus where
    # the gradient of (x1^3 - 3 x0^3)^2 x2 vanishes (3 is not a cube mod
    # 7), a generic orbit over F_(7^3), one over F_(7^2), and one point
    # twice, shuffled. Each orbit and the rational point are ranked once
    from fanolines import poly
    f343, f49 = build_extension(7, 3), build_extension(7, 2)
    gens = [parse("x1^6*x2 - 6*x0^3*x1^3*x2 + 9*x0^6*x2", 3, F7),
            parse("x0*x2 + x1^2", 3, F7)]
    rng = random.Random("orbit-list")
    cube_root = next(e for e in map(f343.element_from_code, range(343))
                     if e ** 3 == f343.from_int(3))
    on = ProjectivePoint([f343.one(), cube_root, f343.from_int(2)])
    generic = random_point(f343, 2, rng)
    quadratic = random_point(f49, 2, rng)
    rational = ProjectivePoint([F7.from_int(c) for c in (1, 2, 3)])
    points = ([conjugate(on, j) for j in range(3)]
              + [conjugate(generic, j) for j in range(3)]
              + [quadratic, conjugate(quadratic, 1), rational, on])
    rng.shuffle(points)
    expected = [jacobian_rank_oracle(gens, pt) for pt in points]
    assert jacobian_rank_oracle(gens, on) == 1
    assert jacobian_rank_oracle(gens, generic) == 2
    ranked = []
    rank = poly.payload_rank

    def counted(*args):
        ranked.append(args[0])
        return rank(*args)

    monkeypatch.setattr(poly, "payload_rank", counted)
    assert jacobian_rank_at(gens, points) == expected
    assert sorted(field.degree for field in ranked) == [1, 2, 3, 3]


def test_jacobian_certificate_work_is_pinned(monkeypatch):
    # the six lines of `lines-through --random 4 3 1 --seed 0`, over
    # F_10007^k. Each entry is one packed sum reduced once and each
    # monomial value one packed product, so field multiplications are left
    # only in the eliminations, which invert a pivot only when a later row
    # needs it; the parent kernel made 400 `_mul` and 12 `_inv` calls
    from fanolines.fano import line_system, random_pointed_hypersurface
    from fanolines.field import ExtensionField
    ph = random_pointed_hypersurface(4, 3, 1, F10007, seed=0)
    ideal = line_system(ph).ideal()
    points = solve_report(ideal, 6).points
    report = variety_report(ideal, {"dimension": "0"})
    calls = {"mul": 0, "inv": 0}
    mul, inv = ExtensionField._mul, ExtensionField._inv

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    def counted_inv(self, a):
        calls["inv"] += 1
        return inv(self, a)

    monkeypatch.setattr(ExtensionField, "_mul", counted_mul)
    monkeypatch.setattr(ExtensionField, "_inv", counted_inv)
    ranks = add_jacobian_certificates(report, ideal, points, reduced_rank=3)
    assert ranks == [3] * 6
    assert [pt.field.degree for pt in points] == [1, 1, 2, 2, 2, 2]
    assert calls["mul"] <= 52
    assert calls["inv"] <= 8


def test_jacobian_rank_at_drops_exponents_divisible_by_p():
    # every partial of x0^7 - x1^7 vanishes over F_7, and x2^7 * x3 only
    # contributes x2^7 through d/dx3
    f7 = PrimeField(7)
    gens = [parse("x0^7 - x1^7", 4, f7), parse("x2^7*x3 + x0^8", 4, f7),
            parse("x1^14*x2 + 3*x3^15", 4, f7)]
    rng = random.Random(2)
    for field in (f7, build_extension(7, 2)):
        for pt in special_points(field, 4, rng):
            assert jacobian_rank_at(gens[:1], [pt]) == [0]
            assert jacobian_rank_at(gens, [pt]) == [jacobian_rank_oracle(gens, pt)]


def test_hilbert_data_reads_the_bases_leading_monomials(monkeypatch):
    # the rank-drop ideal of `voisin-demo 2 --seed 585427` at its first
    # node, its grevlex basis cached: the staircase takes the leading
    # monomials the reduced basis lists first, with no order key call
    from fanolines.hilbert import staircase_data
    from fanolines.poly import GREVLEX, GrevLexOrder
    from fanolines.voisin import (node_line_system, nodes, normal_form_cubic,
                                  rank_drop_ideal)
    nfc = normal_form_cubic(2, F10007, 585427)
    ideal = rank_drop_ideal(node_line_system(nfc,
                                             nodes(nfc, seed=585427)[0].point))
    lms = [leading_monomial(g, GREVLEX) for g in groebner_of(ideal)]
    keys = []
    key = GrevLexOrder.key

    def counted_key(self, exps):
        keys.append(exps)
        return key(self, exps)

    monkeypatch.setattr(GrevLexOrder, "key", counted_key)
    assert hilbert_data(ideal) == staircase_data(lms, ideal.nvars) == (0, 3)
    assert keys == []


def test_slice_degree_trivial_cases():
    rng = random.Random(6)
    line = Ideal([parse("x0", 4, F10007), parse("x1", 4, F10007)])
    assert slice_degree(line, 3, rng) == 1
    quadric = Ideal([parse("x0*x3 - x1*x2", 4, F10007)])
    assert slice_degree(quadric, 3, rng) == 2


def test_slice_degree_agrees_with_hilbert_on_random_ci():
    rng = random.Random(14)
    gens = [random_homogeneous(F10007, 4, 2, rng),
            random_homogeneous(F10007, 4, 2, rng)]
    ideal = Ideal(gens)
    dim, degree = hilbert_data(ideal)
    assert (dim, degree) == (1, 4)
    assert slice_degree(ideal, 3, rng) == 4


def test_random_slice_never_bounds_below_the_dimension():
    # the plane V(x3, x4, x5, x6) in P^6 meets every linear subspace of
    # codimension 2, so no cut of that codimension may come out empty; a
    # generic cut of codimension c leaves a linear space of dimension 2 - c
    plane = Ideal([parse(f"x{i}", 7, F10007) for i in range(3, 7)])
    assert hilbert_data(plane) == (2, 1)
    for seed in range(20):
        rng = random.Random(seed)
        for codim in (1, 2, 3):
            assert hilbert_data(random_slice(plane, codim, rng)) == (
                (2 - codim, 1) if codim <= 2 else (-1, 0))


def test_random_slice_appends_the_drawn_linear_forms():
    ideal = Ideal([parse("x0*x3 - x1*x2", 4, F10007)])
    rng, replay = random.Random(8), random.Random(8)
    sliced = random_slice(ideal, 3, rng)
    assert sliced.generators == ideal.generators + tuple(
        random_homogeneous(F10007, 4, 1, replay) for _ in range(3))
    assert rng.getstate() == replay.getstate()
    assert random_slice(ideal, 0, rng).generators == ideal.generators


def test_is_complete_intersection():
    assert is_complete_intersection(
        Ideal([parse("x0*x3 - x1*x2", 4, F7)]))
    # dim 0, three coordinate points, three generators in P^2: codim 2 < 3
    triangle = Ideal([parse("x0*x1", 3, F7), parse("x0*x2", 3, F7),
                      parse("x1*x2", 3, F7)])
    assert hilbert_data(triangle) == (0, 3)
    assert not is_complete_intersection(triangle)


def sympy_hilbert_function(texts, nvars, degrees, modulus):
    """Hilbert function of the homogeneous ideal over F_modulus at each
    of degrees, by sympy: the grevlex basis of `sympy.groebner`, then the
    monomials of each degree that no leading monomial divides."""
    sympy = pytest.importorskip("sympy")
    from fanolines.poly import monomials_of_degree
    xs = sympy.symbols(f"x0:{nvars}")
    basis = sympy.groebner([sympy.sympify(t) for t in texts], *xs,
                           order="grevlex", modulus=modulus)
    lms = [sympy.Poly(g, *xs).LM(order="grevlex").exponents
           for g in basis.exprs]
    return [sum(not any(mono_divides(lm, m) for lm in lms)
                for m in monomials_of_degree(nvars, d)) for d in degrees]


@pytest.mark.parametrize("field", [F7, F10007], ids=str)
def test_twisted_cubic_is_not_a_complete_intersection(field):
    # the twisted cubic is cut out by three quadrics but has codimension
    # 2: a curve of degree 3, not a complete intersection. sympy's basis
    # gives the Hilbert function 3t + 1, so dimension 1 and degree 3
    texts = ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"]
    ideal = Ideal([parse(t, 4, field) for t in texts])
    report = variety_report(ideal, {"dimension": "1", "degree": "3"})
    assert report["is_complete_intersection"] == "false"
    assert (report["dimension"], report["degree"]) == ("1", "3")
    assert report["computed"]["codimension"] == "2"
    assert matched(report)
    values = sympy_hilbert_function([t.replace("^", "**") for t in texts], 4,
                                    range(3, 7), field.characteristic())
    assert values == [3 * t + 1 for t in range(3, 7)]


def test_bezout_bound_never_exceeded():
    rng = random.Random(77)
    for degs in [(2,), (2, 2), (2, 3), (1, 2, 2)]:
        gens = [random_homogeneous(F10007, 4, d, rng) for d in degs]
        _, degree = hilbert_data(Ideal(gens))
        bound = 1
        for d in degs:
            bound *= d
        assert degree <= bound


def test_sample_smooth_points_on_quadric_surface():
    from fanolines.field import embedding
    ideal = Ideal([parse("x0*x3 - x1*x2", 4, F10007)])
    rng = random.Random(3)
    pts = sample_smooth_points(ideal, 5, rng)
    assert pts
    gens = ideal.nonzero_generators()
    for pt in pts:
        # on the surface, and smooth there
        embed = embedding(F10007, pt.field)
        for g in gens:
            mapped = g.map_coefficients(pt.field, embed)
            assert mapped.evaluate(list(pt.coords)).is_zero()
        assert jacobian_rank_at(gens, [pt]) == [1]


def test_sample_smooth_points_stops_drawing_at_count():
    # one generic slice of a quadric surface already holds two points, so
    # the sampler draws two linear forms and one solver seed, then stops
    ideal = Ideal([parse("x0*x3 - x1*x2", 4, F10007)])
    rng = random.Random(3)
    assert len(sample_smooth_points(ideal, 2, rng)) == 2
    replay = random.Random(3)
    for _ in range(2):
        random_homogeneous(F10007, 4, 1, replay)
    replay.randrange(2**32)
    assert rng.getstate() == replay.getstate()


def test_complete_intersection_report_quadric_cubic():
    report = complete_intersection_report((2, 3), 4, F10007, seed=5)
    assert matched(report)
    assert report["predicted"]["degree"] == "6"
    assert report["computed"]["dimension"] == "2"
    assert report["certificates"]


def test_degenerate_inputs_reported_not_raised():
    # irrelevant-ideal case: the empty scheme in P^1
    empty = Ideal([parse("x0", 2, F7), parse("x1", 2, F7)])
    dim, degree = hilbert_data(empty)
    assert dim == -1
    assert rational_points(empty, k_max=1) == []


def test_singular_points_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        singular_points(Ideal([parse("x0^2 + x1", 2, F7)]))
    with pytest.raises(InvalidParameters):
        singular_points(Ideal([parse("0*x0", 2, F7)]))


def test_report_builder_invariants_and_certificates():
    # the conic x0*x1 - x2^2 in P^2: a smooth curve of degree 2
    conic = Ideal([parse("x0*x1 - x2^2", 3, F7)])
    predicted = {"dimension": "1", "degree": "2", "smooth_rank": "1"}
    report = variety_report(conic, predicted)
    assert report["computed"] == {"dimension": "1", "degree": "2",
                               "codimension": "1"}
    assert report["is_complete_intersection"] == "true"
    assert add_jacobian_certificates(report, conic, []) == []
    assert report["computed"]["smooth_rank"] == "unsampled"
    assert not matched(report)
    f49 = build_extension(7, 2)
    t = f49.generator()
    points = [ProjectivePoint([F7.one(), F7.zero(), F7.zero()]),
              ProjectivePoint([f49.one(), t * t, t])]
    assert add_jacobian_certificates(report, conic, points,
                                     reduced_rank=1) == [1, 1]
    assert report["certificates"] == [
        {"point": "1 : 0 : 0", "residue_degree": "1", "jacobian_rank": "1",
         "reduced": "true"},
        {"point": "1 : 4*t + 1 : t",
         "residue_degree": "2", "jacobian_rank": "1", "reduced": "true"}]
    assert matched(report)
    # residue degrees count over the ideal's own field, here F_49
    f49_conic = Ideal([parse("x0*x1 - x2^2", 3, f49)])
    s = build_extension(7, 4).generator()
    over = variety_report(f49_conic, {})
    add_jacobian_certificates(over, f49_conic,
                              [ProjectivePoint([s.field.one(), s * s, s])])
    assert over["certificates"][0]["residue_degree"] == "2"
    empty = variety_report(Ideal([parse("x0", 2, F7), parse("x1", 2, F7)]), {})
    assert empty["computed"]["dimension"] == empty["dimension"] == "empty"
