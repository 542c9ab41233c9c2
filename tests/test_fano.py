"""Line systems through a point of fixed multiplicity.

The load-bearing check is the membership oracle: a direction satisfies
the component system exactly when the actual projective line lies inside
the hypersurface.  Everything else (dimension, degree, counts) rides on
top of that equivalence.
"""

import random
from math import factorial, prod

import pytest

from fanolines import Ideal, Polynomial, PrimeField, build_extension, poly
from fanolines.fano import (PointedHypersurface, analyze_lines,
                            direction_components, expected_count,
                            line_system, random_pointed_hypersurface,
                            resample, run_line_analysis)
from fanolines.groebner import is_member
from fanolines.idealkit import (groebner_of, hilbert_data,
                                is_complete_intersection, matched,
                                rational_points, slice_degree)
from fanolines.linalg import mat_inverse, random_invertible
from fanolines.poly import random_homogeneous
from fanolines.projgeo import ProjectivePoint, move_to_base_point
from fanolines.field import embedding
from fanolines.errors import DegenerateInstance, InvalidParameters

from conftest import (base_point, enumerate_projective_points, line_lies_in,
                      mat_vec, parse)

F7 = PrimeField(7)
F11 = PrimeField(11)
F10007 = PrimeField(10007)

NODAL_CUBIC = "x0*x1^2 + x2^3 + x3^3"


def pointed(f, point):
    return PointedHypersurface(direction_components(f, point))


def assembled_form(n, d, m, field, seed):
    """f = sum_{i=m}^{d} x_0^(d-i) f_i, the f_i drawn from the stream that
    `random_pointed_hypersurface` draws its components from."""
    rng = random.Random(seed)
    terms = {}
    for i in range(m, d + 1):
        part = random_homogeneous(field, n, i, rng)
        terms.update({(d - i,) + mono: c for mono, c in part.terms.items()})
    return Polynomial(field, n + 1, terms)


def forms_at_points(n, d, m, field, seed):
    """(f, y) with multiplicity m at y: the assembled form at the base
    point, and that form moved by a random invertible A, f(A x), at the
    point A^(-1) e_0."""
    f = assembled_form(n, d, m, field, seed)
    a = random_invertible(field, n + 1, random.Random(seed))
    moved_point = ProjectivePoint([row[0] for row in mat_inverse(a)])
    return [(f, base_point(field, n)), (f.apply_matrix(a), moved_point)]


def embedded_line_in_hypersurface(f, point, direction):
    """Does the line from the point toward M [0:v] lie inside V(f), for M
    the move `direction_components` makes, which takes [1:0:...:0] to
    the point?"""
    field = direction.field
    embed = embedding(f.field, field)
    mapped = f.map_coefficients(field, embed)
    move = [[embed(x) for x in row] for row in move_to_base_point(point)]
    a = ProjectivePoint([embed(c) for c in point.coords])
    b = ProjectivePoint(mat_vec(move, [field.zero()] + list(direction.coords)))
    return line_lies_in(mapped, a, b)


def test_direction_components_hand_example():
    f = parse(NODAL_CUBIC, 4, F10007)
    point = base_point(F10007, 3)
    comps = direction_components(f, point)
    assert len(comps) == 4
    assert comps[0].is_zero() and comps[1].is_zero()
    assert comps[2] == parse("x0^2", 3, F10007)  # x1^2 in ambient names
    assert comps[3] == parse("x1^3 + x2^3", 3, F10007)
    assert PointedHypersurface(comps).multiplicity == 2


def test_multiplicity_at_off_base_point():
    # the cubic in P^4, where the shape rule admits a smooth point (m = 1)
    f = parse(NODAL_CUBIC, 5, F10007)
    smooth = ProjectivePoint([F10007.zero(), F10007.one(), F10007.one(),
                              F10007.from_int(10006), F10007.zero()])
    assert f.evaluate(list(smooth.coords)).is_zero()
    assert pointed(f, smooth).multiplicity == 1


def test_pointed_hypersurface_validates_multiplicity():
    f = parse(NODAL_CUBIC, 4, F10007)
    point = base_point(F10007, 3)
    ph = pointed(f, point)
    assert ph.multiplicity == 2
    assert ph.degree == 3 and ph.ambient_proj_dim == 3
    off = ProjectivePoint([F10007.one(), F10007.one(), F10007.zero(),
                           F10007.zero()])
    with pytest.raises(InvalidParameters, match="does not lie"):
        pointed(f, off)


def test_random_instance_parameter_validation():
    for n, d, m in [(1, 1, 1), (3, 0, 0), (3, 2, 3), (3, 9, 2), (4, 5, 1)]:
        with pytest.raises(InvalidParameters):
            random_pointed_hypersurface(n, d, m, F10007, seed=0)


def test_random_instance_has_requested_shape():
    for seed in range(5):
        ph = random_pointed_hypersurface(4, 3, 2, F10007, seed=seed)
        assert ph.degree == 3 and ph.ambient_proj_dim == 4
        assert ph.multiplicity == 2
        assert [c.is_zero() for c in ph.components] == [True, True,
                                                        False, False]
        for i in (2, 3):
            part = ph.components[i]
            assert part.nvars == 4
            assert part.is_homogeneous() and part.degree() == i


def test_random_instance_is_built_from_its_draws(monkeypatch):
    # no coordinate change: the drawn parts are the components at the
    # base point of the form they assemble to
    calls = {"apply_matrix": 0, "substitute": 0}

    def counter(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Polynomial, "apply_matrix", counter(
        "apply_matrix", Polynomial.apply_matrix))
    monkeypatch.setattr(Polynomial, "substitute", counter(
        "substitute", Polynomial.substitute))
    shapes = [(3, 3, 2, 0), (4, 3, 1, 1), (5, 5, 3, 2), (3, 2, 1, 3)]
    drawn = [random_pointed_hypersurface(n, d, m, F10007, seed)
             for n, d, m, seed in shapes]
    assert calls == {"apply_matrix": 0, "substitute": 0}
    for ph, (n, d, m, seed) in zip(drawn, shapes):
        f = assembled_form(n, d, m, F10007, seed)
        assert ph.components == direction_components(f, base_point(F10007, n))
    # the counters see the move that direction_components makes
    assert calls == {"apply_matrix": 4, "substitute": 4}


def test_line_system_shape():
    ph = random_pointed_hypersurface(3, 3, 2, F10007, seed=1)
    ls = line_system(ph)
    assert len(ls.generators) == 2  # components in degrees 2 and 3
    assert ls.expected_dim == 0
    assert ls.expected_degree == 6
    assert all(g.nvars == 3 for g in ls.generators)


def test_expected_count_identity():
    for d in range(1, 9):
        for m in range(1, d + 1):
            assert expected_count(d, m) * factorial(m - 1) == factorial(d)
            assert expected_count(d, m) == prod(range(m, d + 1))


def oracle_agrees_at_random_directions(f, point, ext2):
    gens = line_system(pointed(f, point)).generators
    rng = random.Random(0)
    on_count = 0
    for trial in range(100):
        field = F10007 if trial % 2 == 0 else ext2
        coords = [field.sample(rng) for _ in range(3)]
        if all(c.is_zero() for c in coords):
            continue
        v = ProjectivePoint(coords)
        embed = embedding(F10007, field) if field is not F10007 else None
        in_system = all(
            (g if embed is None else g.map_coefficients(field, embed))
            .evaluate(list(v.coords)).is_zero() for g in gens)
        in_surface = embedded_line_in_hypersurface(f, point, v)
        assert in_system == in_surface
        on_count += in_system
    # random directions almost never give lines; the oracle still must agree
    assert on_count <= 2


def test_membership_oracle_random_directions():
    # direction in V(f_m..f_d) iff the line sits inside the hypersurface
    ext2 = build_extension(10007, 2)
    for f, point in forms_at_points(3, 3, 2, F10007, seed=7):
        oracle_agrees_at_random_directions(f, point, ext2)


def test_membership_oracle_at_actual_solutions():
    for f, point in forms_at_points(3, 3, 2, F10007, seed=7):
        pts = rational_points(line_system(pointed(f, point)).ideal(), k_max=6)
        assert pts
        for v in pts:
            assert embedded_line_in_hypersurface(f, point, v)


def test_quadric_direction_enumeration_oracle():
    # quadric through a smooth point: the two rulings, by full scan
    for seed in range(3):
        counts = []
        for f, point in forms_at_points(3, 2, 1, F11, seed):
            gens = line_system(pointed(f, point)).generators
            found = [v for v in enumerate_projective_points(2, F11)
                     if all(g.evaluate(list(v.coords)).is_zero()
                            for g in gens)]
            for v in found:
                assert embedded_line_in_hypersurface(f, point, v)
            solved = rational_points(Ideal(gens), k_max=1)
            assert {tuple(p.serialize()) for p in solved} == \
                {tuple(v.serialize()) for v in found}
            counts.append(len(found))
        # the move carries the lines through one point to the other's
        assert counts[0] == counts[1] <= 2
        if counts[0] == 2:
            break
    else:
        pytest.fail("no split instance over three seeds")


def test_positive_dimensional_instance_is_ci_with_bezout_degree():
    # quintic fourfold with a cubic point: system of degrees 3, 4, 5 in P^4
    ph = random_pointed_hypersurface(5, 5, 3, F10007, seed=2)
    ls = line_system(ph)
    ideal = ls.ideal()
    dim, degree = hilbert_data(ideal)
    assert dim == ls.expected_dim == 1
    assert degree == 60
    assert is_complete_intersection(ideal)


def test_cubic_threefold_smooth_point_dim_and_slice():
    # lines through a general point of a cubic threefold: dim 2, degree 6
    ph = random_pointed_hypersurface(5, 3, 2, F10007, seed=3)
    ideal = line_system(ph).ideal()
    dim, degree = hilbert_data(ideal)
    assert (dim, degree) == (2, 6)
    assert slice_degree(ideal, 3, random.Random(1)) == 6


def test_analyze_lines_nodal_cubic_end_to_end():
    f = parse(NODAL_CUBIC, 4, F10007)
    report = analyze_lines(pointed(f, base_point(F10007, 3)), seed=0)
    assert (report["dimension"], report["degree"]) == ("0", "6")
    assert report["computed"]["codimension"] == "2"
    # this specific cubic is degenerate: three double lines
    assert len(report["solutions"]) == 3
    assert any("non-reduced" in fl for fl in report["flags"])


@pytest.mark.parametrize("p", [7, 10007])
def test_double_lines_are_not_certified_reduced(p):
    # in direction coordinates the nodal cubic's line scheme at [1:0:0:0]
    # is (x0^2, x1^3 + x2^3): x0 vanishes at each of its points, but only
    # x0^2 lies in the ideal, so the scheme is not reduced, and no point
    # may be certified reduced
    field = PrimeField(p)
    ph = pointed(parse(NODAL_CUBIC, 4, field), base_point(field, 3))
    basis = groebner_of(line_system(ph).ideal())
    x0 = parse("x0", 3, field)
    assert is_member(x0 * x0, basis) and not is_member(x0, basis)
    report = analyze_lines(ph, seed=0)
    assert len(report["solutions"]) == 3
    assert all(pt[0] == "0" for pt in report["solutions"])
    assert [c["reduced"] for c in report["certificates"]] == ["false"] * 3
    assert not matched(report)


def test_run_line_analysis_matched_with_attempt_log():
    report = run_line_analysis(3, 3, 2, F10007, seed=0)
    assert matched(report)
    assert report["attempts"] and report["attempts"][-1]["outcome"] == "ok"
    assert report["predicted"]["points_found"] == "6"


def stub_report(ok):
    return {"predicted": {"degree": "1"},
            "computed": {"degree": "1" if ok else "2"}}


def test_resample_logs_attempts_and_stops_at_the_first_match():
    tried = []
    reports = {11: stub_report(False), 12: stub_report(True),
               13: stub_report(True)}

    def attempt(s):
        tried.append(s)
        if s == 10:
            raise DegenerateInstance("two nodes meet")
        return reports[s]

    report = resample(attempt, range(10, 15))
    assert tried == [10, 11, 12]
    assert report is reports[12]
    assert report["attempts"] == [
        {"seed": "10", "outcome": "degenerate: two nodes meet"},
        {"seed": "11", "outcome": "certificate mismatch"},
        {"seed": "12", "outcome": "ok"}]


def test_resample_keeps_the_last_report_and_raises_without_one():
    tried = []
    mismatched = stub_report(False)

    def attempt(s):
        tried.append(s)
        if s == 3:
            return mismatched
        raise DegenerateInstance("no nodes")

    report = resample(attempt, range(3, 8))
    assert tried == [3, 4, 5, 6, 7] and report is mismatched
    assert [a["outcome"] for a in report["attempts"]] == [
        "certificate mismatch"] + ["degenerate: no nodes"] * 4
    tried.clear()
    with pytest.raises(DegenerateInstance, match=(
            "^no non-degenerate instance in 5 attempts from seed 4$")):
        resample(attempt, range(4, 9))
    assert tried == [4, 5, 6, 7, 8]


def test_reports_empty_system_when_overdetermined_boundary():
    # d = m + n - 2 exactly is the 0-dim boundary; beyond it is rejected
    with pytest.raises(InvalidParameters):
        random_pointed_hypersurface(3, 4, 2, F10007, seed=0)


def test_one_orbit_of_lines_is_solved_and_ranked_once(monkeypatch):
    # `lines-through --random 4 3 1 --seed 3`: its six lines are one
    # Frobenius orbit over F_(10007^6). One root's fibre is restricted and
    # one Jacobian ranked; x -> x^10007 gives the other five lines and
    # their ranks. Every power x^10007 mod a polynomial runs in a ring over
    # F_10007, one digit per coefficient. Of the four charts only one holds
    # points; the leading monomials of the basis rule out the other three
    # before any restriction (`solve.empty_charts`). Line by line, the
    # solver restricted 6 fibres and ranked 6 Jacobians, and took x^p in a
    # ring over F_(10007^6). One run before the counters go in fills the
    # lru caches of the fields and embeddings the run builds, so the
    # counts do not depend on which tests ran before: the one-off
    # `payload_lift` of F_(10007^3) into F_(10007^6) takes x^10007 over
    # F_(10007^6)
    from fanolines import poly, solve
    from fanolines.field import _Ring
    run_line_analysis(4, 3, 1, PrimeField(10007), seed=3)
    restricted, ranked, powers = [], [], []
    restrict, rank, power = solve.restrict, poly.payload_rank, _Ring.pow

    def counted_restrict(polys, last, value):
        restricted.append(value.field.degree)
        return restrict(polys, last, value)

    def counted_rank(field, width, rows):
        ranked.append(field.degree)
        return rank(field, width, rows)

    def counted_pow(ring, a, e):
        powers.append((ring.k, e))
        return power(ring, a, e)

    monkeypatch.setattr(solve, "restrict", counted_restrict)
    monkeypatch.setattr(poly, "payload_rank", counted_rank)
    monkeypatch.setattr(_Ring, "pow", counted_pow)
    report = run_line_analysis(4, 3, 1, PrimeField(10007), seed=3)
    assert matched(report) and len(report["attempts"]) == 1
    assert report["counts_by_degree"] == {"6": "6"}
    assert sorted(restricted) == [1, 6]  # one chart, one fibre
    assert ranked == [6]
    assert {k for k, e in powers if e == 10007} == {1}
