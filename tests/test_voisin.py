"""Special nodal cubics: node counting, certification, and line systems.

The cubic is built in the normal form q^2-weighted by construction, so
structure tests pin exact polynomials; the node set is then re-derived
by an exhaustive Jacobian scan over small fields and compared against
the certified list, extension level by extension level.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fanolines import (Ideal, Polynomial, PrimeField, ProjectivePoint,
                       build_extension)
from fanolines.poly import _unit, random_homogeneous
from fanolines import voisin
from fanolines.voisin import (NormalFormCubic, analyze_node_lines,
                              certify_node, linear_section, node_line_system,
                              nodes, normal_form_cubic, rank_drop_ideal,
                              restricted_cut_misses, restricted_quadrics,
                              run_node_analysis)
from fanolines.idealkit import (certify_reduced_point, hilbert_data,
                                matched, singular_points, slice_degree)
from fanolines.errors import DegenerateInstance, InvalidParameters
from fanolines.linalg import mat_rank

from conftest import (appended_cut_misses, appended_cut_tries,
                      chart_quadratic_rank, parse, plain_rank_drop_ideal,
                      sympy_hessian_rank)

F5 = PrimeField(5)
F7 = PrimeField(7)
F11 = PrimeField(11)
F10007 = PrimeField(10007)


def first_working_seed(r, field, tries=25):
    for seed in range(tries):
        try:
            nfc = normal_form_cubic(r, field, seed)
            return nfc, nodes(nfc, seed=seed)
        except DegenerateInstance:
            continue
    pytest.fail(f"no working instance for r={r} over {field} in {tries} seeds")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_normal_form_structure(r):
    nfc = normal_form_cubic(r, F10007, seed=0)
    f = nfc.f
    assert f.nvars == 2 * r + 2
    assert f.is_homogeneous() and f.degree() == 3
    assert len(nfc.quadrics) == r
    # general quadrics in the full ambient coordinates
    for q in nfc.quadrics:
        assert q.nvars == 2 * r + 2
        assert q.is_homogeneous() and q.degree() == 2
    # the distinguished r-plane (last r+1 coordinates zero) lies inside V(f)
    for mono in nfc.f.terms:
        assert sum(mono[r + 1:]) >= 1


def test_normal_form_is_built_once_from_its_quadrics(monkeypatch):
    calls = []
    build = voisin._normal_form

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(voisin, "_normal_form", counted)
    for r in (1, 2, 3):
        nfc = normal_form_cubic(r, F10007, seed=r)
        assert nfc.r == r and len(calls) == r
        assert nfc.f == build(F10007, r, nfc.quadrics)


def test_normal_form_rejects_quadrics_in_the_wrong_ring():
    with pytest.raises(InvalidParameters, match="2r\\+2 variables"):
        NormalFormCubic((parse("x0^2", 6, F10007),))


def test_normal_form_needs_odd_characteristic():
    with pytest.raises(InvalidParameters):
        PrimeField(2)


def test_restricted_quadrics_cut_finite_scheme():
    for r in (1, 2, 3):
        nfc = normal_form_cubic(r, F10007, seed=0)
        ideal = Ideal(restricted_quadrics(nfc))
        assert hilbert_data(ideal) == (0, 2 ** r)


def test_nodes_reject_restricted_quadrics_that_are_not_finite():
    # x2*x3 vanishes on the line x2 = x3 = 0, so the restricted system
    # is all of P^1, not two points
    nfc = NormalFormCubic((parse("x2*x3", 4, PrimeField(7)),))
    with pytest.raises(DegenerateInstance, match=re.escape(
            "restricted quadrics give (dim, degree) = (1, 1), "
            "expected (0, 2)")):
        nodes(nfc)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_node_count_and_certificates(r):
    nfc = normal_form_cubic(r, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    assert len(certs) == 2 ** r
    for cert in certs:
        assert cert.is_simple_double_point
        assert cert.quadratic_part_rank == 2 * r + 1
        # nodes lie on the distinguished plane inside the cubic
        pt = cert.point
        assert all(c.is_zero() for c in pt.coords[r + 1:])
        embed_needed = pt.field != F10007
        f = nfc.f
        if embed_needed:
            from fanolines.field import embedding
            f = f.map_coefficients(pt.field, embedding(F10007, pt.field))
        assert f.evaluate(list(pt.coords)).is_zero()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_node_ranks_match_the_chart_oracle(r):
    # the Hessian rank against the chart expansion's Gram rank at every
    # node, and against sympy's Hessian at the nodes over F_p
    for seed in range(4):
        nfc = normal_form_cubic(r, F10007, seed)
        for cert in nodes(nfc, seed=seed):
            assert cert.quadratic_part_rank == 2 * r + 1
            assert chart_quadratic_rank(nfc.f, cert.point) == 2 * r + 1
            if cert.residue_degree == 1:
                assert sympy_hessian_rank(nfc.f, cert.point) == 2 * r + 1


# (Q, point, rank, certified) on the r = 1 cubic x0*x2^2 + x3*Q: x1^2 and
# x1^2 + x0*x3 restrict to x1^2 on the line x2 = x3 = 0, a double root at
# [1:0:0:0] that leaves the Hessian rank 1 and 2 there, while x0*x1 + x3^2
# restricts to x0*x1 and makes a node; [0:0:1:0] is a smooth point of V(f)
# off that line. At [0:0:0:1], off V(f), the last Q gives f = 2 and, over
# F_3 only, a vanishing gradient and a Hessian of rank 3: only the check
# f(p) = 0 keeps that point from being certified as a node
NODE_FALSIFIERS = [("x1^2", "1:0:0:0", 1, False),
                   ("x1^2 + x0*x3", "1:0:0:0", 2, False),
                   ("x0*x1 + x3^2", "1:0:0:0", 3, True),
                   ("x0*x1 + x3^2", "0:0:1:0", 0, False),
                   ("x0^2 + x0*x1 + x1^2 + 2*x0*x2 + 2*x3^2", "0:0:0:1", 0,
                    False)]


@pytest.mark.parametrize("p", [3, 5, 10007])
@pytest.mark.parametrize("quadric,coords,rank,certified", NODE_FALSIFIERS)
def test_node_certificate_says_no_off_simple_double_points(
        p, quadric, coords, rank, certified):
    field = PrimeField(p)
    q = parse(quadric, 4, field)
    nfc = NormalFormCubic((q,))
    point = ProjectivePoint([field.from_int(int(c))
                             for c in coords.split(":")])
    [cert] = certify_node(nfc, [point])
    assert cert.quadratic_part_rank == rank
    assert cert.is_simple_double_point is certified
    assert chart_quadratic_rank(nfc.f, point) == rank
    if rank:  # a singular point: rank H(p) by sympy too
        assert sympy_hessian_rank(nfc.f, point) == rank


def test_node_certificate_work_is_pinned(monkeypatch):
    # the four candidates of normal_form_cubic(2, F_10007, 0), one over
    # F_p and three over F_(p^3), take one `evaluate_at` call for f and its
    # gradient and one Jacobian call for the Hessian, with no coordinate
    # change and no per-candidate `Polynomial.evaluate`. Each call gets
    # one point per Frobenius orbit: the rational node and one of the
    # three conjugates
    import sys
    from fanolines import poly
    counted = {"jacobian_rank_at": poly.jacobian_rank_at,
               "evaluate_at": poly.evaluate_at}
    calls = dict.fromkeys([*counted, "evaluate", "apply_matrix"], 0)
    points = {}

    def counter(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name in counted:
                points.setdefault(name, []).append(len(args[1]))
            return fn(*args, **kwargs)
        return wrapped

    for name, module in list(sys.modules.items()):
        for fn_name, fn in counted.items():
            if (name.startswith("fanolines")
                    and getattr(module, fn_name, None) is fn):
                monkeypatch.setattr(module, fn_name, counter(fn_name, fn))
    for method in ("evaluate", "apply_matrix"):
        monkeypatch.setattr(Polynomial, method,
                            counter(method, getattr(Polynomial, method)))
    certs = nodes(normal_form_cubic(2, F10007, 0), seed=0)
    assert [c.residue_degree for c in certs] == [1, 3, 3, 3]
    assert calls == {"jacobian_rank_at": 1, "evaluate_at": 1,
                     "evaluate": 0, "apply_matrix": 0}
    assert points == {"jacobian_rank_at": [2], "evaluate_at": [2]}


def conjugates(point, k):
    """point and its images under x -> x^p, k in all."""
    field = point.field
    return [ProjectivePoint([field.frobenius(c, j) for c in point.coords])
            for j in range(k)]


def test_node_certificates_of_an_orbit_match_one_point_calls():
    # normal_form_cubic(3, F_10007, 3) has nodes of residue degrees
    # 1, 2, 2, 5, 5, 5, 5, 5. Among them, shuffled: the orbit of five
    # points off the plane next to a node of degree 5, and five points of
    # the plane that are not nodes; every point certified on its own
    nfc = normal_form_cubic(3, F10007, 3)
    certs = nodes(nfc, seed=3)
    assert [c.residue_degree for c in certs] == [1, 2, 2, 5, 5, 5, 5, 5]
    node = certs[-1].point
    ext, zero, one = node.field, node.field.zero(), node.field.one()
    off_plane = ProjectivePoint(node.coords[:4] + (one, zero, zero, zero))
    rng = random.Random(3)
    on_plane = ProjectivePoint([ext.sample(rng) for _ in range(4)]
                               + [zero] * 4)
    points = ([c.point for c in certs] + conjugates(off_plane, 5)
              + conjugates(on_plane, 5))
    rng.shuffle(points)
    expected = [certify_node(nfc, [pt])[0] for pt in points]
    assert [c.quadratic_part_rank for c in expected].count(7) == 8
    assert certify_node(nfc, points) == expected


def test_nodes_sorted_by_residue_degree():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    degrees = [c.residue_degree for c in certs]
    assert degrees == sorted(degrees)


def test_node_certificate_serialization():
    d = run_node_analysis(1, F10007, seed=0)["certificates"][0]
    assert d["kind"] == "node"
    assert d["quadratic_part_rank"] == "3"


@pytest.mark.parametrize("r,p,seed", [(1, 5, 0), (1, 11, 2), (2, 5, 10)])
def test_exhaustive_scan_agrees_with_certified_nodes(r, p, seed):
    # scan P^(2r+1) over F_p and F_(p^2); the singular set must be exactly
    # the certified nodes of residue degree <= 2.  Seeds are chosen general:
    # at small p some draws pick up extra singular points off the plane
    # (e.g. r=1, p=11, seed=1), which certification alone cannot see.
    field = PrimeField(p)
    nfc = normal_form_cubic(r, field, seed)
    certs = nodes(nfc, seed=seed)
    assert len(certs) == 2 ** r
    expected = {(c.point.field.degree, tuple(c.point.serialize()))
                for c in certs if c.residue_degree <= 2}
    scanned = singular_points(Ideal([nfc.f]), k_max=2)
    got = {(pt.field.degree, tuple(pt.serialize())) for pt in scanned}
    assert got == expected
    assert expected  # chosen seeds have at least one shallow node


def test_node_line_system_generators():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    gens = ideal.nonzero_generators()
    assert len(gens) == 2
    assert sorted(g.degree() for g in gens) == [2, 3]
    assert gens[0].nvars == 2 * 2 + 1  # directions live in P^(2r)


def test_node_line_system_dimension_degree():
    for r in (2, 3):
        nfc = normal_form_cubic(r, F10007, seed=0)
        certs = nodes(nfc, seed=0)
        ideal = node_line_system(nfc, certs[0].point)
        assert hilbert_data(ideal) == (2 * r - 2, 6)


def test_node_line_system_slice_degree_cross_check():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    assert slice_degree(ideal, 3, random.Random(4)) == 6


def test_rank_drop_ideal_generator_count():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    rd = rank_drop_ideal(ideal)
    # two originals plus all 2x2 minors of the 2x5 Jacobian
    assert len(rd.generators) == 2 + 10


def random_terms(field, nvars, top, rng):
    """A polynomial of up to 25 terms of degree at most top."""
    terms = {}
    for _ in range(rng.randrange(1, 26)):
        mono = tuple(rng.randrange(top + 1) for _ in range(nvars))
        if sum(mono) <= top:
            terms[mono] = field.sample(rng)
    return Polynomial(field, nvars, terms)


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(7), F10007, build_extension(3, 2),
                        build_extension(10007, 3)]),
       st.integers(1, 5), st.sampled_from([3, 8]))
@settings(max_examples=60, deadline=None)
def test_rank_drop_ideal_matches_plain_route(seed, field, nvars, top):
    # dense g and h, so many products meet at one key of a minor; degree 8
    # makes partials whose exponent the characteristic divides drop terms
    rng = random.Random(seed)
    g = h = Polynomial.zero(field, nvars)
    while g.is_zero():
        g = random_terms(field, nvars, top, rng)
    while h.is_zero():
        h = random_terms(field, nvars, top, rng)
    ideal = Ideal([g, h])
    assert (rank_drop_ideal(ideal).generators
            == plain_rank_drop_ideal(ideal).generators)


@pytest.mark.parametrize("p", [7, 10007])
def test_rank_drop_ideal_at_a_node_over_a_cubic_extension(p):
    # normal_form_cubic(2, F_p, 0) has nodes of residue degrees 1, 3, 3, 3
    nfc = normal_form_cubic(2, PrimeField(p), seed=0)
    node = nodes(nfc, seed=0)[1].point
    ideal = node_line_system(nfc, node)
    assert ideal.field.degree == 3
    assert (rank_drop_ideal(ideal).generators
            == plain_rank_drop_ideal(ideal).generators)


@pytest.mark.parametrize("field", [build_extension(3, 2),
                                   build_extension(10007, 3)], ids=str)
def test_rank_drop_minors_at_the_packer_bound(field):
    # every monomial of degree <= 8 in two variables, each coefficient
    # with every digit p - 1, so the keys of a minor collect the most and
    # the largest packed products
    t = field.generator()
    c = -sum((t ** i for i in range(field.degree)), field.zero())
    dense = Polynomial(field, 2, {(a, b): c for a in range(9)
                                  for b in range(9 - a)})
    ideal = Ideal([dense, dense * parse("x0 + 2*x1", 2, field) + dense])
    assert (rank_drop_ideal(ideal).generators
            == plain_rank_drop_ideal(ideal).generators)


def cusp_system(field):
    """g = x0*x4 + Q and h = x0*(x1^2 + x2^2 + x4*(x1 + x3)) + C, Q and C
    random forms in x1..x4 only. At [1:0:0:0:0] the surface V(g, h) is
    locally the graph x4 = -Q of the plane curve
    x1^2 + x2^2 - Q*(x1 + x3) + C = 0 restricted to x0 = 1, an A_2 (cusp)
    point: the rank-drop locus has Tjurina number 2 there."""
    rng = random.Random(3)

    def lifted(form):
        return Polynomial(field, 5, {(0,) + m: c
                                     for m, c in form.terms.items()})

    q = lifted(random_homogeneous(field, 4, 2, rng))
    c = lifted(random_homogeneous(field, 4, 3, rng))
    return Ideal([parse("x0*x4", 5, field) + q,
                  parse("x0*x1^2 + x0*x2^2 + x0*x1*x4 + x0*x3*x4", 5, field)
                  + c])


@pytest.mark.parametrize("p", [7, 10007])
def test_cusp_rank_drop_point_is_not_certified_reduced(p):
    # one point of degree 2: the Hilbert degree against the point count
    # is the second route, the Jacobian rank 3 < 4 the certificate
    field = PrimeField(p)
    ideal = cusp_system(field)
    rd = rank_drop_ideal(ideal)
    point = ProjectivePoint([field.one()] + [field.zero()] * 4)
    assert hilbert_data(rd) == (0, 2)
    assert certify_reduced_point(rd, [point], codim=4) == [False]
    report = analyze_node_lines(ideal, 2)
    assert report["singular_points"] == [point.serialize()]
    assert (report["computed"]["singular_count"],
            report["computed"]["singular_degree"],
            report["computed"]["singular_reduced"]) == ("1", "2", "false")
    assert not matched(report)


def test_singular_locus_work_is_pinned(monkeypatch):
    # the line system through the first node of `voisin-demo 2 --seed
    # 585427`: the minors make no Polynomial product, the solver's charts
    # no substitution, no package module has a tuple divisibility test,
    # and Buchberger runs twice, on the complete intersection and on the
    # rank-drop ideal
    import sys
    from fanolines import groebner, idealkit, voisin
    nfc = normal_form_cubic(2, F10007, 585427)
    ideal = node_line_system(nfc, nodes(nfc, seed=585427)[0].point)
    phase = ["other"]
    calls = {}

    def counter(name, fn):
        def counted(*args, **kwargs):
            key = (phase[0], name)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def staged(name, fn):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return run

    assert not [name for name, module in sys.modules.items()
                if name.startswith("fanolines")
                and hasattr(module, "mono_divides")]
    counted = {"groebner_basis": groebner.groebner_basis}
    for name, module in list(sys.modules.items()):
        for fn_name, fn in counted.items():
            if (name.startswith("fanolines")
                    and getattr(module, fn_name, None) is fn):
                monkeypatch.setattr(module, fn_name, counter(fn_name, fn))
    for method in ("__mul__", "substitute"):
        monkeypatch.setattr(Polynomial, method,
                            counter(method, getattr(Polynomial, method)))
    monkeypatch.setattr(voisin, "rank_drop_ideal", staged(
        "rank_drop_ideal", voisin.rank_drop_ideal))
    monkeypatch.setattr(idealkit, "solve_projective", staged(
        "solve_projective", idealkit.solve_projective))
    report = analyze_node_lines(ideal, 2, seed=585427)
    assert matched(report)
    assert report["computed"]["singular_count"] == "3"
    assert calls.get(("rank_drop_ideal", "__mul__"), 0) == 0
    assert calls.get(("solve_projective", "substitute"), 0) == 0
    assert sum(n for (_, name), n in calls.items()
               if name == "groebner_basis") == 2


def test_analyze_node_lines_r2_three_singular_points():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    report = analyze_node_lines(ideal, 2, seed=0)
    assert matched(report)
    assert report["computed"]["singular_count"] == "3"
    assert report["computed"]["singular_reduced"] == "true"
    kinds = {c.get("kind") for c in report["certificates"]}
    assert "singular_point" in kinds


def test_analyze_node_lines_r1_records_singular_dim():
    nfc = normal_form_cubic(1, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    report = analyze_node_lines(ideal, 1, seed=0)
    # the twin node contributes a double point: singular locus is 0-dim,
    # recorded without a prediction
    assert report["computed"]["singular_dimension"] == "0"
    assert "singular_dimension" not in report["predicted"]
    assert matched(report)


def test_analyze_node_lines_r3_bounds_singular_dimension():
    nfc = normal_form_cubic(3, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    report = analyze_node_lines(ideal, 3, seed=0)
    assert matched(report)
    assert report["predicted"]["singular_dim_bound"] == "<=2"


def drawn_forms(ideal, r, seed, tries):
    """Per try, the 2r - 3 forms that `analyze_node_lines` draws from
    random.Random(seed); every try is taken."""
    rng = random.Random(seed)
    return [[random_homogeneous(ideal.field, ideal.nvars, 1, rng)
             for _ in range(2 * r - 3)] for _ in range(tries)]


def restricted_tries(ideal, r, seed, tries):
    """Per try, `restricted_cut_misses` on the forms of `drawn_forms`."""
    return [restricted_cut_misses(ideal, forms)
            for forms in drawn_forms(ideal, r, seed, tries)]


def appended_cut_report(monkeypatch, ideal, r, seed):
    """The report of `analyze_node_lines` with each try decided by the
    appended cut (`conftest.appended_cut_misses`)."""
    with monkeypatch.context() as patch:
        patch.setattr(voisin, "restricted_cut_misses", appended_cut_misses)
        return analyze_node_lines(ideal, r, seed=seed)


def recorded_rank_drop_ideals(monkeypatch):
    """(generators, variables) of each rank-drop ideal voisin builds."""
    built = []
    build = voisin.rank_drop_ideal

    def recorded(ideal):
        rd = build(ideal)
        built.append((len(rd.generators), rd.nvars))
        return rd

    monkeypatch.setattr(voisin, "rank_drop_ideal", recorded)
    return built


def recorded_cuts(monkeypatch):
    """Each ideal whose Hilbert data voisin takes, in order."""
    decided = []
    decide = voisin.hilbert_data

    def recorded(ideal):
        decided.append(ideal)
        return decide(ideal)

    monkeypatch.setattr(voisin, "hilbert_data", recorded)
    return decided


def shapes(ideals):
    return [(len(ideal.generators), ideal.nvars) for ideal in ideals]


def open_tries(ideal, forms_per_try, decided):
    """The tries stage 1 of `restricted_cut_misses` leaves open, read off
    the ideals voisin decided (`recorded_cuts`) over `forms_per_try`. Each
    try decides the 2 + 6 generators of g and h restricted to L = P^3;
    one whose stage 1 has zeros decides next the full rank-drop ideal's
    generators (`plain_rank_drop_ideal`) substituted by that try's images
    (`linear_section`), generator for generator, and nothing else."""
    full = plain_rank_drop_ideal(ideal).generators
    opened, calls = [], iter(decided)
    for t, forms in enumerate(forms_per_try):
        stage_one = next(calls)
        assert shapes([stage_one]) == [(8, 4)]
        if hilbert_data(stage_one)[0] >= 0:
            images = linear_section(forms)
            assert list(next(calls).generators) == [
                f.substitute(images) for f in full]
            opened.append(t)
    assert next(calls, None) is None
    return opened


@pytest.mark.parametrize("p", [7, 11, 101, 10007])
def test_linear_section_parametrizes_the_common_zeros(p):
    field, rng = PrimeField(p), random.Random(p)
    for n, c in ((7, 3), (9, 5), (5, 1)):
        forms = [random_homogeneous(field, n, 1, rng) for _ in range(c)]
        forms.append(forms[0] + forms[-1])  # dependent: L stays the same
        rank = mat_rank([[f.terms.get(_unit(n, i), field.zero())
                          for i in range(n)] for f in forms])
        images = linear_section(forms)
        m = n - rank
        assert len(images) == n and {im.nvars for im in images} == {m}
        assert all(f.substitute(images).is_zero() for f in forms)
        # z -> K z is injective, so it maps onto the common zeros
        assert mat_rank([[im.terms.get(_unit(m, j), field.zero())
                          for j in range(m)] for im in images]) == m


@pytest.mark.parametrize("p", [7, 11, 101, 10007])
@pytest.mark.parametrize("r", [3, 4])
def test_restricted_cut_certifies_only_where_the_appended_cut_does(r, p):
    field, analyzed = PrimeField(p), 0
    for seed in range(20):
        try:
            nfc = normal_form_cubic(r, field, seed)
            node = nodes(nfc, seed=seed)[0].point
        except DegenerateInstance:
            continue
        analyzed += 1
        ideal = node_line_system(nfc, node)
        oracle = appended_cut_tries(ideal, r, seed, voisin.SLICE_RETRIES)
        assert restricted_tries(ideal, r, seed, voisin.SLICE_RETRIES) == (
            oracle), seed
        report = analyze_node_lines(ideal, r, seed=seed)
        assert (report["computed"]["singular_dim_bound"], report["flags"]) == (
            (f"<={2 * r - 4}", []) if any(oracle) else ("unknown", [
                f"no random codimension-{2 * r - 3} slice missed the "
                "singular locus; dimension bound unverified"]))
    assert analyzed >= 10


def test_a_try_the_restriction_leaves_open_is_decided_by_the_full_cut(
        monkeypatch):
    # the first node of `voisin-demo 3 --prime 11 --seed 28`: the forms
    # of the first two tries cut L tangent to the line scheme, so stage 1
    # leaves them open, while every appended cut is empty. Stage 2
    # decides the first try on L, by the 21 minors of the full Jacobian
    # restricted to it: 2 + 21 generators in 4 variables, and no ideal
    # in 7 variables is built
    nfc = normal_form_cubic(3, F11, 28)
    ideal = node_line_system(nfc, nodes(nfc, seed=28)[0].point)
    forms = drawn_forms(ideal, 3, 28, 3)
    assert appended_cut_tries(ideal, 3, 28, 3) == [True] * 3
    expected = appended_cut_report(monkeypatch, ideal, 3, 28)
    built = recorded_rank_drop_ideals(monkeypatch)
    decided = recorded_cuts(monkeypatch)
    assert [restricted_cut_misses(ideal, f) for f in forms] == [True] * 3
    assert open_tries(ideal, forms, decided) == [0, 1]
    del built[:], decided[:]
    report = analyze_node_lines(ideal, 3, seed=28)
    assert built == [(8, 4)]
    assert shapes(decided) == [(8, 4), (23, 4)]
    assert report == expected and matched(report)
    assert report["computed"]["singular_dim_bound"] == "<=2"
    assert run_node_analysis(3, F11, 28)["attempts"] == [
        {"seed": "28", "outcome": "ok"}]


@pytest.mark.parametrize("r, seed, opened", [(4, 4, [2]), (5, 7, [0, 2])])
def test_open_tries_build_no_ideal_in_the_ambient_space(monkeypatch, r, seed,
                                                        opened):
    # the first node of `voisin-demo r --prime 7 --seed s`: every appended
    # cut is empty, and stage 1 leaves the tries `opened` open. Stage 2
    # decides them on L, by the C(2r+1, 2) minors of the full Jacobian
    # restricted to it; no rank-drop ideal in 2r + 1 variables is built
    nfc = normal_form_cubic(r, F7, seed)
    ideal = node_line_system(nfc, nodes(nfc, seed=seed)[0].point)
    forms = drawn_forms(ideal, r, seed, 3)
    assert appended_cut_tries(ideal, r, seed, 3) == [True] * 3
    built = recorded_rank_drop_ideals(monkeypatch)
    decided = recorded_cuts(monkeypatch)
    assert [restricted_cut_misses(ideal, f) for f in forms] == [True] * 3
    assert open_tries(ideal, forms, decided) == opened
    assert built == [(8, 4)] * 3


@pytest.mark.parametrize("p", [7, 10007])
def test_a_three_dimensional_singular_locus_stays_unknown(p):
    # V(x0 x1, h) is singular along V(x0, x1, h), of dimension 3 in P^6,
    # which every codimension-3 cut meets: no try may certify dim <= 2
    field = PrimeField(p)
    ideal = Ideal([parse("x0*x1", 7, field),
                   random_homogeneous(field, 7, 3, random.Random(p))])
    assert restricted_tries(ideal, 3, 0, 3) == [False] * 3
    report = analyze_node_lines(ideal, 3, seed=0)
    assert report["computed"]["singular_dim_bound"] == "unknown"
    assert report["flags"] == [
        "no random codimension-3 slice missed the singular locus; "
        "dimension bound unverified"]


def test_restricted_cut_is_open_where_a_generator_vanishes_on_l():
    # x0 x1 is zero on L = V(x0, x2 - x3, x5), so its restriction is
    # zero and stage 1 decides nothing; stage 2 finds the singular points
    # x1 = h = 0 on L, as the appended cut does
    field = F10007
    ideal = Ideal([parse("x0*x1", 7, field),
                   parse("x2^3 + x4^3 - x6^3 + x1*x5^2", 7, field)])
    forms = [parse(text, 7, field) for text in ("x0", "x2 - x3", "x5")]
    assert linear_section(forms)[0].is_zero()
    assert not restricted_cut_misses(ideal, forms)
    assert not appended_cut_misses(ideal, forms)


@pytest.mark.parametrize("p", [7, 10007])
def test_a_cut_inside_one_generator_is_decided_on_l(p):
    # g = x0 x1 + x2 x3 + x4 x5 is zero on L = V(x0, x2, x4), and g has
    # rank 6, so on L the rank drops only at singular points of h on L
    # or at g's vertex e6, where this h is not zero: for h a smooth cubic
    # surface on L, the singular locus misses L, and only stage 2 can
    # say so
    field = PrimeField(p)
    h = random_homogeneous(field, 7, 3, random.Random(p)) + parse(
        "x6^3 + x1^3 + x3^3 + x5^3", 7, field)
    ideal = Ideal([parse("x0*x1 + x2*x3 + x4*x5", 7, field), h])
    forms = [parse(text, 7, field) for text in ("x0", "x2", "x4")]
    assert appended_cut_misses(ideal, forms)
    assert restricted_cut_misses(ideal, forms)


def test_r3_cut_work_is_pinned(monkeypatch):
    # `voisin-demo 3 --seed 0`: the first try's restriction is empty, so
    # the verdict builds one rank-drop ideal, of g and h restricted to
    # L = P^3 (2 + 6 generators in 4 variables), and not the full one
    # (2 + 21 in 7)
    nfc = normal_form_cubic(3, F10007, 0)
    ideal = node_line_system(nfc, nodes(nfc, seed=0)[0].point)
    built = recorded_rank_drop_ideals(monkeypatch)
    decided = recorded_cuts(monkeypatch)
    report = analyze_node_lines(ideal, 3, seed=0)
    assert report["computed"]["singular_dim_bound"] == "<=2"
    assert built == [(8, 4)]
    assert shapes(decided) == [(8, 4)]


def test_run_node_analysis_end_to_end():
    for r in (1, 2):
        report = run_node_analysis(r, F10007, seed=0)
        assert matched(report)
        assert report["computed"]["node_count"] == str(2 ** r)
        # the node certificates come first, the analyzed node's leading
        nfc = normal_form_cubic(r, F10007, seed=0)
        certs = nodes(nfc, seed=0)
        assert [c["point"] for c in report["certificates"][:2 ** r]] == [
            " : ".join(c.point.serialize()) for c in certs]
        assert {c["kind"] for c in report["certificates"][:2 ** r]} == {"node"}


def test_run_node_analysis_small_field_resamples():
    # tiny fields hit degenerate draws; the retry loop must cope or give up
    report = run_node_analysis(1, F5, seed=1)
    assert matched(report)
    assert [a["outcome"].split(":")[0] for a in report["attempts"]] == [
        "degenerate", "degenerate", "ok"]


def test_invalid_rank_r():
    with pytest.raises(InvalidParameters):
        normal_form_cubic(0, F10007, seed=0)

