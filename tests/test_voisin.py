"""Special nodal cubics: node counting, certification, and line systems.

The cubic is built in the normal form q^2-weighted by construction, so
structure tests pin exact polynomials; the node set is then re-derived
by an exhaustive Jacobian scan over small fields and compared against
the certified list, extension level by extension level.
"""

import random

import pytest

from fanolines import Ideal, Polynomial, PrimeField, ProjectivePoint
from fanolines.linalg import random_invertible
from fanolines.voisin import (NormalFormCubic, _normal_form,
                              _random_linear_slice, analyze_node_lines,
                              certify_node, node_line_system, nodes,
                              normal_form_cubic, rank_drop_ideal,
                              restricted_quadrics, run_node_analysis,
                              scan_singularities)
from fanolines.idealkit import hilbert_data, slice_degree
from fanolines.errors import DegenerateInstance, InvalidParameters

from conftest import chart_quadratic_rank, parse, sympy_hessian_rank

F5 = PrimeField(5)
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


def test_normal_form_rejects_tampering():
    nfc = normal_form_cubic(2, F10007, seed=0)
    bad = list(nfc.quadrics)
    bad[0] = parse("x0^2", 6, F10007)
    with pytest.raises(InvalidParameters):
        NormalFormCubic(nfc.r, nfc.f, tuple(bad))


def test_normal_form_needs_odd_characteristic():
    with pytest.raises(InvalidParameters):
        PrimeField(2)


def test_restricted_quadrics_cut_finite_scheme():
    for r in (1, 2, 3):
        nfc = normal_form_cubic(r, F10007, seed=0)
        ideal = Ideal(restricted_quadrics(nfc))
        assert hilbert_data(ideal) == (0, 2 ** r)


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
    nfc = NormalFormCubic(1, _normal_form(field, 1, [q]), (q,))
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
    # change and no per-candidate `Polynomial.evaluate`
    import sys
    from fanolines import poly
    counted = {"jacobian_rank_at": poly.jacobian_rank_at,
               "evaluate_at": poly.evaluate_at}
    calls = dict.fromkeys([*counted, "evaluate", "apply_matrix"], 0)

    def counter(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
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


def test_nodes_sorted_by_residue_degree():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    degrees = [c.residue_degree for c in certs]
    assert degrees == sorted(degrees)


def test_node_certificate_serialization():
    d = run_node_analysis(1, F10007, seed=0).report.certificates[0]
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
    scanned = scan_singularities(nfc, k_max=2)
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


def test_analyze_node_lines_r2_three_singular_points():
    nfc = normal_form_cubic(2, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    report = analyze_node_lines(ideal, 2, seed=0)
    assert report.matched()
    assert report.computed["singular_count"] == "3"
    assert report.computed["singular_reduced"] == "true"
    kinds = {c.get("kind") for c in report.certificates}
    assert "singular_point" in kinds


def test_analyze_node_lines_r1_records_singular_dim():
    nfc = normal_form_cubic(1, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    report = analyze_node_lines(ideal, 1, seed=0)
    # the twin node contributes a double point: singular locus is 0-dim,
    # recorded without a prediction
    assert report.computed["singular_dimension"] == "0"
    assert "singular_dimension" not in report.predicted
    assert report.matched()


def test_analyze_node_lines_r3_bounds_singular_dimension():
    nfc = normal_form_cubic(3, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    ideal = node_line_system(nfc, certs[0].point)
    report = analyze_node_lines(ideal, 3, seed=0)
    assert report.matched()
    assert report.predicted["singular_dim_bound"] == "<=2"


def test_run_node_analysis_end_to_end():
    for r in (1, 2):
        analysis = run_node_analysis(r, F10007, seed=0)
        assert analysis.report.matched()
        assert analysis.report.computed["node_count"] == str(2 ** r)
        assert len(analysis.node_certificates) == 2 ** r
        assert analysis.chosen_node == analysis.node_certificates[0].point


def test_run_node_analysis_small_field_resamples():
    # tiny fields hit degenerate draws; the retry loop must cope or give up
    analysis = run_node_analysis(1, F5, seed=1, retries=10)
    assert analysis.report.matched()
    assert analysis.report.attempts


def test_invalid_rank_r():
    with pytest.raises(InvalidParameters):
        normal_form_cubic(0, F10007, seed=0)


def test_slice_is_one_substitution_of_the_two_ring_maps():
    # x -> M x followed by y_j -> 0 for j >= m, done as one ring map, from
    # the same rng stream
    nfc = normal_form_cubic(3, F10007, seed=0)
    certs = nodes(nfc, seed=0)
    rd = rank_drop_ideal(node_line_system(nfc, certs[0].point))
    n, codim = rd.nvars, 3
    m = n - codim
    for seed in range(3):
        sliced = _random_linear_slice(rd, codim, random.Random(seed))
        matrix = random_invertible(F10007, n, random.Random(seed))
        restrict = [Polynomial.variable(F10007, m, i) if i < m
                    else Polynomial.zero(F10007, m) for i in range(n)]
        expected = [g.apply_matrix(matrix).substitute(restrict)
                    for g in rd.generators]
        assert sliced == expected
        assert all(g.nvars == m for g in sliced)
