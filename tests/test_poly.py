"""Sparse polynomial layer: parser, ring axioms, calculus, substitution."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fanolines import (PrimeField, Polynomial, ProjectivePoint,
                       build_extension, embedding, parse_polynomial)
from fanolines.field import FieldElement, relative_extension
from fanolines.poly import (GREVLEX, LEX, MAX_TERM_DEGREE, evaluate_at,
                            jacobian_rank_at, monomials_of_degree,
                            random_homogeneous, restrict)
from fanolines.unipoly import roots_in_field
from fanolines.linalg import random_invertible
from fanolines.errors import (FanolinesError, ParseError, UnknownVariable,
                              ZeroPolynomial)

from conftest import (dehomogenize, jacobian_rank_oracle, leading_monomial,
                      mat_identity, mat_vec, monomial, parse, plain_evaluate,
                      plain_gradient, plain_restrict, plain_substitute_all,
                      token_parse)
from test_cli_fuzz import POLY_PIECES, forms, pieces

F7 = PrimeField(7)
F9 = build_extension(3, 2)
F10007 = PrimeField(10007)
F10007_2 = build_extension(10007, 2)
F10007_6 = build_extension(10007, 6)
F_BIG = PrimeField(4294967311)


def random_poly(field, nvars, max_deg, rng, terms=6):
    out = Polynomial.zero(field, nvars)
    for _ in range(terms):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        if sum(exps) > max_deg:
            continue
        out = out + monomial(field, exps, field.sample(rng))
    return out


def random_point(field, nvars, rng):
    return [field.sample(rng) for _ in range(nvars)]


def test_parse_basic_shape():
    f = parse("x0^2*x1 + 3*x2^3", 3, F7)
    assert len(f.terms) == 2
    assert f.degree() == 3


def test_parse_cancellation_gives_zero():
    assert parse("x0 - x0", 2, F7).is_zero()


def test_parse_reduces_coefficients_mod_p():
    f5 = PrimeField(5)
    f = parse("7*x1^2*x0", 2, f5)
    assert f.terms[leading_monomial(f, GREVLEX)] == f5.from_int(2)


def test_parse_grammar_flexibility():
    # whitespace insignificant, optional '*'
    a = parse("2*x0*x1", 2, F7)
    b = parse("  2 * x0 * x1 ", 2, F7)
    assert a == b
    c = parse("x0 - 3*x1^2 + 1", 2, F7)
    assert c.evaluate([F7.zero(), F7.zero()]) == F7.one()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("x0 + * x1", 2, F7)
    with pytest.raises(ParseError):
        parse("x0^", 2, F7)
    with pytest.raises(UnknownVariable):
        parse("x0 + y1", 2, F7)


def test_parse_rejects_denominators_that_are_not_units():
    with pytest.raises(ParseError) as info:
        parse("x0^2 + 1/0*x1^2", 2, F7)
    assert info.value.position == 9
    f5 = PrimeField(5)
    with pytest.raises(ParseError) as info:
        parse("x0 + 3/10*x1", 2, f5)
    assert info.value.position == 7
    # reduced first: 5/10 = 1/2 is a unit mod 5, and 10/5 = 2
    assert parse("5/10*x0 + 10/5*x1", 2, f5) == parse("3*x0 + 2*x1", 2, f5)


def test_parse_caps_the_degree_of_a_term():
    top = parse(f"x0^{MAX_TERM_DEGREE - 1}*x1 + x1^{MAX_TERM_DEGREE}", 2, F7)
    assert top.degree() == MAX_TERM_DEGREE
    # the position is that of the offending term; repeated factors add up
    for text, position in ((f"x0 + 2*x1^{MAX_TERM_DEGREE + 1}", 5),
                           (f"x0^{MAX_TERM_DEGREE}*x1 - x1", 0),
                           ("x1^2 - x0^99999999999", 7),
                           ("x0 + x0^300*x0^300", 5)):
        with pytest.raises(ParseError) as info:
            parse(text, 2, F7)
        assert info.value.position == position, text


PARSE_FIELDS = [PrimeField(5), F7, F10007]


def parse_outcome(parser, text, field):
    """(class, message, position) of the error, or (nvars, ordered terms)."""
    try:
        f = parser(text, 4, field)
    except FanolinesError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return f.nvars, list(f.terms.items())


@settings(max_examples=600, deadline=None)
@given(text=st.one_of(pieces(POLY_PIECES, 16), forms()),
       field=st.sampled_from(PARSE_FIELDS))
@example("x2^3 + x0*x1^2 - x2^3 + x3^3 + x2^3", F7)
@example("-x1 - -2/4*x1 + 3x2**x3* - 7/14x1", F7)
@example("1/5*x0 + 1/0*x1", PrimeField(5))
@example("x0 - -x1^600", F7)
def test_parse_matches_the_token_parser(text, field):
    # errors alike to the message and position; accepted text alike to
    # the order of the terms, a cancelled term going to the back
    assert (parse_outcome(parse_polynomial, text, field)
            == parse_outcome(token_parse, text, field))


def test_parse_builds_one_polynomial_and_adds_none(monkeypatch):
    dense = Polynomial(F10007, 6, {
        mono: F10007.from_int(k + 1)
        for k, mono in enumerate(monomials_of_degree(6, 3))})
    text = dense.to_text()
    # every Polynomial is built by __init__ or by from_payloads
    calls = {"__add__": 0, "__init__": 0, "from_payloads": 0}

    def counted(name, method):
        def run(*args):
            calls[name] += 1
            return method(*args)
        return run

    for name in ("__add__", "__init__"):
        monkeypatch.setattr(Polynomial, name,
                            counted(name, getattr(Polynomial, name)))
    monkeypatch.setattr(Polynomial, "from_payloads", classmethod(counted(
        "from_payloads", Polynomial.from_payloads.__func__)))
    f = parse_polynomial(text, 6, F10007)
    monkeypatch.undo()
    assert len(f.terms) == 56 and f == dense
    assert calls == {"__add__": 0, "__init__": 0, "from_payloads": 1}


def test_parse_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(F7, 3, 4, rng)
        if f.is_zero():
            continue
        again = parse_polynomial(f.to_text(), 3, F7)
        assert again == f


def test_to_text_prints_the_canonical_strings():
    # terms in descending grevlex order, each joined by " + " (a residue
    # such as 6 = -1 mod 7 prints as itself), a unit coefficient left
    # out, a constant term bare, and a coefficient of more than one
    # term over F_{p^k} in parentheses, a one-term one without
    def poly(field, nvars, terms):
        return Polynomial(field, nvars, {m: FieldElement(field, c)
                                         for m, c in terms.items()})

    f = poly(F7, 3, {(0, 0, 0): 4, (1, 0, 0): 5, (1, 0, 1): 3, (0, 2, 0): 1,
                     (0, 1, 2): 6, (2, 1, 0): 1})
    assert f.to_text() == "x0^2*x1 + 6*x1*x2^2 + x1^2 + 3*x0*x2 + 5*x0 + 4"
    g = poly(F9, 2, {(1, 0): (0, 2), (0, 0): (2, 1), (0, 2): (0, 1),
                     (1, 1): (1, 2), (2, 0): (1, 0)})
    assert g.to_text() == "x0^2 + (2*t + 1)*x0*x1 + t*x1^2 + 2*t*x0 + (t + 2)"
    h = poly(build_extension(10007, 3), 2, {
        (0, 0): (3, 4, 0), (2, 0): (0, 0, 1), (0, 3): (5, 0, 10006)})
    assert h.to_text() == "(10006*t^2 + 5)*x1^3 + t^2*x0^2 + (4*t + 3)"
    assert Polynomial.zero(F9, 2).to_text() == "0"


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f, g, h = (random_poly(F7, 3, 3, rng) for _ in range(3))
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_evaluate_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    f = random_poly(F7, 3, 3, rng)
    g = random_poly(F7, 3, 3, rng)
    for _ in range(5):
        pt = random_point(F7, 3, rng)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_degree_of_product_adds():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(F10007, 2, 3, rng)
        g = random_poly(F10007, 2, 3, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_homogeneous_components_examples():
    f = parse("x1^2 + x2^3", 3, F7)
    comps = f.homogeneous_components()
    assert set(comps) == {2, 3}
    assert comps[2] == parse("x1^2", 3, F7)
    assert comps[3] == parse("x2^3", 3, F7)


def test_homogeneous_components_identity_case():
    rng = random.Random(2)
    f = random_homogeneous(F7, 3, 4, rng)
    assert f.homogeneous_components() == {4: f}


def test_components_reassemble():
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(F7, 3, 4, rng)
        if f.is_zero():
            continue
        comps = f.homogeneous_components()
        total = Polynomial.zero(F7, 3)
        for d, c in comps.items():
            assert c.is_homogeneous() and c.degree() == d
            total = total + c
        assert total == f


def test_dehomogenized_node_has_no_low_terms():
    # double point at the origin: local expansion starts in degree 2
    cubic = parse("x0*x1^2 + x2^3 + x3^3", 4, F10007)
    local = dehomogenize(cubic, 0)
    comps = local.homogeneous_components()
    assert min(comps) == 2


def test_partial_derivative_examples():
    f = parse("x0^2*x1", 2, F7)
    assert f.partial_derivative(0) == parse("2*x0*x1", 2, F7)
    assert Polynomial.constant(F7, 2, F7.from_int(5)).partial_derivative(1). \
        is_zero()
    # terms whose exponent the characteristic divides drop out
    f = parse("x0^3 + x0*x1^7 + 2*x1^6", 2, PrimeField(3))
    assert f.gradient() == [parse("x1^7", 2, PrimeField(3)),
                            parse("x0*x1^6", 2, PrimeField(3))]
    g = parse("x0^7*x1 + 3*x0^8 + x1^14", 2, F7)
    assert g.gradient() == [parse("3*x0^7", 2, F7), parse("x0^7", 2, F7)]


@given(st.integers(0, 10**6), st.sampled_from([PrimeField(3), F7, F9]),
       st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_gradient_matches_plain_route(seed, field, nvars):
    # exponents p and 2p vanish on differentiation over F_3, F_7 and F_9
    p = field.characteristic()
    rng = random.Random(seed)
    f = Polynomial(field, nvars, {
        tuple(rng.choice((0, 1, 2, p - 1, p, p + 1, 2 * p))
              for _ in range(nvars)): field.sample(rng)
        for _ in range(rng.randrange(30))})
    assert f.gradient() == plain_gradient(f)
    assert [f.partial_derivative(i) for i in range(nvars)] == plain_gradient(f)


def element_product(f, g):
    """f * g term by term on FieldElements, the reference for the payload
    product; a sum that cancels leaves the dict and re-enters at its end."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = c1 * c2 if m not in out else out[m] + c1 * c2
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


def element_partial(f, i):
    """df/dx_i on FieldElements, the reference for the payload partial."""
    out = {}
    for mono, c in f.terms.items():
        scaled = c * f.field.from_int(mono[i])
        if mono[i] == 0 or scaled.is_zero():
            continue
        m = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        s = scaled if m not in out else out[m] + scaled
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


@pytest.mark.parametrize("field", [F7, F9], ids=str)
def test_product_and_partials_match_element_arithmetic(field):
    # same terms in the same dict order; over F_7 and F_9 exponents of 7
    # and 3 make partials vanish, and many products cancel
    x0, x1, x2 = (Polynomial.variable(field, 3, i) for i in range(3))
    # x0*x1*x2 cancels after two products and comes back with the third
    f, g = x0 + x1 + x2, x1 * x2 - x0 * x2 + x0 * x1 * 2
    assert list((f * g).terms)[-1] == (1, 1, 1)
    assert list((f * g).terms.items()) == list(element_product(f, g).items())
    rng = random.Random(23)
    for _ in range(12):
        f = random_poly(field, 3, 8, rng, terms=12)
        g = random_poly(field, 3, 8, rng, terms=12)
        assert list((f * g).terms.items()) == list(element_product(f, g).items())
        c = field.sample(rng)
        assert list((f * c).terms.items()) == [
            (m, a * c) for m, a in f.terms.items() if not c.is_zero()]
        for i in range(3):
            assert list(f.partial_derivative(i).terms.items()) == \
                list(element_partial(f, i).items())


def test_euler_relation_random_cubics():
    # sum x_i df/dx_i = d*f for homogeneous f; valid since p > d
    rng = random.Random(7)
    for _ in range(30):
        f = random_homogeneous(F10007, 4, 3, rng)
        acc = Polynomial.zero(F10007, 4)
        for i in range(4):
            acc = acc + Polynomial.variable(F10007, 4, i) * \
                f.partial_derivative(i)
        assert acc == f.map_coefficients(
            F10007, lambda c: c * F10007.from_int(3))


def test_linear_substitute_identity_and_permutation():
    f = parse("x0^2 + x1*x2", 3, F7)
    assert f.apply_matrix(mat_identity(F7, 3)) == f
    # swap x0, x1
    swap = [[F7.zero(), F7.one(), F7.zero()],
            [F7.one(), F7.zero(), F7.zero()],
            [F7.zero(), F7.zero(), F7.one()]]
    assert parse("x0", 3, F7).apply_matrix(swap) == parse("x1", 3, F7)


def test_linear_substitute_evaluation_oracle():
    # (f o M)(v) = f(Mv) at 20 random points
    rng = random.Random(13)
    f = parse("x0^2 + x1^2", 3, F10007)
    m = random_invertible(F10007, 3, rng)
    g = f.apply_matrix(m)
    for _ in range(20):
        v = random_point(F10007, 3, rng)
        assert g.evaluate(v) == f.evaluate(mat_vec(m, v))
    assert g.degree() == f.degree()


def test_linear_substitute_is_ring_homomorphism():
    rng = random.Random(19)
    m = random_invertible(F7, 3, rng)
    f = random_poly(F7, 3, 2, rng)
    g = random_poly(F7, 3, 2, rng)
    assert (f * g).apply_matrix(m) == f.apply_matrix(m) * g.apply_matrix(m)


def test_zero_polynomial_guards():
    # degree of 0 is the sentinel -1; decomposition is refused outright
    z = Polynomial.zero(F7, 2)
    assert z.is_zero() and z.degree() == -1
    with pytest.raises(ZeroPolynomial):
        z.homogeneous_components()


def test_leading_monomial_depends_on_order():
    # grevlex favors x1^3, lex favors the x0 term
    f = parse("x1^3 + x0*x2^2", 3, F7)
    assert leading_monomial(f, GREVLEX) == (0, 3, 0)
    assert leading_monomial(f, LEX) == (1, 0, 2)


def test_monomials_of_degree_count():
    # stars and bars: C(n+d-1, d) monomials of degree d in n variables
    assert len(list(monomials_of_degree(3, 2))) == 6
    assert len(list(monomials_of_degree(4, 3))) == 20
    for mono in monomials_of_degree(3, 2):
        assert sum(mono) == 2


def test_random_homogeneous_reproducible():
    a = random_homogeneous(F7, 3, 2, random.Random(4))
    b = random_homogeneous(F7, 3, 2, random.Random(4))
    assert a == b and a.is_homogeneous() and a.degree() == 2


def test_random_homogeneous_draws_again_until_nonzero():
    # over F_3 in one variable the one coefficient is zero a third of the
    # time; the form is then drawn again from the same rng
    field, redrawn = PrimeField(3), 0
    for seed in range(20):
        rng, replay = random.Random(seed), random.Random(seed)
        f = random_homogeneous(field, 1, 2, rng)
        c = field.sample(replay)
        while c.is_zero():
            redrawn += 1
            c = field.sample(replay)
        assert f.terms == {(2,): c}
        assert rng.getstate() == replay.getstate()
    assert redrawn


def test_extend_variables_and_substitute():
    g = parse("x1^2 + x2", 3, F7)
    images = [Polynomial.variable(F7, 3, i) for i in range(3)]
    assert g.substitute(images) == g
    images[2] = Polynomial.zero(F7, 3)
    assert g.substitute(images) == parse("x1^2", 3, F7)


def random_image(field, nvars, rng):
    """Zero, a linear form or a polynomial of degree up to 3."""
    kind = rng.randrange(3)
    if kind == 0:
        return Polynomial.zero(field, nvars)
    return random_poly(field, nvars, 1 if kind == 1 else 3, rng)


@pytest.mark.parametrize("field", [F7, F9], ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_substitute_commutes_with_evaluation(field, seed):
    # f(images)(v) == f(images(v)), into fewer, as many and more variables
    rng = random.Random(seed)
    target = (1, 2, 3, 5)[seed % 4]
    f = random_poly(field, 3, 4, rng, terms=10)
    images = [random_image(field, target, rng) for _ in range(3)]
    g = f.substitute(images)
    assert g.nvars == target
    for _ in range(5):
        v = random_point(field, target, rng)
        assert g.evaluate(v) == f.evaluate([h.evaluate(v) for h in images])


@given(st.integers(0, 10**6),
       st.sampled_from([F7, F10007, PrimeField(4294967311), F9,
                        build_extension(10007, 6)]),
       st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_substitute_all_matches_plain_route(seed, field, nvars, target):
    # dense sources and images sum many products into one packed value
    rng = random.Random(seed)
    polys = [random_poly(field, nvars, 5, rng, terms=rng.randrange(40))
             for _ in range(3)]
    images = [random_image(field, target, rng) if rng.randrange(2)
              else random_poly(field, target, 2, rng, terms=20)
              for _ in range(nvars)]
    assert [f.substitute(images) for f in polys] == plain_substitute_all(
        polys, images)


@pytest.mark.parametrize("field", [F7, F9], ids=str)
def test_apply_matrix_is_substitute_of_linear_images(field):
    rng = random.Random(5)
    for _ in range(4):
        m = [[field.sample(rng) for _ in range(3)] for _ in range(3)]
        images = []
        for row in m:
            image = Polynomial.zero(field, 3)
            for j, c in enumerate(row):
                image = image + Polynomial.variable(field, 3, j) * c
            images.append(image)
        f = random_poly(field, 3, 3, rng, terms=8)
        assert f.apply_matrix(m) == f.substitute(images)


@pytest.mark.parametrize("small,big", [(F7, (7, 2)), (F9, (3, 4))],
                         ids=["F7-F49", "F9-F81"])
def test_evaluate_at_extension_point_embeds_coefficients(small, big):
    ext = build_extension(*big)
    embed = embedding(small, ext)
    rng = random.Random(3)
    for _ in range(5):
        f = random_poly(small, 3, 3, rng, terms=8)
        v = random_point(ext, 3, rng)
        assert f.evaluate(v) == f.map_coefficients(ext, embed).evaluate(v)


# (polynomial field, field of the extension points): each field at its own
# points, and F_p and F_9 polynomials at extension points
EVALUATION_FIELDS = [(F7, F7), (F10007, F10007), (F_BIG, F_BIG),
                     (F9, F9), (F10007_6, F10007_6),
                     (F7, build_extension(7, 3)), (F10007, F10007_6),
                     (F_BIG, build_extension(4294967311, 2)),
                     (F9, build_extension(3, 4))]


@given(st.integers(0, 10**6), st.sampled_from(EVALUATION_FIELDS),
       st.integers(0, 4))
@example(0, (F7, F7), 0)
@example(3, (F10007, F10007_6), 0)
@settings(max_examples=80, deadline=None)
def test_evaluate_matches_plain_route(seed, fields, nvars):
    # one call over points of both fields, against one field call per
    # factor; nvars = 0 is the constant at the empty point
    ground, ext = fields
    rng = random.Random(seed)
    polys = [random_poly(ground, nvars, 5, rng, terms=rng.randrange(30))
             for _ in range(3)]
    points = [random_point(rng.choice((ground, ext)), nvars, rng)
              for _ in range(4)]
    expected = [[plain_evaluate(f, v) for f in polys] for v in points]
    assert evaluate_at(polys, points) == expected
    assert [[f.evaluate(v) for f in polys] for v in points] == expected
    assert evaluate_at([], points) == [[] for _ in points]


@given(st.integers(0, 10**6), st.sampled_from(EVALUATION_FIELDS),
       st.integers(3, 5))
@example(0, (F7, build_extension(7, 3)), 3)
@settings(max_examples=60, deadline=None)
def test_terms_at_a_coordinate_zero_at_every_point(seed, fields, nvars):
    # x_dead is 0 at every point, x_some at every other point and the rest
    # at none. Values and Jacobian ranks against the oracles, and one
    # point per call, over polynomials with terms of exponent 0 at x_dead,
    # one whose every term has x_dead and one that is 1 at every point
    # while its partial in x_dead keeps terms
    ground, ext = fields
    rng = random.Random(seed)
    dead, some = rng.sample(range(nvars), 2)
    x = Polynomial.variable(ground, nvars, dead)
    polys = [random_poly(ground, nvars, 4, rng, terms=rng.randrange(1, 20))
             for _ in range(3)]
    polys += [x * random_poly(ground, nvars, 3, rng) + x ** 2,
              x * random_poly(ground, nvars, 3, rng) + x + 1]
    points = []
    for i in range(6):
        field = rng.choice((ground, ext))
        coords = [field.sample(rng) or field.one() for _ in range(nvars)]
        coords[dead] = field.zero()
        if i % 2:
            coords[some] = field.zero()
        points.append(ProjectivePoint(coords))
    expected = [[plain_evaluate(f, pt.coords) for f in polys] for pt in points]
    assert not any(values[3] for values in expected)
    assert all(values[4] == values[4].field.one() for values in expected)
    assert evaluate_at(polys, [pt.coords for pt in points]) == expected
    assert [[f.evaluate(pt.coords) for f in polys] for pt in points] == expected
    for gens in (polys, polys[3:], polys[:1]):
        assert jacobian_rank_at(gens, points) == [
            jacobian_rank_oracle(gens, pt) for pt in points]


def test_evaluate_rejects_coordinates_in_different_fields():
    f = parse("x0*x1 + 1", 2, F7)
    with pytest.raises(TypeError):
        evaluate_at([f], [[F7.one(), build_extension(7, 2).one()]])


@pytest.mark.parametrize("field", [F10007, F10007_2], ids=str)
def test_value_kernel_at_the_degree_cap(field):
    # each monomial of top degree is reached along a chain of
    # MAX_TERM_DEGREE prefix steps; values, Jacobian ranks and the
    # substituted polynomial against the oracles
    top = MAX_TERM_DEGREE
    f = parse(f"x0^{top} - x1^{top - 1}*x2 + x2^{top}", 3, field)
    assert f.degree() == top
    rng = random.Random(top)
    points = [ProjectivePoint(random_point(ext, 3, rng))
              for ext in (field, F10007_6 if field is F10007 else field)
              for _ in range(3)]
    points.append(ProjectivePoint([field.zero(), field.one(), field.zero()]))
    coords = [list(pt.coords) for pt in points]
    expected = [plain_evaluate(f, v) for v in coords]
    assert [f.evaluate(v) for v in coords] == expected
    assert evaluate_at([f], coords) == [[v] for v in expected]
    assert jacobian_rank_at([f], points) == \
        [jacobian_rank_oracle([f], pt) for pt in points]
    y0, y1 = (Polynomial.variable(field, 2, i) for i in range(2))
    images = [y0 + y1, y1, y0 * 2]
    assert f.substitute(images) == plain_substitute_all([f], images)[0]


RESTRICT_FIELDS = [F7, F10007, F9, build_extension(10007, 3)]


@given(st.integers(0, 10**6), st.sampled_from(RESTRICT_FIELDS),
       st.integers(1, 5), st.sampled_from(["zero", "one", "random"]))
@settings(max_examples=80, deadline=None)
def test_restrict_matches_plain_route(seed, field, nvars, value):
    # dense polynomials, so terms that differ only in x_last meet at one
    # key; the last one vanishes at x_last = value and stays in the list
    rng = random.Random(seed)
    last = rng.randrange(nvars)
    value = {"zero": field.zero(), "one": field.one(),
             "random": field.sample(rng)}[value]
    polys = [random_poly(field, nvars, 5, rng, terms=rng.randrange(40))
             for _ in range(3)]
    c = field.sample(rng)
    x_last = Polynomial.variable(field, nvars, last)
    polys.append(x_last * x_last * c - x_last * c * value)
    got = restrict(polys, last, value)
    assert got == plain_restrict(polys, last, value)
    assert len(got) == len(polys) and got[-1].is_zero()


@pytest.mark.parametrize("field", [F9, build_extension(10007, 3)], ids=str)
def test_restrict_at_the_packer_bound(field):
    # 64 terms meet at the key of x0, each coefficient and the value with
    # every digit p - 1
    t = field.generator()
    top = -sum((t ** i for i in range(field.degree)), field.zero())
    f = Polynomial(field, 3, {(1, e, 0): top for e in range(64)})
    assert restrict([f], 1, top) == plain_restrict([f], 1, top)
    assert restrict([f], 1, field.one()) == [parse("64*x0", 1, field) * top]


def test_restrict_at_fibre_roots_over_a_cubic_extension():
    # the solver's fibres: a lex basis over F_10007 with an irreducible
    # cubic eliminant in x2, over F_(10007^3) at each of its three roots
    ext, embed = relative_extension(F10007, 3)
    e = Polynomial(F10007, 3, {(0, 0, i): F10007.from_int(c)
                               for i, c in enumerate(ext.modulus)})
    basis = [parse("x0 - 3*x2^2 - 5", 3, F10007),
             parse("x1^2 - x1*x2 + 2", 3, F10007), e]
    mapped = [g.map_coefficients(ext, embed) for g in basis]
    roots = roots_in_field([F10007.from_int(c) for c in ext.modulus],
                           ext, random.Random(3), orbit=3)
    assert len(roots) == 3
    x0, x1 = (Polynomial.variable(ext, 2, i) for i in range(2))
    for root in roots:
        fibre = restrict(mapped, 2, root)
        assert fibre == plain_restrict(mapped, 2, root)
        assert fibre[0] == x0 - (root * root * 3 + 5)
        assert fibre[1] == x1 * x1 - x1 * root + 2
        assert fibre[2].is_zero()

