"""Buchberger engine and the grevlex-to-lex conversion for 0-dim ideals.

Soundness runs in both directions: generators reduce to zero against the
basis, membership of constructed combinations is recognized, and the
conversion path must reproduce the direct lex computation exactly since
reduced bases are unique per order.
"""

import itertools
import random
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from fanolines import PrimeField, Polynomial, build_extension
from fanolines.poly import (GREVLEX, LEX, Packing, monomials_of_degree,
                            random_homogeneous)
from fanolines.groebner import groebner_basis, is_member, normal_form
from fanolines.fglm import fglm_lex, lex_basis_zero_dim
from fanolines.solve import chart_system
from fanolines.errors import NotZeroDimensional
from fanolines import fglm, groebner, poly

from conftest import (dehomogenize, leading_monomial, mono_divides, mono_lcm,
                      mono_mul, monomial, parse, plain_normal_form,
                      plain_pair_update, quotient_monomials)

F7 = PrimeField(7)
F10007 = PrimeField(10007)


def random_poly(field, nvars, max_deg, rng, terms=5):
    out = Polynomial.zero(field, nvars)
    for _ in range(terms):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        if sum(exps) > max_deg:
            continue
        out = out + monomial(field, exps, field.sample(rng))
    return out


def test_principal_ideal_already_a_basis():
    f = parse("x0", 3, F7)
    basis = groebner_basis([f])
    assert basis == [f]


def test_linear_elimination_lex():
    gens = [parse("x0 - x1", 3, F7), parse("x1 - x2", 3, F7)]
    basis = groebner_basis(gens, LEX)
    assert parse("x0 - x2", 3, F7) in basis


def test_fixture_quotient_dimension_four():
    # two conics meeting in a length-4 scheme: staircase has 4 monomials
    gens = [parse("x0^2 + x1^2 - x2^2", 3, F10007),
            parse("x0*x1 - x2^2", 3, F10007)]
    basis = groebner_basis(gens, GREVLEX)
    # affine chart x2 = 1 has a finite staircase of size 4
    chart = [dehomogenize(g, 2) for g in basis]
    chart_basis = groebner_basis(chart, GREVLEX)
    stair = quotient_monomials(
        [leading_monomial(g, GREVLEX) for g in chart_basis], 2)
    assert len(stair) == 4


def test_generators_reduce_to_zero():
    rng = random.Random(23)
    for _ in range(10):
        gens = [random_poly(F7, 3, 3, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_basis(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()


def test_membership_of_combinations():
    rng = random.Random(29)
    for _ in range(10):
        gens = [random_poly(F7, 3, 2, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        basis = groebner_basis(gens)
        combo = gens[0] * random_poly(F7, 3, 2, rng) + gens[1]
        assert is_member(combo, basis)


def test_nonmembership_detected():
    gens = [parse("x0^2", 3, F7), parse("x1^2", 3, F7)]
    basis = groebner_basis(gens)
    assert not is_member(parse("x0*x1", 3, F7), basis)
    assert not is_member(Polynomial.constant(F7, 3, F7.one()), basis)


def test_s_polynomials_reduce_to_zero():
    # the defining property of a Groebner basis
    rng = random.Random(37)
    gens = [random_homogeneous(F7, 3, 2, rng) for _ in range(2)]
    basis = groebner_basis(gens)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            fi, fj = basis[i], basis[j]
            mi = leading_monomial(fi, GREVLEX)
            mj = leading_monomial(fj, GREVLEX)
            lcm = mono_lcm(mi, mj)
            s = monomial(F7, tuple(map(sub, lcm, mi))) * fi - \
                monomial(F7, tuple(map(sub, lcm, mj))) * fj
            assert normal_form(s, basis).is_zero()


def test_reduced_basis_unique_under_generator_shuffle():
    rng = random.Random(41)
    for field in (F10007, build_extension(7, 2)):
        gens = [random_homogeneous(field, 3, 2, rng) for _ in range(3)]
        reference = [g.to_text() for g in groebner_basis(gens)]
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            again = [g.to_text() for g in groebner_basis(shuffled + [gens[0]])]
            assert again == reference


def test_normal_form_is_idempotent_and_linear():
    rng = random.Random(43)
    gens = [random_homogeneous(F7, 3, 2, rng) for _ in range(2)]
    basis = groebner_basis(gens)
    for _ in range(10):
        f = random_poly(F7, 3, 3, rng)
        g = random_poly(F7, 3, 3, rng)
        nf = normal_form(f, basis)
        assert normal_form(nf, basis) == nf
        assert normal_form(f + g, basis) == \
            normal_form(normal_form(f, basis) + normal_form(g, basis), basis)


# packed monomials: one int per monomial, see poly.Packing

@st.composite
def monomials(draw, count):
    """`count` exponent tuples in 1..8 variables, exponents mostly small so
    that equal monomials and divisors turn up."""
    nvars = draw(st.integers(1, 8))
    exps = st.lists(st.integers(0, 3) | st.integers(0, 60),
                    min_size=nvars, max_size=nvars).map(tuple)
    return [draw(exps) for _ in range(count)]


def divides(packing, a, b):
    """The package's inline guard-bit divisibility test of packed
    monomials: (b - a) & guard is nonzero exactly when a does not divide
    b, a negative difference included."""
    return not (b - a) & packing.guard


def packing_for(order, monos):
    return Packing.for_degree(order, len(monos[0]), max(map(sum, monos)))


ORDERS = pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)


@ORDERS
@given(monos=monomials(1))
@settings(max_examples=150, deadline=None)
def test_packing_decode_inverts_encode(order, monos):
    packing = packing_for(order, monos)
    assert packing.decode(packing.encode(monos[0])) == monos[0]


@ORDERS
@given(monos=monomials(2))
@settings(max_examples=150, deadline=None)
def test_packed_int_order_is_the_monomial_order(order, monos):
    a, b = monos
    packing = packing_for(order, monos)
    ka, kb = order.key(a), order.key(b)
    pa, pb = packing.encode(a), packing.encode(b)
    assert (pa < pb, pa == pb) == (ka < kb, ka == kb)


@ORDERS
@given(monos=monomials(2))
@settings(max_examples=150, deadline=None)
def test_packed_sum_is_the_product(order, monos):
    a, b = monos
    packing = packing_for(order, monos)
    product = packing.encode(a) + packing.encode(b)
    assert not product & packing.guard
    assert product == packing.encode(mono_mul(a, b))


@ORDERS
@given(monos=monomials(3))
@settings(max_examples=150, deadline=None)
def test_guard_bit_divisibility_is_mono_divides(order, monos):
    a, b, c = monos
    packing = packing_for(order, [mono_mul(a, c), b])
    pa, pb = packing.encode(a), packing.encode(b)
    assert divides(packing, pa, pb) == mono_divides(a, b)
    assert divides(packing, pb, pa) == mono_divides(b, a)
    assert divides(packing, pa, packing.encode(mono_mul(a, c)))


def exponent_slots(packing, mono):
    """mono packed into the `exponents` slots of `packing` alone, each
    exponent in its own slot; any exponent below `limit` fits."""
    return sum(e << s for e, s in zip(mono, packing._shifts))


@ORDERS
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_exponent_slot_lcm_coprime_and_divisibility(order, data):
    # the pair update's packed lcm, coprime test and divisibility on
    # monomials cut down to the exponent slots, against the tuple oracles
    width = data.draw(st.sampled_from([8, 16, 32, 64]))
    nvars = data.draw(st.integers(1, 8))
    packing = Packing(order, nvars, width)
    top = packing.limit - 1
    exps = st.lists(st.integers(0, 3) | st.integers(0, top) | st.just(top),
                    min_size=nvars, max_size=nvars).map(tuple)
    a = data.draw(exps)
    others = data.draw(st.lists(exps, min_size=1, max_size=5))
    pa = exponent_slots(packing, a)
    assert packing.decode(pa) == a
    if sum(a) < packing.limit:
        assert packing.encode(a) & packing.exponents == pa
    lcms = packing.lcms(pa, [exponent_slots(packing, b) for b in others])
    assert lcms == [exponent_slots(packing, mono_lcm(a, b)) for b in others]
    for b, lcm in zip(others, lcms):
        pb = exponent_slots(packing, b)
        assert (lcm == pa + pb) == (mono_lcm(a, b) == mono_mul(a, b))
        assert divides(packing, pa, pb) == mono_divides(a, b)
        assert divides(packing, pb, pa) == mono_divides(b, a)
        assert divides(packing, pa, lcm) and divides(packing, pb, lcm)


@ORDERS
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_full_key_of_a_cut_monomial(order, data):
    # the pair update's packed key of a queued lcm, one linear map of the
    # lcm cut to the exponent slots: the packed monomial itself, refused
    # where that key sets a guard bit, which in grevlex is from degree
    # `limit` on (the degree slot) and in lex never (each exponent has
    # its own slot, and an lcm's exponents are below `limit`)
    nvars = data.draw(st.integers(1, 7))
    packing = Packing(order, nvars, data.draw(st.sampled_from([8, 16])))
    top = packing.limit - 1
    # monomials of degree below `limit`, near it often
    exps = st.lists(st.integers(0, 3) | st.integers(0, top),
                    min_size=nvars, max_size=nvars).map(
        lambda e: tuple(x * top // max(top, sum(e)) for x in e))
    a, b = data.draw(exps), data.draw(exps)
    key = packing.encode(a)
    assert packing.full_key(key & packing.exponents) == key
    lcm = mono_lcm(a, b)
    [cut] = packing.lcms(key & packing.exponents,
                         [packing.encode(b) & packing.exponents])
    if sum(lcm) < packing.limit:
        assert packing.full_key(cut) == packing.encode(lcm)
    elif order is GREVLEX:
        with pytest.raises(groebner._SlotOverflow):
            packing.full_key(cut)
    else:
        assert packing.full_key(cut) == cut == exponent_slots(packing, lcm)


def test_one_packing_per_layout():
    for order in (GREVLEX, LEX):
        packing = Packing.for_degree(order, 5, 3)
        assert Packing.for_degree(order, 5, 2) is packing
        assert Packing.of(order, 5, packing.width) is packing
        assert Packing.of(order, 5, 2 * packing.width) is not packing


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
def test_slots_widen_past_the_starting_width(order, monkeypatch):
    # degree-3 inputs whose lex basis holds x0 - x3^27: 4-bit slots hold
    # at most 7, so the lex run must widen and still match sympy (in
    # grevlex the leading terms x1^3, x2^3, x3^3 are coprime, so the
    # inputs are already a basis). A layout's packing is built once, on
    # its first use, so each recorded run starts from an empty cache
    from fanolines import groebner
    widths = []

    class Recorded(Packing):
        def __init__(self, order, nvars, width):
            widths.append(width)
            super().__init__(order, nvars, width)

    monkeypatch.setattr(poly, "_SLOT_BITS", 4)
    monkeypatch.setattr(poly, "_PACKINGS", {})
    monkeypatch.setattr(groebner, "Packing", Recorded)
    gens = [parse(text, 4, F7) for text in ("x0 - x1^3", "x1 - x2^3",
                                            "x2 - x3^3")]
    basis = groebner_basis(gens, order)
    assert widths == ([4, 8] if order is LEX else [4])
    if order is LEX:
        assert parse("x0 - x3^27", 4, F7) in basis
    ours = sorted((leading_monomial(g, order),
                   {m: c.payload for m, c in g.terms.items()}) for g in basis)
    assert ours == sympy_monic_basis(gens, 4, 7, order.name)
    # a lex normal form rises in degree: x0 -> x3^27 against degree-3 inputs
    widths.clear()
    poly._PACKINGS.clear()
    assert normal_form(parse("x0", 4, F7), gens, LEX) == parse("x3^27", 4, F7)
    assert widths == [4, 8]


def test_terms_reaching_a_guard_bit_are_refused():
    from fanolines import groebner
    packing = Packing(LEX, 2, 4)  # slots hold 0..7
    assert packing.encode((4, 3)) == 4 * packing.units[0] + 3 * packing.units[1]
    with pytest.raises(groebner._SlotOverflow):
        packing.encode((4, 4))  # degree 8: a grevlex degree slot would wrap
    # x0^7 * x0 carries no slot into the next, but sets x0's guard bit
    past = packing.encode((7, 0)) + packing.encode((1, 0))
    assert past & packing.guard
    with pytest.raises(groebner._SlotOverflow):
        groebner.normal_form_payload({past: 1}, [],
                                     groebner.DivisorMemo(packing), F7)


# conversion route: grevlex basis + staircase walk vs direct lex Buchberger

def affine_zero_dim_system(field, nvars, rng):
    """Random system with pure-power heads, so the quotient is finite."""
    gens = []
    for i in range(nvars):
        head = [0] * nvars
        head[i] = rng.randrange(2, 4)
        f = monomial(field, tuple(head))
        gens.append(f + random_poly(field, nvars, head[i] - 1, rng))
    return gens


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_conversion_matches_direct_lex(seed):
    rng = random.Random(seed)
    gens = affine_zero_dim_system(F7, 3, rng)
    direct = [g.to_text() for g in groebner_basis(gens, LEX)]
    converted = [g.to_text() for g in lex_basis_zero_dim(gens)]
    assert converted == direct


def test_conversion_matches_direct_lex_over_extension():
    from fanolines import build_extension
    f9 = build_extension(3, 2)
    rng = random.Random(77)
    gens = affine_zero_dim_system(f9, 2, rng)
    direct = [g.to_text() for g in groebner_basis(gens, LEX)]
    converted = [g.to_text() for g in lex_basis_zero_dim(gens)]
    assert converted == direct


def test_conversion_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensional):
        fglm_lex(groebner_basis([parse("x0*x1", 2, F7)]))


def test_conversion_of_the_unit_ideal_is_one():
    # a constant among the leading terms: the reduced lex basis is [1],
    # from fglm_lex itself and through the grevlex route; a nonzero
    # constant that is not 1, and a basis with more elements, give it too
    one = Polynomial.constant(F7, 3, 1)
    for basis in ([one], [Polynomial.constant(F7, 3, 3)],
                  [parse("x0 - 1", 3, F7), Polynomial.constant(F7, 3, 5)]):
        assert fglm_lex(basis) == [one]
    assert lex_basis_zero_dim([parse("x0 - 1", 3, F7),
                               parse("x0 - 2", 3, F7)]) == [one]


def packed_staircase(lead_monomials, nvars):
    """`fglm._staircase` of lead_monomials, decoded, under a grevlex
    packing whose slots hold every x_i * s (the box's corner degree, as
    `fglm_lex` sizes it)."""
    corner = sum(max(m[i] for m in lead_monomials) for i in range(nvars))
    packing = Packing.for_degree(GREVLEX, nvars, corner)
    return [packing.decode(s) for s in fglm._staircase(
        [packing.encode(m) for m in lead_monomials], packing)]


def test_quotient_monomials_box_ideal():
    # heads x^2, y^3 leave a 2x3 staircase
    stair = quotient_monomials([(2, 0), (0, 3)], 2)
    assert len(stair) == 6
    assert (1, 2) in stair and (2, 0) not in stair
    assert packed_staircase([(2, 0), (0, 3)], 2) == sorted(stair,
                                                           key=GREVLEX.key)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_packed_staircase_matches_the_tuple_walk(data):
    # random zero-dimensional monomial ideals: a pure power of every
    # variable, some of them repeated, and more generators, some of them
    # multiples of others; ascending grevlex, the packed ints' order
    nvars = data.draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 4), min_size=nvars,
                    max_size=nvars).map(tuple)
    lms = [tuple(a * int(j == i) for j in range(nvars))
           for i in range(nvars)
           for a in data.draw(st.lists(st.integers(1, 5), min_size=1,
                                       max_size=2))]
    lms += data.draw(st.lists(exps.filter(any), max_size=6))
    lms = data.draw(st.permutations(lms))
    assert packed_staircase(lms, nvars) == sorted(
        quotient_monomials(lms, nvars), key=GREVLEX.key)


def strictly_descending(g, order):
    keys = [order.key(m) for m in g.terms]
    return all(a > b for a, b in zip(keys, keys[1:]))


@given(st.integers(0, 10**6),
       st.sampled_from([F7, F10007, build_extension(5, 2)]))
@settings(max_examples=30, deadline=None)
def test_bases_and_their_charts_list_terms_in_descending_order(seed, field):
    # what `fglm_lex`, `solve.empty_charts` and `idealkit.hilbert_data`
    # read: each basis element's leading monomial is its first term, and
    # so is each chart element's (`chart_system`)
    rng = random.Random(seed)
    nvars = rng.randint(2, 3)
    gens = [random_poly(field, nvars, 3, rng) for _ in range(rng.randint(1, 3))]
    for order in (GREVLEX, LEX):
        assert all(strictly_descending(g, order)
                   for g in groebner_basis(gens, order))
    nvars = rng.randint(3, 4)
    forms = [random_homogeneous(field, nvars, rng.randint(1, 2), rng)
             for _ in range(nvars - rng.randint(1, 2))]
    basis = groebner_basis(forms)
    assert all(strictly_descending(g, GREVLEX) for g in basis)
    for last in range(nvars):
        assert all(strictly_descending(g, GREVLEX)
                   for g in chart_system(basis, last))


def sympy_monic_basis(gens, nvars, p, order):
    """Reduced basis from sympy's groebner(..., modulus=p), as monic term
    dicts keyed by exponent tuples, with their leading monomials."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [sum(c.payload * sympy.prod(x ** e for x, e in zip(xs, mono))
                 for mono, c in g.terms.items()) for g in gens]
    out = []
    for g in sympy.groebner(exprs, *xs, modulus=p, order=order).exprs:
        poly = sympy.Poly(g, *xs, modulus=p)
        lm = poly.LM(order=order).exponents
        inv = pow(int(poly.coeff_monomial(lm)) % p, p - 2, p)
        out.append((lm, {m: int(c) * inv % p for m, c in poly.terms()}))
    return sorted(out)


@pytest.mark.parametrize("p", [7, 10007])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
@pytest.mark.parametrize("seed", range(24))
def test_basis_matches_sympy(p, order, seed):
    field = PrimeField(p)
    rng = random.Random(seed)
    nvars = 3
    monos = [m for d in range(4) for m in monomials_of_degree(nvars, d)]
    gens = []
    for degree in rng.sample((2, 2, 3), rng.choice((2, 3))):
        support = [m for m in monos if sum(m) <= degree]
        terms = {m: field.from_int(rng.randrange(1, p))
                 for m in rng.sample(support, 5)}
        gens.append(Polynomial(field, nvars, terms))
    expected = sympy_monic_basis(gens, nvars, p, order.name)
    basis = groebner_basis(gens, order)
    ours = sorted((leading_monomial(g, order),
                   {m: c.payload for m, c in g.terms.items()}) for g in basis)
    assert [lm for lm, _ in ours] == [lm for lm, _ in expected]
    assert ours == expected
    # sorted by leading monomial, each listed first (`hilbert_data` reads it)
    lms = [next(iter(g.terms)) for g in basis]
    assert lms == [leading_monomial(g, order) for g in basis]
    assert lms == sorted(lms, key=order.key)


def minor_ideal(field, nvars, rng):
    """A random quadric and cubic with every 2x2 minor of their Jacobian:
    the shape of the rank-drop ideals Buchberger meets in voisin-demo."""
    f = random_homogeneous(field, nvars, 2, rng)
    g = random_homogeneous(field, nvars, 3, rng)
    df = [f.partial_derivative(i) for i in range(nvars)]
    dg = [g.partial_derivative(i) for i in range(nvars)]
    return [f, g] + [df[i] * dg[j] - df[j] * dg[i]
                     for i in range(nvars) for j in range(i + 1, nvars)]


@pytest.mark.parametrize("p", [7, 10007])
@pytest.mark.parametrize("nvars", [4, 5])
def test_minor_ideal_basis_matches_sympy(p, nvars):
    field = PrimeField(p)
    gens = minor_ideal(field, nvars, random.Random(nvars * 100 + p))
    expected = sympy_monic_basis(gens, nvars, p, "grevlex")
    ours = sorted((leading_monomial(g, GREVLEX),
                   {m: c.payload for m, c in g.terms.items()})
                  for g in groebner_basis(gens))
    assert ours == expected


def seed_585427_rank_drop():
    """The nonzero generators of the rank-drop ideal of `voisin-demo 2
    --seed 585427`: 12 in 5 variables, with a reduced grevlex basis of
    33 elements."""
    from fanolines.voisin import (node_line_system, nodes, normal_form_cubic,
                                  rank_drop_ideal)
    nfc = normal_form_cubic(2, F10007, 585427)
    ideal = node_line_system(nfc, nodes(nfc, seed=585427)[0].point)
    return rank_drop_ideal(ideal).nonzero_generators()


def test_rank_drop_basis_matches_sympy():
    gens = seed_585427_rank_drop()
    ours = sorted((leading_monomial(g, GREVLEX),
                   {m: c.payload for m, c in g.terms.items()})
                  for g in groebner_basis(gens))
    assert len(ours) == 33
    assert ours == sympy_monic_basis(gens, 5, 10007, "grevlex")


def test_rank_drop_basis_work_is_pinned(monkeypatch):
    # the seed-585427 rank-drop ideal. The pair update keeps 109 S-pair
    # reductions, 82 of which end at zero, and inter-reduction takes one
    # normal form per element of the minimal basis; both hand their
    # packed work lists to `_packed_normal_form`
    gens = seed_585427_rank_drop()
    calls = {"pairs": 0, "inter": 0, "zero": 0}
    phase = ["pairs"]
    packed_normal_form, reduce_basis = (groebner._packed_normal_form,
                                        groebner._reduce_basis)

    def counted_normal_form(*args, **kwargs):
        calls[phase[0]] += 1
        remainder = packed_normal_form(*args, **kwargs)
        if phase[0] == "pairs" and not remainder:
            calls["zero"] += 1
        return remainder

    def inter_reduction(*args, **kwargs):
        phase[0] = "inter"
        return reduce_basis(*args, **kwargs)

    monkeypatch.setattr(groebner, "_packed_normal_form", counted_normal_form)
    monkeypatch.setattr(groebner, "_reduce_basis", inter_reduction)
    basis = groebner_basis(gens)
    assert (len(gens), gens[0].nvars, len(basis)) == (12, 5, 33)
    assert min(calls.values()) > 0  # the wrapped name is the one entered
    assert calls["pairs"] <= 109
    assert calls["zero"] <= 82
    assert calls["inter"] <= 33


def checked_pair_updates(monkeypatch):
    """Checks every `groebner._update_pairs` call from here on against
    `plain_pair_update`, both its queued pairs and its live list, and
    returns a list that gets, per update, the new pairs it queued as
    sorted (lcm exponents, i, j); a slot overflow must come from both or
    from neither."""
    updates = []
    update = groebner._update_pairs

    def checked_update(lm, lms, live, pairs, packing):
        try:
            expected = plain_pair_update(lm, lms, live, pairs, packing)
        except groebner._SlotOverflow:
            expected = None
        try:
            update(lm, lms, live, pairs, packing)
        except groebner._SlotOverflow:
            assert expected is None
            raise
        assert (sorted(pairs), live) == expected
        new = len(lms) - 1
        updates.append(sorted((packing.decode(pr[0]), pr[1], pr[2])
                              for pr in pairs if pr[2] == new))

    monkeypatch.setattr(groebner, "_update_pairs", checked_update)
    return updates


@pytest.mark.parametrize("field", [F7, F10007], ids=str)
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
def test_pair_update_over_equal_and_coprime_lcms(field, order, monkeypatch):
    # leading monomials x3, x0 x3, x0 x2, x1 x2 and x0 x1 (the last one
    # inserted in both orders, x0 x2 after x1 x2). x0 x1 pairs with x0 x2
    # and x1 x2 at the lcm x0 x1 x2, queued once, under x0 x2, the later
    # in live order, and with x3, coprime, at x0 x1 x3, which x0 x3
    # shares: nothing is queued there
    gens = [parse(text, 4, field) for text in
            ("x3 - 1", "x0*x3 - 2", "x0*x2 - 3", "x1*x2 - 4", "x0*x1 - 5")]
    updates = checked_pair_updates(monkeypatch)
    groebner_basis(gens, order)
    inserted = sorted(gens, key=lambda g: sorted(
        (order.key(m) for m in g.terms), reverse=True))
    index = {leading_monomial(g, order): i for i, g in enumerate(inserted)}
    assert index[(1, 1, 0, 0)] == 4 and index[(1, 0, 1, 0)] > index[(0, 1, 1, 0)]
    assert updates[4] == [((1, 1, 1, 0), index[(1, 0, 1, 0)], 4)]


@pytest.mark.parametrize("field", [F7, F10007], ids=str)
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pair_update_matches_the_plain_choice_rule(field, order, data):
    # random ideals with small exponents, so that equal lcms, lcms that
    # divide one another and coprime pairs turn up; every update of the
    # run, generators and S-pair remainders alike, is checked
    nvars = data.draw(st.integers(2, 4))
    mono = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).filter(
        lambda e: sum(e) <= 3).map(tuple)
    term = st.tuples(mono, st.integers(1, field.characteristic() - 1))
    polys = st.lists(term, min_size=1, max_size=4).map(
        lambda terms: Polynomial(field, nvars, {m: field.from_int(c)
                                                for m, c in terms}))
    gens = data.draw(st.lists(polys, min_size=2, max_size=5))
    with pytest.MonkeyPatch.context() as monkeypatch:
        updates = checked_pair_updates(monkeypatch)
        groebner_basis(gens, order)
    assert len(updates) >= len(gens)  # one per generator at the least


def test_rank_drop_exponent_tuple_traffic_is_pinned(monkeypatch):
    # the seed-585427 rank-drop ideal: Packing.decode and encode calls,
    # exponent tuples in or out, over the whole groebner_basis call: one
    # encode per distinct monomial of the input (45 among 283 terms) and
    # one decode per distinct monomial of the basis (76 among 348 terms).
    # A queued pair's lcm gets its key from `Packing.full_key`, with no
    # tuple; an encode per input term took 359, a decode and an encode of
    # each of the 109 lcms and a decode of every output term 849, and a
    # pair update on exponent tuples 779
    calls = {"decode": 0, "encode": 0}
    decode, encode = Packing.decode, Packing.encode

    def counted_decode(self, key):
        calls["decode"] += 1
        return decode(self, key)

    def counted_encode(self, mono):
        calls["encode"] += 1
        return encode(self, mono)

    gens = seed_585427_rank_drop()
    monkeypatch.setattr(Packing, "decode", counted_decode)
    monkeypatch.setattr(Packing, "encode", counted_encode)
    assert len(groebner_basis(gens)) == 33
    assert calls["decode"] + calls["encode"] <= 121


def test_fglm_work_is_pinned(monkeypatch):
    # the last chart of the grevlex basis of `lines-through --random 4 3 1
    # --seed 0` over F_10007: 4 generators in 3 variables. FGLM takes the
    # normal form of x_i * s, s in the staircase, only where a lex member's
    # vector first needs it, all against one list of reducers.
    from fanolines import fglm, groebner
    from fanolines.fano import line_system, random_pointed_hypersurface
    from fanolines.idealkit import groebner_of
    from fanolines.solve import chart_system
    ph = random_pointed_hypersurface(4, 3, 1, F10007, seed=0)
    basis = groebner_of(line_system(ph).ideal())
    chart = chart_system(basis, basis[0].nvars - 1)
    reducer_lists = []  # held, so the ids of their reducers stay distinct
    normal_form_payload = groebner.normal_form_payload

    def counted_normal_form(f, reducers, *args, **kwargs):
        reducer_lists.append(reducers)
        return normal_form_payload(f, reducers, *args, **kwargs)

    for module in (groebner, fglm):  # every module that binds the name
        if hasattr(module, "normal_form_payload"):
            monkeypatch.setattr(module, "normal_form_payload",
                                counted_normal_form)
    lex = fglm_lex(chart)
    assert (len(chart), chart[0].nvars, len(lex)) == (4, 3, 3)
    assert 0 < len(reducer_lists) <= 3
    assert len({id(r) for rs in reducer_lists for r in rs}) <= len(chart)


def test_normal_form_field_calls_are_pinned(monkeypatch):
    # the seed-585427 rank-drop ideal, as in
    # test_rank_drop_basis_work_is_pinned. Work coefficients sum as
    # unreduced ints and reduce once when their monomial pops, so F_p
    # calls are left in the step factors, the inverses' scaling of the
    # reduced basis and nowhere else; a field call per tail term made
    # 37,364 `_mul`, 31,301 `_sub` and 31,301 `_is_zero` calls
    gens = seed_585427_rank_drop()
    calls = {"mul": 0, "sub": 0, "is_zero": 0}
    mul, sub, is_zero = PrimeField._mul, PrimeField._sub, PrimeField._is_zero

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    def counted_sub(self, a, b):
        calls["sub"] += 1
        return sub(self, a, b)

    def counted_is_zero(self, a):
        calls["is_zero"] += 1
        return is_zero(self, a)

    monkeypatch.setattr(PrimeField, "_mul", counted_mul)
    monkeypatch.setattr(PrimeField, "_sub", counted_sub)
    monkeypatch.setattr(PrimeField, "_is_zero", counted_is_zero)
    assert len(groebner_basis(gens)) == 33
    assert calls["mul"] <= 2925
    assert calls["sub"] == 0
    assert calls["is_zero"] == 0


def counted_shifted_tails(monkeypatch):
    """The shift of each tail `DivisorMemo.shifted_tail` builds from now
    on, in a list that grows as they are built."""
    built = []
    shifted_tail = groebner.DivisorMemo.shifted_tail

    def counted_shifted_tail(memo, tail, shift):
        built.append(shift)
        return shifted_tail(memo, tail, shift)

    monkeypatch.setattr(groebner.DivisorMemo, "shifted_tail",
                        counted_shifted_tail)
    return built


def test_rank_drop_shifted_tails_are_reused(monkeypatch):
    # the seed-585427 rank-drop ideal: its normal forms take 2610 steps
    # (the 2925 `_mul` calls of test_normal_form_field_calls_are_pinned,
    # less the 315 that scale the reduced basis's tail terms) on 180
    # distinct multiples x^a g_i, about 14.5 steps each. A multiple's
    # shifted tail is built once, when the first-divisor memo finds its
    # monomial's divisor, and each later step on that monomial reuses it,
    # inter-reduction's steps included: they run on the pair loop's
    # reducers and memo
    gens = seed_585427_rank_drop()
    built = counted_shifted_tails(monkeypatch)
    assert len(groebner_basis(gens)) == 33
    assert 0 < len(built) <= 180


# fields of the normal-form differentials: a 33-bit prime, and F_{p^k}
# whose packed work values need renormalising
NF_FIELDS = [F7, F10007, PrimeField(4294967311), build_extension(10007, 2),
             build_extension(3, 6), build_extension(10007, 6)]


def payload_system(field, rng, nvars, degree, basis_terms, count):
    """A grevlex packing for `degree`, three random polynomials of that
    degree to reduce and `count` nonzero random reducers of degree 1 to
    3, all as packed payload dicts; a grevlex normal form never rises in
    degree, so no term overflows."""
    packing = Packing.for_degree(GREVLEX, nvars, degree)

    def draw(max_deg, terms):
        while True:
            f = random_poly(field, nvars, max_deg, rng, terms)
            if not f.is_zero():
                return groebner._to_payloads([f], packing)[0]

    fs = [draw(degree, 20) for _ in range(3)]
    basis = [draw(rng.randrange(1, 4), basis_terms) for _ in range(count)]
    return packing, fs, basis


def assert_normal_forms_match(field, packing, fs, basis):
    """normal_form_payload against plain_normal_form on each of fs, with
    one memo shared by all. Returns the most steps any normal form took."""
    reducers = [groebner._reducer(d, field) for d in basis]
    memo = groebner.DivisorMemo(packing)
    most = 0
    for f in fs:
        stats = {}
        expected = plain_normal_form(f, basis, packing, field, stats=stats)
        got = groebner.normal_form_payload(f, reducers, memo, field)
        assert list(got.items()) == list(expected.items())
        most = max(most, stats["steps"])
    return most


@given(st.integers(0, 10**6), st.sampled_from(NF_FIELDS),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_plain_loop(seed, field, count):
    rng = random.Random(seed)
    packing, fs, basis = payload_system(field, rng, 3, 6, 4, count)
    assert_normal_forms_match(field, packing, fs, basis)


@pytest.mark.parametrize("field", NF_FIELDS[-3:], ids=str)
def test_normal_form_matches_plain_loop_past_renormalising(field, monkeypatch):
    # a dense octic against x0^2 + q0 and x1^2 + q1, q0 and q1 every
    # monomial of degree <= 2 in x1, x2, x3 and in x2, x3, each with
    # every digit p - 1: 350 steps, so over F_{p^k} every packed work
    # value is renormalised five times; with slots for sums of only two
    # products, after every step, and a monomial that took all 16 tail
    # products unreduced would carry into the next slot
    rng = random.Random(17)
    packing = Packing.for_degree(GREVLEX, 4, 8)
    dense = {m: field.sample(rng) for d in range(9)
             for m in monomials_of_degree(4, d)}
    [f] = groebner._to_payloads([Polynomial(field, 4, dense)], packing)
    top = field.element_from_code(field.order() - 1)
    basis = []
    for i in (0, 1):
        terms = {m: top for d in range(3) for m in monomials_of_degree(4, d)
                 if not any(m[:i + 1])}
        terms[tuple(2 * int(j == i) for j in range(4))] = field.one()
        basis += groebner._to_payloads([Polynomial(field, 4, terms)],
                                       packing)
    assert assert_normal_forms_match(field, packing, [f], basis) == 350
    assert 350 > 5 * (groebner._TERMS - 1)
    monkeypatch.setattr(groebner, "_TERMS", 2)
    assert_normal_forms_match(field, packing, [f], basis)


@pytest.mark.parametrize("field", NF_FIELDS, ids=str)
def test_normal_form_against_a_growing_reducer_list(field, monkeypatch):
    # one memo per reducer list, kept while the list grows, as Buchberger
    # keeps it: f is reduced against two reducers, a third whose leading
    # monomial is that remainder's largest monomial is appended, and f is
    # reduced again with the same memo. The monomial that had no divisor
    # now has one, and the steps before it reuse the tails the first
    # normal form cached (f's leading monomial is reducible, so there is
    # at least one). Between the two, f is reduced against another list
    # with its own memo, which must not see the first list's tails
    built = counted_shifted_tails(monkeypatch)
    rng = random.Random(f"growing reducer list {field}")

    def reduce_both(f, basis, reducers, memo, stats=None):
        got = groebner.normal_form_payload(f, reducers, memo, field)
        expected = plain_normal_form(f, basis, packing, field, stats=stats)
        assert list(got.items()) == list(expected.items())
        return got

    for _ in range(4):
        while True:
            packing, (f, *_), basis = payload_system(field, rng, 3, 6, 4, 2)
            reducers = [groebner._reducer(d, field) for d in basis]
            memo = groebner.DivisorMemo(packing)
            first = reduce_both(f, basis, reducers, memo)
            if first and any(divides(packing, max(d), max(f)) for d in basis):
                break
        top = next(iter(first))
        other = payload_system(field, rng, 3, 6, 4, 2)[2]
        reduce_both(f, other, [groebner._reducer(d, field) for d in other],
                    groebner.DivisorMemo(packing))
        [tail] = groebner._to_payloads([random_poly(field, 3, 6, rng, 8)],
                                        packing)
        grown = {m: c for m, c in tail.items() if m < top}
        grown[top] = field.sample(rng).payload
        while field._is_zero(grown[top]):
            grown[top] = field.sample(rng).payload
        basis.append(grown)
        reducers.append(groebner._reducer(grown, field))
        built.clear()
        stats = {}
        second = reduce_both(f, basis, reducers, memo, stats)
        assert top not in second
        assert len(built) < stats["steps"]


class Products(int):
    """A packed value that counts the products pack(a) * pack(b) summed
    into it: a packed payload is one product (pack(1) = 1), a product
    of sums of m and n products holds m * n of them, a sum adds."""

    def __new__(cls, value, products):
        self = super().__new__(cls, value)
        self.products = products
        return self

    def __mul__(self, other):
        return Products(int(self) * int(other),
                        self.products * other.products)

    def __add__(self, other):
        return Products(int(self) + int(other),
                        self.products + getattr(other, "products", 0))

    __radd__ = __add__


@pytest.mark.parametrize("p, k", [(10007, 2), (3, 6)])
def test_product_budget_of_packed_s_pairs(p, k, monkeypatch):
    # three dense quadrics in 4 variables, every coefficient with every
    # digit p - 1, over F_{p^k}: an S-polynomial enters the normal form
    # holding two products per value, so with sums of only _TERMS = 2
    # products allowed every value is renormalised before each step. A
    # counting packer refuses to unpack a value of more than _TERMS
    # products, and the basis must not depend on _TERMS
    field = build_extension(p, k)
    top = field.element_from_code(field.order() - 1)
    rng = random.Random(1)
    monos = [m for d in range(3) for m in monomials_of_degree(4, d)]
    gens = [Polynomial(field, 4, {m: top for m in monos if rng.random() < 0.7})
            for _ in range(3)]
    reference = groebner_basis(gens)
    assert len(reference) == 6
    packing = Packing.for_degree(GREVLEX, 4, 4)
    payloads = groebner._to_payloads(reference, packing)
    for gi, gj in itertools.combinations(reference, 2):
        mi, mj = leading_monomial(gi, GREVLEX), leading_monomial(gj, GREVLEX)
        lcm = mono_lcm(mi, mj)
        s = (monomial(field, tuple(map(sub, lcm, mi))) * gi
             - monomial(field, tuple(map(sub, lcm, mj))) * gj)
        [s_payload] = groebner._to_payloads([s], packing)
        assert plain_normal_form(s_payload, payloads, packing, field) == {}
    packer = field._packer
    most = []

    def counting_packer(terms):
        pack, unpack = packer(terms)

        def counted_unpack(v):
            most.append(v.products)
            assert v.products <= terms
            return unpack(int(v))

        return (lambda c: Products(pack(c), 1)), counted_unpack

    monkeypatch.setattr(field, "_packer", counting_packer)
    for terms in (2, 3):
        monkeypatch.setattr(groebner, "_TERMS", terms)
        most.clear()
        assert groebner_basis(gens) == reference
        assert max(most) == terms


def test_rational_basis():
    # circle and line: x0 - x1 and x1^2 - 1/2 in lex, the coefficient
    # 1/2 read mod p
    for field in (F7, F10007):
        gens = [parse("x0^2 + x1^2 - 1", 2, field),
                parse("x0 - x1", 2, field)]
        assert groebner_basis(gens, LEX) == [parse("x1^2 - 1/2", 2, field),
                                              parse("x0 - x1", 2, field)]
        basis = groebner_basis(gens)
        assert all(is_member(g, basis) for g in gens)
        assert not is_member(parse("x1", 2, field), basis)
