"""Exact field arithmetic: axioms, inverses, extensions, sampling.

The axioms are property-tested over every field kind in use; the
extension constructor is pinned against hand-checkable moduli and the
Frobenius identity a^(p^k) = a.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fanolines import PrimeField, build_extension
from fanolines.field import (FieldElement, embedding, is_prime,
                             relative_extension, subfield_table)
from fanolines.errors import NotPrime, ZeroInversion

from conftest import (PlainArith, fermat_inverse, frobenius_residue_degree,
                      plain_extension_mul, ring_digits, ring_payloads)

# F_(7^4) and F_(p^2), p = 4294967311, also multiply through slot-by-slot
# packing, F_(10007^6) through 64-bit struct slots
FIELDS = [PrimeField(7), PrimeField(10007), build_extension(3, 2),
          build_extension(7, 3), build_extension(7, 4),
          build_extension(10007, 6), build_extension(4294967311, 2)]
FIELD_IDS = ["F7", "F10007", "F9", "F343", "F2401", "F10007^6",
             "F4294967311^2"]


def sample_many(field, seed, count):
    rng = random.Random(seed)
    return [field.sample(rng) for _ in range(count)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_field_axioms_random_triples(field):
    # associativity, commutativity, distributivity, inverses; 1000 triples
    rng = random.Random(17)
    one = field.one()
    zero = field.zero()
    for _ in range(1000):
        a, b, c = (field.sample(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one


def test_inverse_examples(f7):
    assert f7.one().inverse() == f7.one()
    assert f7.from_int(3).inverse() == f7.from_int(5)
    assert f7.from_fraction(Fraction(-2, 3)).inverse() == \
        f7.from_fraction(Fraction(-3, 2))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zero_inversion_raises(field):
    with pytest.raises(ZeroInversion):
        field.zero().inverse()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_payload_inverse_of_zero_raises(field):
    # payload-level callers (row echelon pivots, monic reducers) get the
    # same error as FieldElement.inverse, not a silent 0 or ZeroDivisionError
    with pytest.raises(ZeroInversion):
        field._inv(field._zero_payload())


def test_from_int_reduces(f7):
    assert f7.from_int(15) == f7.one()
    assert f7.from_int(-1) == f7.from_int(6)


def test_is_prime_small_cases():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(10007)


def test_is_prime_matches_a_sieve_and_rejects_pseudoprimes():
    # past 37 a number with no small factor reaches Miller-Rabin: 65537
    # squares through its loop, 1763 = 41 * 43 fails every base, and
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5, 7
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 1)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, limit + 1, i))
    assert [n for n in range(limit + 1) if is_prime(n)] == [
        n for n, prime in enumerate(sieve) if prime]
    assert is_prime(65537)
    assert not is_prime(1763) and not is_prime(3215031751)


def test_build_extension_degenerate_is_prime_field():
    assert build_extension(5, 1) == PrimeField(5)


def test_build_extension_rejects_composite():
    with pytest.raises(NotPrime):
        build_extension(6, 2)


def test_extension_modulus_irreducible_3_2():
    # degree-2 modulus over F_3 may not have a root in F_3
    ext = build_extension(3, 2)
    f3 = PrimeField(3)
    assert ext.degree == 2 and ext.order() == 9
    for a in range(3):
        value = sum(c * pow(a, i, 3) for i, c in enumerate(ext.modulus)) % 3
        assert value != 0
    assert f3.characteristic() == ext.characteristic() == 3


def test_extension_modulus_irreducible_7_3():
    # gcd(t^(7^j) - t, m) = 1 for j < 3 certifies irreducibility of a cubic
    ext = build_extension(7, 3)
    assert ext.degree == 3 and ext.order() == 343
    t = ext.generator()
    for j in (1, 2):
        power = t ** (7 ** j)
        assert power != t  # t^(p^j) = t would expose a degree-j subfield root


# build_extension(p, k).modulus, recorded from the Rabin-test modulus search
# that the distinct-degree test replaced; every extension built anywhere,
# and so every report, depends on these
PINNED_MODULI = {
    3: {2: (2, 1, 1), 3: (2, 0, 1, 1), 4: (2, 2, 2, 1, 1),
        5: (2, 1, 0, 1, 0, 1), 6: (1, 0, 1, 1, 0, 0, 1),
        7: (2, 0, 2, 1, 2, 0, 0, 1), 8: (2, 2, 0, 1, 2, 2, 1, 2, 1)},
    5: {2: (4, 3, 1), 3: (3, 2, 2, 1), 4: (4, 4, 0, 0, 1),
        5: (4, 4, 1, 3, 0, 1), 6: (2, 0, 1, 3, 3, 1, 1),
        7: (2, 4, 3, 1, 0, 3, 0, 1), 8: (4, 0, 1, 3, 1, 0, 3, 0, 1)},
    7: {2: (6, 3, 1), 3: (6, 6, 5, 1), 4: (5, 0, 1, 1, 1),
        5: (3, 4, 0, 6, 5, 1), 6: (5, 0, 2, 0, 5, 4, 1),
        7: (1, 1, 0, 3, 0, 0, 5, 1), 8: (6, 2, 1, 6, 6, 2, 1, 0, 1)},
    10007: {2: (3393, 2163, 1), 3: (591, 7541, 539, 1),
            4: (901, 6384, 9574, 6141, 1),
            5: (4474, 2047, 6211, 2907, 920, 1),
            6: (745, 2231, 3384, 5758, 4991, 336, 1),
            7: (9708, 9372, 6311, 3939, 7947, 2145, 8911, 1),
            8: (2896, 897, 7074, 1152, 7483, 1481, 7820, 5878, 1)},
}


@pytest.mark.parametrize("p", sorted(PINNED_MODULI))
def test_extension_moduli_pinned(p):
    for k, modulus in PINNED_MODULI[p].items():
        assert build_extension(p, k).modulus == modulus, k


def test_pinned_moduli_irreducible_by_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for p, moduli in PINNED_MODULI.items():
        for k, modulus in moduli.items():
            poly = sympy.Poly(list(reversed(modulus)), t, modulus=p)
            assert poly.is_irreducible, (p, k)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 3)])
def test_frobenius_fixes_whole_field(p, k):
    ext = build_extension(p, k)
    rng = random.Random(3)
    for _ in range(60):
        a = ext.sample(rng)
        assert a ** (p ** k) == a
    # the order-k automorphism fixes exactly the prime field
    fixed = [a for a in map(ext.element_from_code, range(ext.order()))
             if ext.frobenius(a) == a]
    assert len(fixed) == p


def test_sample_determinism():
    for field in FIELDS:
        assert sample_many(field, 42, 20) == sample_many(field, 42, 20)
        assert sample_many(field, 42, 20) != sample_many(field, 43, 20)


def test_sample_uniformity_f7():
    # 7000 draws, each residue within 5 sigma of 1000
    f7 = PrimeField(7)
    rng = random.Random(0)
    counts = [0] * 7
    for _ in range(7000):
        counts[f7.sample(rng).payload] += 1
    sigma = (7000 * (1 / 7) * (6 / 7)) ** 0.5
    for c in counts:
        assert abs(c - 1000) <= 5 * sigma


@pytest.mark.parametrize("p,k", [(3, 5), (7, 4), (10007, 6), (10007, 8),
                                 (4294967311, 2)])
def test_frobenius_row_table_matches_powers(p, k):
    # e^(p^j) by square and multiply is the oracle; F_{10007^8} unpacks
    # its packed rows through 64-bit struct slots, F_{4294967311^2}
    # through 66-bit slots by shifts
    ext = build_extension(p, k)
    assert bool(ext.ring.layouts) == (k == 8)
    rng = random.Random(f"frobenius-{p}-{k}")
    for _ in range(10):
        a = ext.sample(rng)
        for j in range(2 * k + 1):
            assert ext.frobenius(a, j) == a ** (p ** j), (a, j)


# the image of the generator of src under embedding(src, dst), by its code
# in dst; no pinned CLI report builds an extension-to-extension embedding
# the image of the generator; a source of composite degree (F_7^4) takes
# the smallest-code root that agrees with its subfields' embeddings
EMBEDDING_PAIRS = [(3, 2, 4, 15), (7, 2, 4, 893), (7, 3, 6, 20005),
                   (10007, 2, 6, 237566485309849260923408),
                   (10007, 2, 8, 28894650911893016681905838386616),
                   (7, 4, 8, 4317123)]


@pytest.mark.parametrize("p,a,b,code", EMBEDDING_PAIRS,
                         ids=[f"{p}^{a}-{p}^{b}" for p, a, b, _ in EMBEDDING_PAIRS])
def test_embedding_is_ring_homomorphism(p, a, b, code):
    src = build_extension(p, a)
    dst = build_extension(p, b)
    embed = embedding(src, dst)
    assert dst.code_of(embed(src.generator())) == code
    rng = random.Random(9)
    for _ in range(50):
        x, y = src.sample(rng), src.sample(rng)
        assert embed(x + y) == embed(x) + embed(y)
        assert embed(x * y) == embed(x) * embed(y)
    if src.order() <= 343:
        images = {embed(src.element_from_code(c)) for c in range(src.order())}
        assert len(images) == src.order()  # injective
    assert embed(src.one()) == dst.one()


# every chain of extension degrees a | b | c, 2 <= a < b < c <= 12
CHAINS = [(p, a, b, c) for p in (3, 5, 7, 11) for c in range(2, 13)
          for b in range(2, c) for a in range(2, b)
          if b % a == 0 and c % b == 0]


@pytest.mark.parametrize("p,a,b,c", CHAINS,
                         ids=[f"{p}^{a}-{p}^{b}-{p}^{c}" for p, a, b, c in CHAINS])
def test_embeddings_compose(p, a, b, c):
    # embedding(b, c) after embedding(a, b) is embedding(a, c) on the
    # generator of F_(p^a), so on all of it: a point found over F_(p^c)
    # through F_(p^b) is a point of the system embedded directly
    small, mid, top = (build_extension(p, k) for k in (a, b, c))
    gen = small.generator()
    assert embedding(mid, top)(embedding(small, mid)(gen)) == embedding(
        small, top)(gen)


def test_relative_extension_tower():
    ground = build_extension(5, 2)
    ext, embed = relative_extension(ground, 3)
    assert ext.degree == 6
    a = ground.sample(random.Random(2))
    assert embed(a) ** (5 ** 2) == embed(a ** (5 ** 2))


@pytest.mark.parametrize("p,d,j,k", [
    (5, 1, 1, 4), (5, 1, 2, 4), (3, 2, 1, 2), (3, 2, 2, 4), (3, 2, 3, 6),
    (3, 3, 2, 4)])
def test_subfield_table_is_a_field_map_that_fixes_the_ground(p, d, j, k):
    # sub and top are the degree-j and degree-k extensions of the ground.
    # The table, the plain inverse of embedding(sub, top), must map sub's
    # image in top onto sub as a field map that commutes with both
    # embeddings of the ground. At (3, 2, 3, 6) and (3, 3, 2, 4) it does
    # only because embeddings compose: the ground goes into top through
    # sub as it goes directly
    ground = PrimeField(p) if d == 1 else build_extension(p, d)
    sub, to_sub = relative_extension(ground, j)
    top, to_top = relative_extension(ground, k)
    table = subfield_table(sub, top)
    up = embedding(sub, top)

    def down(u):
        return FieldElement(sub, table[u.payload])

    assert len(table) == sub.order()
    for a in sample_many(ground, 1, 20):
        assert down(to_top(a)) == to_sub(a)
    for x, y in zip(sample_many(sub, 2, 20), sample_many(sub, 3, 20)):
        assert down(up(x) * up(y)) == down(up(x)) * down(up(y))
        assert down(up(x) + up(y)) == down(up(x)) + down(up(y))
    assert down(up(sub.one())) == sub.one()
    # the keys are the elements of top that the Frobenius oracle puts in
    # the subfield of degree j over the ground, i.e. of residue degree | j
    keys = random.Random(4).sample(sorted(table), min(20, len(table)))
    for u in [FieldElement(top, c) for c in keys] + sample_many(top, 5, 40):
        degree = frobenius_residue_degree([u], ground, k)
        assert (u.payload in table) == (j % degree == 0)


@given(st.integers(min_value=-200, max_value=200))
@settings(max_examples=60)
def test_prime_field_canonical_form(n):
    f = PrimeField(11)
    e = f.from_int(n)
    assert 0 <= e.payload < 11
    assert f.from_int(e.payload) == e


@pytest.mark.parametrize("field", [PrimeField(7), build_extension(3, 2),
                                   build_extension(7, 3)], ids=str)
def test_integer_codes_enumerate_the_field(field):
    # one code rule for every finite field: code k is the k-th element
    elems = [field.element_from_code(c) for c in range(field.order())]
    assert [field.code_of(e) for e in elems] == list(range(field.order()))
    assert all(field.element_from_code(field.code_of(e)) == e for e in elems)


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(10007),
                                   build_extension(3, 2),
                                   build_extension(7, 4),
                                   build_extension(10007, 6),
                                   build_extension(4294967311, 2)], ids=str)
def test_packed_sums_of_products_match_field_arithmetic(field):
    # unpack of a sum of up to `terms` packed products is the _mul/_add sum;
    # at the bound with every digit p - 1 each slot of the sum is largest
    rng = random.Random(f"packer-{field}")
    top = field.from_int(-1).payload
    if field.degree > 1:
        top = (field.p - 1,) * field.k
    for terms in (1, 2, 5, 64):
        pack, unpack = field._packer(terms)
        cases = [[(top, top)] * terms,
                 [(field.sample(rng).payload, field.sample(rng).payload)
                  for _ in range(terms)],
                 [(field.from_int(rng.randrange(-9, 9)).payload,
                   field.sample(rng).payload) for _ in range(terms)]]
        for pairs in cases:
            want = field._zero_payload()
            for a, b in pairs:
                want = field._add(want, field._mul(a, b))
            got = unpack(sum(pack(a) * pack(b) for a, b in pairs))
            assert got == want, (terms, pairs)
        assert unpack(pack(top)) == top
    # a payload from F_p packs to the small int itself
    assert pack(field.from_int(2).payload) == 2


# the product and the inverse of every extension degree 2..7, at primes
# whose packed slots are a few bits wide up to more than 64 bits wide
ROUTE_PRIMES = [3, 7, 10007, 4294967311]


def payloads(field):
    """Payloads of the extension field: k digits in [0, p)."""
    return st.tuples(*[st.integers(0, field.p - 1)] * field.k)


@given(st.data(), st.sampled_from(ROUTE_PRIMES), st.integers(2, 7))
@settings(max_examples=120, deadline=None)
def test_extension_product_matches_the_schoolbook_route(data, p, k):
    field = build_extension(p, k)
    a, b = data.draw(payloads(field)), data.draw(payloads(field))
    assert field._mul(a, b) == plain_extension_mul(field, a, b)
    top = (p - 1,) * k  # every digit p - 1: the largest slot sums
    assert field._mul(top, b) == plain_extension_mul(field, top, b)


@pytest.mark.parametrize("p", ROUTE_PRIMES, ids=str)
@given(data=st.data(), k=st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_extension_inverse_matches_fermat_route(p, data, k):
    # extended Euclid against a^(q-2); constants and t, whose Euclid
    # chains are shortest, are drawn on purpose
    field = build_extension(p, k)
    a = data.draw(st.one_of(
        st.just((0, 1) + (0,) * (k - 2)),
        st.integers(1, p - 1).map(lambda c: (c,) + (0,) * (k - 1)),
        payloads(field).filter(any)))
    inv = field._inv(a)
    assert inv == fermat_inverse(field, a)
    assert plain_extension_mul(field, a, inv) == field._one_payload()
    with pytest.raises(ZeroInversion):
        field._inv(field._zero_payload())


def elements(field):
    """Payloads of the field: ints for F_p, k-tuples of digits otherwise."""
    digit = st.integers(0, field.p - 1)
    return digit if field.degree == 1 else st.tuples(*[digit] * field.degree)


def polynomials(field, max_length=8):
    """Payload lists without zero top coefficients."""
    return st.lists(elements(field), max_size=max_length).map(
        lambda a: ring_payloads(field, ring_digits(field, a)))


@given(st.data(), st.sampled_from(ROUTE_PRIMES), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_one_ring_matches_the_plain_routes(data, p, k):
    # the field's `_Ring` at both levels against routes that share none of
    # its code: the product and inverse of F_(p^k), the packed sums of
    # `_packer` at the bound, and Euclid over F_(p^k)[x]
    field = build_extension(p, k)
    a, b = data.draw(elements(field)), data.draw(elements(field))
    zero, one = field._zero_payload(), field._one_payload()
    if k == 1:
        assert field._mul(a, b) == a * b % p
    else:
        assert field._mul(a, b) == plain_extension_mul(field, a, b)
        if any(a):
            assert field._inv(a) == fermat_inverse(field, a)
    top = p - 1 if k == 1 else (p - 1,) * k  # every digit p - 1
    for terms in (1, 2, 64):
        pack, unpack = field._packer(terms)
        want = zero
        for _ in range(terms):
            want = field._add(want, field._mul(top, b))
        assert unpack(sum(pack(top) * pack(b) for _ in range(terms))) == want
    ar, ring = PlainArith(field), field.ring
    f, g = data.draw(polynomials(field)), data.draw(polynomials(field))
    digits = lambda u: ring_digits(field, u)
    back = lambda u: ring_payloads(field, u)
    assert back(ring.gcd(digits(f), digits(g))) == ar.gcd(f, g)
    if g:
        quot, rem = ar.divmod(f, ar.monic(g))
        got = ring.divmod(digits(f), digits(g))  # g need not be monic
        scale = field._inv(g[-1])
        assert back(got[0]) == back(digits([field._mul(c, scale)
                                            for c in quot]))
        assert back(got[1]) == rem
    # deflation: division by x - root of a monic multiple of it
    h = data.draw(polynomials(field)) + [one]
    root = data.draw(elements(field))
    multiple = [zero] * (len(h) + 1)
    for i, c in enumerate(h):
        multiple[i + 1] = field._add(multiple[i + 1], c)
        multiple[i] = field._sub(multiple[i], field._mul(root, c))
    quot, rem = ring.divmod(digits(multiple), digits([field._neg(root), one]))
    assert not rem and back(quot) == ar.deflate(multiple, root)


@pytest.mark.parametrize("p", ROUTE_PRIMES, ids=str)
@pytest.mark.parametrize("k", range(1, 8))
def test_division_sums_reach_the_slot_bound(p, k):
    # dividing 16 coefficients by a monic divisor of 8, every digit p - 1,
    # adds up to 7 products to a dividend coefficient before it is
    # unpacked: the widest sums `_Ring.divmod` makes at these lengths
    field = build_extension(p, k)
    top = p - 1 if k == 1 else (p - 1,) * k
    f, g = [top] * 16, [top] * 7 + [field._one_payload()]
    ar, ring = PlainArith(field), field.ring
    quot, rem = ring.divmod(ring_digits(field, f), ring_digits(field, g))
    assert (ring_payloads(field, quot), ring_payloads(field, rem)) == \
        ar.divmod(f, g)
    assert ring_payloads(field, ring.gcd(ring_digits(field, f),
                                         ring_digits(field, g))) == \
        ar.gcd(f, g)
