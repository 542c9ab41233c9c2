"""Univariate layer: distinct-degree factorization against sympy over F_p
and against plain powers by q (`plain_ddf`) over extension grounds, and
root extraction by Frobenius orbits against brute force over the whole
field.

Random draws include repeated and p-th-power factors, whose derivative
vanishes, so a factorization that leaned on the squarefree part would
miss them.
"""

import random
import signal

import pytest

from fanolines import PrimeField, build_extension
from fanolines.field import (_STRUCT_BITS, FieldElement, _Ring,
                             relative_extension)
from fanolines.unipoly import (_Quotient, _split_one,
                               distinct_degree_factorization, roots_in_field)

from conftest import (frobenius_residue_degree, plain_ddf, ring_digits,
                      ring_payloads, schoolbook_mulmod, schoolbook_powmod)


def horner(coeffs, x):
    """The little-endian coefficient list evaluated at x."""
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def int_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def draw(p, rng, pth_power):
    """Monic little-endian product of random factors, one of them squared
    and, when pth_power, one linear factor raised to the p-th power."""
    def monic(degree):
        return [rng.randrange(p) for _ in range(degree)] + [1]

    out = [1]
    for _ in range(rng.randint(1, 3)):
        out = int_mul(out, monic(rng.randint(1, 4)), p)
    square = monic(rng.randint(1, 2))
    out = int_mul(int_mul(out, square, p), square, p)
    if pth_power:
        linear = monic(1)
        for _ in range(p):
            out = int_mul(out, linear, p)
    return out


def payload_parts(parts):
    """{j: payload list of the part} of a distinct-degree factorization,
    after checking that each part comes with its quotient: its modulus
    is the part and its x^p is `schoolbook_powmod`'s, and only the one
    part of an eliminant may come with the ring the powers were taken
    in, which holds one power of x^p per coefficient."""
    out = {}
    for j, (part, quotient) in parts.items():
        field = part[0].field
        payloads = [c.payload for c in part]
        if "ring" in vars(quotient):  # built by the factorization
            assert len(parts) == 1
            assert len(quotient.powers) == len(part) - 1
        assert quotient.field == field
        assert quotient.f == tuple(ring_digits(field, payloads))
        x = [field._zero_payload(), field._one_payload()]
        assert ring_payloads(field, quotient.xp) == schoolbook_powmod(
            field, x, field.characteristic(), payloads), j
        out[j] = payloads
    return out


def sympy_parts(coeffs, p, k_max):
    """{j: coefficients of the product of the distinct monic irreducible
    degree-j factors}, from sympy's factorization mod p."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    parts = {}
    for factor, _ in sympy.Poly(list(reversed(coeffs)), x,
                                modulus=p).factor_list()[1]:
        j = factor.degree()
        if 1 <= j <= k_max:
            parts[j] = parts.get(j, sympy.Poly(1, x, modulus=p)) * factor.monic()
    return {j: [int(c) % p for c in reversed(poly.all_coeffs())]
            for j, poly in parts.items()}


@pytest.mark.parametrize("p", [3, 5, 7, 10007])
def test_distinct_degree_factorization_matches_sympy(p):
    pytest.importorskip("sympy")
    field = PrimeField(p)
    rng = random.Random(f"ddf-{p}")
    for trial in range(12):
        coeffs = draw(p, rng, pth_power=p < 10 and trial % 2 == 0)
        e = [field.from_int(c) for c in coeffs]
        for k_max in (2, 4):
            got = payload_parts(distinct_degree_factorization(e, field, k_max))
            assert got == sympy_parts(coeffs, p, k_max), (coeffs, k_max)


def test_distinct_degree_factorization_of_pth_power_alone():
    # (x^2 + 1)^3 over F_3: its derivative vanishes identically
    f3 = PrimeField(3)
    square_plus_one = [1, 0, 1]
    coeffs = int_mul(int_mul(square_plus_one, square_plus_one, 3),
                     square_plus_one, 3)
    parts = distinct_degree_factorization(
        [f3.from_int(c) for c in coeffs], f3, 4)
    assert payload_parts(parts) == {2: [1, 0, 1]}


def times(a, b):
    """The product of two FieldElement coefficient lists."""
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def draw_over(field, rng, pth_power):
    """A monic product over `field` of random factors, one of them
    squared and, when pth_power, a linear and a quadratic factor raised
    to the p-th power, as FieldElement lists."""
    def monic(degree):
        return [field.sample(rng) for _ in range(degree)] + [field.one()]

    out = [field.one()]
    for _ in range(rng.randint(1, 3)):
        out = times(out, monic(rng.randint(1, 4)))
    square = monic(rng.randint(1, 2))
    out = times(times(out, square), square)
    if pth_power:
        for factor in (monic(1), monic(2)):
            for _ in range(field.characteristic()):
                out = times(out, factor)
    return out


@pytest.mark.parametrize("p,k", [(3, 2), (7, 2), (10007, 2)],
                         ids=["F9", "F49", "F10007^2"])
def test_distinct_degree_factorization_matches_plain_powers(p, k):
    # over extension grounds, where a q-th power is k Frobenius steps;
    # the oracle takes it as one power by q in a ring per step
    field = build_extension(p, k)
    rng = random.Random(f"ddf-ext-{p}-{k}")
    seen = set()
    for trial in range(8):
        e = draw_over(field, rng, pth_power=p < 10 and trial % 2 == 0)
        for k_max in (2, 4):
            got = payload_parts(distinct_degree_factorization(e, field, k_max))
            assert got == plain_ddf(e, field, k_max), (trial, k_max)
            seen.update(got)
    assert seen >= {1, 2, 3}


def test_distinct_degree_factorization_takes_one_power(monkeypatch):
    # the irreducible sextic of test_orbit_six_root_work_is_pinned: x^p by
    # squaring once, then every x^(q^j) by Frobenius steps; one power by
    # q per step took three
    ground = PrimeField(10007)
    sextic = [ground.from_int(c)
              for c in [1596, 8186, 9026, 1665, 7777, 3788, 1]]
    calls = []
    power = _Ring.pow

    def counted_pow(self, a, e):
        calls.append(e)
        return power(self, a, e)

    monkeypatch.setattr(_Ring, "pow", counted_pow)
    parts = distinct_degree_factorization(sextic, ground, 6)
    assert list(parts) == [6] and parts[6][0] == sextic
    assert calls == [10007]


def test_roots_over_the_prime_field_take_no_power_by_p(monkeypatch):
    # a split over F_p is one power of x + r by (p-1)/2; x^p mod the part
    # only feeds the Frobenius steps of a split over an extension
    ground = PrimeField(10007)
    cubic = [ground.from_int(c) for c in [10001, 11, 10001, 1]]  # roots 1, 2, 3
    calls = []
    power = _Ring.pow

    def counted_pow(self, a, e):
        calls.append(e)
        return power(self, a, e)

    monkeypatch.setattr(_Ring, "pow", counted_pow)
    roots = roots_in_field(cubic, ground, random.Random(0), orbit=1)
    assert roots == [ground.from_int(c) for c in (1, 2, 3)]
    assert calls and 10007 not in calls


@pytest.mark.parametrize("ground", [PrimeField(3), PrimeField(5),
                                    PrimeField(7), build_extension(3, 2)],
                         ids=["F3", "F5", "F7", "F9"])
def test_orbit_roots_match_general_roots_and_brute_force(ground):
    rng = random.Random(f"orbits-{ground.order()}")
    k_max = 2 if ground.order() > 7 else 4
    for trial in range(4):
        e = [ground.sample(rng) for _ in range(rng.randint(3, 7))]
        e.append(ground.one())
        parts = distinct_degree_factorization(e, ground, k_max)
        for j in range(1, k_max + 1):
            ext, embed = relative_extension(ground, j)
            mapped = [embed(c) for c in e]
            brute = [z for z in map(ext.element_from_code, range(ext.order()))
                     if horner(mapped, z).is_zero()
                     and frobenius_residue_degree([z], ground, j) == j]
            orbit = roots_in_field(parts[j][0], ext, rng,
                                   orbit=j) if j in parts else []
            assert orbit == brute, (trial, j)


def test_linear_input_returns_its_root_without_splitting():
    f343 = build_extension(7, 3)
    rng = random.Random(0)
    a, b = f343.sample(rng), f343.sample(rng)
    while b.is_zero():
        b = f343.sample(rng)
    assert roots_in_field([a, b], f343, rng, orbit=1) == [-a / b]


PACKED_FIELDS = [(p, k) for p in (3, 7, 10007) for k in range(1, 8)] + [
    (4294967311, 1), (4294967311, 2)]


def operands(field, rng, n):
    """Reduced payload lists mod a degree-n modulus: random ones of every
    length, zero, and constants."""
    def poly(length):
        a = [field.sample(rng).payload for _ in range(length)]
        while a and field._is_zero(a[-1]):
            a.pop()
        return a
    return ([poly(rng.randint(1, n)) for _ in range(3)]
            + [poly(n), [], [field.from_int(rng.randint(1, 5)).payload]])


def expected_width(p, k, n, terms):
    """The slot width of a ring of n coefficients of k digits for sums of
    `terms` products: the least width above the bound of a slot, or 64
    bits (a struct layout) when that fits and a product has more than
    _STRUCT_BITS bits at the least width."""
    span = (2 * n - 1) * (2 * k - 1)
    width = ((terms * n * k + span - n * k) * (p - 1) ** 2).bit_length()
    return 64 if width <= 64 and span * width > _STRUCT_BITS else width


@pytest.mark.parametrize("p,k", PACKED_FIELDS)
def test_packed_products_match_the_schoolbook_oracle(p, k):
    field = build_extension(p, k)
    zero, one = field._zero_payload(), field._one_payload()
    rng = random.Random(f"packed-{p}-{k}")
    # the field's own ring: F_p[t]/(modulus) (F_p[x]/(x) for k = 1), for
    # one product
    assert field.ring.width == expected_width(p, 1, k, 1)
    for n in range(1, 9):
        m = [field.sample(rng).payload for _ in range(n)] + [one]
        ring = _Quotient(field, tuple(ring_digits(field, m))).ring
        # F[x]/(m), for a Frobenius sum of k(p - 1) products: 64-bit
        # slots at p = 10007 from n k = 6 on, never for the 33-bit prime
        assert ring.width == expected_width(p, k, n, k * (p - 1))
        if p == 10007 and n * k >= 6:
            assert ring.width == 64 and ring.layouts
        if p > 1 << 32:
            assert ring.width > 64 and not ring.layouts
        cases = operands(field, rng, n)
        for a, b in zip(cases, cases[1:] + cases[:1]):
            got = ring_payloads(field, ring.mul(ring_digits(field, a),
                                                ring_digits(field, b)))
            assert got == schoolbook_mulmod(field, a, b, m), (n, a, b)
        a = cases[0]
        for e in (0, 1, 2, rng.randrange(3, 200), p):
            got = ring_payloads(field, ring.pow(ring_digits(field, a), e))
            assert got == schoolbook_powmod(field, a, e, m)
        # u^p = sum of frob(c_j) x^(j p), each c_j^p by field.frobenius
        xp = schoolbook_powmod(field, [zero, one], p, m)
        powers = [[one]]
        while len(powers) < n:
            powers.append(schoolbook_mulmod(field, powers[-1], xp, m))
        table = ring.frobenius_table([ring_digits(field, w) for w in powers],
                                     field.frob_rows)
        for u in cases:
            want = [zero] * n
            for c, xjp in zip(u, powers):
                image = c if k == 1 else field.frobenius(
                    FieldElement(field, c)).payload  # c^p = c in F_p
                term = schoolbook_mulmod(field, [image], xjp, m)
                for i, v in enumerate(term):
                    want[i] = field._add(want[i], v)
            got = ring_payloads(field, ring.apply(ring_digits(field, u),
                                                  table))
            want = ring_payloads(field, ring_digits(field, want))
            assert got == want, (n, u)


def irreducible(field, j, rng):
    """Little-endian ints of a random monic irreducible of degree j over
    the prime field, found by distinct-degree factorization."""
    while True:
        coeffs = [rng.randrange(field.p) for _ in range(j)] + [1]
        parts = distinct_degree_factorization(
            [field.from_int(c) for c in coeffs], field, j)
        if list(parts) == [j] and len(parts[j][0]) == j + 1:
            return coeffs


@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_orbit_roots_at_benchmark_scale(j):
    # the line-counts shapes: a degree-j part over F_10007, rooted in
    # F_(10007^j); two orbits, so the part splits over F_10007 first
    ground = PrimeField(10007)
    rng = random.Random(f"scale-{j}")
    first = irreducible(ground, j, rng)
    second = first
    while second == first:
        second = irreducible(ground, j, rng)
    ext, embed = relative_extension(ground, j)
    part = [ground.from_int(c) for c in int_mul(first, second, ground.p)]
    mapped = [embed(c) for c in part]
    roots = roots_in_field(part, ext, random.Random(1), orbit=j)
    assert len(roots) == len(part) - 1 == 2 * j
    assert all(horner(mapped, r).is_zero() for r in roots)
    assert {ext.frobenius(r) for r in roots} == set(roots)
    codes = [ext.code_of(r) for r in roots]
    assert codes == sorted(codes)
    assert roots == roots_in_field(part, ext, random.Random(2), orbit=j)


def count_work(monkeypatch):
    """(field products, (base digits, modulus degree) of each `_Ring`
    built, `_split_one` calls) counted from here on."""
    from fanolines import unipoly
    from fanolines.field import ExtensionField
    products, rings, splits = [], [], []
    mul, build, split = ExtensionField._mul, _Ring.__init__, unipoly._split_one

    def counted_mul(self, a, b):
        products.append(1)
        return mul(self, a, b)

    def counted_build(self, p, m, terms, base=None, widths=None):
        k = base.n if base else 1
        rings.append((base.n if base else 0, len(m) // k - 1))
        build(self, p, m, terms, base, widths)

    def counted_split(*args):
        splits.append(1)
        return split(*args)

    monkeypatch.setattr(ExtensionField, "_mul", counted_mul)
    monkeypatch.setattr(_Ring, "__init__", counted_build)
    monkeypatch.setattr(unipoly, "_split_one", counted_split)
    return products, rings, splits


def test_orbit_six_root_work_is_pinned(monkeypatch):
    # one irreducible sextic over F_10007 rooted in F_(10007^6), as in a
    # depth-6 line count. The products of polynomials are packed ints and
    # the Frobenius row table comes with the field, so field
    # multiplications are left only in gcds and the quadratic formula;
    # the tuple-loop products made 2945, and building the table per call
    # 27 more. Mapped into F_(10007^6) and split there into linear
    # factors, F[x]/(f) of the sextic is built once, for x^p and the
    # first split. Given over F_10007, as the solver gives it, its
    # quadratic factor over F_(10007^3) comes from traces with no ring
    # over F_(10007^6): a split there took a ring over each field
    ground = PrimeField(10007)
    coeffs = irreducible(ground, 6, random.Random("pinned-orbit-6"))
    assert coeffs == [1596, 8186, 9026, 1665, 7777, 3788, 1]
    ext, embed = relative_extension(ground, 6)
    part = [ground.from_int(c) for c in coeffs]
    mapped = [embed(c) for c in part]
    roots_in_field(part, ext, random.Random(1), orbit=6)  # per-field caches
    products, rings, _ = count_work(monkeypatch)
    roots = roots_in_field(mapped, ext, random.Random(0), orbit=1)
    assert len(roots) == 6
    assert len(products) <= 60
    assert rings.count((6, 6)) == 1  # F[x]/(f) over F_(10007^6)
    products.clear()
    rings.clear()
    assert roots_in_field(part, ext, random.Random(0), orbit=6) == roots
    assert len(products) <= 12
    assert all(base != 6 for base, _ in rings)


def test_two_cubic_orbits_split_over_the_ground_first(monkeypatch):
    # two irreducible cubics over F_10007 at orbit 3: the part splits into
    # its cubics over F_10007, and each cubic, one orbit, descends over
    # F_(10007^3) from its own ring, not from one of the whole sextic
    ground = PrimeField(10007)
    rng = random.Random("two-cubic-orbits")
    first = irreducible(ground, 3, rng)
    second = first
    while second == first:
        second = irreducible(ground, 3, rng)
    ext, embed = relative_extension(ground, 3)
    part = [ground.from_int(c) for c in int_mul(first, second, ground.p)]
    roots_in_field(part, ext, random.Random(1), orbit=3)  # per-field caches
    _, rings, _ = count_work(monkeypatch)
    roots = roots_in_field(part, ext, random.Random(0), orbit=3)
    built = [ring for ring in rings if ring[0]]  # F[x]/(m), not a widening
    assert built[0] == (1, 6)  # the first split, over F_10007
    over_ext = [degree for base, degree in built if base == 3]
    assert over_ext and set(over_ext) == {3}
    mapped = [embed(c) for c in part]
    assert len(roots) == 6
    assert roots == roots_in_field(mapped, ext, random.Random(0), orbit=1)


def test_quadratic_part_takes_no_split(monkeypatch):
    # one orbit of degree 2 over F_10007: the quadratic formula over
    # F_(10007^2), with sqrt(z) of the pair of fields taken once
    ground = PrimeField(10007)
    ext, embed = relative_extension(ground, 2)
    rng = random.Random("quadratic-part")
    first, second = irreducible(ground, 2, rng), irreducible(ground, 2, rng)
    roots_in_field([ground.from_int(c) for c in first], ext, rng, orbit=2)
    _, rings, splits = count_work(monkeypatch)
    part = [ground.from_int(c) for c in second]
    roots = roots_in_field(part, ext, rng, orbit=2)
    assert rings == [] and splits == []
    assert len(roots) == 2
    assert all(horner([embed(c) for c in part], r).is_zero() for r in roots)


@pytest.mark.parametrize("ground", [PrimeField(7), PrimeField(10007),
                                    PrimeField(4294967311),
                                    build_extension(7, 2)], ids=str)
def test_roots_of_a_ground_part_match_the_embedded_part(ground):
    # the part of a distinct-degree factorization as it comes, over the
    # ground field, split there into orbits, and mapped into the
    # splitting field and split there into linear factors (orbit 1): two
    # independent routes, so both must give the same roots, each a root
    # of the embedded part
    rng = random.Random(f"ground-parts-{ground}")
    seen = set()
    for trial in range(4):
        e = [ground.sample(rng) for _ in range(8)] + [ground.one()]
        for j, (part, *_) in distinct_degree_factorization(e, ground,
                                                           4).items():
            ext, embed = relative_extension(ground, j)
            mapped = [embed(c) for c in part]
            own = roots_in_field(part, ext, random.Random(trial), orbit=j)
            assert own == roots_in_field(mapped, ext, random.Random(trial),
                                         orbit=1)
            assert len(own) == len(part) - 1
            assert all(horner(mapped, r).is_zero() for r in own)
            seen.add(j)
    assert max(seen) >= 3


def irreducible_over(field, j, rng):
    """A random monic irreducible of degree j over the field, as a
    FieldElement list."""
    while True:
        f = [field.sample(rng) for _ in range(j)] + [field.one()]
        parts = distinct_degree_factorization(f, field, j)
        if list(parts) == [j] and len(parts[j][0]) == j + 1:
            return f


# (p, k, k_max): grounds F_(p^k) and the largest orbit rooted over each
COMPLETE_GROUNDS = ([(3, 1, 6), (5, 1, 6), (7, 1, 6), (13, 1, 6),
                     (10009, 1, 6), (3, 2, 4), (5, 2, 4), (7, 2, 4)]
                    + [(10007, k, max(2, 6 // k)) for k in range(1, 7)]
                    + [(4294967311, 2, 2)])


@pytest.mark.parametrize("p,k,k_max", COMPLETE_GROUNDS,
                         ids=[f"F{p}^{k}" for p, k, _ in COMPLETE_GROUNDS])
def test_roots_of_every_orbit_are_complete(p, k, k_max):
    # parts of one orbit at every residue degree j <= k_max, and of two
    # at j <= 4, rooted as the factorization gives them (with its
    # quotient and without) and mapped into the splitting field at orbit 1:
    # as many distinct roots as the degree, each a root, so none is
    # missing.
    # F_10009 has p = 1 mod 8 (Tonelli-Shanks with s >= 3)
    ground = build_extension(p, k)
    rng = random.Random(f"complete-{p}-{k}")
    parts = []
    for orbits in (1, 2):
        e = [ground.one()]
        for j in range(1, k_max + 1):
            for _ in range(orbits if j <= 4 else 1):
                e = times(e, irreducible_over(ground, j, rng))
        factored = distinct_degree_factorization(e, ground, k_max)
        assert list(factored) == list(range(1, k_max + 1))
        parts += factored.items()
    for j, (part, quotient) in parts:
        ext, embed = relative_extension(ground, j)
        mapped = [embed(c) for c in part]
        got = [roots_in_field(part, ext, rng, orbit=j, quotient=quotient),
               roots_in_field(part, ext, rng, orbit=j),
               roots_in_field(mapped, ext, rng, orbit=1)]
        roots = got[0]
        assert len(set(roots)) == len(roots) == len(part) - 1, j
        assert all(horner(mapped, r).is_zero() for r in roots), j
        assert got[1] == got[2] == roots, j


@pytest.mark.parametrize("shape", [(6,), (5,), (4,), (3, 3), (2, 2),
                                   (1, 1, 1)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_one_part_eliminant_builds_its_ring_once(shape, monkeypatch):
    # an eliminant over F_10007 that is one part (one orbit, as at every
    # depth-6 line count, an odd one, two or three of the same degree):
    # F_10007[x]/(e) is built once, by the factorization, and its
    # rooting takes that quotient with the part, also for a split over
    # F_10007, so the roots match those of the part rooted on its own
    ground = PrimeField(10007)
    rng = random.Random(f"one-part-{shape}")
    e = [1]
    for j in shape:
        e = int_mul(e, irreducible(ground, j, rng), ground.p)
    e = [ground.from_int(c) for c in e]
    j = shape[0]
    ext = relative_extension(ground, j)[0]
    expected = roots_in_field(e, ext, random.Random(0), orbit=j)
    _, rings, _ = count_work(monkeypatch)
    (part, quotient), = distinct_degree_factorization(e, ground, 6).values()
    assert part == e and "ring" in vars(quotient)
    assert roots_in_field(part, ext, random.Random(0), orbit=j,
                          quotient=quotient) == expected
    assert rings.count((1, len(e) - 1)) == 1


@pytest.mark.parametrize("j", [4, 6])
def test_every_irreducible_over_f3_is_rooted(j):
    # every monic irreducible of degree j over F_3: for some of them the
    # trace x + x^(3^(j/2)) lies in a smaller subfield than F_(3^(j/2)),
    # and the part splits over F_(3^(j/2)) instead
    f3 = PrimeField(3)
    ext, embed = relative_extension(f3, j)
    rng = random.Random(f"every-{j}")
    count = 0
    for code in range(3 ** j):
        f = [f3.from_int(code // 3 ** i % 3) for i in range(j)] + [f3.one()]
        parts = distinct_degree_factorization(f, f3, j)
        if list(parts) != [j]:
            continue
        count += 1
        roots = roots_in_field(f, ext, rng, orbit=j, quotient=parts[j][1])
        assert len(set(roots)) == len(roots) == j, f
        assert all(horner([embed(c) for c in f], r).is_zero() for r in roots)
    assert count == {4: 18, 6: 116}[j]


def test_an_octic_no_shift_splits_is_rooted():
    # (x^4 + x^3 + 3x^2 + 3x + 2)(x^4 + 4x^3 + 5x + 2) over F_7: the
    # splitting power of no shift x + r, r in F_7, separates its two
    # quartic factors, so a split must draw u of every degree < 8. Its
    # eight roots over F_(7^4) are checked against every element there
    f7 = PrimeField(7)
    ext, embed = relative_extension(f7, 4)
    f = [f7.from_int(c) for c in int_mul([2, 3, 3, 1, 1], [2, 5, 0, 4, 1], 7)]
    roots = roots_in_field(f, ext, random.Random(0), orbit=4)
    lifted = [embed(c) for c in f]
    assert roots == [x for x in map(ext.element_from_code, range(7 ** 4))
                     if horner(lifted, x).is_zero()]
    assert len(roots) == 8


def test_a_split_with_no_proper_factor_fails_rather_than_hangs():
    # x^2 + 1 is irreducible over F_7, so no draw splits it: a fault that
    # hands `_split_one` a single factor (or a wrong Frobenius table)
    # must raise after a bounded number of draws. The alarm turns a
    # search without end into a failure instead of a stalled suite.
    f7 = PrimeField(7)
    quotient = _Quotient(f7, (1, 0, 1))

    def timeout(signum, frame):
        raise TimeoutError("_split_one drew without end")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(AssertionError,
                           match=r"degree-2 factors over GF\(7\) in \d+ "):
            _split_one(quotient, random.Random(0), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


EVEN_DEGREES = [(p, k) for p in (3, 5, 7) for k in range(2, 13, 2)] + [
    (3, 22), (3, 24)]


@pytest.mark.parametrize("p,k", EVEN_DEGREES,
                         ids=[f"{p}^{k}" for p, k in EVEN_DEGREES])
def test_the_modulus_of_every_even_degree_is_rooted(p, k):
    # at even k the orbit is rooted by a quadratic over GF(p^(k/2)) and a
    # fixed non-square z there (`_half_field`). Over GF(3^5), GF(3^11)
    # and GF(3^12) every shift t + c of the generator is a square, so a
    # search for z among those alone never ends; the alarm turns such a
    # search into a failure instead of a stalled suite
    ext, embed = relative_extension(PrimeField(p), k)
    f = [PrimeField(p).from_int(c) for c in ext.modulus]

    def timeout(signum, frame):
        raise TimeoutError(f"rooting the modulus of {ext} did not end")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        roots = roots_in_field(f, ext, random.Random(0), orbit=k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(set(roots)) == len(roots) == k
    assert all(horner([embed(c) for c in f], r).is_zero() for r in roots)
