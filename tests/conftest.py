"""Shared fixtures: small working fields, a terse parse helper, and the
plain routes that the package's fast paths are tested against."""

import itertools
from fractions import Fraction

import pytest

from fanolines import (Polynomial, PrimeField, ProjectivePoint,
                       build_extension, embedding, parse_polynomial)
from fanolines.errors import (BudgetExceeded, NotZeroDimensional, ParseError,
                              UnknownVariable, ZeroPolynomial)
from fanolines.fano import direction_components
from fanolines.field import (FieldElement, _Ring, payload_lift,
                             relative_extension)
from fanolines.linalg import mat_rank
from fanolines.poly import GREVLEX, MAX_TERM_DEGREE, _SlotOverflow, _tokenize
from fanolines.projgeo import DEFAULT_BUDGET, projective_count


def monomial(field, exps, coeff=None):
    """The polynomial coeff * x^exps in len(exps) variables; coeff is a
    field element or an int, 1 when omitted."""
    c = field.one() if coeff is None else coeff
    if not isinstance(c, FieldElement):
        c = field.from_int(c)
    return Polynomial(field, len(exps), {tuple(exps): c})


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def f11():
    return PrimeField(11)


@pytest.fixture(scope="session")
def f10007():
    return PrimeField(10007)


@pytest.fixture(scope="session")
def f9():
    return build_extension(3, 2)


def parse(text, nvars, field):
    return parse_polynomial(text, nvars, field)


def base_point(field, n_proj):
    """[1:0:...:0] in P^n_proj."""
    return ProjectivePoint([field.one()] + [field.zero()] * n_proj)


def random_point(field, n_proj, rng):
    """A uniformly drawn nonzero vector of F^(n_proj+1), as a point."""
    while True:
        coords = [field.sample(rng) for _ in range(n_proj + 1)]
        if any(not c.is_zero() for c in coords):
            return ProjectivePoint(coords)


def enumerate_projective_points(n_proj, field, budget=DEFAULT_BUDGET):
    """Every point of P^N(F_q) once, canonical, in the scan order of
    `scan.variety_scan`: pivot N first (the single point [0:...:0:1]),
    then pivot N-1, down to pivot 0; within a stratum the free
    coordinates run in ascending code order, leftmost coordinate most
    significant. Raises BudgetExceeded above budget points. The
    scan-order oracle."""
    q = field.order()
    total = projective_count(n_proj, q)
    if total > budget:
        raise BudgetExceeded(
            f"P^{n_proj}(F_{q}) has {total} points, budget {budget}")
    elems = [field.element_from_code(code) for code in range(q)]
    zero, one = field.zero(), field.one()
    for pivot in range(n_proj, -1, -1):
        prefix = (zero,) * pivot + (one,)
        for tail in itertools.product(elems, repeat=n_proj - pivot):
            pt = ProjectivePoint.__new__(ProjectivePoint)
            pt.coords = prefix + tail
            yield pt


def frobenius_residue_degree(coords, ground, k):
    """The least j | k such that x^(q^j) = x for every coordinate x, an
    element of the degree-k extension of ground F_q: the residue degree
    over ground of the point they span. The Frobenius fixed-point oracle
    of `field.subfield_table` and the solver's residue degrees."""
    for j in range(1, k):
        if k % j == 0 and all(c.field.frobenius(c, ground.degree * j) == c
                              for c in coords):
            return j
    return k


def per_level_points(ideal, k_max, scan):
    """The points `scan(generators over F_{q^k}, F_{q^k})` returns for
    k = 1..k_max, every level scanned on its own, each point kept only at
    the level of its exact residue degree. The per-level oracle for
    `idealkit._scan_levels`, which scans only the top levels."""
    field = ideal.field
    gens = ideal.nonzero_generators()
    out = []
    for k in range(1, k_max + 1):
        ext, embed = relative_extension(field, k)
        mapped = [g.map_coefficients(ext, embed) for g in gens]
        out.extend(pt for pt in scan(mapped, ext)
                   if frobenius_residue_degree(pt.coords, field, k) == k)
    return out


def plain_extension_mul(field, a, b):
    """a * b for payloads of the extension field: the schoolbook
    convolution of the digit tuples, then schoolbook long division by
    `field.modulus`, top digit first. The oracle of `ExtensionField._mul`;
    it shares no fold rows with the field's ring."""
    p, k, modulus = field.p, field.k, field.modulus
    conv = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):
        c = conv[i] % p
        for j in range(k + 1):
            conv[i - k + j] -= c * modulus[j]
    return tuple(c % p for c in conv[:k])


def fermat_inverse(field, a):
    """The inverse of a nonzero payload of the extension field F_q as
    a^(q - 2), by square and multiply on `plain_extension_mul`. An
    independent route to `ExtensionField._inv`."""
    out, e = field._one_payload(), field.order() - 2
    while e:
        if e & 1:
            out = plain_extension_mul(field, out, a)
        e >>= 1
        a = plain_extension_mul(field, a, a)
    return out


def ring_digits(field, payloads):
    """The flat digits of a payload list: the layout of `field._Ring`."""
    if field.degree == 1:
        return list(payloads)
    return [d for c in payloads for d in c]


def ring_payloads(field, digits):
    """The payload list, without zero top coefficients, of flat digits."""
    k = field.degree
    out = list(digits) if k == 1 else [tuple(digits[i:i + k])
                                       for i in range(0, len(digits), k)]
    while out and field._is_zero(out[-1]):
        out.pop()
    return out


class PlainArith:
    """Univariate arithmetic on payload lists (no trailing zeros) over one
    field, one field-hook call per coefficient step; divisors are monic.
    The oracle of the Euclid of `field._Ring` (`divmod`, `gcd`, `monic`,
    and deflation as division by x - root)."""

    def __init__(self, field):
        self.add, self.sub, self.mul = field._add, field._sub, field._mul
        self.inv, self.is_zero = field._inv, field._is_zero
        self.zero, self.one = field._zero_payload(), field._one_payload()

    def trim(self, a):
        i = len(a)
        while i and self.is_zero(a[i - 1]):
            i -= 1
        return a[:i]

    def monic(self, a):
        inv = self.inv(a[-1])
        return [self.mul(c, inv) for c in a]

    def divmod(self, a, m):
        """Quotient and remainder of a by the monic m."""
        a = list(a)
        dm = len(m) - 1
        quot = [self.zero] * max(len(a) - dm, 0)
        for i in range(len(a) - 1, dm - 1, -1):
            c = a[i]
            if self.is_zero(c):
                continue
            quot[i - dm] = c
            for j in range(dm):
                a[i - dm + j] = self.sub(a[i - dm + j], self.mul(c, m[j]))
        return quot, self.trim(a[:dm])

    def gcd(self, a, b):
        """Monic gcd; [] when both are zero."""
        while b:
            b = self.monic(b)
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a) if a else a

    def deflate(self, a, root):
        """a / (x - root) for a monic a vanishing at root, by synthetic
        division."""
        out = [self.zero] * (len(a) - 1)
        acc = a[-1]
        for i in range(len(a) - 2, -1, -1):
            out[i] = acc
            acc = self.add(a[i], self.mul(root, acc))
        assert self.is_zero(acc), "deflating by a non-root"
        return out


def plain_gradient(f):
    """The partial derivatives of f, one field multiplication per term and
    variable through the payload hooks: c * x^m gives m_i * c * x^(m - e_i)
    unless that is zero. The oracle of `Polynomial.gradient`."""
    field = f.field
    out = []
    for i in range(f.nvars):
        terms = {}
        for mono, coeff in f.terms.items():
            e = mono[i]
            if e == 0:
                continue
            scaled = field._mul(coeff.payload, field._from_int(e))
            if not field._is_zero(scaled):
                terms[mono[:i] + (e - 1,) + mono[i + 1:]] = scaled
        out.append(Polynomial.from_payloads(field, f.nvars, terms))
    return out


def plain_restrict(polys, last, value):
    """Each of polys with x_last = value and every later variable 0, by the
    ring map x_i -> x_i (i < last), x_last -> value, the rest -> 0, one
    `Polynomial.substitute` call each. The oracle of `poly.restrict`."""
    field = value.field
    images = ([Polynomial.variable(field, last, i) for i in range(last)]
              + [Polynomial.constant(field, last, value)]
              + [Polynomial.zero(field, last)] * (polys[0].nvars - 1 - last))
    return [f.substitute(images) for f in polys]


def dehomogenize(f, index=0):
    """f with x_index = 1, in the other variables in their order: the ring
    map x_index -> 1, x_j -> y_j for j < index and x_j -> y_(j-1) for
    j > index, in one `substitute` call."""
    n = f.nvars - 1
    images = [Polynomial.variable(f.field, n, j - (j > index)) for j in
              range(f.nvars)]
    images[index] = Polynomial.constant(f.field, n, 1)
    return f.substitute(images)


def line_lies_in(f, a, b):
    """Whether the line through the points a and b lies in V(f): f(u*a + v*b)
    vanishes identically as a form in (u, v). f, a and b share one field."""
    images = [Polynomial.linear(a.field, [x, y])
              for x, y in zip(a.coords, b.coords)]
    return f.substitute(images).is_zero()


def mat_identity(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    """The matrix a of FieldElement rows times the vector v."""
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def plain_evaluate(f, values):
    """f at a point whose coordinates lie in f's field or in an extension
    of it: each coefficient lifted into the point's field on its own, each
    power x_i^e by square and multiply, cached per (i, e), and one field
    multiplication per factor of every term. The oracle of
    `poly.evaluate_at` and `Polynomial.evaluate`."""
    field = f.field
    target = values[0].field if values else field
    lift = payload_lift(field, target)
    mul = target._mul

    def power(a, e):
        result = None
        while True:
            if e & 1:
                result = a if result is None else mul(result, a)
            e >>= 1
            if not e:
                return result
            a = mul(a, a)

    coords = [v.payload for v in values]
    acc = target._zero_payload()
    pow_cache = {}
    for mono, coeff in f.terms.items():
        term = coeff.payload if lift is None else lift(coeff.payload)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            p = pow_cache.get((i, e))
            if p is None:
                p = pow_cache[i, e] = power(coords[i], e)
            term = mul(term, p)
        acc = target._add(acc, term)
    return FieldElement(target, acc)


def jacobian_rank_oracle(gens, point):
    """Rank of the Jacobian of gens at a point by the direct route: the
    partial derivatives over the generators' field (`plain_gradient`),
    each evaluated at the point by `plain_evaluate`, then `mat_rank`."""
    coords = list(point.coords)
    return mat_rank([[plain_evaluate(dg, coords) for dg in plain_gradient(g)]
                     for g in gens])


def chart_quadratic_rank(f, point):
    """Rank of the quadratic part of the form f at a point by the chart
    route: f mapped into the point's field, moved so that the point is
    [1:0:...:0] and split by degree in the other coordinates
    (`direction_components`), then the rank of the symmetric Gram matrix
    of the degree-2 part; 0 unless the degree-0 and degree-1 parts
    vanish. The oracle for the Hessian rank of `voisin.certify_node`."""
    field = point.field
    if f.field != field:
        f = f.map_coefficients(field, embedding(f.field, field))
    parts = direction_components(f, point)
    if not (parts[0].is_zero() and parts[1].is_zero()):
        return 0
    n = parts[2].nvars
    half = field.from_int(2).inverse()
    gram = [[field.zero()] * n for _ in range(n)]
    for exps, coeff in parts[2].terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            gram[support[0]][support[0]] = coeff
        else:
            i, j = support
            gram[i][j] = gram[j][i] = coeff * half
    return mat_rank(gram)


def sympy_hessian_rank(f, point):
    """Rank of the Hessian of f at a point of F_p^n, by sympy: f with its
    coefficients lifted to integers, `sympy.hessian` at the integer lifts
    of the coordinates, then the rank of that matrix over GF(p)."""
    import sympy
    from sympy.polys.matrices import DomainMatrix
    xs = sympy.symbols(f"x0:{f.nvars}")
    expr = sum(int(c.payload) * sympy.prod([x ** e for x, e in zip(xs, m)])
               for m, c in f.terms.items())
    at = {x: int(c.payload) for x, c in zip(xs, point.coords)}
    hessian = sympy.hessian(expr, xs).subs(at)
    return DomainMatrix.from_Matrix(hessian).convert_to(
        sympy.GF(f.field.characteristic())).rank()


def schoolbook_rem(field, a, m):
    """a mod the monic m, payload lists over `field`, by long division."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        for j in range(dm + 1):
            a[i - dm + j] = field._sub(a[i - dm + j], field._mul(c, m[j]))
    a = a[:dm]
    while a and field._is_zero(a[-1]):
        a.pop()
    return a


def schoolbook_mulmod(field, a, b, m):
    """a * b mod the monic m, payload lists over `field`: the schoolbook
    product, one field multiplication per pair of coefficients, then long
    division. The oracle for the packed products of `unipoly`."""
    out = [field._zero_payload()] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = field._add(out[i + j], field._mul(ai, bj))
    return schoolbook_rem(field, out, m)


def schoolbook_powmod(field, a, e, m):
    """a^e mod the monic m by square and multiply on `schoolbook_mulmod`."""
    out = schoolbook_rem(field, [field._one_payload()], m)
    while e:
        if e & 1:
            out = schoolbook_mulmod(field, out, a, m)
        e >>= 1
        a = schoolbook_mulmod(field, a, a, m)
    return out


def plain_ddf(e, field, k_max):
    """{j: payload list of the product of the distinct monic irreducible
    degree-j factors of e} for j <= k_max: gcd(x^(q^j) - x, f) with every
    x^(q^j) mod f one power by q in a new ring F_q[x]/(f), and w reduced
    mod f whenever f shrinks. The oracle of
    `unipoly.distinct_degree_factorization`, which takes each q-th power
    as Frobenius steps in the one ring of e."""
    base, k, p = field.ring, field.degree, field.characteristic()
    f = base.monic(base.trim(ring_digits(field, [c.payload for c in e])))
    x = (0,) * k + (1,) + (0,) * (k - 1)
    w, parts = x, {}
    for j in range(1, k_max + 1):
        degree = len(f) // k - 1
        if degree < 2 * j:
            if 0 < degree <= k_max:
                parts[degree] = f
            break
        w = base.trim(_Ring(p, f, 1, base).pow(base.divmod(w, f)[1],
                                               field.order()))
        pad = (0,) * max(len(w), len(x))
        diff = [(a - b) % p
                for a, b in zip(w + pad[len(w):], x + pad[len(x):])]
        g = base.gcd(base.trim(diff), f)
        if len(g) > k:
            parts[j] = g
            while len(g) > k:
                f = base.divmod(f, g)[0]
                g = base.gcd(f, g)
    return {j: ring_payloads(field, part) for j, part in parts.items()}


def mono_divides(a, b):
    """Whether the exponent tuple a divides b, exponent by exponent. The
    oracle of the guard-bit divisibility test of packed monomials
    (`poly.Packing`)."""
    return all(x <= y for x, y in zip(a, b))


def leading_monomial(f, order=GREVLEX):
    """The largest monomial of f under order, by a max over the order's
    key of every term. The oracle of reading a basis element's leading
    monomial as its first term."""
    if not f.terms:
        raise ZeroPolynomial("zero polynomial has no leading monomial")
    return max(f.terms, key=order.key)


def quotient_monomials(lead_monomials, nvars):
    """The exponent tuples that no tuple of lead_monomials divides (the
    staircase), sorted, by a walk up from 1 on tuples. Raises
    NotZeroDimensional unless every variable has a pure power among
    lead_monomials. The oracle of `fglm._staircase`."""
    for i in range(nvars):
        if not any(all(e == 0 for j, e in enumerate(lm) if j != i)
                   for lm in lead_monomials):
            raise NotZeroDimensional(
                f"no pure power of variable {i} among the leading terms")
    origin = (0,) * nvars
    seen, queue, out = {origin}, [origin], []
    while queue:
        mono = queue.pop()
        out.append(mono)
        for i in range(nvars):
            child = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if child not in seen:
                seen.add(child)
                if not any(mono_divides(lm, child) for lm in lead_monomials):
                    queue.append(child)
    return sorted(out)


def mono_mul(a, b):
    """The product of two exponent tuples, slot by slot. The oracle of a
    sum of packed monomials (`poly.Packing`)."""
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a, b):
    """The lcm of two exponent tuples: the larger exponent of each
    variable. The oracle of the pair update's packed lcm
    (`poly.Packing.lcms`)."""
    return tuple(max(x, y) for x, y in zip(a, b))


def plain_pair_update(lm, lms, live, pairs, packing):
    """(sorted queued pairs, live list) after the Gebauer-Moeller update
    for a new basis element whose leading monomial, cut to the exponent
    slots of `packing`, is lm, as `groebner._update_pairs` takes its
    arguments; nothing is changed in place. Monomials are compared as
    exponent tuples (`mono_lcm`, `mono_divides`), and the new pairs are
    chosen by a scan in live order: a pair is kept when it is coprime,
    or when no earlier kept pair's lcm and no later pair's lcm divides
    its lcm; a coprime pair is kept but never queued, and a queued one
    under its exponents times `packing.units`, _SlotOverflow raised when
    that key sets a guard bit. The oracle of `groebner._update_pairs`."""
    decode, new = packing.decode, len(lms)
    h, exps = decode(lm), [decode(m) for m in lms]
    lcm_of = [mono_lcm(h, e) for e in exps]
    queued = [pr for pr in pairs
              if not (mono_divides(h, decode(pr[3]))
                      and lcm_of[pr[1]] != decode(pr[3])
                      and lcm_of[pr[2]] != decode(pr[3]))]
    candidates = [(lcm_of[g], g) for g in live]
    chosen = []
    for idx, (lcm, g) in enumerate(candidates):
        coprime = lcm == mono_mul(h, exps[g])
        if coprime or not any(mono_divides(other[0], lcm)
                              for other in chosen + candidates[idx + 1:]):
            chosen.append((lcm, g, coprime))
    for lcm, g, coprime in chosen:
        if coprime:
            continue
        key = sum(e * unit for e, unit in zip(lcm, packing.units))
        if key & packing.guard:
            raise _SlotOverflow
        queued.append((key, g, new,
                       sum(e << s for e, s in zip(lcm, packing._shifts))))
    return (sorted(queued),
            [g for g in live if not mono_divides(h, exps[g])] + [new])


def plain_normal_form(f, basis, packing, field, stats=None):
    """Normal form of the payload dict f against the payload dicts of
    basis, keyed by monomials packed by `packing`: one field call per
    product, difference and zero test of every tail term. Each step
    reduces by the first element whose leading monomial divides the work
    list's. `stats`, when given, gets the number of steps. The oracle of
    `groebner.normal_form_payload`."""
    import heapq

    mul, sub, neg, is_zero = field._mul, field._sub, field._neg, field._is_zero
    reducers = []
    for d in basis:
        lm = max(d)
        reducers.append((lm, field._inv(d[lm]),
                         [(m, c) for m, c in d.items() if m != lm]))
    work = dict(f)
    heap = [-m for m in work]
    heapq.heapify(heap)
    steps = 0
    remainder = {}
    while heap:
        lm = -heapq.heappop(heap)
        lc = work.pop(lm, None)
        if lc is None:
            continue
        lm_exps = packing.decode(lm)
        red = next((r for r in reducers
                    if mono_divides(packing.decode(r[0]), lm_exps)), None)
        if red is None:
            remainder[lm] = lc
            continue
        red_lm, red_inv, red_tail = red
        shift = lm - red_lm
        factor = mul(lc, red_inv)
        for m, c in red_tail:
            key = m + shift
            cur = work.get(key)
            if cur is None:
                work[key] = neg(mul(factor, c))
                heapq.heappush(heap, -key)
            else:
                new = sub(cur, mul(factor, c))
                if is_zero(new):
                    del work[key]
                else:
                    work[key] = new
        steps += 1
    if stats is not None:
        stats.update(steps=steps)
    return remainder


def plain_substitute_all(polys, images):
    """x_i -> images[i] applied to each of polys: every monomial image is
    built from its prefix's image, one field multiplication and addition
    per pair of terms. The oracle of `Polynomial.substitute`."""
    field, nvars = polys[0].field, polys[0].nvars
    mul, add, is_zero = field._mul, field._add, field._is_zero
    target_nvars = images[0].nvars if images else nvars
    cache = {(0,) * nvars: {(0,) * target_nvars: field._one_payload()}}

    def image_of(mono):
        if mono not in cache:
            i = max(j for j, e in enumerate(mono) if e)
            got = {}
            for m1, c1 in image_of(
                    mono[:i] + (mono[i] - 1,) + mono[i + 1:]).items():
                for m2, c2 in images[i].terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    c = mul(c1, c2.payload)
                    got[m] = add(got[m], c) if m in got else c
            cache[mono] = {m: c for m, c in got.items() if not is_zero(c)}
        return cache[mono]

    out = []
    for f in polys:
        acc = {}
        for mono, coeff in f.terms.items():
            for m, v in image_of(mono).items():
                c = mul(coeff.payload, v)
                acc[m] = add(acc[m], c) if m in acc else c
        out.append(Polynomial.from_payloads(
            field, target_nvars,
            {m: c for m, c in acc.items() if not is_zero(c)}))
    return out


def plain_hilbert_numerator(lead_monomials, nvars):
    """Coefficients of the Hilbert numerator N(t) of the monomial ideal
    spanned by lead_monomials, exponent tuples in nvars variables: the
    pivot recursion N(I) = N(I + (x_j)) + t * N(I : x_j) on tuples, with
    `mono_divides` minimalization at every node, a memo keyed by the
    generator set, the product of (1 - t^deg) for pairwise coprime
    generators, and the pivot on the first most shared variable. The
    oracle of `hilbert.hilbert_numerator`."""
    def times_one_minus_t_to(series, d):
        out = list(series) + [0] * d
        for i, c in enumerate(series):
            out[i + d] -= c
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    cache = {}

    def numerator(gens):
        if gens in cache:
            return cache[gens]
        monos = []
        for m in sorted(set(gens), key=lambda m: (sum(m), m)):
            if not any(mono_divides(g, m) for g in monos):
                monos.append(m)
        if not monos:
            result = (1,)
        elif any(sum(m) == 0 for m in monos):
            result = ()
        else:
            counts = [sum(1 for m in monos if m[i]) for i in range(nvars)]
            if max(counts) <= 1:
                result = (1,)
                for m in monos:
                    result = times_one_minus_t_to(result, sum(m))
            else:
                j = counts.index(max(counts))
                var = tuple(int(i == j) for i in range(nvars))
                a = numerator(frozenset(m for m in monos if m[j] == 0)
                              | {var})
                b = numerator(frozenset(
                    m[:j] + (m[j] - 1,) + m[j + 1:] if m[j] else m
                    for m in monos))
                out = [0] * max(len(a), len(b) + 1)
                for i, c in enumerate(a):
                    out[i] += c
                for i, c in enumerate(b):
                    out[i + 1] += c
                while out and out[-1] == 0:
                    out.pop()
                result = tuple(out)
        cache[gens] = result
        return result

    return list(numerator(frozenset(lead_monomials)))


def plain_chart_system(polys, last):
    """The nonzero ones among polys with x_last = 1 and every later
    variable 0, by the ring map x_i -> x_i (i < last), x_last -> 1, the
    rest -> 0, one `Polynomial.substitute` call each. The oracle of
    `solve.chart_system`."""
    field = polys[0].field
    images = ([Polynomial.variable(field, last, i) for i in range(last)]
              + [Polynomial.constant(field, last, 1)]
              + [Polynomial.zero(field, last)] * (polys[0].nvars - 1 - last))
    return [g for g in (f.substitute(images) for f in polys)
            if not g.is_zero()]


def plain_rank_drop_ideal(ideal):
    """The generators g, h of ideal and the 2x2 minors
    dg_i * dh_j - dg_j * dh_i, i < j, of their Jacobian, from
    `plain_gradient` by `Polynomial` products and differences. The oracle
    of `voisin.rank_drop_ideal`."""
    from fanolines import Ideal
    g, h = ideal.nonzero_generators()
    n = g.nvars
    dg, dh = plain_gradient(g), plain_gradient(h)
    return Ideal([g, h] + [dg[i] * dh[j] - dg[j] * dh[i]
                           for i in range(n) for j in range(i + 1, n)])


def appended_cut_misses(ideal, forms):
    """Whether the linear forms, appended to the whole rank-drop ideal of
    `ideal` in its own variables, cut out nothing. The oracle of
    `voisin.restricted_cut_misses`."""
    from fanolines import Ideal
    from fanolines.idealkit import hilbert_data
    from fanolines.voisin import rank_drop_ideal
    return hilbert_data(Ideal(
        list(rank_drop_ideal(ideal).generators) + list(forms)))[0] < 0


def appended_cut_tries(ideal, r, seed, tries):
    """Per try of the r >= 3 singular-dimension certificate of
    `voisin.analyze_node_lines`, whether the appended cut misses the
    singular locus (`appended_cut_misses`): random.Random(seed) draws
    2r - 3 linear forms per try, as `idealkit.random_slice` does. Every
    try is taken, also after one that misses."""
    import random
    from fanolines.poly import random_homogeneous
    rng = random.Random(seed)
    return [appended_cut_misses(ideal, [
        random_homogeneous(ideal.field, ideal.nvars, 1, rng)
        for _ in range(2 * r - 3)]) for _ in range(tries)]


class _TokenParser:
    """The parser as it was before `parse_polynomial` took one pass: one
    `Polynomial.monomial` per term, summed with `Polynomial.__add__`.
    It reads the tokens of `_tokenize` itself, its first bad character
    an error before any other."""

    def __init__(self, text, nvars, field):
        self.tokens = []
        for kind, value, pos in _tokenize(text):
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}", pos)
            self.tokens.append((kind, int(value) if kind == "num" else value,
                                pos))
        self.i = 0
        self.field = field
        self.index_of = {f"x{i}": i for i in range(nvars)}
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_num(self):
        kind, value, pos = self.advance()
        if kind != "num":
            raise ParseError("expected an integer", pos)
        return value

    def parse(self):
        result = Polynomial.zero(self.field, self.nvars)
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.advance()
        result = result + self.parse_term(sign)
        while True:
            kind, value, pos = self.peek()
            if kind == "end":
                break
            if kind != "op" or value not in "+-":
                raise ParseError("expected '+' or '-' between terms", pos)
            self.advance()
            sign = -1 if value == "-" else 1
            result = result + self.parse_term(sign)
        return result

    def parse_term(self, sign):
        kind, value, pos = self.peek()
        term_pos = pos
        if kind == "op" and value == "-":
            self.advance()
            sign = -sign
            kind, value, pos = self.peek()
        coeff = self.field.one()
        have_coeff = False
        if kind == "num":
            self.advance()
            frac = Fraction(value)
            kind, value, pos = self.peek()
            if kind == "op" and value == "/":
                self.advance()
                denom_pos = self.peek()[2]
                denom = self.expect_num()
                if denom == 0:
                    raise ParseError("zero denominator", denom_pos)
                frac /= denom
                if self.field.from_int(frac.denominator).is_zero():
                    raise ParseError(f"denominator {denom} is not invertible "
                                     f"in {self.field}", denom_pos)
            coeff = self.field.from_fraction(frac)
            have_coeff = True
            while True:
                kind, value, pos = self.peek()
                if kind == "op" and value == "*":
                    self.advance()
                else:
                    break
        exps = [0] * self.nvars
        saw_factor = False
        while True:
            kind, value, pos = self.peek()
            if kind == "name":
                self.advance()
                idx = self.index_of.get(value)
                if idx is None:
                    raise UnknownVariable(
                        f"unknown variable {value!r} at position {pos}")
                power = 1
                kind2, value2, _ = self.peek()
                if kind2 == "op" and value2 == "^":
                    self.advance()
                    power = self.expect_num()
                exps[idx] += power
                saw_factor = True
                kind, value, pos = self.peek()
                if kind == "op" and value == "*":
                    self.advance()
                    continue
                break
            if saw_factor or have_coeff:
                break
            raise ParseError("expected a coefficient or variable", pos)
        if not saw_factor and not have_coeff:
            raise ParseError("empty term", pos)
        if sum(exps) > MAX_TERM_DEGREE:
            raise ParseError(f"term of degree {sum(exps)} exceeds the "
                             f"maximum {MAX_TERM_DEGREE}", term_pos)
        if sign < 0:
            coeff = -coeff
        return monomial(self.field, tuple(exps), coeff)


def token_parse(text, nvars, field):
    """Oracle of `parse_polynomial`: the same grammar, errors and term
    order, read by a token-at-a-time parser that adds term by term."""
    if not text.strip():
        raise ParseError("empty polynomial text", 0)
    return _TokenParser(text, nvars, field).parse()


# acceptance-gate result lines, echoed after the run so they survive
# pytest's fd-level capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
