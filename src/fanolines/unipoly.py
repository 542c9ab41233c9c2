"""Univariate polynomials over a finite field: distinct-degree
factorization and root extraction (Cantor-Zassenhaus 1981; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 14).

The public functions take and return little-endian lists of FieldElement.
Inside, a polynomial over F_(p^k) is a flat digit tuple, digit j of
coefficient i at index i*k + j, and all its arithmetic is the field's
`_Ring` (`field.py`): gcds, divisions and monic forms by the Euclid of
the field's own ring, and products, powers and Frobenius steps
(`_Ring.apply` on packed rows) by a ring for F_(p^k)[x]/(m), built from
the field's fold rows with slots for a Frobenius sum. The hot loops
build no FieldElement. Each modulus m has one `_Quotient`, which keeps
that ring, x^p mod m, its powers and their Frobenius table.

Solving factors an eliminant once over the ground field F_q0:
distinct_degree_factorization takes gcd(x^(q0^j) - x, e) for j = 1, 2, ...
and returns, for each j, the product of the irreducible factors of degree
j with its quotient. When the part is all of e, that is the quotient the
powers were taken in, so that rooting a one-part eliminant (one orbit,
as at every depth-6 line count) builds no second ring; otherwise it is
a factor of it, whose x^p is x^p mod e reduced. It works in one
quotient, F_q0[x]/(e): x^p by squaring once, then each q0-th power as
[F_q0 : F_p] Frobenius steps (von zur Gathen-Shoup 1992), over F_p and
its extensions alike. Every root of that degree-j part has residue
degree exactly j, so its roots lie in F_(q0^j) and nowhere else, one
Frobenius orbit r, r^q0, ..., r^(q0^(j-1)) per irreducible factor.

roots_in_field(..., orbit=j) first splits a part over F_q0 into its
irreducible factors (equal-degree factorization): random splits
u^((Q^d-1)/2) - 1 of a product of degree-d factors over F_Q, u uniform
of lower degree, each descending into the smaller factor. Each factor is
one orbit, rooted once; the rest of the orbit is Frobenius images of
that root. Every root ends in the quadratic formula. A factor of degree
2 is its own quadratic. For one of degree 2h >= 4, its quadratic through
x over the half-degree field F_(q0^h) has the trace and norm of x down
to F_(q0^h) as coefficients, brought into F_(q0^h) by a root of the
trace's minimal polynomial, a factor of degree h. A factor of odd
degree, or one whose trace lies in a smaller subfield, descends by the
same splits over F_(q0^j) on linear factors to one of degree at most 2.
Over F_(q0^h) a quadratic's discriminant D is a non-square, so sqrt(D) =
sqrt(D/z) sqrt(z) for a fixed non-square z of F_(q0^h), with sqrt(z) in
F_(q0^j) found once per pair of fields.

Square roots take no long power, only norms to subfields and Frobenius
steps (as in Adj-Rodriguez-Henriquez 2014): over
F_(p^e), e odd, sqrt(a) = a^((S+1)/2) / sqrt(N(a)) with S = 1 + p + ... +
p^(e-1), a power by (p+1)/2 and Frobenius steps, N(a) = a^S in F_p; over
F_(q^2), sqrt(a) = (a + n) / sqrt(a + a^q + 2n) with n = +-sqrt(a^(q+1)),
two square roots in F_q. Only F_p takes a Tonelli-Shanks power, on ints.

Over F_Q, Q = p^D, the splitting power u^((Q-1)/2) is not taken by
squaring up to Q either: from x^p mod the polynomial, each p-th power is
one Frobenius step, sum of c_j^p * x^(j*p), so a power costs about
log p + 2D products instead of 1.5 * D * log p. x^p and its powers are
taken over F_q0, in the quotient the factorization returns with each
part, and lifted: for a line count over F_10007 that is a ring with one
digit per coefficient, not D.
"""

from __future__ import annotations

import functools
import random
from itertools import chain, count
from typing import Dict, List, Optional, Tuple

from .field import (Field, FieldElement, _orbit, _Ring, build_extension,
                    embedding, payload_lift)
from .linalg import Echelon, unit_row


def _flat(a: List[FieldElement], field: Field) -> tuple:
    """The flat digits of a coefficient list, trimmed."""
    digits = ([c.payload for c in a] if field.degree == 1
              else [d for c in a for d in c.payload])
    return field.ring.trim(digits)


def _elements(field: Field, flat) -> List[FieldElement]:
    k = field.degree
    return [FieldElement(field, flat[i] if k == 1 else tuple(flat[i:i + k]))
            for i in range(0, len(flat), k)]


def _lift(sub: Field, field: Field, flat) -> tuple:
    """A flat polynomial over the subfield sub as one over field."""
    lift = payload_lift(sub, field)
    if lift is None:
        return flat
    s = sub.degree
    return tuple(chain.from_iterable(
        lift(flat[i] if s == 1 else flat[i:i + s])
        for i in range(0, len(flat), s)))


def _sub(ring: _Ring, a, b) -> tuple:
    """a - b for flat polynomials over the field of `ring`, trimmed."""
    p, size = ring.p, max(len(a), len(b))
    a, b = tuple(a) + (0,) * (size - len(a)), tuple(b) + (0,) * (size - len(b))
    return ring.trim(tuple((x - y) % p for x, y in zip(a, b)))


class _Quotient:
    """F[x]/(f), F the field, f monic flat of degree n >= 1: its `ring`,
    with slots for a Frobenius sum, `xp` = x^p mod f, the `powers` x^(i p)
    mod f, i < n, and their Frobenius `table`, each built on first use.
    x^p is taken in the ring by squaring, unless it was set or it is
    reduced from the x^p of `multiple`, a quotient f divides."""

    def __init__(self, field: Field, f, multiple: Optional[_Quotient] = None):
        self.field, self.f, self.multiple = field, f, multiple

    @functools.cached_property
    def ring(self) -> _Ring:
        p = self.field.characteristic()
        return _Ring(p, self.f, self.field.degree * (p - 1), self.field.ring)

    @functools.cached_property
    def xp(self) -> tuple:
        base, k = self.field.ring, self.field.degree
        if self.multiple is not None:
            return base.divmod(self.multiple.xp, self.f)[1]
        x = base.divmod((0,) * k + (1,) + (0,) * (k - 1), self.f)[1]
        return base.trim(self.ring.pow(x, self.field.characteristic()))

    @functools.cached_property
    def powers(self) -> list:
        ring, xp = self.ring, self.xp
        powers = [ring.digits(1), xp]
        while len(powers) < ring.n:
            powers.append(ring.mul(powers[-1], xp))
        return powers[:ring.n]

    @functools.cached_property
    def table(self) -> list:
        return self.ring.frobenius_table(self.powers, self.field.frob_rows)

    def factor(self, g) -> _Quotient:
        """The quotient of the monic factor g of f: this one when g is f."""
        return self if g == self.f else _Quotient(self.field, g, self)

    def qth_power(self, w) -> tuple:
        """w^q mod f, q = |field|, as [field : F_p] Frobenius steps."""
        ring, table = self.ring, self.table
        for _ in range(self.field.degree):
            w = ring.apply(w, table)
        return w


def distinct_degree_factorization(
        e: List[FieldElement], field: Field, k_max: int
) -> Dict[int, Tuple[List[FieldElement], _Quotient]]:
    """{j: (part, quotient)} for j <= k_max, part the product of the
    distinct monic irreducible degree-j factors of e, omitting the j with
    no such factor, and quotient its `_Quotient`: the one the powers were
    taken in when the part is all of e (e squarefree of one factor
    degree), else a factor of it, whose x^p is reduced from x^p mod e.

    All powers are taken in one quotient, F_q[x]/(e), q = p^k: x^p once
    by squaring, and then each q-th power w^q as k Frobenius steps from
    the table of x^(i*p) mod e. As f | e, w mod e reduced mod f is w mod
    f, so the gcds run against the shrinking f and w is never reduced
    again.
    gcd(x^(q^j) - x, f) is squarefree, so repeated factors, p-th powers
    included, need no derivative: once found, every copy of a factor is
    divided out of f and later steps never see it again.
    """
    base, k = field.ring, field.degree
    f = _flat(e, field)
    assert f, "the zero polynomial has no factorization"
    f = base.monic(f)
    if len(f) == k:
        return {}  # a nonzero constant
    whole = _Quotient(field, f)
    w = x = (0,) * k + (1,) + (0,) * (k - 1)
    parts: Dict[int, tuple] = {}
    for j in range(1, k_max + 1):
        degree = len(f) // k - 1
        if degree < 2 * j:
            # every factor has degree >= j, so a reducible f has degree >= 2j
            if 0 < degree <= k_max:
                parts[degree] = f
            break
        w = whole.qth_power(w)
        g = base.gcd(_sub(base, w, x), f)
        if len(g) > k:
            parts[j] = g
            while len(g) > k:  # every copy of every factor of g
                f = base.divmod(f, g)[0]
                g = base.gcd(f, g)
    return {j: (_elements(field, part), whole.factor(part))
            for j, part in sorted(parts.items())}


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of the nonzero a mod the odd prime p, None for a
    non-square (Tonelli-Shanks; one power when p = 3 mod 4)."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s, t = 0, p - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    c, x, b = pow(z, t, p), pow(a, (t + 1) // 2, p), pow(a, t, p)
    while b != 1:  # b = x^2 / a has order 2^i < 2^s
        i, b2 = 0, b
        while b2 != 1:
            b2, i = b2 * b2 % p, i + 1
        g = pow(c, 1 << (s - i - 1), p)
        s, c, x, b = i, g * g % p, x * g % p, b * g * g % p
    return x


@functools.lru_cache(maxsize=None)
def _twist(field: Field, e: int) -> Tuple[FieldElement, FieldElement]:
    """(w, 1/w^2) for an element w of the subfield F_(q^2) of `field`,
    q = p^(e/2), with w^q = -w: so w^2 is a non-square of F_q. w is
    u - u^q for u the trace into F_(q^2) of the first power of the
    generator t whose trace lies outside F_q (u = t when F_(q^2) is the
    field)."""
    v = t = field.generator()
    while True:
        u = v
        for i in range(1, field.degree // e):
            u = u + field.frobenius(v, i * e)
        w = u - field.frobenius(u, e // 2)
        if w:
            return w, (w * w).inverse()
        v = v * t


def _sqrt(a: FieldElement, e: int = 0) -> Optional[FieldElement]:
    """A square root of a in its field F, or None when a is a non-square.
    a lies in the subfield of F of degree e over F_p (F itself when e is
    0), and every step runs in F's representation."""
    field, p = a.field, a.field.characteristic()
    e = e or field.degree
    if a.is_zero():
        return a
    if e == 1:  # a in F_p
        root = _sqrt_mod(a.payload if field.degree == 1 else a.payload[0], p)
        return None if root is None else field.from_int(root)
    if e % 2:
        # (S + 1)/2 = 1 + p (p + 1)/2 (1 + p^2 + ... + p^(e-3)), and
        # x = a^((S+1)/2) has x^2 = a N(a), N(a) = a^S in F_p
        c = field.frobenius(
            FieldElement(field, field.ring.pow(a.payload, (p + 1) // 2)))
        x = a * c
        for _ in range(e // 2 - 1):
            c = field.frobenius(c, 2)
            x = x * c
        i = next(i for i, d in enumerate(a.payload) if d)
        root = _sqrt_mod((x * x).payload[i] * pow(a.payload[i], -1, p), p)
        return None if root is None else x * field.from_int(pow(root, -1, p))
    h = e // 2  # a in F_(q^2), q = p^h
    conj = field.frobenius(a, h)
    if conj == a:  # a in F_q: a square there, or a non-square times w^2
        root = _sqrt(a, h)
        if root is None:
            w, z_inv = _twist(field, e)
            root = _sqrt(a * z_inv, h) * w
        return root
    # x^2 = a gives (x + x^q)^2 = a + a^q + 2 x^(q+1), x^(q+1) = +-n, and
    # x (x + x^q) = a + x^(q+1); with the wrong sign the sum is a
    # non-square of F_q
    n = _sqrt(a * conj, h)
    if n is None:
        return None
    for s in (n, -n):
        y = _sqrt(a + conj + s + s, h)
        if y:
            return (a + s) / y
    raise AssertionError("a square of F_(q^2) has a root")


def _quadratic_roots(field: Field, g) -> List[FieldElement]:
    """The roots of the monic flat g of degree 1 or 2 over field, all of
    them in field."""
    c = _elements(field, g)
    if len(c) == 2:
        return [-c[0]]
    root = _sqrt(c[1] * c[1] - 4 * c[0])
    half = field.from_int((field.characteristic() + 1) // 2)
    return [(root - c[1]) * half, (-root - c[1]) * half]


@functools.lru_cache(maxsize=None)
def _half_field(field: Field):
    """(half, root) for quadratic factors over half, the subfield of
    index 2 of field: root(g) is a root in field of the monic quadratic
    g over half, irreducible there, given as its coefficient list. Built
    once per field.

    half goes into field by `embedding(half, field)`; embeddings compose,
    so a factor over any subfield of half lifted through half is the
    factor lifted directly. The discriminant D of g is a non-square of
    half, so with z a fixed non-square of half, sqrt(D) = sqrt(D/z)
    sqrt(z): one square root in half, and sqrt(z) in field, taken here.
    z is the first non-square among t + 2, ..., t + p + 1, t the
    generator of half (0 for F_p), and else among all of half by code:
    those p shifts of t can all be squares, as in GF(3^5)."""
    p = field.characteristic()
    half = build_extension(p, field.degree // 2)
    lift = embedding(half, field)
    start = half.generator() if half.degree > 1 else half.zero()
    z = next(z for z in chain((start + c for c in range(2, p + 2)),
                              map(half.element_from_code, count()))
             if _sqrt(z) is None)
    z_inv, root_z = z.inverse(), _sqrt(lift(z))
    half_one = field.from_int((p + 1) // 2)

    def root(g: List[FieldElement]) -> FieldElement:
        root_d = lift(_sqrt((g[1] * g[1] - 4 * g[0]) * z_inv))
        return (root_d * root_z - lift(g[1])) * half_one

    return half, root


# Most draws of `_split_one`: each splits two or more factors with
# probability about 1/2 or more, so running out means a wrong input.
SPLIT_DRAWS = 100


def _split_one(quotient: _Quotient, rng: random.Random,
               degree: int) -> tuple:
    """A proper monic factor of the quotient's modulus f, a product of
    distinct irreducible factors of degree `degree` over its field F_Q,
    Q = p^D, from gcd(u^((Q^degree-1)/2) - 1, f) for u drawn uniformly of
    degree < deg f (von zur Gathen-Gerhard, Alg. 14.8). u is a uniform
    element of every factor's field F_(Q^degree), so each draw splits
    two or more factors with probability about 1/2 or more; the shifts
    x + r alone are Q draws, which can all fail.

    (Q^degree-1)/2 = (p-1)/2 * (1 + p + ... + p^(degree*D-1)), so the
    power is b * b^p * ... with b = u^((p-1)/2): each p-th power is
    a Frobenius step by the quotient's table, built only when there is
    a step (not at D = degree = 1).
    """
    field, f, ring = quotient.field, quotient.f, quotient.ring
    k, p = field.degree, field.characteristic()
    table = quotient.table if degree * k > 1 else None
    d = len(f) // k - 1
    one = (1,) + (0,) * (k - 1)
    for _ in range(SPLIT_DRAWS):
        b = ring.pow(tuple(rng.randrange(p) for _ in range(d * k)),
                     (p - 1) // 2)
        h = b
        for _ in range(degree * k - 1):
            b = ring.apply(b, table)
            h = ring.mul(h, b)
        if not any(h[k:]):
            continue  # h = +-1: every factor gave the same sign
        g = field.ring.gcd(_sub(field.ring, h, one), f)
        if 0 < len(g) // k - 1 < d:
            return g
    raise AssertionError(f"no split of a product of degree-{degree} factors "
                         f"over {field} in {SPLIT_DRAWS} draws")


def _factors(quotient: _Quotient, degree: int, stop: int,
             rng: random.Random):
    """The factors of degree <= stop of the quotient's modulus f, a
    product of distinct irreducible factors of degree `degree` over its
    field, smaller first: each split (`_split_one`, in
    `quotient.factor(g)`) descends into its smaller factor and stacks the
    other, a cofactor g/h divided out only when popped."""
    field, k = quotient.field, quotient.field.degree
    stack = [(quotient.f, None)]  # (g, h): g, or g/h when h is given
    while stack:
        g, h = stack.pop()
        if h is not None:
            g = field.ring.divmod(g, h)[0]
        while len(g) > (stop + 1) * k:
            h = _split_one(quotient.factor(g), rng, degree)
            if 2 * len(h) <= len(g) + k:
                stack.append((g, h))
                g = h
            else:
                stack.append((h, None))
                g = field.ring.divmod(g, h)[0]
        yield g


def _orbit_quadratic(quotient: _Quotient, half: Field,
                     rng: random.Random) -> Optional[List[FieldElement]]:
    """The quadratic factor over half through one root of f, the
    quotient's modulus and one Frobenius orbit of degree 2h > 2 over its
    field sub = F_q0, with no split; None when the trace below does not
    generate the subfield.

    A = F_q0[x]/(f) is a copy of F_(q0^2h), so x is a root of f and y =
    x^(q0^h) its conjugate over the subfield S of index 2, and (X - x)(X
    - y) has its coefficients v = x + y and u = x y in S. When v
    generates S, its minimal polynomial over F_q0 has degree h and roots
    in half: one of them (`_one_root`) fixes an embedding
    of S in half, and u = a_0 + a_1 v + ... + a_(h-1) v^(h-1)
    (`linalg.Echelon`) goes along."""
    sub, ring = quotient.field, quotient.ring
    s, p = sub.degree, sub.characteristic()
    n = ring.n
    h = n // 2

    def add(a, b):
        return tuple((c + d) % p for c, d in zip(a, b))

    x = (0,) * s + (1,) + (0,) * (n * s - s - 1)
    y = x
    for _ in range(h):
        y = quotient.qth_power(y)
    v, u = add(x, y), ring.mul(x, y)
    conjugates = [v]
    for _ in range(h - 1):
        conjugates.append(quotient.qth_power(conjugates[-1]))
    if v in conjugates[1:]:
        return None  # v lies in a smaller subfield
    # the minimal polynomial of v, prod (Y - v_i), little-endian in Y,
    # has its coefficients in F_q0: their first s digits
    minimal = [ring.digits(1)]
    for c in conjugates:
        c = tuple(-d % p for d in c)
        minimal = [add(low, ring.mul(c, high)) for low, high in
                   zip([(0,) * (n * s)] + minimal, minimal + [(0,) * (n * s)])]
    root = _one_root(_Quotient(sub, tuple(d for w in minimal for d in w[:s])),
                     half, rng)
    echelon = Echelon(sub, n)
    w = ring.digits(1)
    for i in range(h):  # v^0, ..., v^(h-1), each tagged by a unit vector
        echelon.add([c.payload for c in _elements(sub, w)]
                    + unit_row(sub, i, h + 1))
        w = ring.mul(w, v)
    combination = echelon.reduce([c.payload for c in _elements(sub, u)]
                                 + unit_row(sub, h, h + 1))[n:]
    lift = payload_lift(sub, half)
    image = half.zero()
    for a in reversed(combination[:h]):  # u = -sum combination[i] v^i
        image = image * root - FieldElement(half, lift(a))
    return [image, -root, half.one()]


def _one_root(quotient: _Quotient, field: Field,
              rng: random.Random) -> FieldElement:
    """A root in field of the quotient's modulus g, irreducible of degree
    j = [field : sub] >= 2 over its field sub: by the quadratic over the
    half field at even j, else by descent over field, in the quotient of
    g lifted to field with x^p and its powers lifted from the quotient
    over sub."""
    sub, g = quotient.field, quotient.f
    j = field.degree // sub.degree
    if j % 2 == 0:
        half, root = _half_field(field)
        if j == 2:
            return root(_elements(half, _lift(sub, half, g)))
        quadratic = _orbit_quadratic(quotient, half, rng)
        if quadratic is not None:
            return root(quadratic)
    lifted = _Quotient(field, _lift(sub, field, g))
    lifted.xp = _lift(sub, field, quotient.xp)
    lifted.powers = [_lift(sub, field, w) for w in quotient.powers]
    piece = next(_factors(lifted, 1, 2, rng))
    return _quadratic_roots(field, piece)[0]


def _roots(quotient: _Quotient, field: Field, orbit: int,
           rng: random.Random) -> List[FieldElement]:
    """The roots in field of the quotient's modulus f, of degree > 0 over
    its field sub, as promised by `roots_in_field`, unsorted. f splits
    over sub in the quotient into one orbit per factor (at orbit 1,
    factors of degree <= 2), and each orbit is rooted in the quotient of
    its factor: the quotient itself when f is a single orbit."""
    sub = quotient.field
    roots = []
    for g in _factors(quotient, orbit, max(orbit, 2), rng):
        if orbit == 1:
            roots += _quadratic_roots(sub, g)
        else:
            roots += _orbit(field, _one_root(quotient.factor(g), field, rng),
                            orbit)
    return roots


def roots_in_field(a: List[FieldElement], field: Field, rng: random.Random,
                   *, orbit: int,
                   quotient: Optional[_Quotient] = None) -> List[FieldElement]:
    """Distinct roots of `a` lying in the finite field itself, sorted.

    orbit=j promises that `a` is a product of distinct irreducible factors
    of degree j over the subfield F_q0 of index j (q0^j = |field|), with
    its coefficients in F_q0 (in the field itself at orbit=1): the
    degree-j part of a distinct-degree factorization over F_q0, as it
    returns it, and quotient, when given, is the `_Quotient` it returns
    with the part. Then sigma: x -> x^q0 fixes the coefficients, so it
    permutes the roots, and every root has exactly j conjugates r,
    sigma(r), ..., sigma^(j-1)(r): one orbit per irreducible factor,
    rooted once. The rng only influences internal splitting choices.
    """
    sub = a[0].field
    assert sub.degree * orbit == field.degree
    if quotient is None:
        f = _flat(a, sub)
        if len(f) <= sub.degree:
            return []  # constants (callers guard the zero polynomial)
        quotient = _Quotient(sub, sub.ring.monic(f))
    return sorted(_roots(quotient, field, orbit, rng), key=field.code_of)
