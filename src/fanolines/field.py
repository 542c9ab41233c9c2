"""Exact field arithmetic: rationals, prime fields, and small extension fields.

Elements are immutable value objects carrying a reference to their field.
Extension fields F_{p^k} store elements as little-endian coefficient tuples
reduced modulo a fixed irreducible polynomial in the generator t.

Every map between extension payloads is F_p-linear on their coefficient
digits, so it is one row table: row i is the image of t^i, and
`_apply_rows` sends a payload c to sum c_i * row_i mod p
(Lidl-Niederreiter, *Finite Fields*, ch. 2). Frobenius c -> c^p has the
rows (t^p)^i, built once per field. An embedding F_{p^a} -> F_{p^b} has
the rows r^i, r the smallest-code root in F_{p^b} of the modulus of
F_{p^a}, built once per pair of fields.

Sums of products run on ints: polynomial values and Jacobian entries at
a point (`poly._term_sums`), the coefficients of a substituted
polynomial (`poly.substitute_all`), of a restriction to x_last = value
(`poly.restrict`: the solver's charts and fibres) and of a rank-drop
minor (`voisin.rank_drop_ideal`) and the work coefficients of a normal
form (`groebner.normal_form_payload`).
`Field._packer(terms)` returns (pack, unpack), and unpack(sum of up to
`terms` products pack(a) * pack(b)) is the payload of the sum of the
products a * b; pack(1) is 1, so a sum of packed payloads is one too.
Over F_{p^k} pack puts digit i in slot i of an int
(Kronecker substitution; von zur Gathen-Gerhard, *Modern Computer
Algebra*, §8.4), with slots wide enough that the sum never carries, so
it is reduced once instead of once per product (delayed reduction, as in
Dumas-Giorgi-Pernet's FFLAS). One product in F_{p^k} is the same packed
product with `terms` = 1, and an inverse is extended Euclid over F_p on
the digit lists (ibid., §4.2).
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import lshift, mul
from typing import Callable, Tuple, Union

from .errors import InvalidParameters, NotPrime, ZeroInversion

DEFAULT_PRIME = 10007
DEFAULT_RATIONAL_BOUND = 50

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any modulus used here."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """Element of a :class:`Field`, stored in canonical form."""

    __slots__ = ("field", "payload")

    def __init__(self, field: "Field", payload):
        self.field = field
        self.payload = payload

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise TypeError(f"mixed fields: {self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.payload, other.payload))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.payload))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.field.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.payload))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.payload)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self):
        return hash((self.field.key(), self.payload))

    def __repr__(self):
        return self.field.element_str(self.payload)


Scalar = Union[FieldElement, int]

Packer = Tuple[Callable, Callable]


def _same(a):
    return a


class Field:
    """Common interface; concrete fields implement the payload hooks."""

    kind = "abstract"

    def zero(self) -> FieldElement:
        return FieldElement(self, self._zero_payload())

    def one(self) -> FieldElement:
        return FieldElement(self, self._one_payload())

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int(n))

    def from_fraction(self, numer, denom: int = 1) -> FieldElement:
        """numer/denom in this field; numer may be a Fraction.

        Raises ZeroInversion when the denominator vanishes (e.g. mod p).
        """
        if isinstance(numer, Fraction):
            assert denom == 1
            numer, denom = numer.numerator, numer.denominator
        return self.from_int(numer) * self.from_int(denom).inverse()

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Field) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    @property
    def is_finite(self) -> bool:
        return self.order() is not None

    def order(self):
        """Number of elements, or None for infinite fields."""
        return None

    def characteristic(self) -> int:
        return 0

    def element_str(self, payload) -> str:
        return str(payload)

    def sample(self, rng: random.Random, bound: int = DEFAULT_RATIONAL_BOUND) -> FieldElement:
        raise NotImplementedError


class RationalField(Field):
    """The rationals with arbitrary-precision reduced fractions."""

    kind = "rationals"

    def key(self):
        return ("rationals",)

    def _zero_payload(self):
        return Fraction(0)

    def _one_payload(self):
        return Fraction(1)

    def _from_int(self, n):
        return Fraction(n)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise ZeroInversion(f"zero has no inverse in {self}")
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _packer(self, terms: int) -> Packer:
        """Fractions sum as they are."""
        return _same, _same

    def sample(self, rng, bound=DEFAULT_RATIONAL_BOUND):
        """Uniform integer in [-bound, bound], as a rational."""
        return FieldElement(self, Fraction(rng.randint(-bound, bound)))

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for an odd prime p, least-residue representatives."""

    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            # quadratic-form ranks and the node certificates need 1/2
            raise InvalidParameters("characteristic 2 is unsupported")
        self.p = p

    def key(self):
        return ("prime", self.p)

    def order(self):
        return self.p

    def characteristic(self):
        return self.p

    @property
    def degree(self) -> int:
        return 1

    def _zero_payload(self):
        return 0

    def _one_payload(self):
        return 1 % self.p

    def _from_int(self, n):
        return n % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroInversion(f"zero has no inverse in {self}")
        return pow(a, self.p - 2, self.p)

    def _is_zero(self, a):
        return a == 0

    def _packer(self, terms: int) -> Packer:
        """Residues sum as ints and are reduced mod p once."""
        return _same, self.p.__rmod__

    def sample(self, rng, bound=None):
        return FieldElement(self, rng.randrange(self.p))

    def code_of(self, e: FieldElement) -> int:
        """Integer code in [0, p): the least residue itself."""
        return e.payload

    def element_from_code(self, code: int) -> FieldElement:
        return FieldElement(self, code)

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(Field):
    """F_{p^k} = F_p[t]/(modulus), elements as coefficient k-tuples."""

    kind = "extension"

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        assert k >= 2 and len(modulus) == k + 1 and modulus[-1] % p == 1
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        # t^(k+i) mod modulus, i = 0..k-2, for one-pass reduction of products
        red = []
        cur = [(-c) % p for c in self.modulus[:-1]]  # t^k
        for _ in range(k - 1):
            red.append(tuple(cur))
            cur = [0] + cur
            lead = cur[-1]
            cur = [(cur[j] - lead * self.modulus[j]) % p for j in range(k)]
        self._red = red
        self._pack, self._unpack = self._packer(1)  # for `_mul`
        # the Frobenius row table: row i is (t^p)^i
        self.frob_rows = _power_rows(self, (self.generator() ** p).payload, k)

    def key(self):
        return ("extension", self.p, self.k, self.modulus)

    def order(self):
        return self.p**self.k

    def characteristic(self):
        return self.p

    @property
    def degree(self) -> int:
        return self.k

    def _zero_payload(self):
        return (0,) * self.k

    def _one_payload(self):
        return (1,) + (0,) * (self.k - 1)

    def _from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _mul(self, a, b):
        return self._unpack(self._pack(a) * self._pack(b))

    def _inv(self, a):
        """Extended Euclid on digit lists: r_i = s_i * a mod the modulus,
        from (r_0, s_0) = (modulus, 0) and (r_1, s_1) = (a, 1), down to a
        constant r_i, nonzero as the modulus is irreducible; then
        1/a = s_i / r_i."""
        p = self.p
        r0, r1 = list(self.modulus), _trim(list(a))
        if not r1:
            raise ZeroInversion(f"zero has no inverse in {self}")
        s0, s1 = [], [1]
        while len(r1) > 1:
            d, inv = len(r1) - 1, pow(r1[-1], -1, p)
            q = [0] * (len(r0) - d)
            for i in range(len(r0) - 1, d - 1, -1):
                c = q[i - d] = r0[i] * inv % p
                if c:
                    for j in range(i - d, i):
                        r0[j] = (r0[j] - c * r1[j - i + d]) % p
            s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, c in enumerate(q):
                for j, x in enumerate(s1):
                    s[i + j] -= c * x
            r0, r1 = r1, _trim(r0[:d])
            s0, s1 = s1, _trim([x % p for x in s])
        inv = pow(r1[0], -1, p)
        return tuple(x * inv % p for x in s1) + (0,) * (self.k - len(s1))

    def _is_zero(self, a):
        return all(c == 0 for c in a)

    def _packer(self, terms: int) -> Packer:
        """Digit i in slot i of W bits, W = bit_length(terms k (p-1)^2) + 1.

        A product of two packed payloads has 2k - 1 slots, each a sum of
        at most k digit products, so a sum of `terms` products never
        carries. unpack takes slots k..2k-2 mod p and folds them into the
        low k slots by the packed rows t^k, ..., t^(2k-2) reduced; each
        low slot stays below 2^W, since the fold adds at most
        (k-1)(p-1)^2. The low slots mod p are the payload. A payload from
        F_p, (c, 0, ..., 0), packs to c itself.
        """
        p, k = self.p, self.k
        width = (terms * k * (p - 1) ** 2).bit_length() + 1
        digit = (1 << width) - 1
        shifts = [i * width for i in range(k)]
        high = [(k + i) * width for i in range(k - 1)]
        low = (1 << k * width) - 1

        def pack(c) -> int:
            return sum(map(lshift, c, shifts))

        rows = [pack(row) for row in self._red]

        def unpack(v: int) -> tuple:
            v = (v & low) + sum(map(mul, [(v >> s & digit) % p for s in high],
                                    rows))
            return tuple((v >> s & digit) % p for s in shifts)

        return pack, unpack

    def element_str(self, payload) -> str:
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = payload[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts) if parts else "0"

    def generator(self) -> FieldElement:
        """The residue class of t."""
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def frobenius(self, e: FieldElement, j: int = 1) -> FieldElement:
        """e^(p^j): the Frobenius row table applied j mod k times."""
        c = e.payload
        for _ in range(j % self.k):
            c = _apply_rows(self.frob_rows, c, self.p)
        return FieldElement(self, c)

    def code_of(self, e: FieldElement) -> int:
        """Integer code in [0, p^k): base-p digits of the coefficient tuple."""
        code = 0
        for c in reversed(e.payload):
            code = code * self.p + c
        return code

    def element_from_code(self, code: int) -> FieldElement:
        digits = []
        for _ in range(self.k):
            digits.append(code % self.p)
            code //= self.p
        return FieldElement(self, tuple(digits))

    def sample(self, rng, bound=None):
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


_extension_cache: dict = {}


def build_extension(p: int, k: int) -> Field:
    """Field with p^k elements; k = 1 gives the prime field itself.

    The modulus is found by seeded random search over monic degree-k
    candidates, so the result is reproducible for fixed (p, k).
    """
    cached = _extension_cache.get((p, k))
    if cached is not None:
        return cached
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    if k == 1:
        result = PrimeField(p)
    else:
        from .unipoly import distinct_degree_factorization
        ground = PrimeField(p)
        rng = random.Random(f"fanolines-modulus-{p}-{k}-0")
        while True:
            cand = [rng.randrange(p) for _ in range(k)] + [1]
            if cand[0] == 0:  # reducible: t divides
                continue
            # irreducible: no factor of degree <= k/2
            if not distinct_degree_factorization(
                    [FieldElement(ground, c) for c in cand], ground, k // 2):
                result = ExtensionField(p, k, cand)
                break
    _extension_cache[(p, k)] = result
    return result


def _trim(digits: list) -> list:
    """digits without its zero top digits."""
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _power_rows(field: ExtensionField, x, n: int) -> list:
    """The row table of payloads x^i, i < n: the map sending t to x."""
    rows = [field._one_payload()]
    for _ in range(n - 1):
        rows.append(field._mul(rows[-1], x))
    return rows


def _apply_rows(rows: list, c, p: int) -> tuple:
    """sum c_i * rows[i] mod p: the F_p-linear map with this row table,
    applied to the payload c."""
    out = [0] * len(rows[0])
    for ci, row in zip(c, rows):
        if ci:
            for i, v in enumerate(row):
                out[i] += ci * v
    return tuple(v % p for v in out)


_embedding_cache: dict = {}


def payload_lift(src: Field, dst: Field):
    """The payload map of `embedding(src, dst)`; None when dst is src.

    From F_p it is the canonical map. Between extensions it applies the
    rows r^i, i < [src : F_p], where r is the smallest-code root of src's
    modulus in dst, so the same pair of fields always yields the same map;
    it is built once per pair.
    """
    if src == dst:
        return None
    if isinstance(src, PrimeField):
        assert dst.characteristic() == src.p
        return dst._from_int
    assert isinstance(src, ExtensionField) and isinstance(dst, ExtensionField)
    assert src.p == dst.p and dst.k % src.k == 0
    key = (src.key(), dst.key())
    lift = _embedding_cache.get(key)
    if lift is None:
        from .unipoly import roots_in_field
        modulus = [dst.from_int(c) for c in src.modulus]
        rng = random.Random(f"fanolines-embed-{src.key()}-{dst.key()}")
        root = roots_in_field(modulus, dst, rng, orbit=1)[0]
        rows = _power_rows(dst, root.payload, src.k)
        lift = _embedding_cache[key] = lambda c: _apply_rows(rows, c, src.p)
    return lift


def embedding(src: Field, dst: Field):
    """Deterministic field homomorphism src -> dst between finite fields,
    src a subfield of dst abstractly (same p, src degree dividing dst
    degree): `payload_lift` on FieldElements."""
    lift = payload_lift(src, dst)
    if lift is None:
        return lambda e: e
    return lambda e: FieldElement(dst, lift(e.payload))


def _frobenius_shift(ground: Field, mid: Field, top: Field) -> int:
    """The s for which x -> x^(p^s) after embedding(mid, top) agrees with
    embedding(ground, top) on the image of embedding(ground, mid).

    The two maps of ground into top need not agree when ground is itself
    an extension; applying that power of Frobenius to a point found over
    top through mid turns it into a point of the system as embedded
    directly from ground."""
    if ground.degree == 1 or mid is ground:
        return 0
    gen = ground.generator()
    target = embedding(ground, top)(gen)
    image = embedding(mid, top)(embedding(ground, mid)(gen))
    for s in range(ground.degree):
        if image == target:
            return s
        image = top.frobenius(image)
    raise AssertionError("embeddings of one field differ by no Frobenius power")


_descent_cache: dict = {}


def payload_descent(ground: Field, sub: Field, top: Field):
    """The payload map that brings an element of top lying in sub back
    down to sub: the inverse, on its image, of the embedding e of sub in
    top that agrees with embedding(ground, top) on the image of
    embedding(ground, sub). So a point over top of a system embedded from
    ground, with coordinates in sub, comes down to a point over sub of
    the same system embedded into sub.

    e is `payload_lift(sub, top)` followed by the Frobenius power
    `_frobenius_shift(ground, sub, top)`. It is F_p-linear, so an image x
    is sum a_i e(t^i): x reduced against the rows e(t^i), each followed by
    its unit vector, leaves zero with -(a_i) in the unit slots. Built
    once per (ground, sub, top).
    """
    if isinstance(sub, PrimeField):
        return lambda c: c[0]
    key = (ground.key(), sub.key(), top.key())
    descent = _descent_cache.get(key)
    if descent is None:
        from .linalg import Echelon
        p, k, lift = sub.p, sub.k, payload_lift(sub, top)
        shift = _frobenius_shift(ground, sub, top)
        rows = Echelon(build_extension(p, 1), top.k)
        for i in range(k):
            unit = [int(i == j) for j in range(k)]
            image = top.frobenius(FieldElement(top, lift(unit)), shift)
            rows.add(list(image.payload) + unit)
        descent = _descent_cache[key] = lambda c: tuple(
            -v % p for v in rows.reduce(list(c) + [0] * k)[top.k:])
    return descent


def relative_extension(ground: Field, k: int):
    """(E, embed) with [E : ground] = k; E is deterministic per (ground, k)."""
    if k == 1:
        return ground, (lambda e: e)
    ext = build_extension(ground.p, ground.degree * k)
    return ext, embedding(ground, ext)


QQ = RationalField()
