"""Exact field arithmetic: prime fields and small extension fields.

Elements are immutable value objects carrying a reference to their field.
Extension fields F_{p^k} store elements as little-endian coefficient tuples
reduced modulo a fixed irreducible polynomial in the generator t.

Every map between extension payloads is F_p-linear on their coefficient
digits, so it is one row table: row i is the image of t^i, packed in
the target field's ring, and `_Ring.apply` sends a payload c to
sum c_i * row_i, reduced once (Lidl-Niederreiter, *Finite Fields*,
ch. 2). Frobenius c -> c^p has the rows (t^p)^i, packed once per
field. An embedding F_{p^a} -> F_{p^b} has the rows r^i, r the
smallest-code root in F_{p^b} of the modulus of F_{p^a} whose map
agrees with the embeddings of the subfields of F_{p^a}, packed once per
pair of fields: embeddings compose (`payload_lift`).

Sums of products run on ints: polynomial values and Jacobian entries at
a point (`poly._term_sums`), the coefficients of a substituted
polynomial (`Polynomial.substitute`), of a restriction to x_last = value
(`poly.restrict`: the solver's charts and fibres) and of a rank-drop
minor (`voisin.rank_drop_ideal`) and the work coefficients of a normal
form (`groebner.normal_form_payload`).
`Field._packer(terms)` returns (pack, unpack), and unpack(sum of up to
`terms` products pack(a) * pack(b)) is the payload of the sum of the
products a * b; pack(1) is 1, so a sum of packed payloads is one too.

One class, `_Ring`, packs every product modulo a polynomial: F_{p^k} is
F_p[t]/(modulus), and `unipoly` works in F_{p^k}[x]/(m). The t^j digit
of coefficient i goes to slot i(2k - 1) + j of an int (Kronecker
substitution; von zur Gathen-Gerhard, *Modern Computer Algebra*, §8.4),
with slots wide enough that a sum of `terms` products never carries, so
it is reduced once (delayed reduction, as in Dumas-Giorgi-Pernet's
FFLAS): the overflow slots mod p fold back by packed reduced rows, and
the unit slots mod p are the digits. A field keeps its ring for one
product, widened per `_packer(terms)` width once. The ring of a field
holds the one Euclid for polynomials over it, a division adding one
packed product per step (`_Ring.divmod`), and inverts by extended
Euclid over F_p on the digit lists (ibid., §4.2).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import chain
from operator import lshift, mul
import struct
from typing import Callable, List, Tuple

from .errors import InvalidParameters, NotPrime, ZeroInversion

DEFAULT_PRIME = 10007

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any modulus used here."""
    if n < 2:
        return False
    for q in _MR_BASES:
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


Packer = Tuple[Callable, Callable]


def _same(a):
    return a


class Field:
    """Common interface; concrete fields implement the payload hooks."""

    def zero(self) -> FieldElement:
        return FieldElement(self, self._zero_payload())

    def one(self) -> FieldElement:
        return FieldElement(self, self._one_payload())

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int(n))

    def from_fraction(self, value: Fraction) -> FieldElement:
        """The rational `value` in this field.

        Raises ZeroInversion when the denominator vanishes (e.g. mod p).
        """
        return (self.from_int(value.numerator)
                * self.from_int(value.denominator).inverse())

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Field) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def element_str(self, payload) -> str:
        return str(payload)

    def sample(self, rng: random.Random) -> FieldElement:
        raise NotImplementedError


class PrimeField(Field):
    """F_p for an odd prime p, least-residue representatives."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            # quadratic-form ranks and the node certificates need 1/2
            raise InvalidParameters("characteristic 2 is unsupported")
        self.p = p
        self.ring = _Ring(p, (0, 1), 1)  # F_p[x]/(x): Euclid over F_p
        self.frob_rows = [(1,)]  # the Frobenius row table: c^p = c

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

    def sample(self, rng):
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

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        assert k >= 2 and len(modulus) == k + 1 and modulus[-1] % p == 1
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        self.ring = _Ring(p, self.modulus, 1)  # for `_mul` and `_inv`
        self._pack, self._unpack = self.ring.pack, self.ring.reduce
        # the Frobenius row table: row i is (t^p)^i, as digits and packed
        self.frob_rows = _power_rows(self, (self.generator() ** p).payload, k)
        self._frob_table = [self._pack(row) for row in self.frob_rows]

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
        if not any(a):
            raise ZeroInversion(f"zero has no inverse in {self}")
        return self.ring.inverse(a)

    def _is_zero(self, a):
        return all(c == 0 for c in a)

    def _packer(self, terms: int) -> Packer:
        """The field's ring for sums of up to `terms` products."""
        ring = self.ring.widen(terms)
        return ring.pack, ring.reduce

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
        """e^(p^j): the packed Frobenius rows applied j mod k times."""
        c, apply, table = e.payload, self.ring.apply, self._frob_table
        for _ in range(j % self.k):
            c = apply(c, table)
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

    def sample(self, rng):
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def _orbit(field: Field, e: FieldElement, size: int) -> List[FieldElement]:
    """e, sigma(e), ..., sigma^(size-1)(e), sigma the Frobenius of the
    subfield of index size; [e] at size 1, over any field."""
    out = [e]
    for _ in range(size - 1):
        out.append(field.frobenius(out[-1], field.degree // size))
    return out


# A product of two packed values of more than this many bits at the
# tightest slot width unpacks faster through one `struct` layout of
# 64-bit slots than slot by slot, by shifts.
_STRUCT_BITS = 448


class _Ring:
    """F[x]/(m), m monic of degree n >= 1 over F = F_p (k = 1) or over
    F_{p^k} = F_p[t]/(base.m), `base` the field's ring: elements are flat
    digit tuples (digit j of coefficient i at index i*k + j), and reduce
    takes a sum of up to `terms` products of packed elements to digits.
    A ring over F_p with m irreducible is the field F_p[x]/(m), with
    Euclid for polynomials over it (n digits per coefficient)."""

    __slots__ = ("p", "k", "n", "m", "base", "width", "shifts", "high",
                 "nonunit", "unit_mask", "folds", "rows", "layouts", "span",
                 "widths")

    def __init__(self, p: int, m, terms: int, base: "_Ring" = None,
                 widths=None):
        k = base.n if base else 1
        n = len(m) // k - 1
        assert n >= 1, "the modulus must have positive degree"
        self.p, self.k, self.n, self.m, self.base = p, k, n, tuple(m), base
        stride = 2 * k - 1
        self.width = width = _slot_width(p, k, n, terms)
        # the product slots that are not reduced digits, in slot order:
        # t^j x^i with j >= k and i < n, then every t^j x^i with i >= n
        self.nonunit = [i * stride + j for i in range(2 * n - 1)
                        for j in range(stride) if i >= n or j >= k]
        self.high = [s * width for s in self.nonunit]
        self.shifts = [(i // k * stride + i % k) * width for i in range(n * k)]
        digit = (1 << width) - 1
        self.unit_mask = sum(digit << s for s in self.shifts)
        # with 64-bit slots, layouts[c] packs the digits of c <= n
        # coefficients, gap slots left zero, and span every slot of a
        # product of two elements
        self.layouts = [struct.Struct("<" + f"{k}Q{8 * (stride - k)}x" * count)
                        for count in range(n + 1)] if width == 64 else None
        self.span = (struct.Struct(f"<{(2 * n - 1) * stride}Q")
                     if width == 64 else None)
        self.widths = widths  # width -> ring, shared by `widen`
        # the rows of the nonunit slots, in the same order, as digits and
        # packed: t^j reduced by the field modulus, then t^j x^i mod m
        self.folds, self.rows = self._folds()

    def _folds(self):
        """(digits, packed) of the rows of the nonunit slots, each from an
        earlier row times t or x."""
        p, k, n, width = self.p, self.k, self.n, self.width
        gaps = [(0,) * (i * k) + row for i in range(n)
                for row in (self.base.folds if self.base else ())]
        folds, packed_gaps = list(gaps), [self.pack(g) for g in gaps]
        rows = list(packed_gaps)
        first = tuple(-d % p for d in self.m[:n * k])  # x^n
        xn = []  # t^j x^n mod m, j < k, packed
        for i in range(n, 2 * n - 1):
            if i > n:  # x * (x^(i-1) mod m): its top coefficient folds by xn
                first = self.digits(self.pack((0,) * k + first[:-k])
                                    + sum(map(mul, first[-k:], xn)))
            row = first
            for j in range(2 * k - 1):
                if j:  # t * (t^(j-1) x^i mod m): each top digit folds by t^k
                    row = self.digits((packed << width & self.unit_mask)
                                      + sum(map(mul, row[k - 1::k],
                                                packed_gaps[::k - 1])))
                packed = self.pack(row)
                folds.append(row)
                rows.append(packed)
                if i == n and j < k:
                    xn.append(packed)
        return folds, rows

    def widen(self, terms: int) -> "_Ring":
        """This ring with slots for sums of up to `terms` products, built
        once per slot width."""
        if self.widths is None:
            self.widths = {self.width: self}
        width = _slot_width(self.p, self.k, self.n, terms)
        if width not in self.widths:
            self.widths[width] = _Ring(self.p, self.m, terms, self.base,
                                       self.widths)
        return self.widths[width]

    def pack(self, flat) -> int:
        """The packed int of flat digits."""
        if self.layouts:
            return int.from_bytes(self.layouts[len(flat) // self.k]
                                  .pack(*flat), "little")
        return sum(map(lshift, flat, self.shifts))

    def reduce(self, v: int) -> tuple:
        """The reduced digits of a sum of products: the nonunit slots mod p
        fold back by their packed rows, then the unit slots mod p."""
        p = self.p
        if self.layouts:
            span = self.span
            slots = span.unpack(v.to_bytes(span.size, "little"))
            return self.digits(sum(map(mul, [slots[s] % p for s in
                                             self.nonunit], self.rows),
                                   v & self.unit_mask))
        digit = (1 << self.width) - 1
        v = sum(map(mul, [(v >> s & digit) % p for s in self.high],
                    self.rows), v & self.unit_mask)
        return tuple([(v >> s & digit) % p for s in self.shifts])

    def digits(self, v: int) -> tuple:
        """The digits mod p of a packed value with nothing in the nonunit
        slots."""
        p = self.p
        if self.layouts:
            layout = self.layouts[self.n]
            return tuple([d % p for d in layout.unpack(
                v.to_bytes(layout.size, "little"))])
        digit = (1 << self.width) - 1
        return tuple([(v >> s & digit) % p for s in self.shifts])

    def mul(self, a, b) -> tuple:
        """a * b mod m."""
        return self.reduce(self.pack(a) * self.pack(b))

    def pow(self, a, e: int) -> tuple:
        """a^e mod m, left to right with a packed once."""
        if not e:
            return self.digits(1)
        base = self.pack(a)
        for bit in bin(e)[3:]:
            v = self.pack(a)
            a = self.reduce(v * v)
            if bit == "1":
                a = self.reduce(self.pack(a) * base)
        return a

    def frobenius_table(self, powers, frob_rows) -> list:
        """Packed rows for `apply`: u -> u^p, from powers[j] = x^(j p) mod
        m, j < n, and the field's Frobenius rows: row j*k + d is
        t^(d p) x^(j p), a product of two packed elements left unreduced.
        The ring must be built for at least k(p - 1) terms."""
        scalars = [self.pack(c) for c in frob_rows]
        return [s * x for x in map(self.pack, powers) for s in scalars]

    def apply(self, u, table: list) -> tuple:
        """The F_p-linear map with these packed rows at the digits u: each
        digit times its row, summed, then read once, so every slot must
        hold its sum. The ring's kind decides the read:
        - a field's own ring (no `base`) applies rows packed from reduced
          digits (Frobenius steps, embeddings): a slot sums at most n
          digit-times-row products, which its slots hold, and the
          nonunit slots stay empty, so the sum is read by `digits`;
        - a quotient ring over a field applies `frobenius_table`'s
          unreduced products, so it is built for k(p - 1) terms and the
          sum is folded by `reduce`."""
        v = sum(map(mul, u, table))
        return self.reduce(v) if self.base else self.digits(v)

    # Euclid over the field F_p[x]/(m), on polynomials whose coefficients
    # are n digits each

    def trim(self, a) -> tuple:
        """The polynomial a without its zero top coefficients."""
        i, n = len(a), self.n
        while i and not a[i - 1]:
            i -= 1
        return tuple(a[:(i + n - 1) // n * n])

    def _coefficients(self, terms: int):
        """(pack, reduce, spread, gather) for coefficients that sum up to
        `terms` products: pack and reduce one coefficient, and pack the
        coefficients of a polynomial and unpack a list of them to digits.
        Over F_p a digit is its own packed coefficient, reduced mod p."""
        p, n = self.p, self.n
        if n == 1:
            return sum, (lambda v: (v % p,)), list, (
                lambda work: [w % p for w in work])
        ring = self.widen(terms)
        pack, reduce = ring.pack, ring.reduce
        return pack, reduce, (
            lambda a: [pack(a[i:i + n]) for i in range(0, len(a), n)]), (
            lambda work: [d for w in work for d in reduce(w)])

    def monic(self, a) -> tuple:
        """The nonzero polynomial a over its leading coefficient."""
        pack, _, spread, gather = self._coefficients(1)
        inv = pack(self.inverse(a[-self.n:]))
        return tuple(gather([w * inv for w in spread(a)]))

    def divmod(self, a, b):
        """Quotient and remainder of the trimmed polynomial a by the
        trimmed nonzero b, on packed coefficients. Each step reads one
        leading coefficient (times 1/lc(b) unless b is monic) and adds
        its packed product with each lower coefficient of b to the
        dividend's, which are unpacked only at the end: a coefficient
        sums at most one product per step."""
        p, n = self.p, self.n
        la, lb = len(a) // n, len(b) // n
        if la < lb:
            return (), tuple(a)
        if n == 1:  # over F_p a coefficient is its own digit
            work, neg = list(a), [p - d for d in b[:-1]]
            inv, quot = pow(b[-1], -1, p), []
            for i in range(la - 1, lb - 2, -1):
                c = work[i] * inv % p
                quot.append(c)
                if c:
                    low = i - lb + 1
                    work[low:i] = [w + c * x for w, x in zip(work[low:i], neg)]
            quot.reverse()
            return tuple(quot), self.trim([w % p for w in work[:lb - 1]])
        pack, reduce, spread, gather = self._coefficients(la - lb + 2)
        work, neg = spread(a), spread([-d % p for d in b[:-n]])
        lead = b[-n:]
        inv = None if lead[0] == 1 and not any(lead[1:]) else pack(
            self.inverse(lead))
        quot = []
        for i in range(la - 1, lb - 2, -1):
            c = reduce(work[i])
            if inv is not None:
                c = reduce(pack(c) * inv)
            quot.append(c)
            if any(c):
                c, low = pack(c), i - lb + 1
                work[low:i] = [w + c * x for w, x in zip(work[low:i], neg)]
        quot.reverse()
        return (tuple(chain.from_iterable(quot)),
                self.trim(gather(work[:lb - 1])))

    def gcd(self, a, b) -> tuple:
        """The monic gcd of the trimmed polynomials a and b, () when both
        are zero."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a) if a else a

    def inverse(self, a) -> tuple:
        """1/a for a nonzero element a. Over F_p a power; else extended
        Euclid over F_p on digit lists: r_i = s_i * a mod m, from
        (r_0, s_0) = (m, 0) and (r_1, s_1) = (a, 1), down to a constant
        r_i, nonzero as m is irreducible; then 1/a = s_i / r_i."""
        p, n = self.p, self.n
        if n == 1:
            return (pow(a[0], -1, p),)
        r0, r1 = list(self.m), list(a)
        while not r1[-1]:
            r1.pop()
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
            r0, r1 = r1, r0[:d]
            while not r1[-1]:
                r1.pop()
            # deg s0 < deg s1, so s's top coefficient is -lc(q) lc(s1) != 0
            s0, s1 = s1, [x % p for x in s]
        inv = pow(r1[0], -1, p)
        return tuple(x * inv % p for x in s1) + (0,) * (n - len(s1))


def _slot_width(p: int, k: int, n: int, terms: int) -> int:
    """The least slot width W of `_Ring` for sums of up to `terms`
    products, or 64 (a struct layout) for a product of more than
    _STRUCT_BITS bits: a product slot sums at most n*k digit products and
    the fold adds one per nonunit slot, so 2^W > (terms n k + nonunit
    slots) (p - 1)^2."""
    span = (2 * n - 1) * (2 * k - 1)
    width = ((terms * n * k + span - n * k) * (p - 1) ** 2).bit_length()
    return 64 if width <= 64 and span * width > _STRUCT_BITS else width


@functools.lru_cache(maxsize=None)
def build_extension(p: int, k: int) -> Field:
    """Field with p^k elements; k = 1 gives the prime field itself.

    The modulus is found by seeded random search over monic degree-k
    candidates, so the result is reproducible for fixed (p, k).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    if k == 1:
        return PrimeField(p)
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
            return ExtensionField(p, k, cand)


def _power_rows(field: ExtensionField, x, n: int) -> list:
    """The row table of payloads x^i, i < n: the map sending t to x."""
    rows = [field._one_payload()]
    for _ in range(n - 1):
        rows.append(field._mul(rows[-1], x))
    return rows


@functools.lru_cache(maxsize=None)
def payload_lift(src: Field, dst: Field):
    """The payload map of `embedding(src, dst)`; None when dst is src.

    From F_p it is the canonical map. Between extensions it applies the
    rows r^i, i < [src : F_p], packed in dst's ring, where r is the
    smallest-code root in dst of src's modulus whose map agrees with
    payload_lift(S, dst) on the image of the generator of S under
    payload_lift(S, src), for every proper subfield S of src of degree
    >= 2. So embeddings compose: payload_lift(mid, dst) after
    payload_lift(src, mid) is payload_lift(src, dst) (Bosma-Cannon-Steel,
    "Lattices of compatibly embedded finite fields", 1997). A root
    qualifies: the roots are r_0^(p^i), i < [src : F_p], the constraint
    of S fixes i mod [S : F_p], and built in order of degree these agree
    on each intersection of subfields, so one i meets them all (CRT).
    Built once per pair.
    """
    if src == dst:
        return None
    if isinstance(src, PrimeField):
        assert dst.characteristic() == src.p
        return dst._from_int
    assert isinstance(src, ExtensionField) and isinstance(dst, ExtensionField)
    assert src.p == dst.p and dst.k % src.k == 0
    from .unipoly import roots_in_field
    modulus = [dst.from_int(c) for c in src.modulus]
    rng = random.Random(f"fanolines-embed-{src.key()}-{dst.key()}")
    # the generator of each proper subfield, embedded in src and in dst
    gens = [build_extension(src.p, s).generator() for s in range(2, src.k)
            if src.k % s == 0]
    images = [(payload_lift(g.field, src)(g.payload),
               payload_lift(g.field, dst)(g.payload)) for g in gens]
    ring = dst.ring
    for root in roots_in_field(modulus, dst, rng, orbit=1):
        table = [ring.pack(row) for row in _power_rows(dst, root.payload,
                                                       src.k)]
        if all(ring.apply(c, table) == image for c, image in images):
            return lambda c: ring.apply(c, table)
    raise AssertionError("no root agrees with the subfield embeddings")


def embedding(src: Field, dst: Field):
    """Deterministic field homomorphism src -> dst between finite fields,
    src a subfield of dst abstractly (same p, src degree dividing dst
    degree): `payload_lift` on FieldElements."""
    lift = payload_lift(src, dst)
    if lift is None:
        return lambda e: e
    return lambda e: FieldElement(dst, lift(e.payload))


@functools.lru_cache(maxsize=None)
def subfield_table(sub: Field, top: Field) -> dict:
    """{payload in top: payload in sub} over the image of
    `payload_lift(sub, top)`, sub a proper subfield of top: the inverse
    of that map. Embeddings compose, so a point over top of a system
    embedded from a field below sub comes down to the point over sub of
    the same system embedded into sub. Built once per pair of fields.
    """
    lift = payload_lift(sub, top)
    return {lift(c): c for c in (sub.element_from_code(code).payload
                                 for code in range(sub.order()))}


def relative_extension(ground: Field, k: int):
    """(E, embed) with [E : ground] = k; E is deterministic per (ground, k)."""
    if k == 1:
        return ground, (lambda e: e)
    ext = build_extension(ground.p, ground.degree * k)
    return ext, embedding(ground, ext)

