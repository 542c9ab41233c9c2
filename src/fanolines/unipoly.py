"""Univariate polynomials over a finite field: distinct-degree
factorization and root extraction (Cantor-Zassenhaus 1981; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 14).

The public functions take and return little-endian lists of FieldElement.
Inside, the arithmetic runs on raw payload lists (no trailing zeros)
through the field's payload hooks, so the hot loops build no
FieldElement. Field inverses are the field's own (extended Euclid in
`field.py`); this module serves factorization and roots only.

Every product modulo a polynomial m of degree n over F_(p^k) is one
Python int product, by Kronecker substitution (ibid., ch. 8; CPython
multiplies big ints by Karatsuba). A polynomial of length <= n is packed
with digit j of coefficient i, its t^j coefficient in [0, p), in slot
i*(2k - 1) + j; the stride 2k - 1 leaves room for the digits t^j,
j <= 2k - 2, of a product, and is 1 when k = 1. The slot width W is the
least multiple of 64 bits with 2^W > (2n + 1)(2k - 1) k p^3, which bounds
every slot of a product of two packed polynomials, of the reduction
below and of a Frobenius sum, so no slot carries into the next. The
product is unpacked once. Its digits t^j x^i with i >= n or j >= k are
taken mod p and folded back in one sum of small multiples of packed rows
(t^j x^i reduced mod m and the field modulus, one table per m); one more
unpack mod p gives the reduced digits. Between products the operands of
powers and Frobenius steps stay flat digit lists, digit j of coefficient
i at index i*k + j, not payload tuples. With 64-bit slots, packing and
unpacking go through one `struct` layout; the wider slots that primes
above about 2^18 need are shifted and masked one by one.

Solving factors an eliminant once over the ground field F_q0:
distinct_degree_factorization takes gcd(x^(q0^j) - x, e) for j = 1, 2, ...
and returns, for each j, the product of the irreducible factors of degree
j. Every root of that degree-j part has residue degree exactly j, so it
is split over F_(q0^j) and nowhere else: roots_in_field(..., orbit=j)
finds one root per Frobenius orbit by descent into the smaller factor of
each random split, takes its conjugates a^q0, ..., a^(q0^(j-1)) through
the field's Frobenius row table and divides the orbit out. With orbit=1
the same descent roots any product of distinct linear factors, such as
the modulus of a subfield.

Over F_Q, Q = p^D, the splitting power (x + r)^((Q-1)/2) is not taken by
squaring up to Q: from x^p mod the polynomial, each p-th power is one
Frobenius step, sum of c_j^p * x^(j*p), so a power costs about
log p + 2D products instead of 1.5 * D * log p.
"""

from __future__ import annotations

import random
from operator import mul
from struct import Struct
from typing import Dict, List

from .field import Field, FieldElement


class _Ring:
    """F[x]/(m) for one monic m of degree n >= 1 over F = F_(p^k), by
    packed products (see the module docstring). Elements are flat digit
    lists of at most n*k digits."""

    __slots__ = ("p", "k", "n", "stride", "width", "one", "frob_rows",
                 "unit_mask", "nonunit", "rows", "layouts", "span")

    def __init__(self, ar: "_Arith", m: list):
        p, k, n = ar.p, ar.degree, len(m) - 1
        assert n >= 1, "the modulus must have positive degree"
        self.p, self.k, self.n = p, k, n
        self.one, self.frob_rows = ar.one, ar.frob_rows
        self.stride = stride = 2 * k - 1
        self.width = width = 64 * -(-((2 * n + 1) * stride * k * p**3)
                                     .bit_length() // 64)
        # with 64-bit slots, layouts[c] packs the digits of c <= n
        # coefficients, gap slots left zero
        self.layouts = [Struct("<" + f"{k}Q{8 * (stride - k)}x" * count)
                        for count in range(n + 1)] if width == 64 else []
        # every slot of a product of two reduced polynomials: their layout,
        # or their count when slots are wider
        span = (2 * n - 1) * stride
        self.span = Struct(f"<{span}Q") if width == 64 else span
        digit = (1 << width) - 1
        self.unit_mask = sum(digit << ((i * stride + j) * width)
                             for i in range(n) for j in range(k))
        # the product slots that are not reduced digits, in slot order:
        # t^j x^i with j >= k and i < n, then every t^j x^i with i >= n
        self.nonunit = [i * stride + j for i in range(2 * n - 1)
                        for j in range(stride) if i >= n or j >= k]
        # their rows in the same order: t^j reduced by the field modulus,
        # then t^j x^i mod m, each from an earlier row times t or x
        gaps = [self.pack(self.flat([ar.zero] * i + [c]))
                for i in range(n) for c in ar.overflow]
        self.rows = rows = list(gaps)
        first = self.flat([ar.sub(ar.zero, c) for c in m[:n]])  # x^n
        xn = []  # t^j x^n mod m, j < k
        for i in range(n, 2 * n - 1):
            if i > n:  # x * (x^(i-1) mod m): its top coefficient folds by xn
                first = self.digits(self.pack([0] * k + first[:-k])
                                    + sum(map(mul, first[-k:], xn)))
            row = first
            for j in range(stride):
                if j:  # t * (t^(j-1) x^i mod m): each top digit folds by t^k
                    row = self.digits((packed << width & self.unit_mask)
                                      + sum(map(mul, row[k - 1::k],
                                                gaps[::k - 1])))
                packed = self.pack(row)
                rows.append(packed)
                if i == n and j < k:
                    xn.append(packed)

    def _slot(self, i: int) -> int:
        """The slot of flat index i."""
        return i // self.k * self.stride + i % self.k

    def pack(self, flat: list) -> int:
        """The packed int of a flat digit list."""
        if self.width == 64:
            return int.from_bytes(self.layouts[len(flat) // self.k]
                                  .pack(*flat), "little")
        width = self.width
        return sum(d << self._slot(i) * width for i, d in enumerate(flat))

    def reduce(self, v: int) -> list:
        """The reduced flat digits (n*k) of a packed value with slots below
        (2n - 1)(2k - 1) and slot values below 2^W."""
        p, width, span = self.p, self.width, self.span
        if width == 64:
            slots = span.unpack(v.to_bytes(span.size, "little"))
        else:
            slots = [v >> s * width & (1 << width) - 1 for s in range(span)]
        return self.digits(sum(
            map(mul, [slots[s] % p for s in self.nonunit], self.rows),
            v & self.unit_mask))

    def digits(self, v: int) -> list:
        """The flat digits mod p of a packed value of n coefficients with
        nothing in the slots t^j, j >= k."""
        p, width = self.p, self.width
        if width == 64:
            layout = self.layouts[self.n]
            return [d % p for d in layout.unpack(v.to_bytes(layout.size,
                                                            "little"))]
        return [(v >> self._slot(i) * width & (1 << width) - 1) % p
                for i in range(self.n * self.k)]

    def flat(self, a: list) -> list:
        """The flat digits of a payload list."""
        return list(a) if self.k == 1 else [d for c in a for d in c]

    def trim(self, flat: list) -> list:
        """flat without its zero top coefficients."""
        i, k = len(flat), self.k
        while i and not flat[i - 1]:
            i -= 1
        return flat[:(i + k - 1) // k * k]

    def payloads(self, flat: list) -> list:
        """The payload list (no trailing zeros) of flat digits."""
        flat, k = self.trim(flat), self.k
        return flat if k == 1 else [tuple(flat[i:i + k])
                                    for i in range(0, len(flat), k)]

    def mul(self, a: list, b: list) -> list:
        """a * b mod m for reduced flat a and b."""
        return self.reduce(self.pack(a) * self.pack(b))

    def pow(self, a: list, e: int) -> list:
        """a^e mod m for a reduced flat a, left to right with a packed
        once."""
        if not e:
            return self.flat([self.one])
        base = self.pack(a)
        for bit in bin(e)[3:]:
            v = self.pack(a)
            a = self.reduce(v * v)
            if bit == "1":
                a = self.reduce(self.pack(a) * base)
        return a

    def frobenius_table(self, xp: list) -> list:
        """Packed rows for `frobenius`, from the flat xp = x^p mod m: row
        j*k + d is t^(d p) x^(j p), a product of two packed reduced
        polynomials left unreduced."""
        powers = [self.flat([self.one]), xp]
        while len(powers) < self.n:
            powers.append(self.mul(powers[-1], xp))
        scalars = [self.pack(self.flat([c])) for c in self.frob_rows]
        return [s * x for x in map(self.pack, powers[:self.n])
                for s in scalars]

    def frobenius(self, u: list, table: list) -> list:
        """u^p mod m for a reduced flat u: sum of c_j^p * x^(j*p), where
        c_j^p is F_p-linear in the digits of c_j, so u^p is the sum of
        each digit of u times its table row."""
        return self.reduce(sum(map(mul, u, table)))


class _Arith:
    """Polynomial arithmetic on payload lists over one field; moduli and
    divisors are monic. Products modulo m go through `ring(m)`."""

    __slots__ = ("add", "sub", "mul", "inv", "is_zero", "zero", "one", "p",
                 "degree", "frob_rows", "overflow", "rings")

    def __init__(self, field: Field):
        self.add, self.sub, self.mul = field._add, field._sub, field._mul
        self.inv, self.is_zero = field._inv, field._is_zero
        self.zero, self.one = field._zero_payload(), field._one_payload()
        self.p = field.characteristic()
        self.degree = k = field.degree
        self.rings: Dict[tuple, _Ring] = {}
        # the field's Frobenius row table (identity over F_p); overflow
        # holds its t^k, ..., t^(2k-2) reduced, where the digits of a
        # product of two field elements fold
        self.frob_rows, self.overflow = (([self.one], []) if k == 1
                                         else (field.frob_rows, field._red))

    def ring(self, m: list) -> _Ring:
        """Packed arithmetic modulo the monic m, built once per m."""
        key = tuple(m)
        ring = self.rings.get(key)
        if ring is None:
            ring = self.rings[key] = _Ring(self, m)
        return ring

    def trim(self, a: list) -> list:
        i = len(a)
        while i and self.is_zero(a[i - 1]):
            i -= 1
        return a[:i]

    def monic(self, a: list) -> list:
        inv = self.inv(a[-1])
        return [self.mul(c, inv) for c in a]

    def sub_poly(self, a: list, b: list) -> list:
        sub, zero = self.sub, self.zero
        n = max(len(a), len(b))
        return self.trim([sub(a[i] if i < len(a) else zero,
                              b[i] if i < len(b) else zero) for i in range(n)])

    def divmod(self, a: list, m: list):
        """Quotient and remainder of a by the monic m."""
        sub, mul, is_zero = self.sub, self.mul, self.is_zero
        a = list(a)
        dm = len(m) - 1
        quot = [self.zero] * max(len(a) - dm, 0)
        for i in range(len(a) - 1, dm - 1, -1):
            c = a[i]
            if is_zero(c):
                continue
            quot[i - dm] = c
            base = i - dm
            for j in range(dm):
                a[base + j] = sub(a[base + j], mul(c, m[j]))
        return quot, self.trim(a[:dm])

    def rem(self, a: list, m: list) -> list:
        return self.divmod(a, m)[1]

    def powmod(self, base: list, e: int, m: list) -> list:
        """base^e mod the monic m."""
        ring = self.ring(m)
        return ring.payloads(ring.pow(ring.flat(self.rem(base, m)), e))

    def gcd(self, a: list, b: list) -> list:
        """Monic gcd; [] when both are zero."""
        while b:
            b = self.monic(b)
            a, b = b, self.rem(a, b)
        return self.monic(a) if a else a

    def strip(self, f: list, g: list) -> list:
        """f with every copy of every irreducible factor of g removed."""
        while len(g) > 1:
            f = self.divmod(f, g)[0]
            g = self.gcd(f, g)
        return f

    def deflate(self, a: list, root) -> list:
        """a / (x - root) for a monic a vanishing at root."""
        add, mul = self.add, self.mul
        out = [self.zero] * (len(a) - 1)
        acc = a[-1]
        for i in range(len(a) - 2, -1, -1):
            out[i] = acc
            acc = add(a[i], mul(root, acc))
        assert self.is_zero(acc), "deflating by a non-root"
        return out


def _payloads(a: List[FieldElement], ar: _Arith) -> list:
    return ar.trim([c.payload for c in a])


def distinct_degree_factorization(e: List[FieldElement], field: Field,
                                  k_max: int) -> Dict[int, List[FieldElement]]:
    """{j: product of the distinct monic irreducible degree-j factors of e}
    for j <= k_max, omitting the j with no such factor.

    gcd(x^(q^j) - x, f) is squarefree, so repeated factors, p-th powers
    included, need no derivative: once found, every copy of a factor is
    divided out of f and later steps never see it again.
    """
    assert field.is_finite
    ar = _Arith(field)
    f = _payloads(e, ar)
    assert f, "the zero polynomial has no factorization"
    f = ar.monic(f)
    q = field.order()
    x = [ar.zero, ar.one]
    w = x
    parts: Dict[int, list] = {}
    for j in range(1, k_max + 1):
        degree = len(f) - 1
        if degree < 2 * j:
            # every factor has degree >= j, so a reducible f has degree >= 2j
            if 0 < degree <= k_max:
                parts[degree] = f
            break
        w = ar.powmod(w, q, f)
        g = ar.gcd(ar.sub_poly(w, x), f)
        if len(g) > 1:
            parts[j] = g
            f = ar.strip(f, g)
            w = ar.rem(w, f)
    return {j: [FieldElement(field, c) for c in part]
            for j, part in sorted(parts.items())}


def _split_one(ar: _Arith, f: list, field: Field, xp: list,
               rng: random.Random) -> list:
    """A proper monic factor of f, a product of linear factors over the
    field F_Q, Q = p^D, from gcd((x + r)^((Q-1)/2) - 1, f) for random r.

    (Q-1)/2 = (p-1)/2 * (1 + p + ... + p^(D-1)), so the power is
    b * b^p * ... * b^(p^(D-1)) with b = (x + r)^((p-1)/2): each p-th power
    is a Frobenius step from the table of x^(j*p) mod f, built from xp =
    x^p mod a multiple of f.
    """
    d = len(f) - 1
    ring = ar.ring(f)
    if ar.degree > 1:
        table = ring.frobenius_table(ring.flat(ar.rem(xp, f)))
    while True:
        r = field.sample(rng).payload
        b = ring.pow(ring.flat([r, ar.one]), (ar.p - 1) // 2)
        h = b
        for _ in range(ar.degree - 1):
            b = ring.frobenius(b, table)
            h = ring.mul(h, b)
        g = ar.gcd(ar.sub_poly(ring.payloads(h), [ar.one]), f)
        if 0 < len(g) - 1 < d:
            return g


def _orbit_roots(ar: _Arith, f: list, field: Field, xp: list, orbit: int,
                 rng: random.Random) -> list:
    """One root per Frobenius orbit by descent, then its conjugates."""
    steps = ar.degree // orbit  # root^q0 is `steps` Frobenius steps
    roots = []
    while len(f) > 1:
        g = f
        while len(g) > 2:
            h = _split_one(ar, g, field, xp, rng)
            g = h if 2 * (len(h) - 1) <= len(g) - 1 else ar.divmod(g, h)[0]
        root = FieldElement(field, ar.sub(ar.zero, g[0]))
        for i in range(orbit):
            if i:
                root = field.frobenius(root, steps)
            roots.append(root)
            f = ar.deflate(f, root.payload)
    return roots


def roots_in_field(a: List[FieldElement], field: Field, rng: random.Random,
                   *, orbit: int) -> List[FieldElement]:
    """Distinct roots of `a` lying in the finite field itself, sorted.

    orbit=j promises that `a` is a product of distinct irreducible factors
    of degree j over the subfield F_q0 of index j (q0^j = |field|), e.g.
    the degree-j part of a distinct-degree factorization over F_q0, mapped
    into the field. Then every root has exactly j conjugates over F_q0 and
    the roots come one orbit at a time. The rng only influences internal
    splitting choices.
    """
    assert field.is_finite and field.degree % orbit == 0
    ar = _Arith(field)
    f = _payloads(a, ar)
    if len(f) <= 1:
        return []  # constants (callers guard the zero polynomial)
    f = ar.monic(f)
    if len(f) == 2:
        roots = [FieldElement(field, ar.sub(ar.zero, f[0]))]
    else:
        xp = ar.powmod([ar.zero, ar.one], ar.p, f)
        roots = _orbit_roots(ar, f, field, xp, orbit, rng)
    return sorted(roots, key=field.code_of)
