"""Univariate polynomials over a finite field: distinct-degree
factorization and root extraction (Cantor-Zassenhaus 1981; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 14).

The public functions take and return little-endian lists of FieldElement.
Inside, the arithmetic runs on raw payload lists (no trailing zeros)
through the field's payload hooks, so the hot loops build no
FieldElement.

Solving factors an eliminant once over the ground field F_q0:
distinct_degree_factorization takes gcd(x^(q0^j) - x, e) for j = 1, 2, ...
and returns, for each j, the product of the irreducible factors of degree
j. Every root of that degree-j part has residue degree exactly j, so it
is split over F_(q0^j) and nowhere else: roots_in_field(..., orbit=j)
finds one root per Frobenius orbit by descent into the smaller factor of
each random split, takes its conjugates a^q0, ..., a^(q0^(j-1)) and
divides the orbit out. Without the orbit size it takes gcd(a, x^Q - x)
and splits that down to linear factors.

Over F_Q, Q = p^D, the splitting power (x + r)^((Q-1)/2) and x^Q are not
taken by squaring up to Q: from x^p mod the polynomial, each p-th power
is one Frobenius step, sum of c_j^p * x^(j*p), so a power costs about
log p + 2D products instead of 1.5 * D * log p.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from .errors import ZeroInversion
from .field import Field, FieldElement


class _Arith:
    """Polynomial arithmetic on payload lists over one field; moduli and
    divisors are monic."""

    __slots__ = ("add", "sub", "mul", "inv", "is_zero", "zero", "one", "p",
                 "degree", "frob_rows")

    def __init__(self, field: Field):
        self.add, self.sub, self.mul = field._add, field._sub, field._mul
        self.inv, self.is_zero = field._inv, field._is_zero
        self.zero, self.one = field._zero_payload(), field._one_payload()
        self.p = field.characteristic()
        self.degree = field.degree
        # c -> c^p is F_p-linear: rows are the images of the basis t^i
        self.frob_rows = [] if self.degree == 1 else [
            field.frobenius(FieldElement(field, tuple(
                int(i == j) for j in range(self.degree)))).payload
            for i in range(self.degree)]

    def frob(self, c):
        """c^p for a payload of an extension field."""
        out = [0] * self.degree
        for ci, row in zip(c, self.frob_rows):
            if ci:
                for i, v in enumerate(row):
                    out[i] += ci * v
        return tuple(v % self.p for v in out)

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

    def mulmod(self, a: list, b: list, m: list) -> list:
        if not a or not b:
            return []
        add, mul, is_zero = self.add, self.mul, self.is_zero
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if is_zero(ai):
                continue
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
        return self.rem(out, m)

    def powmod(self, base: list, e: int, m: list) -> list:
        """base^e mod the monic m."""
        result = self.rem([self.one], m)
        base = self.rem(base, m)
        while e:
            if e & 1:
                result = self.mulmod(result, base, m)
            e >>= 1
            if e:
                base = self.mulmod(base, base, m)
        return result

    def inverse(self, a: list, m: list) -> list:
        """The inverse of a modulo the monic m, by extended Euclid; raises
        ZeroInversion when they share a factor. Every Bezout coefficient
        has degree below deg m, so the quotient products are taken mod m."""
        mul = self.mul
        r0, r1 = m, self.trim(a)
        s0, s1 = [], [self.one]  # s_i * a = r_i mod m
        while r1:
            inv = self.inv(r1[-1])
            q, r = self.divmod(r0, [mul(c, inv) for c in r1])
            q = [mul(c, inv) for c in q]  # r0 = q * r1 + r
            r0, r1 = r1, r
            s0, s1 = s1, self.sub_poly(s0, self.mulmod(q, s1, m))
        if len(r0) != 1:
            raise ZeroInversion("element shares a factor with the modulus")
        inv = self.inv(r0[0])
        return [mul(c, inv) for c in s0]

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

    def frobenius_table(self, xp: list, m: list) -> list:
        """x^(j*p) mod m for j < deg m, from xp = x^p mod a multiple of m."""
        x1 = self.rem(xp, m)
        table = [[self.one], x1]
        while len(table) < len(m) - 1:
            table.append(self.mulmod(table[-1], x1, m))
        return table

    def frobenius(self, u: list, table: list) -> list:
        """u^p mod m for u reduced mod m: sum of c_j^p * x^(j*p)."""
        add, mul = self.add, self.mul
        out = [self.zero] * (len(table) or 1)
        for c, xj in zip(u, table):
            if self.is_zero(c):
                continue
            c = self.frob(c)
            for i, v in enumerate(xj):
                out[i] = add(out[i], mul(c, v))
        return self.trim(out)


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
    table = ar.frobenius_table(xp, f) if ar.degree > 1 else []
    while True:
        r = field.sample(rng).payload
        b = ar.powmod([r, ar.one], (ar.p - 1) // 2, f)
        h = b
        for _ in range(ar.degree - 1):
            b = ar.frobenius(b, table)
            h = ar.mulmod(h, b, f)
        g = ar.gcd(ar.sub_poly(h, [ar.one]), f)
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
        root = ar.sub(ar.zero, g[0])
        for i in range(orbit):
            if i:
                for _ in range(steps):
                    root = ar.frob(root)
            roots.append(root)
            f = ar.deflate(f, root)
    return roots


def _split_roots(ar: _Arith, f: list, field: Field, xp: list,
                 rng: random.Random) -> list:
    """Every root in the field: gcd(x^Q - x, f), split down to linears."""
    xq = xp  # x^Q mod f, Q = p^D, by D - 1 Frobenius steps from x^p
    if ar.degree > 1:
        table = ar.frobenius_table(xp, f)
        for _ in range(ar.degree - 1):
            xq = ar.frobenius(xq, table)
    roots = []
    stack = [ar.gcd(ar.sub_poly(xq, [ar.zero, ar.one]), f)]
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append(ar.sub(ar.zero, g[0]))
        elif len(g) > 2:
            h = _split_one(ar, g, field, xp, rng)
            stack.append(h)
            stack.append(ar.divmod(g, h)[0])
    return roots


def roots_in_field(a: List[FieldElement], field: Field, rng: random.Random,
                   *, orbit: Optional[int] = None) -> List[FieldElement]:
    """Distinct roots of `a` lying in the finite field itself, sorted.

    orbit=j promises that `a` is a product of distinct irreducible factors
    of degree j over the subfield F_q0 of index j (q0^j = |field|), e.g.
    the degree-j part of a distinct-degree factorization over F_q0, mapped
    into the field. Then every root has exactly j conjugates over F_q0 and
    the roots come one orbit at a time. The rng only influences internal
    splitting choices.
    """
    assert field.is_finite
    ar = _Arith(field)
    f = _payloads(a, ar)
    if len(f) <= 1:
        return []  # constants (callers guard the zero polynomial)
    f = ar.monic(f)
    if len(f) == 2:
        roots = [ar.sub(ar.zero, f[0])]
    else:
        xp = ar.powmod([ar.zero, ar.one], ar.p, f)
        if orbit is None:
            roots = _split_roots(ar, f, field, xp, rng)
        else:
            assert ar.degree % orbit == 0
            roots = _orbit_roots(ar, f, field, xp, orbit, rng)
    elems = [FieldElement(field, r) for r in roots]
    elems.sort(key=field.code_of)
    return elems
