"""Univariate polynomials over a finite field: distinct-degree
factorization and root extraction (Cantor-Zassenhaus 1981; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 14).

The public functions take and return little-endian lists of FieldElement.
Inside, a polynomial over F_(p^k) is a flat digit tuple, digit j of
coefficient i at index i*k + j, and all its arithmetic is the field's
`_Ring` (`field.py`): gcds, divisions and monic forms by the Euclid of
the field's own ring, deflations by x - root by its synthetic division,
and products, powers and Frobenius steps (`_Ring.apply` on packed rows)
by a ring for F_(p^k)[x]/(m), built from the field's fold rows with
slots for a Frobenius sum. The hot loops build no FieldElement.

Solving factors an eliminant once over the ground field F_q0:
distinct_degree_factorization takes gcd(x^(q0^j) - x, e) for j = 1, 2, ...
and returns, for each j, the product of the irreducible factors of degree
j. It works in one ring, F_q0[x]/(e): x^p by squaring once, then each
q0-th power as [F_q0 : F_p] Frobenius steps (von zur Gathen-Shoup 1992),
over F_p and its extensions alike. Every root of that degree-j part has
residue degree exactly j, so it is split over F_(q0^j) and nowhere else:
roots_in_field(..., orbit=j) finds one root per Frobenius orbit by
descent into the smaller factor of each random split, takes its
conjugates a^q0, ..., a^(q0^(j-1)) through the field's Frobenius row
table and divides the orbit out. With orbit=1 the same descent roots any
product of distinct linear factors, such as the modulus of a subfield.

Over F_Q, Q = p^D, the splitting power (x + r)^((Q-1)/2) is not taken by
squaring up to Q either: from x^p mod the polynomial, each p-th power is
one Frobenius step, sum of c_j^p * x^(j*p), so a power costs about
log p + 2D products instead of 1.5 * D * log p. x^p itself is taken over
the field the part comes in, F_q0 from the factorization, and lifted into
F_Q: for a line count over F_10007 that is a ring with one digit per
coefficient, not D.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Dict, List

from .field import Field, FieldElement, _Ring, payload_lift


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


def _quotient_ring(field: Field, m) -> _Ring:
    """F[x]/(m) for the monic flat m, with slots for a Frobenius sum
    (`_Ring.frobenius_table`)."""
    p = field.characteristic()
    return _Ring(p, m, field.degree * (p - 1), field.ring)


def distinct_degree_factorization(e: List[FieldElement], field: Field,
                                  k_max: int) -> Dict[int, List[FieldElement]]:
    """{j: product of the distinct monic irreducible degree-j factors of e}
    for j <= k_max, omitting the j with no such factor.

    All powers are taken in one ring, F_q[x]/(e), q = p^k: x^p once by
    squaring, and then each q-th power w^q as k Frobenius steps from the
    table of x^(i*p) mod e. As f | e, w mod e reduced mod f is w mod f,
    so the gcds run against the shrinking f and w is never reduced
    again. gcd(x^(q^j) - x, f) is squarefree, so repeated factors, p-th
    powers included, need no derivative: once found, every copy of a
    factor is divided out of f and later steps never see it again.
    """
    base, k = field.ring, field.degree
    f = _flat(e, field)
    assert f, "the zero polynomial has no factorization"
    f = base.monic(f)
    x = (0,) * k + (1,) + (0,) * (k - 1)
    w = x
    parts: Dict[int, tuple] = {}
    for j in range(1, k_max + 1):
        degree = len(f) // k - 1
        if degree < 2 * j:
            # every factor has degree >= j, so a reducible f has degree >= 2j
            if 0 < degree <= k_max:
                parts[degree] = f
            break
        if j == 1:  # f is still e
            ring = _quotient_ring(field, f)
            table = ring.frobenius_table(
                ring.pow(x, field.characteristic()), field.frob_rows)
        for _ in range(k):
            w = ring.apply(w, table)
        g = base.gcd(_sub(base, w, x), f)
        if len(g) > k:
            parts[j] = g
            while len(g) > k:  # every copy of every factor of g
                f = base.divmod(f, g)[0]
                g = base.gcd(f, g)
    return {j: _elements(field, part) for j, part in sorted(parts.items())}


def _split_one(field: Field, f, xp, rng: random.Random) -> tuple:
    """A proper monic factor of f, a product of linear factors over the
    field F_Q, Q = p^D, from gcd((x + r)^((Q-1)/2) - 1, f) for random r.

    (Q-1)/2 = (p-1)/2 * (1 + p + ... + p^(D-1)), so the power is
    b * b^p * ... * b^(p^(D-1)) with b = (x + r)^((p-1)/2): each p-th power
    is a Frobenius step from the table of x^(j*p) mod f, built from xp =
    x^p mod a multiple of f. Over F_p (D = 1) there is no step, and xp is
    None.
    """
    k, p = field.degree, field.characteristic()
    d = len(f) // k - 1
    ring = _quotient_ring(field, f)
    one = (1,) + (0,) * (k - 1)
    if k > 1:
        table = ring.frobenius_table(field.ring.divmod(xp, f)[1],
                                     field.frob_rows)
    while True:
        b = ring.pow(_flat([field.sample(rng), field.one()], field),
                     (p - 1) // 2)
        h = b
        for _ in range(k - 1):
            b = ring.apply(b, table)
            h = ring.mul(h, b)
        g = field.ring.gcd(_sub(field.ring, h, one), f)
        if 0 < len(g) // k - 1 < d:
            return g


def _orbit_roots(field: Field, f, xp, orbit: int,
                 rng: random.Random) -> list:
    """One root per Frobenius orbit by descent, then its conjugates."""
    ring, k = field.ring, field.degree
    steps = k // orbit  # root^q0 is `steps` Frobenius steps
    roots = []
    while len(f) > k:
        g = f
        while len(g) > 2 * k:
            h = _split_one(field, g, xp, rng)
            g = h if 2 * len(h) <= len(g) + k else ring.divmod(g, h)[0]
        root = -_elements(field, g[:k])[0]
        for i in range(orbit):
            if i:
                root = field.frobenius(root, steps)
            roots.append(root)
            f = ring.deflate(f, root.payload if k > 1 else (root.payload,))
    return roots


def roots_in_field(a: List[FieldElement], field: Field, rng: random.Random,
                   *, orbit: int) -> List[FieldElement]:
    """Distinct roots of `a` lying in the finite field itself, sorted.

    orbit=j promises that `a` is a product of distinct irreducible factors
    of degree j over the subfield F_q0 of index j (q0^j = |field|), e.g.
    the degree-j part of a distinct-degree factorization over F_q0. Then
    sigma: x -> x^q0 fixes the coefficients, so it permutes the roots,
    and every root has exactly j conjugates r, sigma(r), ...,
    sigma^(j-1)(r): the roots come one orbit at a time. The rng only
    influences internal splitting choices.

    The coefficients of `a` lie in the field or in a subfield F_s of it,
    such as F_q0 for a part as the factorization returns it. Over an
    extension the splitting starts from x^p mod a, and that is taken where
    `a` lives, in F_s[x]/(a), then lifted (`payload_lift`): embedding F_s
    is a ring map, so it sends x^p mod a to x^p mod the embedded a. For a
    part over F_10007 split in F_(10007^6) the power runs on one digit
    per coefficient instead of six.
    """
    assert field.degree % orbit == 0
    sub = a[0].field if a else field
    k, s, p = field.degree, sub.degree, field.characteristic()
    assert k % s == 0
    f = _flat(a, sub)
    if len(f) <= s:
        return []  # constants (callers guard the zero polynomial)
    f = sub.ring.monic(f)
    if len(f) == 2 * s:
        return [-_elements(field, _lift(sub, field, f[:s]))[0]]
    x = (0,) * s + (1,) + (0,) * (s - 1)
    # over F_p a split is one power of x + r, and _split_one reads no x^p
    xp = (_lift(sub, field, sub.ring.trim(_quotient_ring(sub, f).pow(x, p)))
          if k > 1 else None)
    roots = _orbit_roots(field, _lift(sub, field, f), xp, orbit, rng)
    return sorted(roots, key=field.code_of)
