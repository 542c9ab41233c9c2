"""Buchberger's algorithm with normal pair selection and the
Gebauer-Moeller pair update, producing the unique monic reduced basis.

Everything below the Polynomial-level API works on dicts mapping packed
monomials to raw coefficient payloads (ints mod p, Fractions, coefficient
tuples) through the field's payload hooks; exponent tuples and
FieldElement wrappers only appear at the API boundary, which packs its
input and unpacks its output.

A packed monomial is one int (see `Packing`): slots of equal width, one
per row of the order's `MonomialOrder.slots` layout, each holding a
nonnegative linear form of the exponents with a guard bit on top. For
grevlex the rows are [deg | P_{n-2} | ... | P_0 | e_{n-1} | ... | e_1]
with prefix sums P_j = e_0 + ... + e_j, for lex [e_0 | ... | e_{n-1}].
So the order is int order, a product is an int sum, a quotient an int
difference, and a | b is `d = b - a; d >= 0 and not d & guard`.

- Widening: the slot width starts at the least that holds twice the
  input degree (8 bits at the least). A term that would reach a guard
  bit (checked where a term enters a normal form's work list and where
  an lcm is packed) stops the computation, which reruns with doubled slots; the
  reduced basis and the normal form are unique, so the answer is the
  same and no exponent ever wraps.

Each basis element is kept as a reducer: its leading monomial, the
inverse of its leading coefficient and its tail. The reducer list is
extended once per basis growth and shared by every S-pair reduction.

- Pair update (Gebauer-Moeller 1988): when an element joins the basis,
  its new pairs are pruned against each other and the queued pairs it
  makes redundant are dropped, so a popped pair is reduced with no
  further check (see `buchberger_payload`).
- Reduction: the normal form keeps its work list as a dict with a heap
  of its negated packed monomials, pushed once when a monomial enters
  the dict; entries whose monomial has cancelled since are skipped when
  popped. Every step uses the first reducer whose leading monomial
  divides the current one, so the intermediate polynomials do not depend
  on the data structure.
- First-divisor memo: one dict per reducer list, from a monomial to its
  first dividing reducer, or to how many reducers it was checked against
  without one. The list only grows, so a hit stays the linear scan's
  choice and a miss resumes where it stopped.
- Inter-reduction: one normal form of each minimal-basis element's tail,
  with no fixed-point loop (see `_reduce_basis`).

Instances here are small (tens of generators, degree <= 8), so no
F4-style batching is attempted.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import chain
from operator import le as _le, mul as _mul, or_ as _or
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import ResourceLimit, ZeroPolynomial
from .field import Field
from .poly import (GREVLEX, Monomial, MonomialOrder, Polynomial, mono_lcm,
                   mono_mul)

# Groebner bases over the rationals can blow up; this caps the total bit
# size of any single polynomial's coefficients mid-computation.
DEFAULT_COEFF_BIT_LIMIT = 1_000_000

# least slot width of a packing, guard bit included
_SLOT_BITS = 8

PayloadPoly = Dict[int, object]
# (packed leading monomial, inverse leading coefficient, tail terms)
Reducer = Tuple[int, object, List[Tuple[int, object]]]


class _SlotOverflow(Exception):
    """A packed term would reach a slot's guard bit."""


class Packing:
    """Monomials in `nvars` variables as ints, for one order and one slot
    width.

    Slot k (`width` bits, the last row of `order.slots(nvars)` in slot 0)
    holds that row's weighted sum of the exponents, so x_i packs to
    `units[i]` and a monomial to sum e_i * units[i]; int order is the
    monomial order. The top bit of every slot is a guard, clear in every
    packed monomial, since no slot exceeds the degree and the degree is
    below `limit` = 2^(width-1). So for packed monomials a and b:

    - a + b is their product; a slot that reached `limit` shows as a set
      guard bit (`key & guard`), and no slot ever carries into the next;
    - a divides b exactly when d = b - a has d >= 0 and `not d & guard`:
      the lowest slot of b that is smaller than a's borrows, which sets
      its guard bit.
    """

    __slots__ = ("order", "nvars", "width", "limit", "guard", "units",
                 "_shifts")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        rows = order.slots(nvars)[::-1]  # least significant first
        self.order, self.nvars, self.width = order, nvars, width
        self.limit = 1 << (width - 1)
        self.guard = sum(self.limit << (k * width) for k in range(len(rows)))
        self.units = [sum(row[i] << (k * width) for k, row in enumerate(rows))
                      for i in range(nvars)]
        self._shifts = [rows.index(tuple(int(k == i) for k in range(nvars)))
                        * width for i in range(nvars)]

    @classmethod
    def for_degree(cls, order: MonomialOrder, nvars: int,
                   degree: int) -> "Packing":
        """The narrowest packing, at least _SLOT_BITS wide, whose slots
        hold twice `degree`."""
        return cls(order, nvars, max(_SLOT_BITS, degree.bit_length() + 2))

    def encode(self, mono: Monomial) -> int:
        if sum(mono) >= self.limit:
            raise _SlotOverflow
        return sum(map(_mul, mono, self.units))

    def decode(self, key: int) -> Monomial:
        mask = self.limit - 1
        return tuple(key >> s & mask for s in self._shifts)

    def divides(self, a: int, b: int) -> bool:
        d = b - a
        return d >= 0 and not d & self.guard


def _widening(packing: Packing, run: Callable[[Packing], object]):
    """(packing, run(packing)), doubling the slot width until no term of
    the run reaches a guard bit. A run's result (a reduced basis, a normal
    form) does not depend on the packing, so a rerun changes nothing."""
    while True:
        try:
            return packing, run(packing)
        except _SlotOverflow:
            packing = Packing(packing.order, packing.nvars, 2 * packing.width)


def _to_payload(f: Polynomial, packing: Packing) -> PayloadPoly:
    encode = packing.encode
    return {encode(m): c.payload for m, c in f.terms.items()}


def _from_payload(d: PayloadPoly, packing: Packing, field: Field,
                  nvars: int) -> Polynomial:
    decode = packing.decode
    return Polynomial.from_payloads(field, nvars,
                                    {decode(k): c for k, c in d.items()})


def _bits(c) -> int:
    return c.numerator.bit_length() + c.denominator.bit_length()


def _reducer(d: PayloadPoly, lm: int, field: Field) -> Reducer:
    return lm, field._inv(d[lm]), [(m, c) for m, c in d.items() if m != lm]


def normal_form_payload(f: PayloadPoly, reducers: Sequence[Reducer],
                        memo: Dict[int, Tuple[int, int]], packing: Packing,
                        field: Field,
                        bit_limit: int = DEFAULT_COEFF_BIT_LIMIT) -> PayloadPoly:
    """Full normal form: every term of the remainder is reduced.

    Each step reduces by the first of `reducers` whose leading monomial
    divides the work list's leading monomial; the remainder's terms come
    out in descending order. `memo` maps a monomial to (index of its
    first dividing reducer or -1, number of reducers checked); it may be
    shared by every normal form against one reducer list that is only
    ever appended to, since a divisor found stays the first one and a
    miss resumes its scan where it stopped. Over the rationals,
    ResourceLimit is raised once a reduction step leaves more than
    bit_limit bits of numerators and denominators in the work list.
    _SlotOverflow is raised when a term of `f`, or one new to the work
    list, reaches a guard bit of `packing`.
    """
    mul, sub, neg, is_zero = field._mul, field._sub, field._neg, field._is_zero
    guard = packing.guard
    push, pop = heapq.heappush, heapq.heappop
    rational = field.characteristic() == 0
    count = len(reducers)
    if reduce(_or, f, 0) & guard:
        raise _SlotOverflow
    work = dict(f)
    heap = [-m for m in work]  # a min-heap of -m pops the largest m first
    heapq.heapify(heap)
    bits = sum(map(_bits, work.values())) if rational else 0
    remainder: PayloadPoly = {}
    while heap:
        lm = -pop(heap)
        lc = work.pop(lm, None)
        if lc is None:
            continue  # cancelled after it was pushed
        if rational:
            bits -= _bits(lc)
        hit = memo.get(lm)
        if hit is None or (hit[0] < 0 and hit[1] < count):
            index = -1
            for k in range(0 if hit is None else hit[1], count):
                d = lm - reducers[k][0]
                if d >= 0 and not d & guard:
                    index = k
                    break
            hit = memo[lm] = (index, count)
        if hit[0] < 0:
            remainder[lm] = lc
            continue
        red_lm, red_inv, red_tail = reducers[hit[0]]
        shift = lm - red_lm
        factor = mul(lc, red_inv)
        if rational:
            touched = [m + shift for m, _ in red_tail]
            bits -= sum(_bits(work[k]) for k in touched if k in work)
        for m, c in red_tail:
            key = m + shift
            cur = work.get(key)
            if cur is None:
                if key & guard:
                    raise _SlotOverflow
                work[key] = neg(mul(factor, c))
                push(heap, -key)
            else:
                new = sub(cur, mul(factor, c))
                if is_zero(new):
                    del work[key]
                else:
                    work[key] = new
        if rational:
            bits += sum(_bits(work[k]) for k in touched if k in work)
            if bits > bit_limit:
                raise ResourceLimit("coefficient size exceeded during reduction")
    return remainder


def _spoly(ra: Reducer, rb: Reducer, lcm: int, field: Field) -> PayloadPoly:
    """Monic S-polynomial of two reducers whose leading monomials have
    the packed lcm `lcm`; the leading terms cancel, so only the tails are
    expanded."""
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    (lma, ca, taila), (lmb, cb, tailb) = ra, rb
    sa, sb = lcm - lma, lcm - lmb
    out: PayloadPoly = {}
    for m, c in taila:
        out[m + sa] = mul(c, ca)
    for m, c in tailb:
        key = m + sb
        cur = out.get(key)
        term = mul(c, cb)
        if cur is None:
            out[key] = field._neg(term)
        else:
            new = sub(cur, term)
            if is_zero(new):
                del out[key]
            else:
                out[key] = new
    return out


def buchberger_payload(gens: List[PayloadPoly], packing: Packing, field: Field,
                       bit_limit: int = DEFAULT_COEFF_BIT_LIMIT) -> List[PayloadPoly]:
    """Reduced Groebner basis of the nonzero packed payload polynomials.

    Pairs are kept by the Gebauer-Moeller update (Gebauer-Moeller 1988;
    Becker-Weispfenning, *Groebner Bases*, algorithm UPDATE), run once
    for each generator and each new basis element h:

    - h pairs with every live element g. A new pair is dropped when the
      lcm of another new pair divides its lcm (of equal lcms one is
      kept); coprime pairs take part in that test but are never queued.
    - A queued pair (i, j) is dropped when lm(h) divides lcm(i, j) and
      that lcm differs from both lcm(i, h) and lcm(j, h).
    - g stops being live when lm(h) divides lm(g); it stays a reducer.

    So every popped pair is reduced with no further check. The update
    runs a few hundred times per basis and keeps exponent tuples (an lcm
    is not linear in the packing); pairs pop in order of packed lcm.
    """
    decode, encode = packing.decode, packing.encode
    lms: List[Monomial] = []
    reducers: List[Reducer] = []
    live: List[int] = []
    pairs: list = []  # heap of (packed lcm, i, j, lcm), i < j

    def insert(h: PayloadPoly):
        key = max(h)
        lm = decode(key)
        new = len(reducers)
        candidates = [(mono_lcm(lms[g], lm), g) for g in live]
        chosen = []
        for idx, (lcm, g) in enumerate(candidates):
            coprime = lcm == mono_mul(lms[g], lm)
            if coprime or not any(
                    all(map(_le, other[0], lcm))
                    for other in chain(chosen, candidates[idx + 1:])):
                chosen.append((lcm, g, coprime))
        kept = [pr for pr in pairs
                if not (all(map(_le, lm, pr[3]))
                        and mono_lcm(lms[pr[1]], lm) != pr[3]
                        and mono_lcm(lms[pr[2]], lm) != pr[3])]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        for lcm, g, coprime in chosen:
            if not coprime:
                heapq.heappush(pairs, (encode(lcm), g, new, lcm))
        live[:] = [g for g in live if not all(map(_le, lm, lms[g]))]
        live.append(new)
        lms.append(lm)
        reducers.append(_reducer(h, key, field))

    for g in sorted((dict(g) for g in gens if g),
                    key=lambda d: sorted(d, reverse=True)):
        insert(g)
    memo: Dict[int, Tuple[int, int]] = {}
    while pairs:
        lcm, i, j, _ = heapq.heappop(pairs)
        r = normal_form_payload(_spoly(reducers[i], reducers[j], lcm, field),
                                reducers, memo, packing, field, bit_limit)
        if r:
            insert(r)

    return _reduce_basis(reducers, packing, field, bit_limit)


def _reduce_basis(reducers: List[Reducer], packing: Packing, field: Field,
                  bit_limit: int) -> List[PayloadPoly]:
    """The monic reduced basis of a Groebner basis given as reducers,
    sorted by leading monomial ascending.

    Minimalizing keeps a Groebner basis, and an element's leading
    monomial divides none of its tail monomials, which are all smaller.
    So each reduced element is its leading term plus the unique normal
    form of its tail modulo the whole minimal basis, scaled to be monic:
    one normal form per element.
    """
    # minimal: drop any element whose LM is divisible by another's LM
    kept: List[Reducer] = []
    for red in sorted(reducers, key=lambda r: r[0]):
        if not any(packing.divides(other[0], red[0]) for other in kept):
            kept.append(red)
    memo: Dict[int, Tuple[int, int]] = {}
    one, mul = field._one_payload(), field._mul
    out = []
    for lm, inv, tail in kept:
        rest = normal_form_payload(dict(tail), kept, memo, packing, field,
                                   bit_limit)
        reduced = {lm: one}
        reduced.update((m, mul(c, inv)) for m, c in rest.items())
        out.append(reduced)
    return out


# ---------------------------------------------------------------------------
# Polynomial-level API: monomials are packed on the way in and unpacked on
# the way out


def groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                   bit_limit: int = DEFAULT_COEFF_BIT_LIMIT) -> List[Polynomial]:
    """Unique monic reduced Groebner basis; [] for the zero ideal."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    field = nonzero[0].field
    nvars = nonzero[0].nvars
    assert all(g.field == field and g.nvars == nvars for g in nonzero)

    def run(packing: Packing) -> List[PayloadPoly]:
        return buchberger_payload([_to_payload(g, packing) for g in nonzero],
                                  packing, field, bit_limit)

    packing, basis = _widening(
        Packing.for_degree(order, nvars, max(g.degree() for g in nonzero)), run)
    return [_from_payload(d, packing, field, nvars) for d in basis]


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: MonomialOrder = GREVLEX) -> Polynomial:
    field = f.field
    if any(g.is_zero() for g in basis):
        raise ZeroPolynomial("zero polynomial cannot reduce")

    def run(packing: Packing) -> PayloadPoly:
        reducers = []
        for g in basis:
            d = _to_payload(g, packing)
            reducers.append(_reducer(d, max(d), field))
        return normal_form_payload(_to_payload(f, packing), reducers, {},
                                   packing, field)

    degree = max(g.degree() for g in (f, *basis))
    packing, r = _widening(Packing.for_degree(order, f.nvars, degree), run)
    return _from_payload(r, packing, field, f.nvars)


def is_member(f: Polynomial, basis: Sequence[Polynomial],
              order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership, assuming `basis` is a Groebner basis."""
    return normal_form(f, basis, order).is_zero()
