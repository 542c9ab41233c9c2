"""Buchberger's algorithm with normal pair selection and the
Gebauer-Moeller pair update, producing the unique monic reduced basis.

Everything below the Polynomial-level API works on dicts mapping exponent
tuples to raw coefficient payloads (ints mod p, Fractions, coefficient
tuples) through the field's payload hooks; FieldElement wrappers only
appear at the API boundary.

Each basis element is kept as a reducer: its leading monomial, the
inverse of its leading coefficient and its tail. The reducer list is
extended once per basis growth and shared by every S-pair reduction.

- Pair update (Gebauer-Moeller 1988): when an element joins the basis,
  its new pairs are pruned against each other and the queued pairs it
  makes redundant are dropped, so a popped pair is reduced with no
  further check (see `buchberger_payload`).
- Reduction: the normal form keeps its work list as a dict with a heap
  of its monomials, each monomial's order key computed once when it
  enters the dict; entries whose monomial has cancelled since are skipped
  when popped. Every step uses the first reducer whose leading monomial
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
from itertools import chain
from operator import add as _add, le as _le, sub as _sub
from typing import Dict, List, Sequence, Tuple

from .errors import ResourceLimit, ZeroPolynomial
from .field import Field
from .poly import (GREVLEX, Monomial, MonomialOrder, Polynomial, mono_div,
                   mono_divides, mono_lcm, mono_mul)

# Groebner bases over the rationals can blow up; this caps the total bit
# size of any single polynomial's coefficients mid-computation.
DEFAULT_COEFF_BIT_LIMIT = 1_000_000

PayloadPoly = Dict[Monomial, object]
# (leading monomial, inverse leading coefficient, tail terms)
Reducer = Tuple[Monomial, object, List[Tuple[Monomial, object]]]


def _to_payload(f: Polynomial) -> PayloadPoly:
    return {m: c.payload for m, c in f.terms.items()}


def _bits(c) -> int:
    return c.numerator.bit_length() + c.denominator.bit_length()


def _leading(d: PayloadPoly, order: MonomialOrder) -> Monomial:
    return max(d, key=order.key)


def _reducer(d: PayloadPoly, lm: Monomial, field: Field) -> Reducer:
    return lm, field._inv(d[lm]), [(m, c) for m, c in d.items() if m != lm]


def normal_form_payload(f: PayloadPoly, reducers: Sequence[Reducer],
                        memo: Dict[Monomial, Tuple[int, int]],
                        order: MonomialOrder, field: Field,
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
    """
    mul, sub, neg, is_zero = field._mul, field._sub, field._neg, field._is_zero
    heap_key = order.descending_key
    push, pop = heapq.heappush, heapq.heappop
    rational = field.characteristic() == 0
    count = len(reducers)
    work = dict(f)
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    bits = sum(map(_bits, work.values())) if rational else 0
    remainder: PayloadPoly = {}
    while heap:
        lm = pop(heap)[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue  # cancelled after it was pushed
        if rational:
            bits -= _bits(lc)
        hit = memo.get(lm)
        if hit is None or (hit[0] < 0 and hit[1] < count):
            index = -1
            for k in range(0 if hit is None else hit[1], count):
                if all(map(_le, reducers[k][0], lm)):
                    index = k
                    break
            hit = memo[lm] = (index, count)
        if hit[0] < 0:
            remainder[lm] = lc
            continue
        red_lm, red_inv, red_tail = reducers[hit[0]]
        shift = tuple(map(_sub, lm, red_lm))
        factor = mul(lc, red_inv)
        if rational:
            touched = [tuple(map(_add, m, shift)) for m, _ in red_tail]
            bits -= sum(_bits(work[k]) for k in touched if k in work)
        for m, c in red_tail:
            key = tuple(map(_add, m, shift))
            cur = work.get(key)
            if cur is None:
                work[key] = neg(mul(factor, c))
                push(heap, (heap_key(key), key))
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


def _spoly(ra: Reducer, rb: Reducer, field: Field) -> PayloadPoly:
    """Monic S-polynomial of two reducers; the leading terms cancel, so
    only the tails are expanded."""
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    (lma, ca, taila), (lmb, cb, tailb) = ra, rb
    lcm = mono_lcm(lma, lmb)
    sa, sb = mono_div(lcm, lma), mono_div(lcm, lmb)
    out: PayloadPoly = {}
    for m, c in taila:
        out[tuple(map(_add, m, sa))] = mul(c, ca)
    for m, c in tailb:
        key = tuple(map(_add, m, sb))
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


def _canonical_sort_key(d: PayloadPoly, order: MonomialOrder):
    return sorted((order.key(m) for m in d), reverse=True)


def buchberger_payload(gens: List[PayloadPoly], order: MonomialOrder, field: Field,
                       bit_limit: int = DEFAULT_COEFF_BIT_LIMIT) -> List[PayloadPoly]:
    """Reduced Groebner basis of the nonzero payload polynomials.

    Pairs are kept by the Gebauer-Moeller update (Gebauer-Moeller 1988;
    Becker-Weispfenning, *Groebner Bases*, algorithm UPDATE), run once
    for each generator and each new basis element h:

    - h pairs with every live element g. A new pair is dropped when the
      lcm of another new pair divides its lcm (of equal lcms one is
      kept); coprime pairs take part in that test but are never queued.
    - A queued pair (i, j) is dropped when lm(h) divides lcm(i, j) and
      that lcm differs from both lcm(i, h) and lcm(j, h).
    - g stops being live when lm(h) divides lm(g); it stays a reducer.

    So every popped pair is reduced with no further check.
    """
    lms: List[Monomial] = []
    reducers: List[Reducer] = []
    live: List[int] = []
    pairs: list = []  # heap of (order key of lcm, i, j, lcm), i < j

    def insert(h: PayloadPoly):
        lm = _leading(h, order)
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
                heapq.heappush(pairs, (order.key(lcm), g, new, lcm))
        live[:] = [g for g in live if not all(map(_le, lm, lms[g]))]
        live.append(new)
        lms.append(lm)
        reducers.append(_reducer(h, lm, field))

    for g in sorted((dict(g) for g in gens if g),
                    key=lambda d: _canonical_sort_key(d, order)):
        insert(g)
    memo: Dict[Monomial, Tuple[int, int]] = {}
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        r = normal_form_payload(_spoly(reducers[i], reducers[j], field),
                                reducers, memo, order, field, bit_limit)
        if r:
            insert(r)

    return _reduce_basis(reducers, order, field, bit_limit)


def _reduce_basis(reducers: List[Reducer], order: MonomialOrder, field: Field,
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
    for red in sorted(reducers, key=lambda r: order.key(r[0])):
        if not any(mono_divides(other[0], red[0]) for other in kept):
            kept.append(red)
    memo: Dict[Monomial, Tuple[int, int]] = {}
    one, mul = field._one_payload(), field._mul
    out = []
    for lm, inv, tail in kept:
        rest = normal_form_payload(dict(tail), kept, memo, order, field,
                                   bit_limit)
        reduced = {lm: one}
        reduced.update((m, mul(c, inv)) for m, c in rest.items())
        out.append(reduced)
    return out


# ---------------------------------------------------------------------------
# Polynomial-level API


def groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                   bit_limit: int = DEFAULT_COEFF_BIT_LIMIT) -> List[Polynomial]:
    """Unique monic reduced Groebner basis; [] for the zero ideal."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    field = nonzero[0].field
    nvars = nonzero[0].nvars
    assert all(g.field == field and g.nvars == nvars for g in nonzero)
    payload = buchberger_payload([_to_payload(g) for g in nonzero], order, field, bit_limit)
    return [Polynomial.from_payloads(field, nvars, d) for d in payload]


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: MonomialOrder = GREVLEX) -> Polynomial:
    field = f.field
    reducers = []
    for g in basis:
        if g.is_zero():
            raise ZeroPolynomial("zero polynomial cannot reduce")
        reducers.append(_reducer(_to_payload(g), g.leading_monomial(order), field))
    r = normal_form_payload(_to_payload(f), reducers, {}, order, field)
    return Polynomial.from_payloads(field, f.nvars, r)


def is_member(f: Polynomial, basis: Sequence[Polynomial],
              order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership, assuming `basis` is a Groebner basis."""
    return normal_form(f, basis, order).is_zero()
