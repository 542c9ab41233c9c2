"""Buchberger's algorithm with normal pair selection and both standard
pair-skipping criteria, producing the unique monic reduced basis.

Everything below the Polynomial-level API works on dicts mapping exponent
tuples to raw coefficient payloads (ints mod p, Fractions, coefficient
tuples) through the field's payload hooks; FieldElement wrappers only
appear at the API boundary.

Each basis element is kept as a reducer: its leading monomial, the
inverse of its leading coefficient and its tail. The reducer list is
extended once per basis growth and shared by every S-pair reduction. The
normal form keeps its work list as a dict with a heap of its monomials,
each monomial's order key computed once when it enters the dict; entries
whose monomial has cancelled since are skipped when popped. Every step
uses the first reducer whose leading monomial divides the current one, so
the intermediate polynomials do not depend on the data structure.
Instances here are small (tens of generators, degree <= 8), so no
F4-style batching is attempted.
"""

from __future__ import annotations

import heapq
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
                        order: MonomialOrder, field: Field,
                        bit_limit: int = DEFAULT_COEFF_BIT_LIMIT) -> PayloadPoly:
    """Full normal form: every term of the remainder is reduced.

    Each step reduces by the first of `reducers` whose leading monomial
    divides the work list's leading monomial; the remainder's terms come
    out in descending order. Over the rationals, ResourceLimit is raised
    once a reduction step leaves more than bit_limit bits of numerators
    and denominators in the work list.
    """
    mul, sub, neg, is_zero = field._mul, field._sub, field._neg, field._is_zero
    heap_key = order.descending_key
    push, pop = heapq.heappush, heapq.heappop
    rational = field.characteristic() == 0
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
        for red_lm, red_inv, red_tail in reducers:
            if all(map(_le, red_lm, lm)):
                break
        else:
            remainder[lm] = lc
            continue
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
    """Reduced Groebner basis of the nonzero payload polynomials."""
    basis = [dict(g) for g in gens if g]
    basis.sort(key=lambda d: _canonical_sort_key(d, order))
    lms = [_leading(g, order) for g in basis]
    reducers = [_reducer(g, lm, field) for g, lm in zip(basis, lms)]

    pairs = []
    pending = set()

    def push_pair(i: int, j: int):
        lcm = mono_lcm(lms[i], lms[j])
        heapq.heappush(pairs, (order.key(lcm), i, j, lcm))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        # first criterion: coprime leading monomials
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: some k with lm_k | lcm and both pairs already done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not all(map(_le, lms[k], lcm)):
                continue
            pa = (min(i, k), max(i, k))
            pb = (min(j, k), max(j, k))
            if pa not in pending and pb not in pending:
                skip = True
                break
        if skip:
            continue
        s = _spoly(reducers[i], reducers[j], field)
        r = normal_form_payload(s, reducers, order, field, bit_limit)
        if not r:
            continue
        lm = _leading(r, order)
        basis.append(r)
        lms.append(lm)
        reducers.append(_reducer(r, lm, field))
        new = len(basis) - 1
        for t in range(new):
            push_pair(t, new)

    return _reduce_basis(basis, order, field, bit_limit)


def _reduce_basis(basis: List[PayloadPoly], order: MonomialOrder, field: Field,
                  bit_limit: int) -> List[PayloadPoly]:
    """Minimalize, inter-reduce, and normalize to leading coefficient 1."""
    if not basis:
        return []
    # minimal: drop any element whose LM is divisible by another's LM
    items = sorted(basis, key=lambda d: order.key(_leading(d, order)))
    kept: List[PayloadPoly] = []
    kept_lms: List[Monomial] = []
    for g in items:
        lm = _leading(g, order)
        if any(mono_divides(other, lm) for other in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    # inter-reduce tails until stable; leading terms of a minimal basis
    # are irreducible, so each element keeps its leading monomial
    reducers = [_reducer(g, lm, field) for g, lm in zip(kept, kept_lms)]
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = reducers[:idx] + reducers[idx + 1:]
            r = normal_form_payload(kept[idx], others, order, field, bit_limit)
            if r != kept[idx]:
                assert r, "minimal basis element reduced to zero"
                kept[idx] = r
                reducers[idx] = _reducer(r, kept_lms[idx], field)
                changed = True
    # monic, sorted by leading monomial ascending
    out = []
    for g, (_, inv, _) in zip(kept, reducers):
        out.append({m: field._mul(c, inv) for m, c in g.items()})
    out.sort(key=lambda d: order.key(_leading(d, order)))
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
    r = normal_form_payload(_to_payload(f), reducers, order, field)
    return Polynomial.from_payloads(field, f.nvars, r)


def is_member(f: Polynomial, basis: Sequence[Polynomial],
              order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership, assuming `basis` is a Groebner basis."""
    return normal_form(f, basis, order).is_zero()
