"""Buchberger's algorithm with normal pair selection and the
Gebauer-Moeller pair update, producing the unique monic reduced basis.

Everything below the Polynomial-level API works on dicts mapping packed
monomials to raw coefficient payloads (ints mod p, coefficient tuples)
through the field's payload hooks; exponent tuples and FieldElement
wrappers only appear at the API boundary, which packs each input term
and decodes each distinct monomial of the output once (the r = 2
rank-drop basis of `voisin-demo 2 --seed 585427` has 76 among its 348
terms).

A packed monomial is one int of a `poly.Packing`, in slots laid out by
the order's `MonomialOrder.slots`: the order is int order, a product is
an int sum, a quotient an int difference, and a | b is
`not (b - a) & guard`.

- Widening: the slot width starts at the least that holds twice the
  input degree (8 bits at the least). A term that would reach a guard
  bit (checked where a monomial gets its slot and where a queued lcm
  gets its key) stops the computation, which reruns with doubled
  slots; the reduced basis and the normal form are unique, so the
  answer is the same and no exponent ever wraps.

Each basis element is kept as a reducer: its leading monomial, the
negated inverse of its leading coefficient and its tail, with the
tail's coefficients packed (`Field._packer`) once, when the reducer is
made. The reducer list is extended once per basis growth and shared by
every S-pair reduction; FGLM makes its reducers the same way.

- Pair update (Gebauer-Moeller 1988): when an element joins the basis,
  the queued pairs it makes redundant are dropped and its new pairs are
  grouped by lcm; only the minimal lcms are queued, each once, found by
  walking the lcms in ascending int order against the minimal ones kept
  so far, so a popped pair is reduced with no further check, all on
  packed ints with one guard-bit mask per divisibility test (see
  `_update_pairs`).
- Reduction: the work coefficients sit in a list by slot, a small int
  per packed monomial (`DivisorMemo`), with a heap of the negated
  monomials, pushed once when a monomial enters the work list. A step
  adds factor * c at each (slot, packed coefficient c) of the reducer
  multiple's shifted tail, the factor carrying the sign: one int
  product and sum per term, with no key arithmetic, dict operation or
  field call (delayed reduction: Dumas-Giorgi-Pernet, FFLAS 2008, in
  the heap division of Monagan-Pearce 2011). A coefficient is reduced
  only when its monomial pops, and skipped when it has cancelled to 0;
  over F_{p^k} the sums are bounded by renormalising (see
  `_packed_normal_form`). Every step uses the first reducer whose
  leading monomial divides the current one, so the intermediate
  polynomials do not depend on the data structure. An S-polynomial is
  two reducer multiples: the pair loop and inter-reduction hand their
  tails over as (slot, packed coefficient) pairs, summed per slot.
- First-divisor memo: one `DivisorMemo` per reducer list keeps, per
  slot, the first dividing reducer's shifted tail, built at its first
  step, or how far the scan got without one. Buchberger's pair loop and
  inter-reduction share one list and one memo; FGLM has its own.
- Inter-reduction: one normal form of each minimal-basis element's tail
  against the pair loop's whole reducer list, with its memo, so the
  shifted tails the pair loop built are reused, and with no fixed-point
  loop (see `_reduce_basis`).

Reducer multiples x^a * g_i repeat, the observation F4 (Faugere 1999)
rests on: the r = 2 rank-drop basis of `voisin-demo 2 --seed 585427`
takes 2610 steps on 180 multiples, and nodal-cubics' bases about 10
steps per multiple, each after the first with no key arithmetic. A
line-counts verdict's normal forms take about 1.3 steps per multiple,
where building each shifted tail is a small extra cost.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .errors import ZeroPolynomial
from .field import Field
from .poly import GREVLEX, MonomialOrder, Packing, Polynomial, _SlotOverflow

# products a work coefficient sums before it is unpacked and packed again
_TERMS = 64

PayloadPoly = Dict[int, object]
# (packed leading monomial, negated inverse of the leading coefficient,
# tail terms with their coefficients packed by the field's packer for
# _TERMS products)
Reducer = Tuple[int, object, List[Tuple[int, int]]]


def _widening(packing: Packing, run: Callable[[Packing], object]):
    """(packing, run(packing)), doubling the slot width until no term of
    the run reaches a guard bit. A run's result (a reduced basis, a normal
    form) does not depend on the packing, so a rerun changes nothing."""
    while True:
        try:
            return packing, run(packing)
        except _SlotOverflow:
            packing = Packing.of(packing.order, packing.nvars,
                                 2 * packing.width)


def _to_payloads(fs: Sequence[Polynomial],
                 packing: Packing) -> List[PayloadPoly]:
    """The payload dicts of the polynomials fs, each distinct monomial
    encoded once."""
    key = {m: packing.encode(m) for m in set().union(*(f.terms for f in fs))}
    return [{key[m]: c.payload for m, c in f.terms.items()} for f in fs]


def _from_payloads(ds: List[PayloadPoly], packing: Packing, field: Field,
                   nvars: int) -> List[Polynomial]:
    """The polynomials of the payload dicts ds, each distinct monomial
    decoded once."""
    monomial = {k: packing.decode(k) for k in set().union(*ds)}
    return [Polynomial.from_payloads(field, nvars,
                                     {monomial[k]: c for k, c in d.items()})
            for d in ds]


def _reducer(d: PayloadPoly, field: Field) -> Reducer:
    pack, lm = field._packer(_TERMS)[0], max(d)
    return (lm, field._neg(field._inv(d[lm])),
            [(m, pack(c)) for m, c in d.items() if m != lm])


class DivisorMemo:
    """What the normal forms against one reducer list share, for a list
    that is only ever appended to, under one packing.

    Each packed monomial gets a slot, a small int, the first time it is
    seen: `slot` maps a monomial to it and `keys` a slot to the negated
    monomial, the heap's item. Per slot:

    - `work`: the packed work coefficient, None outside the work list of
      the normal form running; each normal form leaves every value None,
      except one that raises _SlotOverflow, whose packing is given up;
    - `divisor`: how many reducers the monomial was checked against
      without a divisor, or, once its first dividing reducer is found,
      that reducer's negated inverse leading coefficient and its tail
      shifted onto the monomial as (slot, packed coefficient) pairs
      (`shifted_tail`). The list only grows, so a found divisor stays
      the linear scan's choice and a miss resumes where it stopped.
    """

    __slots__ = ("guard", "slot", "keys", "work", "divisor")

    def __init__(self, packing: Packing):
        self.guard = packing.guard
        self.slot: Dict[int, int] = {}
        self.keys: List[int] = []
        self.work: List[Optional[int]] = []
        self.divisor: list = []

    def slot_of(self, key: int) -> int:
        """The slot of a packed monomial, a new one if it is new;
        _SlotOverflow when a new monomial reaches a guard bit."""
        j = self.slot.get(key)
        if j is None:
            if key & self.guard:
                raise _SlotOverflow
            j = self.slot[key] = len(self.keys)
            self.keys.append(-key)
            self.work.append(None)
            self.divisor.append(0)
        return j

    def shifted_tail(self, tail: List[Tuple[int, int]],
                     shift: int) -> List[Tuple[int, int]]:
        """x^shift times a reducer's tail, as (slot, packed coefficient)
        pairs."""
        slot_of = self.slot_of
        return [(slot_of(m + shift), c) for m, c in tail]


def normal_form_payload(f: PayloadPoly, reducers: Sequence[Reducer],
                        memo: DivisorMemo, field: Field) -> PayloadPoly:
    """`_packed_normal_form` of the payload dict f, packed."""
    pack, slot_of = field._packer(_TERMS)[0], memo.slot_of
    return _packed_normal_form([(slot_of(m), pack(c)) for m, c in f.items()],
                               1, reducers, memo, field)


def _packed_normal_form(terms: Iterable[Tuple[int, int]], products: int,
                        reducers: Sequence[Reducer], memo: DivisorMemo,
                        field: Field) -> PayloadPoly:
    """Full normal form of the polynomial that sums the (slot of `memo`,
    packed coefficient) pairs `terms`, a slot's coefficients
    (`Field._packer`) summing to at most `products` products, maybe 0.

    Each step reduces by the first of `reducers` whose leading monomial
    divides the work list's leading monomial; the remainder's terms come
    out in descending order. The work values sit in `memo.work`.
    _SlotOverflow is raised when a monomial new to `memo`, of a shifted
    tail, reaches a guard bit.

    F_p needs no bound on its sums. Over F_{p^k} a step adds at most one
    product to any value (the shifted tail monomials of one reducer are
    distinct), so before a step would take a value past _TERMS products
    every value is packed anew (one product, as pack(1) = 1).
    """
    pack, unpack = field._packer(_TERMS)
    mul, zero = field._mul, field._zero_payload()
    push, pop = heapq.heappush, heapq.heappop
    slot, keys, work, divisor = memo.slot, memo.keys, memo.work, memo.divisor
    guard, count = memo.guard, len(reducers)
    # a monomial enters the work list and the heap once: terms reduce to
    # smaller monomials only, so a popped one never comes back
    heap = []  # a min-heap of -m pops the largest m first
    for j, c in terms:
        if work[j] is None:
            work[j] = c
            heap.append(keys[j])
        else:
            work[j] += c
    heapq.heapify(heap)
    remainder: PayloadPoly = {}
    held = products  # the most products any work value holds
    while heap:
        lm = -pop(heap)
        j = slot[lm]
        lc = unpack(work[j])
        work[j] = None
        if lc == zero:
            continue  # cancelled after it was pushed
        hit = divisor[j]
        if type(hit) is int:
            for k in range(hit, count):
                red_lm, red_scale, red_tail = reducers[k]
                shift = lm - red_lm
                if shift >= 0 and not shift & guard:
                    hit = divisor[j] = (red_scale,
                                        memo.shifted_tail(red_tail, shift))
                    break
            else:
                divisor[j] = count
                remainder[lm] = lc
                continue
        if held == _TERMS:
            for m in heap:
                i = slot[-m]
                work[i] = pack(unpack(work[i]))
            held = 1
        held += 1
        scale, tail = hit
        factor = pack(mul(lc, scale))
        for i, c in tail:
            cur = work[i]
            if cur is None:
                work[i] = factor * c
                push(heap, keys[i])
            else:
                work[i] = cur + factor * c
    return remainder


def _update_pairs(lm: int, lms: List[int], live: List[int], pairs: list,
                  packing: Packing) -> None:
    """The Gebauer-Moeller update (Gebauer-Moeller 1988;
    Becker-Weispfenning, *Groebner Bases*, algorithm UPDATE) for a new
    basis element h, its leading monomial lm cut to `packing.exponents`
    as every entry of lms: h joins lms and live, and `pairs`, a heap of
    (packed lcm, i, j, lcm cut to exponents) with i < j, is updated.

    - A queued pair (i, j) is dropped when lm divides lcm(i, j) and that
      lcm differs from both lcm(i, h) and lcm(j, h).
    - h pairs with every live g, and the new pairs are grouped by lcm
      (`Packing.lcms`). Only a minimal lcm, one that no other lcm of the
      group set divides, is queued, once, with the last g of its group in
      live order, under its full packed key (`Packing.full_key`, one
      linear int map, which raises _SlotOverflow when that key sets a
      guard bit); an lcm that a coprime pair (lcm = lm + lms[g]) shares
      is not queued at all.
    - g stops being live when lm divides lms[g]; it stays a reducer.

    A divisor of a packed monomial is never larger as an int, so walking
    the lcms in ascending order tests each only against the minimal ones
    kept so far; every test is one guard-bit mask, as (b - a) & guard is
    nonzero exactly when a does not divide b, negative differences
    included.
    """
    guard, new = packing.guard, len(lms)
    lcms = packing.lcms(lm, lms)
    kept = [pr for pr in pairs if (pr[3] - lm) & guard
            or lcms[pr[1]] == pr[3] or lcms[pr[2]] == pr[3]]
    if len(kept) < len(pairs):
        pairs[:] = kept
        heapq.heapify(pairs)
    last: Dict[int, int] = {}  # lcm -> its last g in live order
    shared = set()  # the lcms of coprime pairs
    for g in live:
        lcm = lcms[g]
        last[lcm] = g
        if lcm - lms[g] == lm:
            shared.add(lcm)
    full_key, minimal = packing.full_key, []
    for lcm in sorted(last):
        for m in minimal:
            if not (lcm - m) & guard:
                break
        else:
            minimal.append(lcm)
            if lcm not in shared:
                heapq.heappush(pairs, (full_key(lcm), last[lcm], new, lcm))
    live[:] = [g for g in live if (lms[g] - lm) & guard]
    live.append(new)
    lms.append(lm)


def buchberger_payload(gens: List[PayloadPoly], packing: Packing,
                       field: Field) -> List[PayloadPoly]:
    """Reduced Groebner basis of the nonzero packed payload polynomials.

    Each generator and each new basis element h joins the reducer list
    and goes through the pair update (`_update_pairs`), so every popped
    pair is reduced with no further check. The update keeps leading
    monomials cut to `packing.exponents`; a kept pair is queued under its
    lcm packed in full, so pairs pop in order of packed lcm. Every
    normal form, inter-reduction's included (`_reduce_basis`), runs
    against this one reducer list and its one `DivisorMemo`.
    """
    lms: List[int] = []  # cut to the exponent slots
    reducers: List[Reducer] = []
    live: List[int] = []
    pairs: list = []  # heap of (packed lcm, i, j, lcm cut to exponents), i < j

    def insert(h: PayloadPoly):
        _update_pairs(max(h) & packing.exponents, lms, live, pairs, packing)
        reducers.append(_reducer(h, field))

    for g in sorted((dict(g) for g in gens if g),
                    key=lambda d: sorted(d, reverse=True)):
        insert(g)
    memo = DivisorMemo(packing)
    slot_of, pack = memo.slot_of, field._packer(_TERMS)[0]
    while pairs:
        # the S-polynomial -n_i x^si tail_i + n_j x^sj tail_j, n the
        # reducers' negated inverses: the leading terms cancel
        lcm, i, j, _ = heapq.heappop(pairs)
        (lmi, ni, taili), (lmj, nj, tailj) = reducers[i], reducers[j]
        si, sj, fi, fj = lcm - lmi, lcm - lmj, pack(field._neg(ni)), pack(nj)
        r = _packed_normal_form(
            [(slot_of(m + si), fi * c) for m, c in taili]
            + [(slot_of(m + sj), fj * c) for m, c in tailj],
            2, reducers, memo, field)
        if r:
            insert(r)

    return _reduce_basis(reducers, memo, field)


def _reduce_basis(reducers: List[Reducer], memo: DivisorMemo,
                  field: Field) -> List[PayloadPoly]:
    """The monic reduced basis of the Groebner basis `reducers`, sorted by
    leading monomial ascending.

    The minimal basis keeps, in ascending order of leading monomial, each
    element whose leading monomial no kept one divides (one guard-bit
    mask per test, as in `_update_pairs`). An element's leading monomial
    divides none of its tail monomials, which are all smaller. So each
    reduced element is its leading term plus the normal form of its tail,
    scaled to be monic: one normal form per element, against the whole
    list `reducers` with its memo `memo`, the pair loop's own. Each
    reducer lies in the ideal and the list is a Groebner basis, so that
    normal form is the unique remainder, and every shifted tail the pair
    loop built is reused.
    """
    guard, kept = memo.guard, []
    for red in sorted(reducers, key=itemgetter(0)):
        for other in kept:
            if not (red[0] - other[0]) & guard:
                break
        else:
            kept.append(red)
    one, mul, neg, slot_of = (field._one_payload(), field._mul, field._neg,
                              memo.slot_of)
    out = []
    for lm, scale, tail in kept:
        rest = _packed_normal_form([(slot_of(m), c) for m, c in tail],
                                   1, reducers, memo, field)
        inv = neg(scale)
        reduced = {lm: one}
        reduced.update((m, mul(c, inv)) for m, c in rest.items())
        out.append(reduced)
    return out


# ---------------------------------------------------------------------------
# Polynomial-level API: monomials are packed on the way in and unpacked on
# the way out


def groebner_basis(gens: Sequence[Polynomial],
                   order: MonomialOrder = GREVLEX) -> List[Polynomial]:
    """Unique monic reduced Groebner basis, sorted by leading monomial
    ascending; [] for the zero ideal. Each element's terms list its
    leading monomial first."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    field = nonzero[0].field
    nvars = nonzero[0].nvars
    assert all(g.field == field and g.nvars == nvars for g in nonzero)

    def run(packing: Packing) -> List[PayloadPoly]:
        return buchberger_payload(_to_payloads(nonzero, packing), packing,
                                  field)

    packing, basis = _widening(
        Packing.for_degree(order, nvars, max(g.degree() for g in nonzero)), run)
    return _from_payloads(basis, packing, field, nvars)


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: MonomialOrder = GREVLEX) -> Polynomial:
    field = f.field
    if any(g.is_zero() for g in basis):
        raise ZeroPolynomial("zero polynomial cannot reduce")

    def run(packing: Packing) -> PayloadPoly:
        f_payload, *payloads = _to_payloads([f, *basis], packing)
        return normal_form_payload(f_payload, [
            _reducer(d, field) for d in payloads], DivisorMemo(packing), field)

    degree = max(g.degree() for g in (f, *basis))
    packing, r = _widening(Packing.for_degree(order, f.nvars, degree), run)
    return _from_payloads([r], packing, field, f.nvars)[0]


def is_member(f: Polynomial, basis: Sequence[Polynomial],
              order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership, assuming `basis` is a Groebner basis."""
    return normal_form(f, basis, order).is_zero()
