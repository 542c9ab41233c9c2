"""Sparse multivariate polynomials over an exact field.

Terms are stored as a dict mapping exponent tuples to nonzero coefficients.
Monomial orders are small key objects so Groebner code can be order-generic;
grevlex is the workhorse, lex exists for elimination.

The text format is deliberately narrow: integer or fraction coefficients,
variables x0, x1, ... with optional ^exponent, '*' between factors,
'+'/'-' between terms. Parsing is one pass over the tokens: each term's
coefficient payload adds into one dict keyed by its exponent tuple, and
the polynomial is built from that dict once. Printing is canonical
(grevlex-descending, least-residue coefficients over prime fields) so
equal polynomials print identically.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from operator import add as _add, mul as _mul
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from .errors import ParseError, UnknownVariable, ZeroPolynomial
from .field import Field, FieldElement, _orbit, payload_lift
from .linalg import payload_rank

if TYPE_CHECKING:
    from .projgeo import ProjectivePoint

Monomial = Tuple[int, ...]


# ---------------------------------------------------------------------------
# monomial helpers

def monomials_of_degree(nvars: int, degree: int) -> List[Monomial]:
    """All exponent tuples of the given total degree, lex-descending."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for bars in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in bars:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(reverse=True)
    return out


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total order on exponent tuples; larger key = larger monomial.

    `slots(nvars)` gives the order's packed layout: rows of nonnegative
    integer weights over the variables, most significant first. Packed
    (see `Packing`), a monomial is one int whose slot k holds
    row k's weighted sum of its exponents, so a product is an int sum and,
    because the rows decide every comparison in order, this order is int
    order. Every row has 0/1 weights, so no slot exceeds the degree; the
    rows include e_i for every variable, so the exponents can be read
    back and a | b exactly when no slot of b - a is negative.
    """

    name = "base"

    def key(self, exps: Monomial):
        raise NotImplementedError

    def slots(self, nvars: int) -> List[Tuple[int, ...]]:
        raise NotImplementedError

    def __repr__(self):
        return f"<order {self.name}>"


def _prefix(nvars: int, j: int) -> Tuple[int, ...]:
    """Weights of P_j = e_0 + ... + e_j."""
    return (1,) * (j + 1) + (0,) * (nvars - j - 1)


def _unit(nvars: int, i: int) -> Tuple[int, ...]:
    """Weights of e_i."""
    return tuple(int(k == i) for k in range(nvars))


class GrevLexOrder(MonomialOrder):
    """Graded reverse lexicographic: degree first, then reversed exponents
    compared smallest-last-variable-wins.

    Packed as [deg | P_{n-2} | ... | P_0 | e_{n-1} | ... | e_1] with
    P_j = e_0 + ... + e_j: at equal degree P_{n-2} = deg - e_{n-1}, so a
    larger P_{n-2} is a smaller last exponent, and so on down, making
    grevlex the lex order on (deg, P_{n-2}, ..., P_0). P_0 = e_0 and the
    raw slots below decide nothing, they only hold the exponents.
    """

    name = "grevlex"

    def key(self, exps: Monomial):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def slots(self, nvars: int) -> List[Tuple[int, ...]]:
        rows = [_prefix(nvars, j) for j in range(nvars - 1, -1, -1)]
        return rows + [_unit(nvars, i) for i in range(nvars - 1, 0, -1)]


class LexOrder(MonomialOrder):
    """Lexicographic, x0 most significant; packed as [e_0 | ... | e_{n-1}]."""

    name = "lex"

    def key(self, exps: Monomial):
        return exps

    def slots(self, nvars: int) -> List[Tuple[int, ...]]:
        return [_unit(nvars, i) for i in range(nvars)]


GREVLEX = GrevLexOrder()
LEX = LexOrder()


# ---------------------------------------------------------------------------
# packed monomials: the one format of groebner, fglm, hilbert, voisin and
# `Polynomial.substitute`

# least slot width of a packing, guard bit included
_SLOT_BITS = 8

# the one Packing of each (order, nvars, width), built on first use
_PACKINGS: Dict[tuple, "Packing"] = {}


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
    - a divides b exactly when `(b - a) & guard` is 0: otherwise the
      lowest slot of b that is smaller than a's borrows, which sets its
      guard bit, a negative difference included (`&` reads it in two's
      complement, so its slots are those of the difference mod a power
      of two).

    A packing holds no state beyond its layout, so `of` hands out one
    instance per (order, nvars, width).
    """

    __slots__ = ("order", "nvars", "width", "limit", "guard", "units",
                 "exponents", "_shifts", "_e0", "_low", "_spread", "_top")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        rows = order.slots(nvars)[::-1]  # least significant first
        self.order, self.nvars, self.width = order, nvars, width
        self.limit = 1 << (width - 1)
        self.guard = sum(self.limit << (k * width) for k in range(len(rows)))
        self.units = [sum(row[i] << (k * width) for k, row in enumerate(rows))
                      for i in range(nvars)]
        self._shifts = [rows.index(_unit(nvars, i)) * width
                        for i in range(nvars)]
        self.exponents = sum(((1 << width) - 1) << s for s in self._shifts)
        # `full_key`: e_0's shift, the other exponent slots, and what x_0
        # packs to beyond its exponent slot (0 in lex)
        self._e0 = self._low = self._spread = 0
        if nvars:
            self._e0 = self._shifts[0]
            self._low = self.exponents & ~(((1 << width) - 1) << self._e0)
            self._spread = self.units[0] - (1 << self._e0)
        self._top = (1 << (len(rows) * width)) - 1

    @classmethod
    def of(cls, order: MonomialOrder, nvars: int, width: int) -> "Packing":
        """The packing of this layout, built on its first use."""
        key = (order, nvars, width)
        packing = _PACKINGS.get(key)
        if packing is None:
            packing = _PACKINGS[key] = cls(order, nvars, width)
        return packing

    @classmethod
    def for_degree(cls, order: MonomialOrder, nvars: int,
                   degree: int) -> "Packing":
        """The narrowest packing, at least _SLOT_BITS wide, whose slots
        hold twice `degree`."""
        return cls.of(order, nvars, max(_SLOT_BITS, degree.bit_length() + 2))

    def encode(self, mono: Monomial) -> int:
        if sum(mono) >= self.limit:
            raise _SlotOverflow
        return sum(map(_mul, mono, self.units))

    def decode(self, key: int) -> Monomial:
        mask = self.limit - 1
        return tuple(key >> s & mask for s in self._shifts)

    def lcms(self, a: int, others: List[int]) -> List[int]:
        """lcm(a, b) for each b of `others`, all cut to `exponents`, the
        slots that hold one exponent each (low `nvars` of grevlex, all of
        lex). With g their guard bits, t = (a | g) - b holds
        limit + a_k - b_k in slot k with no borrow, so its guard bit is
        set where a_k >= b_k; for d those bits, d - (d >> (width - 1))
        masks their slots, and b plus t under that mask is the max."""
        guard = self.guard & self.exponents
        high, shift = a | guard, self.width - 1
        out = []
        for b in others:
            t = high - b
            d = t & guard
            out.append(b + (t & (d - (d >> shift))))
        return out

    def full_key(self, cut: int) -> int:
        """The packed monomial whose cut to `exponents` is `cut`, a cut of
        degree below 2 * limit such as an lcm of two packed monomials;
        _SlotOverflow when it sets a guard bit (in grevlex, from degree
        `limit` on). In lex the cut is the key. In grevlex the cut holds
        e_1 .. e_{n-1} in slots 0 .. n-2 and e_0 in slot n-1, and one
        product with `_spread` adds e_0 + e_1, put in slot 0, to prefix
        slots P_1 .. P_{n-1} and e_i to P_i .. P_{n-1}, the slots above
        the top one masked off; no slot sum reaches 2 * limit, so none
        carries."""
        e0 = cut >> self._e0
        key = cut + (((cut & self._low) + e0) * self._spread & self._top)
        if key & self.guard:
            raise _SlotOverflow
        return key

# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable-by-convention sparse polynomial.

    terms: dict monomial -> nonzero FieldElement. Do not mutate after
    construction; all arithmetic returns fresh objects.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Dict[Monomial, FieldElement]):
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} has wrong length for {nvars} variables")
            if not coeff.is_zero():
                clean[mono] = coeff
        self.field = field
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "Polynomial":
        coeff = value if isinstance(value, FieldElement) else field.from_int(value)
        return cls(field, nvars, {(0,) * nvars: coeff})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {exps: field.one()})

    @classmethod
    def linear(cls, field: Field, coeffs: Sequence[FieldElement]) -> "Polynomial":
        """Linear form sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if not c.is_zero():
                exps = tuple(1 if j == i else 0 for j in range(n))
                terms[exps] = c
        return cls(field, n, terms)

    @classmethod
    def from_payloads(cls, field: Field, nvars: int,
                      payloads: Dict[Monomial, object]) -> "Polynomial":
        """Wrap a dict monomial -> nonzero raw coefficient payload."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.terms = {m: FieldElement(field, c) for m, c in payloads.items()}
        return poly

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        return len(degs) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial.constant(self.field, self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            s = coeff if acc is None else acc + coeff
            if s.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Polynomial(self.field, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.field, self.nvars,
                          {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product with a scalar or a polynomial, on raw payloads."""
        field = self.field
        mul = field._mul
        if isinstance(other, (int, FieldElement)):
            c = field.from_int(other) if isinstance(other, int) else other
            if c.is_zero():
                return Polynomial.zero(field, self.nvars)
            c = c.payload
            return Polynomial.from_payloads(
                field, self.nvars, {m: mul(co.payload, c)
                                    for m, co in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        add, is_zero = field._add, field._is_zero
        right = [(m, c.payload) for m, c in other.terms.items()]
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            c1 = c1.payload
            for m2, c2 in right:
                m = tuple(map(_add, m1, m2))
                prod = mul(c1, c2)
                acc = out.get(m)
                if acc is None:
                    out[m] = prod
                else:
                    s = add(acc, prod)
                    if is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
        return Polynomial.from_payloads(field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.field, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and structure -------------------------------------------

    def evaluate(self, values: Sequence[FieldElement]) -> FieldElement:
        """Value at a point whose coordinates lie in this polynomial's field
        or in an extension of it; see `evaluate_at`."""
        return evaluate_at([self], [values])[0][0]

    def gradient(self) -> List["Polynomial"]:
        """The partial derivatives d/dx_0, ..., d/dx_{n-1}; see `_lowered`."""
        return [Polynomial.from_payloads(self.field, self.nvars, dict(terms))
                for terms in _lowered(self)]

    def partial_derivative(self, index: int) -> "Polynomial":
        """d/dx_index; see `_lowered`."""
        return self.gradient()[index]

    def homogeneous_components(self) -> Dict[int, "Polynomial"]:
        """Split into degree parts; keys are the occurring degrees."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree decomposition")
        buckets: Dict[int, Dict[Monomial, FieldElement]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(sum(mono), {})[mono] = coeff
        return {d: Polynomial(self.field, self.nvars, t)
                for d, t in sorted(buckets.items())}

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """The ring map x_i -> images[i].

        The images live in one ring over the same field, possibly with a
        different number of variables. Runs on raw coefficient payloads.
        The image of each monomial of self is built along one `_chain`,
        as its prefix's image times one image, and cached for the
        monomials that extend it.

        A target monomial is one int key of a lex `Packing` for the largest
        degree an image, or the image of a monomial of self, can reach, so
        no slot carries and a product is a key sum. Coefficients are
        packed (`Field._packer`) and summed unreduced. In a cached image of
        mono = prefix * x_i, a key gets at most one product per term of
        images[i], since the prefix's keys are distinct; in the output, at
        most one per term of self, since each image's keys are distinct.
        So one packer for the most terms of self or of any image holds
        every sum, and each is unpacked once.
        """
        field, nvars = self.field, self.nvars
        assert len(images) == nvars
        target_nvars = images[0].nvars if images else nvars
        packing = Packing.for_degree(
            LEX, target_nvars,
            max(1, _top_degree([self])) * _top_degree(images))
        pack, unpack = field._packer(
            max(1, len(self.terms), *(len(g.terms) for g in images)))
        zero = field._zero_payload()
        image_terms = [[(packing.encode(m), pack(c.payload))
                        for m, c in g.terms.items()] for g in images]
        index, chain = _chain(self.terms, nvars)
        cache: List[Dict[int, int]] = [{0: pack(field._one_payload())}]
        cache += map(dict, image_terms)
        for parent, i in chain:
            sums: Dict[int, int] = {}
            for k1, c1 in cache[parent].items():
                for k2, c2 in image_terms[i]:
                    k = k1 + k2
                    sums[k] = sums.get(k, 0) + c1 * c2
            cache.append({k: pack(c) for k, v in sums.items()
                          if (c := unpack(v)) != zero})
        sums = {}
        for mono, coeff in self.terms.items():
            c = pack(coeff.payload)
            for k, v in cache[index[mono]].items():
                sums[k] = sums.get(k, 0) + c * v
        return Polynomial.from_payloads(field, target_nvars, {
            packing.decode(k): c
            for k, v in sums.items() if (c := unpack(v)) != zero})

    def apply_matrix(self, matrix) -> "Polynomial":
        """Substitute x_i -> sum_j matrix[i][j] x_j (linear coordinate change)."""
        n = self.nvars
        images = [Polynomial.linear(self.field, matrix[i]) for i in range(n)]
        assert all(len(matrix[i]) == n for i in range(n))
        return self.substitute(images)

    def map_coefficients(self, target: Field, convert) -> "Polynomial":
        terms = {}
        for mono, coeff in self.terms.items():
            c = convert(coeff)
            if not c.is_zero():
                terms[mono] = c
        return Polynomial(target, self.nvars, terms)

    # -- printing ---------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in sorted(self.terms.items(), reverse=True,
                                  key=lambda kv: GREVLEX.key(kv[0])):
            coeff_str = self.field.element_str(coeff.payload)
            if any(ch in coeff_str for ch in "+- "):
                coeff_str = f"({coeff_str})"  # multi-term extension coefficient
            is_unit = coeff == self.field.one()
            factors = []
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
            if not factors:
                body = coeff_str
            elif is_unit:
                body = "*".join(factors)
            else:
                body = "*".join([coeff_str] + factors)
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.to_text()})"


def _chain(monos: Iterable[Monomial], nvars: int
           ) -> Tuple[Dict[Monomial, int], List[Tuple[int, int]]]:
    """(slot of each monomial, chain) for monos and all their prefixes.

    Slot 0 holds 1, slot i + 1 holds x_i and slot nvars + 1 + k holds
    chain[k] = (parent, i): the parent's value times x_i. The parent is
    the prefix, the monomial with its last nonzero exponent lowered by
    one, so each monomial of the joint support costs one product. A loop
    walks down to the first known prefix; nothing recurses.
    """
    index: Dict[Monomial, int] = {(0,) * nvars: 0}
    index.update((_unit(nvars, i), i + 1) for i in range(nvars))
    chain: List[Tuple[int, int]] = []
    for mono in monos:
        path = []
        while mono not in index:
            i = nvars - 1
            while mono[i] == 0:
                i -= 1
            path.append((mono, i))
            mono = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        slot = index[mono]
        for step, i in reversed(path):
            chain.append((slot, i))
            slot = index[step] = nvars + len(chain)
    return index, chain


def _lowered(f: Polynomial, dead: Sequence[int] = ()
             ) -> List[List[Tuple[Monomial, object]]]:
    """Per variable x_i, the payload terms (m - e_i, m_i * c) of df/dx_i
    over the terms c * x^m of f with m_i > 0: c itself where m_i = 1,
    and m_i from a per-call table of payloads where m_i > 1. Lowering one
    exponent maps distinct terms to distinct monomials, so no two terms
    combine; a term whose exponent m_i the characteristic divides drops
    out.

    Only terms that can be nonzero where every coordinate of `dead` is 0
    are kept: a term with no positive exponent there feeds every partial;
    one whose only such exponent is m_j = 1 feeds df/dx_j alone, as c;
    one with two, or with m_j >= 2, feeds none.
    """
    field = f.field
    mul, from_int, is_zero = field._mul, field._from_int, field._is_zero
    # e as a payload, None where the characteristic divides e
    scales = [None if is_zero(s := from_int(e)) else s
              for e in range(max(map(sum, f.terms), default=0) + 1)]
    rows: List[List[Tuple[Monomial, object]]] = [[] for _ in range(f.nvars)]
    for mono, coeff in f.terms.items():
        c = coeff.payload
        if dead and (hit := [j for j in dead if mono[j]]):
            j = hit[0]
            if len(hit) == 1 and mono[j] == 1:
                rows[j].append((mono[:j] + (0,) + mono[j + 1:], c))
            continue
        for i, e in enumerate(mono):
            if e == 1:
                rows[i].append((mono[:i] + (0,) + mono[i + 1:], c))
            elif e and (s := scales[e]) is not None:
                rows[i].append((mono[:i] + (e - 1,) + mono[i + 1:],
                                mul(c, s)))
    return rows


def _term_sums(field: Field, nvars: int,
               term_lists: Sequence[Sequence[Tuple[Monomial, object]]],
               points: Sequence[Sequence[FieldElement]]) -> List[tuple]:
    """Per point, (its field, the payload of sum c * x^m over each list).

    The one monomial-value kernel. A term list holds (m, payload c over
    `field`); a point is nvars coordinates in `field` or an extension of
    it, and points may mix fields. The callers leave out the terms that
    are 0 at every point (`evaluate_at`, `_lowered`), so every term
    listed is evaluated. One `_chain` serves all the lists. The
    coefficients are lifted (`payload_lift`) and packed
    (`Field._packer`) once per field of the points. At a point each
    chain value is one packed product, reduced and packed again, and
    each output one int sum of packed products, reduced once.
    """
    index, chain = _chain((m for terms in term_lists for m, _ in terms), nvars)
    plan = [([index[m] for m, _ in terms], [c for _, c in terms])
            for terms in term_lists]
    bound = max(1, max(map(len, term_lists), default=0))
    packed: Dict[Field, tuple] = {}  # per field of the points, on first use
    out = []
    for coords in points:
        assert len(coords) == nvars
        target = coords[0].field if coords else field
        if any(v.field is not target and v.field != target for v in coords):
            raise TypeError("point coordinates lie in different fields")
        if target not in packed:
            lift = payload_lift(field, target)
            pack, unpack = target._packer(bound)
            packed[target] = (pack, unpack, [
                (slots, [pack(c if lift is None else lift(c)) for c in coeffs])
                for slots, coeffs in plan],
                pack(target._one_payload()), pack(target._zero_payload()))
        pack, unpack, packed_plan, one, zero = packed[target]
        xs = [pack(v.payload) for v in coords]
        values = [one] + xs
        for parent, i in chain:
            values.append(pack(unpack(values[parent] * xs[i])))
        get = values.__getitem__
        out.append((target, [unpack(sum(map(_mul, coeffs, map(get, slots)),
                                        zero))
                             for slots, coeffs in packed_plan]))
    return out


def _dead(points: Sequence[Sequence[FieldElement]]) -> List[int]:
    """The coordinates that are 0 at every one of points."""
    return [i for i, column in enumerate(zip(*points)) if not any(column)]


def evaluate_at(polys: Sequence[Polynomial],
                points: Sequence[Sequence[FieldElement]]
                ) -> List[List[FieldElement]]:
    """Per point, in order, the value of each of polys in the point's field.

    The polynomials share one ring; a point is a coordinate sequence (a
    ProjectivePoint's `coords`) in their field or an extension of it, and
    points may mix fields. One `_term_sums` call does all the work. When
    a coordinate is 0 at every point, a term with a positive exponent
    there is 0 at every point and is left out first; x_i^0 = 1 keeps a
    term with exponent 0 there.
    """
    if not polys:
        return [[] for _ in points]
    field, nvars = polys[0].field, polys[0].nvars
    assert all(f.field == field and f.nvars == nvars for f in polys)
    term_lists = [[(m, c.payload) for m, c in f.terms.items()] for f in polys]
    dead = _dead(points)
    if dead:
        term_lists = [[(m, c) for m, c in terms
                       if not any(m[i] for i in dead)]
                      for terms in term_lists]
    return [[FieldElement(target, v) for v in values]
            for target, values in _term_sums(field, nvars, term_lists, points)]


def frobenius_orbits(ground: Field, points: Sequence[ProjectivePoint]
                     ) -> Tuple[List[int], List[int]]:
    """(the index of the first point of each Frobenius orbit among points,
    in order; per point, the position of its orbit in that list).

    The points lie over extensions of the finite field ground F_q.
    sigma: x -> x^q is an automorphism of every extension F_(q^j) that
    fixes F_q (Lidl-Niederreiter, *Finite Fields*, ch. 2), so a
    polynomial over F_q vanishes at sigma P exactly when it vanishes at P,
    and a matrix of such polynomials has the same rank at both. sigma
    fixes 0 and 1, so it maps a canonical point to a canonical point, and
    a point equal to sigma^i of an earlier one, or to an earlier one
    itself, joins that one's orbit. A point over F_q itself is its own
    orbit, and the images of a point are taken only when a later point
    lies over its field.
    """
    firsts: List[int] = []
    orbit_of: Dict[tuple, int] = {}
    last_over = {pt.field: index for index, pt in enumerate(points)}
    slots = []
    for index, pt in enumerate(points):
        target, coords = pt.field, pt.coords
        slot = orbit_of.get((target, tuple(c.payload for c in coords)))
        if slot is None:
            slot = len(firsts)
            firsts.append(index)
            if last_over[target] > index:
                j = target.degree // ground.degree
                for image in zip(*(_orbit(target, c, j) for c in coords)):
                    orbit_of[(target, tuple(c.payload for c in image))] = slot
        slots.append(slot)
    return firsts, slots


def jacobian_rank_at(gens: Sequence[Polynomial],
                     points: Sequence[ProjectivePoint]) -> List[int]:
    """Ranks of the Jacobian of gens at points, in the points' order.

    The points may lie over any mix of extensions of the generators'
    field. Entry (g, i) at P is dg/dx_i at P: the term lists of
    `_lowered(g, dead)` go to `_term_sums` as they are, so no partial
    derivative is built as a Polynomial. Each Frobenius orbit is ranked
    once, at its first point (`frobenius_orbits`): sigma fixes every
    coefficient of every partial, so J(sigma P) = sigma(J(P)) entry by
    entry, of the same rank. `dead` are the coordinates that are 0 at
    every orbit's first point, found before anything is lowered, so
    `_lowered` emits only the terms that can be nonzero there.
    """
    if not gens or not points:
        return [0] * len(points)
    field, n = gens[0].field, gens[0].nvars
    firsts, slots = frobenius_orbits(field, points)
    coords = [points[i].coords for i in firsts]
    dead = _dead(coords)
    entries = []
    for g in gens:
        assert g.nvars == n and g.field == field
        entries += _lowered(g, dead)
    ranks = [payload_rank(target, n, [sums[k:k + n]
                                      for k in range(0, len(sums), n)])
             for target, sums in _term_sums(field, n, entries, coords)]
    return [ranks[slot] for slot in slots]


def _top_degree(polys: Sequence[Polynomial]) -> int:
    """The largest degree of a term of polys; 0 when there is none."""
    return max(map(sum, itertools.chain.from_iterable(f.terms for f in polys)),
               default=0)


def restrict(polys: Sequence[Polynomial], last: int,
             value: FieldElement) -> List[Polynomial]:
    """Each of polys with x_last = value and every later variable 0, as a
    polynomial in x_0, ..., x_{last-1}; zero results are kept. value lies
    in the polynomials' field.

    A projection of monomials: a term with a positive exponent after
    x_last drops out, and a term c * x^m adds the one packed product
    pack(c) * value^(m_last) (`Field._packer`) at the key m[:last]. So
    at most one product per term meets at a key, and the packer's bound
    is the most terms of any polynomial. The powers of value are built
    once, packed, and each sum is unpacked once. The terms keep their
    order, and of two terms of a form the grevlex-larger keeps the larger
    degree or, at a tie, stays larger, so a chart of the reduced grevlex
    basis of a homogeneous ideal lists each leading monomial first.
    """
    field = value.field
    assert all(f.field == field for f in polys)
    pack, unpack = field._packer(max([1] + [len(f.terms) for f in polys]))
    zero = field._zero_payload()
    step = pack(value.payload)
    powers = [pack(field._one_payload())]
    out = []
    for f in polys:
        sums: Dict[Monomial, int] = {}
        for mono, coeff in f.terms.items():
            if any(mono[last + 1:]):
                continue
            e = mono[last]
            while len(powers) <= e:
                powers.append(pack(unpack(powers[-1] * step)))
            key = mono[:last]
            sums[key] = sums.get(key, 0) + pack(coeff.payload) * powers[e]
        out.append(Polynomial.from_payloads(field, last, {
            m: c for m, v in sums.items() if (c := unpack(v)) != zero}))
    return out


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^])|(?P<bad>\S)")

# Highest total degree of a parsed term. Evaluation, Jacobian ranks and
# substitution reach a monomial along a chain of up to that many prefix
# steps (`_chain`, a loop) and the Hilbert series builds lists as long as
# the degree, so the cap bounds both; it stays below Python's default
# recursion depth of 1000, so the recursive test oracle of substitution
# runs at the cap, and far above every polynomial file the tests and
# scripts read (all of degree <= 8).
MAX_TERM_DEGREE = 512


def _tokenize(text: str):
    """(kind, text, position) per token, kind the name of the group that
    matched it ("bad" for any other character), then an end marker."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    tokens.append(("end", None, len(text)))
    return tokens


def default_names(nvars: int) -> List[str]:
    return [f"x{i}" for i in range(nvars)]


def parse_polynomial(text: str, nvars: int, field: Field) -> Polynomial:
    """The polynomial in x0, ..., x(nvars-1) that text spells (`_parse`);
    nvars may also come as its name list `default_names(nvars)`."""
    if not isinstance(nvars, int):
        assert list(nvars) == default_names(len(nvars))
        nvars = len(nvars)
    return _parse(_tokenize(text), nvars, field)


def _parse(tokens, nvars: int, field: Field) -> Polynomial:
    """The polynomial in x0, ..., x(nvars-1) that tokens (`_tokenize`)
    spell, its numbers read in place; raises ParseError / UnknownVariable,
    at the first bad character before any grammar error. A variable has
    one spelling: x3, not x03.

    One pass over the tokens: each term's coefficient payload adds into
    one dict keyed by its exponent tuple, and a key whose sum cancels is
    dropped, so the terms keep the order in which they first appear. An
    operator token is told by its value alone, which no name, number or
    end marker can equal.
    """
    if len(tokens) == 1:
        raise ParseError("empty polynomial text", 0)
    for n, (kind, value, pos) in enumerate(tokens):
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "num":
            tokens[n] = (kind, int(value), pos)
    index_of = {f"x{i}": i for i in range(nvars)}
    add, neg, is_zero = field._add, field._neg, field._is_zero
    zero, one = field.zero().payload, field.one().payload
    payloads: Dict[Monomial, object] = {}
    i = 0
    while True:
        # the sign before a term: optional before the first, needed after
        kind, value, pos = tokens[i]
        sign = -1 if value == "-" else 1
        if value in ("+", "-"):
            i += 1
        elif i:
            raise ParseError("expected '+' or '-' between terms", pos)
        kind, value, term_pos = tokens[i]
        # optional extra sign from the coefficient itself, e.g. "x + -2*y"
        if value == "-":
            sign = -sign
            i += 1
            kind, value, pos = tokens[i]
        coeff = None
        if kind == "num":
            frac = Fraction(value)
            i += 1
            if tokens[i][1] == "/":
                kind, denom, pos = tokens[i + 1]
                if kind != "num":
                    raise ParseError("expected an integer", pos)
                if denom == 0:
                    raise ParseError("zero denominator", pos)
                frac /= denom
                if field.from_int(frac.denominator).is_zero():
                    raise ParseError(f"denominator {denom} is not invertible "
                                     f"in {field}", pos)
                i += 2
            coeff = field.from_fraction(frac).payload
            # zero or more '*' before the first factor
            while tokens[i][1] == "*":
                i += 1
        exps = [0] * nvars
        kind, value, pos = tokens[i]
        if kind != "name" and coeff is None:
            raise ParseError("expected a coefficient or variable", pos)
        while kind == "name":
            idx = index_of.get(value)
            if idx is None:
                raise UnknownVariable(
                    f"unknown variable {value!r} at position {pos}")
            power = 1
            if tokens[i + 1][1] == "^":
                kind, power, pos = tokens[i + 2]
                if kind != "num":
                    raise ParseError("expected an integer", pos)
                i += 2
            exps[idx] += power
            i += 1
            if tokens[i][1] != "*":
                break
            i += 1
            kind, value, pos = tokens[i]
        if sum(exps) > MAX_TERM_DEGREE:
            raise ParseError(f"term of degree {sum(exps)} exceeds the maximum "
                             f"{MAX_TERM_DEGREE}", term_pos)
        if coeff is None:
            coeff = one
        if sign < 0:
            coeff = neg(coeff)
        mono = tuple(exps)
        total = add(payloads.get(mono, zero), coeff)
        if is_zero(total):
            payloads.pop(mono, None)
        else:
            payloads[mono] = total
        if tokens[i][0] == "end":
            return Polynomial.from_payloads(field, nvars, payloads)


# ---------------------------------------------------------------------------
# random generation

def random_homogeneous(field: Field, nvars: int, degree: int,
                       rng: random.Random) -> Polynomial:
    """Dense random nonzero homogeneous polynomial: every degree-`degree`
    monomial gets an independent field.sample coefficient (zeros allowed),
    drawn again while every coefficient is zero."""
    while True:
        terms = {}
        for mono in monomials_of_degree(nvars, degree):
            c = field.sample(rng)
            if not c.is_zero():
                terms[mono] = c
        if terms:
            return Polynomial(field, nvars, terms)
